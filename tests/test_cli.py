"""Scenario validation, report determinism, the grid-sample format, and the
command line entry point with its exit-code contract, and the modules a
process loads at start-up."""
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from confflat.cli import main
from confflat.errors import ConfigError, NotApplicable
from confflat.reports import (_SUITE_FUNCS, Run, load_scenario,
                              read_grid_samples, run_pipeline, run_scenario,
                              write_grid_samples)


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------

def test_scenario_defaults():
    sc = load_scenario({"schema": 1, "item": "s3xs1"})
    assert sc["seed"] == 0 and sc["suite"] == "all"
    assert sc["tol_scale"] == 1.0


@pytest.mark.parametrize("raw,field", [
    ({"item": "s3xs1"}, "schema"),
    ({"schema": 2, "item": "s3xs1"}, "schema"),
    ({"schema": 1}, "item"),
    ({"schema": 1, "item": "s3xs1", "suite": "bogus"}, "suite"),
    ({"schema": 1, "item": "s3xs1", "seed": -1}, "seed"),
    ({"schema": 1, "item": "s3xs1", "tol_scale": 0.0}, "tol_scale"),
    ({"schema": 1, "item": "s3xs1", "grid": [2, 5, 5, 5]}, "grid"),
    ({"schema": 1, "item": "s3xs1", "samples": 0}, "samples"),
    ({"schema": 1, "item": "s3xs1", "samples": "6"}, "samples"),
    ({"schema": 1, "item": "s3xs1", "count": -2}, "count"),
    ({"schema": 1, "item": "s3xs1", "count": "2"}, "count"),
    ({"schema": 1, "item": "s3xs1", "tol_scale": float("inf")}, "tol_scale"),
    ({"schema": 1, "item": "s3xs1", "tol_scale": float("nan")}, "tol_scale"),
    ({"schema": 1, "item": "s3xs1", "tol_scale": True}, "tol_scale"),
])
def test_scenario_rejections_name_the_field(raw, field):
    with pytest.raises(ConfigError) as err:
        load_scenario(raw)
    assert field in str(err.value)


def test_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_scenario(str(path))


def test_unknown_item_rejected():
    with pytest.raises(ConfigError) as err:
        run_scenario({"schema": 1, "item": "does_not_exist"})
    assert "item" in str(err.value)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def test_report_determinism():
    sc = {"schema": 1, "item": "s3xs1", "suite": "conformal", "seed": 4}
    a = run_scenario(sc).as_dict()
    b = run_scenario(sc).as_dict()
    assert a["hash"] == b["hash"]
    assert json.dumps(a["checks"], sort_keys=True) == \
        json.dumps(b["checks"], sort_keys=True)


def test_report_hash_excludes_timings():
    sc = {"schema": 1, "item": "s3xs1", "suite": "extrinsic"}
    rep = run_scenario(sc)
    h0 = rep.as_dict()["hash"]
    rep.timings["extrinsic"] = 999.0
    assert rep.as_dict()["hash"] == h0


def test_report_seed_changes_hash():
    a = run_scenario({"schema": 1, "item": "s3xs1", "suite": "extrinsic",
                      "seed": 0}).as_dict()
    b = run_scenario({"schema": 1, "item": "s3xs1", "suite": "extrinsic",
                      "seed": 1}).as_dict()
    assert a["hash"] != b["hash"]


def test_pointwise_suites_make_one_fundamental_forms_pass(
        catalog, fundamental_forms_calls):
    """Each pointwise suite evaluates extrinsic data in batched passes over
    its sample points, which all of its checks share: one per item, and for
    the light-cone suite one each of the model, the lift and the item."""
    for name, item in sorted(catalog.items()):
        conf = item.conformal
        liftable = conf is not None and conf.flat_chart is not None
        for suite, expected in (("extrinsic", 1), ("principal", 1),
                                ("conformal", 1),
                                ("lightcone", 3 if liftable else 0)):
            fundamental_forms_calls.clear()
            try:
                _SUITE_FUNCS[suite](Run(item, load_scenario(
                    {"schema": 1, "item": name, "suite": suite})))
            except NotApplicable:         # the run records it as a skip
                assert suite == "lightcone" and not liftable, (name, suite)
            assert len(fundamental_forms_calls) == expected, (name, suite)
            assert all(np.ndim(p) == 2 for p in fundamental_forms_calls)


def _record_calls(monkeypatch, module, name):
    """A list that gets (args, result) of every call of `module.name` made
    through a confflat module while the test runs."""
    original = getattr(module, name)
    calls = []

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("confflat")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, recording)
    return calls


@pytest.fixture
def layer_calls(monkeypatch):
    from confflat import extrinsic, lightcone, principal
    return {name: _record_calls(monkeypatch, module, name) for module, name in
            ((extrinsic, "fundamental_forms"), (principal, "_principal_pass"),
             (extrinsic, "intrinsic_curvatures"), (lightcone, "flat_lift"))}


def test_one_run_makes_one_pass_per_layer(catalog, layer_calls, monkeypatch):
    """One run of the four pointwise suites makes one order-3
    fundamental_forms pass of the item, one principal pass and one
    intrinsic_curvatures of those data, and at most one flat lift."""
    from confflat import reports
    monkeypatch.setattr(reports, "SUITES", reports.SUITES[:4])
    for name, item in sorted(catalog.items()):
        for calls in layer_calls.values():
            calls.clear()
        report = run_scenario({"schema": 1, "item": name, "seed": 0})
        assert list(report.timings) == list(reports.SUITES), name
        exts = [res for args, res in layer_calls["fundamental_forms"]
                if args[0].name == item.smooth_map.name]
        assert len(exts) == 1, name
        for layer in ("_principal_pass", "intrinsic_curvatures"):
            of_item = [args for args, _ in layer_calls[layer]
                       if args[0] is exts[0]]
            assert len(of_item) == 1, (name, layer)
        assert len(layer_calls["intrinsic_curvatures"]) == 1, name
        assert len(layer_calls["flat_lift"]) <= 1, name


def test_extrinsic_suite_makes_no_principal_pass_and_no_lift(layer_calls):
    """The run context computes a layer when a suite first reads it: the
    extrinsic suite alone makes one pass of the item and nothing else."""
    run_scenario({"schema": 1, "item": "s3xs1", "suite": "extrinsic"})
    assert len(layer_calls["fundamental_forms"]) == 1
    assert layer_calls["_principal_pass"] == []
    assert layer_calls["intrinsic_curvatures"] == []
    assert layer_calls["flat_lift"] == []


def test_negative_control_report():
    rep = run_scenario({"schema": 1, "item": "s2xs2_control",
                        "suite": "conformal"})
    assert rep.overall_pass
    notes = [c.note for c in rep.checks]
    assert "negative control confirmed" in notes


def test_grid_samples_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    samples = rng.standard_normal((3, 4, 2, 6))
    path = tmp_path / "member.grid"
    box = ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0))
    write_grid_samples(path, samples, (3, 4, 2), box, 3, 6)
    header, back = read_grid_samples(path)
    assert header["n"] == 3 and header["N_amb"] == 6
    assert header["grid_shape"] == [3, 4, 2]
    assert np.array_equal(back.reshape(samples.shape), samples)


def test_pipeline_refuses_coarse_grid():
    with pytest.raises(ConfigError) as err:
        run_pipeline({"schema": 1, "item": "s3xs1", "grid": [4, 5, 5, 5]})
    assert "grid" in str(err.value)


def test_pipeline_refuses_unliftable_item():
    with pytest.raises(ConfigError):
        run_pipeline({"schema": 1, "item": "s2xpseudosphere"})


def _stub_family(monkeypatch, members):
    """Replace the family construction by a fixed result, so that a test
    sees only what run_pipeline makes of it."""
    from types import SimpleNamespace

    from confflat import ribaucour as rb
    fam = SimpleNamespace(
        grid=SimpleNamespace(lift=SimpleNamespace(model=SimpleNamespace(N=4)),
                             shape=(5, 5, 5, 5), n=4),
        nullspace=SimpleNamespace(dimension=9), members=members)
    monkeypatch.setattr(rb, "conformally_flat_family", lambda *a, **k: fam)


def test_pipeline_grid_enters_scenario_and_hash(monkeypatch):
    _stub_family(monkeypatch, [])
    base = {"schema": 1, "item": "s3xs1", "count": 0}
    default = run_pipeline(base).as_dict()
    refined = run_pipeline(dict(base, grid=[5, 5, 5, 6])).as_dict()
    assert "grid" not in default["scenario"]
    assert refined["scenario"]["grid"] == [5, 5, 5, 6]
    assert refined["hash"] != default["hash"]


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "s3xs1" in out and "negative-control" in out


def test_cli_verify_pass(capsys):
    code = main(["verify", "s3xs1", "--suite", "extrinsic"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out and "overall: PASS" in out


def test_cli_verify_negative_control(capsys):
    code = main(["verify", "s2xs2_control", "--suite", "conformal"])
    out = capsys.readouterr().out
    assert code == 0
    assert "negative control confirmed" in out


def test_cli_tol_scale_can_fail(capsys):
    """Shrinking every tolerance far enough turns machine noise into a
    failure: exit code 1."""
    code = main(["verify", "s3xs1", "--suite", "extrinsic",
                 "--tol-scale", "1e-12"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL]" in out


def test_cli_usage_errors(capsys):
    assert main(["verify"]) == 2
    assert main(["verify", "nosuch"]) == 2
    assert main(["bogus"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify", "--scenario",
     '{"schema":1,"item":"s3xs1","suite":"extrinsic","samples":0}'],
    ["verify", "--scenario", '{"schema":1,"item":"s3xs1","samples":"6"}'],
    ["pipeline", "--scenario", '{"schema":1,"item":"s3xs1","count":"2"}'],
    ["pipeline", "s3xs1", "--count", "-2"],
    ["verify", "s3xs1", "--tol-scale", "inf"],
])
def test_cli_refuses_bad_counts(argv, capsys):
    assert main(argv) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("error", ["DimensionAmbiguityError", "ImmersionError",
                                   "ConformalStructureError",
                                   "DegenerateInputError"])
def test_cli_degeneracy_exit_code(monkeypatch, capsys, error):
    """Every toolkit error that reaches the command line is a refused input:
    exit code 3 with the class name on stderr."""
    from confflat import cli, errors

    def boom(_):
        raise getattr(errors, error)("input refused")

    monkeypatch.setattr(cli, "run_scenario", boom)
    assert main(["verify", "s3xs1"]) == 3
    err = capsys.readouterr().err
    assert "numerical degeneracy" in err and error in err


def test_cli_refused_suite_keeps_the_other_suites(tmp_path, capsys):
    """cone_t3's ribaucour suite refuses its input: the report keeps the
    four pointwise suites' checks, which pass, holds the refusal with its
    class and message, and the run exits 3; so does re-printing the stored
    report."""
    out_file = tmp_path / "rep.json"
    assert main(["verify", "cone_t3", "--out", str(out_file)]) == 3
    out, err = capsys.readouterr()
    passed = {line.split()[1].split("/")[0] for line in out.splitlines()
              if line.startswith("[PASS]")}
    assert passed == {"extrinsic", "principal", "conformal", "lightcone"}
    assert "[FAIL]" not in out and "overall: FAIL" in out
    assert "numerical degeneracy: ribaucour/suite: DimensionAmbiguityError" in err
    body = json.loads(out_file.read_text())
    assert body["refused"] == [{"anchor": "ribaucour/suite",
                                "error": "DimensionAmbiguityError",
                                "message": body["refused"][0]["message"]}]
    assert not body["overall_pass"]
    assert main(["report", str(out_file)]) == 3
    assert "DimensionAmbiguityError" in capsys.readouterr().err


def test_refusals_enter_the_hash_only_when_present():
    """A report without a refusal hashes as before refusals were kept."""
    rep = run_scenario({"schema": 1, "item": "s3xs1", "suite": "extrinsic"})
    assert "refused" not in json.loads(rep.hash_section())
    rep.refused.append({"anchor": "principal/suite", "error": "X",
                        "message": "m"})
    assert "refused" in json.loads(rep.hash_section())
    assert not rep.overall_pass


def test_programming_error_in_a_suite_propagates(monkeypatch):
    """Only toolkit errors become a suite's refusal; a bug ends the run."""
    from confflat import reports

    def broken(run):
        raise RuntimeError("bug in a suite")

    monkeypatch.setitem(reports._SUITE_FUNCS, "principal", broken)
    with pytest.raises(RuntimeError, match="bug in a suite"):
        run_scenario({"schema": 1, "item": "s3xs1", "suite": "principal"})


def test_cli_programming_errors_propagate(monkeypatch):
    from confflat import cli

    def boom(_):
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "run_scenario", boom)
    with pytest.raises(RuntimeError):
        main(["verify", "s3xs1"])


def test_every_error_class_is_used():
    """Each class in confflat.errors is raised somewhere in the package or
    named by the command line, so unused classes cannot pile up."""
    import inspect
    from pathlib import Path

    from confflat import cli, errors
    package = Path(errors.__file__).parent
    source = "\n".join(p.read_text() for p in package.rglob("*.py"))
    cli_source = Path(cli.__file__).read_text()
    classes = [name for name, obj in inspect.getmembers(errors, inspect.isclass)
               if obj.__module__ == errors.__name__]
    unused = [name for name in classes
              if f"raise {name}(" not in source and name not in cli_source]
    assert classes and not unused


def test_cli_report_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "rep.json"
    assert main(["verify", "s3xs1", "--suite", "extrinsic",
                 "--out", str(out_file)]) == 0
    capsys.readouterr()
    assert main(["report", str(out_file)]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_report_rejects_malformed(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{}")
    assert main(["report", str(path)]) == 2


def test_cli_determinism(tmp_path, capsys):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    for f in (f1, f2):
        assert main(["verify", "s3xs1", "--suite", "principal", "--seed", "3",
                     "--out", str(f)]) == 0
    capsys.readouterr()
    a, b = json.loads(f1.read_text()), json.loads(f2.read_text())
    assert a["hash"] == b["hash"]


# ---------------------------------------------------------------------------
# start-up
# ---------------------------------------------------------------------------

_STARTUP_SCRIPT = """
import json, sys, tempfile
import confflat.cli
from confflat.catalog import default_catalog
from confflat.reports import run_pipeline, run_scenario
default_catalog()
passed = [run_scenario({"schema": 1, "item": "s3xs1", "suite": suite,
                        "seed": 0}).overall_pass
          for suite in ("extrinsic", "principal", "conformal", "lightcone")]
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
loaded = scipy_modules()
with tempfile.TemporaryDirectory() as out:
    pipeline = run_pipeline({"schema": 1, "item": "s3xs1", "count": 3,
                             "seed": 0}, out_dir=out).overall_pass
print(json.dumps({"passed": passed, "loaded": loaded, "pipeline": pipeline,
                  "pipeline_loaded": scipy_modules()}))
"""


def test_pointwise_layers_load_no_scipy():
    """In a fresh interpreter, importing the command line, building the
    catalog and running the four pointwise suites on s3xs1 load no scipy
    module, and neither does the pipeline run after them, which passes:
    only the ribaucour suite's null-space basis loads scipy."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["passed"] == [True] * 4
    assert result["loaded"] == []
    assert result["pipeline"]
    assert result["pipeline_loaded"] == []
