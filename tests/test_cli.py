"""Scenario validation, report determinism, the grid-sample format, and the
command line entry point with its exit-code contract."""
import json

import numpy as np
import pytest

from confflat.cli import main
from confflat.errors import ConfigError
from confflat.reports import (_SUITE_FUNCS, load_scenario, read_grid_samples,
                              run_pipeline, run_scenario, write_grid_samples)


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
            _SUITE_FUNCS[suite](item, load_scenario(
                {"schema": 1, "item": name, "suite": suite}))
            assert len(fundamental_forms_calls) == expected, (name, suite)
            assert all(np.ndim(p) == 2 for p in fundamental_forms_calls)


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
