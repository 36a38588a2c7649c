"""Quick tests of the benchmark's output checks; no workload is run.

    python3 -m pytest perfbench/test_checks.py -q

Each check must pass on a correct output and fail on a corrupted one: a
moved member sample, a flipped verdict, a missing check, a wrong jet
derivative.  The tracer must count nested calls and put the program back,
and the reference clock must rescale work by its probes and give SIGALRM back.
"""
import copy
import os
import signal
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
from confflat import reports  # noqa: E402
from confflat.catalog import default_catalog  # noqa: E402
from confflat.jets import evaluate_jet  # noqa: E402


@pytest.fixture(scope="module")
def catalog():
    return default_catalog()


def _report(item, suite):
    return reports.run_scenario({"schema": 1, "item": item, "suite": suite,
                                 "seed": 0}).as_dict()


def _flip(report, anchor):
    bad = copy.deepcopy(report)
    for c in bad["checks"]:
        if c["anchor"] == anchor:
            c["passed"] = not c["passed"]
    return bad


def _drop(report, anchor):
    bad = copy.deepcopy(report)
    bad["checks"] = [c for c in bad["checks"] if c["anchor"] != anchor]
    return bad


@pytest.mark.parametrize("name,suite,anchor", [
    ("flat_inclusion", "extrinsic", "extrinsic/flat-normal-bundle"),
    ("s2xs2_control", "conformal", "conformal/flatness-negative-control"),
    ("s3xs1", "lightcone", "lightcone/roundtrip"),
])
def test_pointwise_check(catalog, name, suite, anchor):
    item = catalog[name]
    report = _report(name, suite)
    assert checks.check_pointwise_report(report, suite, item) == []
    assert checks.check_pointwise_report(_flip(report, anchor), suite, item)
    assert checks.check_pointwise_report(_drop(report, anchor), suite, item)


def test_negative_control_needs_its_note(catalog):
    report = _report("s2xs2_control", "conformal")
    for c in report["checks"]:
        c["note"] = ""
    assert checks.check_pointwise_report(report, "conformal",
                                         catalog["s2xs2_control"])


def test_ribaucour_check():
    report = {"checks": [{"anchor": a, "residual": 0.0, "tolerance": 1.0,
                          "kind": "max", "passed": True, "note": ""}
                         for a in checks.RIBAUCOUR_ANCHORS],
              "skipped": [], "overall_pass": True}
    assert checks.check_ribaucour_report(report) == []
    anchor = "ribaucour/cone-identity"
    assert checks.check_ribaucour_report(_flip(report, anchor))
    assert checks.check_ribaucour_report(_drop(report, anchor))
    skipped = dict(report, skipped=[{"anchor": "ribaucour/suite",
                                     "reason": "grid too coarse"}])
    assert checks.check_ribaucour_report(skipped)


@pytest.mark.parametrize("name", ["s3xs1", "example2", "sphere_stereographic"])
def test_jet_check(catalog, name):
    fmap = catalog[name].smooth_map
    pt = fmap.domain.sample_points(1, np.random.default_rng(1), 0.2)[0]
    jet = evaluate_jet(fmap, pt)
    assert checks.check_jet_d1(jet.d1, jet.value, fmap.evaluator, pt) == []
    wrong = jet.d1.copy()
    wrong[1, 2] += 1e-5
    assert checks.check_jet_d1(wrong, jet.value, fmap.evaluator, pt)


def _inversion(x, center, radius2):
    d = x - center
    return center + radius2 * d / np.sum(d * d, axis=-1, keepdims=True)


@pytest.fixture(scope="module")
def member_files(catalog, tmp_path_factory):
    """Identity and Moebius-image members of s3xs1 in the documented file
    format, as a pipeline run writes them."""
    item = catalog["s3xs1"]
    dom = item.smooth_map.domain
    pts = checks.grid_points(dom.box, dom.grid_shape)
    ident = np.array([item.smooth_map.value(p) for p in pts])
    members = {"identity": ident}
    for k, center in enumerate(([3.0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, -2.5],
                                [1.5, 1.5, 0, 0, 1.5, 0])):
        members[f"reflection-{k}"] = _inversion(ident, np.array(center), 2.0)
    out = tmp_path_factory.mktemp("members")
    files = {}
    for name, samples in members.items():
        path = out / f"{name}.grid"
        reports.write_grid_samples(path, samples.reshape(dom.grid_shape + (6,)),
                                   dom.grid_shape, dom.box, dom.dim, 6)
        files[path.name] = path.read_bytes()
    return files


def _pipeline_report():
    _, anchors = checks.pipeline_anchors(3)
    return {"checks": [{"anchor": a, "residual": 0.0, "tolerance": 1.0,
                        "kind": "max", "passed": True, "note": ""}
                       for a in sorted(anchors)],
            "skipped": [], "overall_pass": True}


def _check(files, catalog, report=None):
    return checks.check_pipeline(report or _pipeline_report(), files,
                                 catalog["s3xs1"], 3, np.random.default_rng(0))


def _moved(data, index, rel):
    header, samples = checks.parse_grid_file(data)
    flat = samples.reshape(-1, samples.shape[-1]).copy()
    flat[index, 0] *= 1.0 + rel
    end = data.index(b"\n") + 1
    return data[:end] + flat.astype("<f8").tobytes()


def test_pipeline_check_accepts_moebius_members(member_files, catalog):
    assert _check(member_files, catalog) == []


@pytest.mark.parametrize("member", ["identity", "reflection-1"])
@pytest.mark.parametrize("index", [0, 311, 624])
def test_pipeline_check_sees_a_moved_sample(member_files, catalog, member,
                                            index):
    bad = dict(member_files)
    bad[f"{member}.grid"] = _moved(member_files[f"{member}.grid"], index, 1e-6)
    assert _check(bad, catalog)


def test_pipeline_check_sees_missing_members_and_checks(member_files, catalog):
    bad = {k: v for k, v in member_files.items() if k != "reflection-2.grid"}
    assert _check(bad, catalog)
    report = _drop(_pipeline_report(), "pipeline/member-identity/flatness")
    assert _check(member_files, catalog, report)
    report = _flip(_pipeline_report(), "pipeline/nullspace-dimension")
    assert _check(member_files, catalog, report)


def test_tracer_counts_nested_calls_and_restores_the_program():
    from confflat import extrinsic
    from confflat.jets import maps
    from spans import Tracer, layer_metrics
    original = maps.evaluate_jet
    tracer = Tracer()
    tracer.install()
    try:
        assert extrinsic.evaluate_jet is not original
        _report("flat_inclusion", "extrinsic")
    finally:
        tracer.uninstall()
    assert maps.evaluate_jet is original and extrinsic.evaluate_jet is original
    assert reports._SUITE_FUNCS["extrinsic"] is reports.suite_extrinsic
    assert tracer.stat("reports.run_scenario").calls == 1
    assert tracer.stat("reports.suite_extrinsic").calls == 1
    metrics = layer_metrics(tracer)
    assert metrics["jets.evaluate_jet.calls"] >= \
        metrics["extrinsic.fundamental_forms.calls"] > 0
    ff = tracer.stat("extrinsic.fundamental_forms")
    assert 0 < ff.self_s < ff.total_s        # the jets nested inside
    run = tracer.stat("reports.run_scenario")
    assert 0 < run.self_s < run.total_s <= tracer.top_s


def test_reference_clock_rescales_work_by_its_probes(monkeypatch):
    import refclock
    monkeypatch.setattr(refclock, "probe", lambda: refclock.REF_PROBE_S / 2)
    previous = signal.getsignal(signal.SIGALRM)
    clock = refclock.RefClock()
    clock.start()
    end = time.perf_counter() + 3 * refclock.PERIOD_S
    while time.perf_counter() < end:
        pass
    work, ref, probes = clock.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probes) >= 4          # the first, one per period, the last
    assert work == pytest.approx(3 * refclock.PERIOD_S, rel=0.05)
    assert ref == pytest.approx(2 * work)
