"""One benchmark process: set up confflat, then run whole rounds of one
workload, check every output, and print the result as the last line.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Started by run.py with the jet backend, the BLAS thread count and
PYTHONPATH pinned.  The first line of output is `READY <t>`, the
CLOCK_MONOTONIC time at which calls into confflat can begin.
"""
import argparse
import json
import os
import shutil
import statistics
import sys
import time

import numpy as np
import scipy

import confflat
from confflat import reports
from confflat.catalog import default_catalog

import checks
import refclock
from spans import Tracer, layer_metrics, peak_rss_mb

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# `verify s3xs1 --suite ribaucour` on a grid finer than the default 5^4; see
# README.md for why 6x6x5x5 and not 6^4
REFINED_GRID = [6, 6, 5, 5]
PIPELINE_COUNT = 3
# per-layer metrics that are times, and so are given in reference seconds
TIME_SUFFIXES = ("_s", ".s", ".ms_per_call")


class Round:
    """Operation tally of one round."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0           # failed operations whose output was wrong
        self.problems = []

    def run(self, label, op):
        """Run one operation.  It fails when it raises or when its output
        check reports a problem; either is recorded with its label."""
        self.attempted += 1
        try:
            problems = op()
        except Exception as exc:   # a failed operation is counted, not fatal
            self.failed += 1
            self.problems.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return
        if problems:
            self.failed += 1
            self.wrong += 1
            self.problems += [f"{label}: {p}" for p in problems]


def round_pointwise(catalog, seed, rnd):
    """The four pointwise suites on every catalog item, then exact first
    derivatives of every item's map against central differences at one
    seeded point."""
    for name in sorted(catalog):
        item = catalog[name]
        for suite in checks.POINTWISE_SUITES:
            scenario = {"schema": 1, "item": name, "suite": suite, "seed": seed}
            rnd.run(f"{name}/{suite}", lambda: checks.check_pointwise_report(
                reports.run_scenario(scenario).as_dict(), suite, item))
    rng = np.random.default_rng(seed)
    for name in sorted(catalog):
        fmap = catalog[name].smooth_map
        pt = fmap.domain.sample_points(1, rng, margin_frac=0.2)[0]

        def jet_op(fmap=fmap, pt=pt):
            jet = confflat.evaluate_jet(fmap, pt)
            return checks.check_jet_d1(jet.d1, jet.value, fmap.evaluator, pt)
        rnd.run(f"{name}/jet", jet_op)


def round_pipeline(catalog, seed, rnd):
    """`pipeline s3xs1 --count 3` on the default grid, member files written
    to a directory under perfbench/out and read back by the benchmark's own
    parser."""
    out = os.path.join(OUT_DIR, f"members-{os.getpid()}")
    shutil.rmtree(out, ignore_errors=True)

    def op():
        report = reports.run_pipeline(
            {"schema": 1, "item": "s3xs1", "count": PIPELINE_COUNT,
             "seed": seed}, out_dir=out)
        files = {}
        for fname in sorted(os.listdir(out)):
            with open(os.path.join(out, fname), "rb") as fh:
                files[fname] = fh.read()
        return checks.check_pipeline(report.as_dict(), files, catalog["s3xs1"],
                                     PIPELINE_COUNT, np.random.default_rng(seed))
    try:
        rnd.run("pipeline/s3xs1", op)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def round_refined(catalog, seed, rnd):
    """`verify s3xs1 --suite ribaucour` on the refined grid."""
    scenario = {"schema": 1, "item": "s3xs1", "suite": "ribaucour",
                "seed": seed, "grid": REFINED_GRID}
    rnd.run("s3xs1/ribaucour", lambda: checks.check_ribaucour_report(
        reports.run_scenario(scenario).as_dict()))


WORKLOADS = {
    "verify-pointwise": round_pointwise,
    "pipeline-s3xs1": round_pipeline,
    "ribaucour-refined": round_refined,
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    catalog = default_catalog()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    round_fn = WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)

    tracer = Tracer() if args.trace else None
    clock = refclock.RefClock()
    walls, raw_walls, traced_walls, layers, shares = [], [], [], [], []
    probes = []
    attempted = failed = wrong = 0
    problems = []
    start = time.perf_counter()
    # Whole rounds until one more would overrun --seconds, at least one.  A
    # traced run alternates untraced and traced rounds, so that the
    # difference of their walls measures the instrument's overhead.  The
    # reference clock runs in untraced rounds only, so that no probe lands
    # inside a layer span; a traced round's times are rescaled by probes
    # taken just before and after it.
    step = 2 if tracer else 1
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        rnd = Round()
        if traced:
            before = refclock.probe()
            tracer.reset()
            tracer.install()
        else:
            clock.start()
        t0 = time.perf_counter()
        try:
            round_fn(catalog, args.seed, rnd)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
            else:
                work, ref, round_probes = clock.stop()
        attempted += rnd.attempted
        failed += rnd.failed
        wrong += rnd.wrong
        problems += rnd.problems
        if traced:
            scale = refclock.REF_PROBE_S / (0.5 * (before + refclock.probe()))
            traced_walls.append(wall * scale)
            layers.append({k: v * scale if k.endswith(TIME_SUFFIXES) else v
                           for k, v in layer_metrics(tracer).items()})
            shares.append(tracer.top_s / wall)
        else:
            walls.append(ref)
            raw_walls.append(work)
            probes.append(statistics.median(round_probes))
        rounds = len(walls) + len(traced_walls)
        elapsed = time.perf_counter() - start
        if rounds % step == 0 and elapsed * (1 + step / rounds) > args.seconds:
            break

    result = {"workload": args.workload, "seed": args.seed,
              "attempted": attempted, "failed": failed,
              "correct": wrong == 0,
              "problems": problems[:20], "walls_s": walls,
              "raw_walls_s": raw_walls, "round_probes_s": probes,
              "peak_rss_mb": peak_rss_mb(),
              "backend": confflat.jets.BACKEND,
              "numpy": np.__version__, "scipy": scipy.__version__}
    if tracer is not None:
        per_layer = {k: statistics.median(r[k] for r in layers)
                     for k in layers[0]}
        per_layer["trace.overhead_s"] = (statistics.median(traced_walls)
                                         - statistics.median(walls))
        per_layer["trace.attributed_share"] = statistics.median(shares)
        result["per_layer"] = per_layer
        result["traced_walls_s"] = traced_walls
        result["spans"] = {k: [st.calls, st.total_s, st.self_s]
                           for k, st in sorted(tracer.stats.items())
                           if st.calls}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
