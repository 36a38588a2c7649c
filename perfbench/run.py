"""Benchmark command for confflat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  It measures set-up in fresh
interpreters, then runs whole rounds of the workload in one worker process
(perfbench/worker.py), as many as fit in S seconds but at least one, and
prints one JSON object as the last line of its output: whether every checked
output was correct, the operations attempted and failed, and the metrics.
With --trace 0 these are the end-to-end metrics (wall_s, peak_rss_mb,
setup_s), wall_s in reference seconds (perfbench/refclock.py); with
--trace 1 the per-layer metrics of perfbench/spans.py.  The
full result, with the pinned settings and the machine, is also written to
perfbench/out/.

Exits 2 without a result when the checkout holds no confflat sources, and 1
when the worker fails or runs out of time.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("verify-pointwise", "pipeline-s3xs1", "ribaucour-refined")
SETUP_RUNS = 5            # set-up samples besides the worker's own
TIME_LIMIT_S = 170.0      # whole command, set-up samples included
JET_BACKEND = "python"    # the numpy kernels, as under the tier-1 tests


def _unit(name):
    if name.endswith((".calls", ".points", ".fundamental_forms_calls",
                      ".cols", ".dimension")):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".ms_per_call"):
        return "ms"
    if name.endswith(".rss_mb"):
        return "MB"
    if name.endswith("_share"):
        return "ratio"
    return "s"


def pinned_env():
    threads = str(min(2, os.cpu_count() or 1))
    env = dict(os.environ)
    env.update(CONFFLAT_JET_BACKEND=JET_BACKEND, PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(args, env, deadline):
    """Run perfbench/worker.py to its end.  Returns the set-up time (spawn
    to READY) and the remaining output lines; raises on failure."""
    t_spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, WORKER] + args, env=env, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker {' '.join(args)} ran out of time")
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    lines = out.splitlines()
    ready = next(float(ln.split()[1]) for ln in lines if ln.startswith("READY "))
    return ready - t_spawn, lines


def machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "cores": os.cpu_count(),
            "python": platform.python_version()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "confflat", "__init__.py")):
        print("error: no confflat sources under src/ in this checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = pinned_env()
    try:
        setup = [run_child(["--setup-only"], env, deadline)[0]
                 for _ in range(SETUP_RUNS)]
        worker_setup, lines = run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, deadline)
    except (RuntimeError, StopIteration) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(worker_setup)
    res = json.loads(lines[-1])

    if args.trace:
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in res["per_layer"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(res["walls_s"]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    record = dict(res, setup_s=setup, machine=machine(),
                  pinned={"CONFFLAT_JET_BACKEND": env["CONFFLAT_JET_BACKEND"],
                          "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"]},
                  metrics=metrics)
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for p in res["problems"]:
        print(f"problem: {p}")
    print(f"rounds {len(res['walls_s'])}, backend {res['backend']}, "
          f"BLAS threads {env['OPENBLAS_NUM_THREADS']}, "
          f"cores {os.cpu_count()}, numpy {res['numpy']}, "
          f"scipy {res['scipy']}; full record in "
          f"{os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
