"""Command line front end.

Verbs:
  list      show the catalog items and what each is expected to satisfy
  verify    run verification suites for one item and print the report
  pipeline  build the lifted family for one item, write member grids
  report    re-print a stored report file (summary or full JSON)

Exit codes: 0 all checks passed (or negative control confirmed), 1 at least
one check failed, 2 usage or configuration error, 3 the input was refused:
any other toolkit error (a numerical degeneracy, a map that is not an
immersion, a conformal structure that does not hold, ...), with its class
name and message on stderr; a refusing suite leaves the others' checks.
"""
from __future__ import annotations

import argparse
import json
import sys

from .catalog import default_catalog
from .errors import ConfflatError, ConfigError
from .reports import SUITES, run_pipeline, run_scenario


def _print_report(report_dict, full=False, stream=None):
    stream = stream or sys.stdout
    for r in report_dict.get("refused", []):
        print(f"numerical degeneracy: {r['anchor']}: {r['error']}: "
              f"{r['message']}", file=sys.stderr)
    if full:
        print(json.dumps(report_dict, indent=2, sort_keys=True), file=stream)
        return
    for c in report_dict["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        op = "<=" if c["kind"] == "max" else ">="
        note = f"  ({c['note']})" if c.get("note") else ""
        print(f"[{mark}] {c['anchor']}: {c['residual']:.3e} {op} "
              f"{c['tolerance']:.2e}{note}", file=stream)
    for s in report_dict.get("skipped", []):
        print(f"[SKIP] {s['anchor']}: {s['reason']}", file=stream)
    verdict = "PASS" if report_dict["overall_pass"] else "FAIL"
    print(f"overall: {verdict}  (hash {report_dict['hash'][:16]})", file=stream)


def _scenario_from_args(args):
    scenario = {"schema": 1, "item": args.item, "seed": args.seed,
                "tol_scale": args.tol_scale}
    if getattr(args, "suite", None):
        scenario["suite"] = args.suite
    if getattr(args, "count", None) is not None:
        scenario["count"] = args.count
    if args.grid:
        scenario["grid"] = args.grid
    return scenario


def cmd_list(args):
    cat = default_catalog()
    for name in sorted(cat):
        item = cat[name]
        exp = item.expected
        tags = []
        if "k" in exp:
            tags.append(f"k={exp['k']}")
        if "multiplicities" in exp:
            tags.append("mult=" + "+".join(map(str, exp["multiplicities"])))
        if not exp.get("conformally_flat", True):
            tags.append("negative-control")
        if item.conformal is not None and item.conformal.flat_chart is not None:
            tags.append("liftable")
        print(f"{name:22s} {' '.join(tags)}")
        if args.verbose and item.description:
            print(f"{'':22s} {item.description}")
    return 0


def cmd_verify(args):
    scenario = _scenario_from_args(args)
    if args.scenario:
        scenario = args.scenario
    report = run_scenario(scenario)
    body = report.as_dict()
    _print_report(body, full=args.full)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(body, fh, indent=2, sort_keys=True)
    if report.refused:
        return 3
    if report.overall_pass:
        negatives = [c for c in report.checks
                     if c.note == "negative control confirmed"]
        if negatives:
            print("negative control confirmed")
        return 0
    return 1


def cmd_pipeline(args):
    scenario = _scenario_from_args(args)
    if args.scenario:
        scenario = args.scenario
    report = run_pipeline(scenario, out_dir=args.out)
    body = report.as_dict()
    _print_report(body, full=args.full)
    return 0 if report.overall_pass else 1


def cmd_report(args):
    try:
        with open(args.path) as fh:
            body = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read report: {exc}") from exc
    for key in ("checks", "overall_pass", "hash"):
        if key not in body:
            raise ConfigError(f"field '{key}': missing from report file")
    _print_report(body, full=args.full)
    if body.get("refused"):
        return 3
    return 0 if body["overall_pass"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="confflat",
        description="Verification and construction tools for immersions "
                    "with flat normal bundle and their light-cone lifts.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_list = sub.add_parser("list", help="show catalog items")
    p_list.add_argument("-v", "--verbose", action="store_true")
    p_list.set_defaults(func=cmd_list)

    def common(p, with_suite=True):
        p.add_argument("item", nargs="?", help="catalog item name")
        p.add_argument("--scenario", help="JSON scenario file (overrides flags)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol-scale", type=float, default=1.0,
                       help="multiply every tolerance by this factor")
        p.add_argument("--grid", type=int, nargs="+", default=None,
                       help="override the per-axis grid point counts")
        p.add_argument("--full", action="store_true",
                       help="print the full JSON report")
        if with_suite:
            p.add_argument("--suite", choices=SUITES + ("all",), default="all")

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.set_defaults(func=cmd_verify)

    p_pipe = sub.add_parser("pipeline",
                            help="build a family of lifted immersions")
    common(p_pipe, with_suite=False)
    p_pipe.add_argument("--count", type=int, default=3,
                        help="random reflection data to generate (0: lift "
                             "and null space report only)")
    p_pipe.add_argument("--out", help="directory for member grid samples")
    p_pipe.set_defaults(func=cmd_pipeline)

    p_rep = sub.add_parser("report", help="re-print a stored report")
    p_rep.add_argument("path")
    p_rep.add_argument("--full", action="store_true")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.verb in ("verify", "pipeline") and not args.item and not args.scenario:
        print("error: need a catalog item or --scenario", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConfflatError as exc:
        print(f"numerical degeneracy: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
