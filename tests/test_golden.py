"""The golden table: every anchor of the catalog's reports, with its verdict
and the size of its residual, held against `tests/golden.json`.

The set is each catalog item under each suite and under `all`, and
`pipeline ITEM --count 3` of the two liftable items, at seeds 0 and 1.  An
entry records per anchor [passed, log10 |residual|] (null for a residual of
0, rounded to 0.01), the skipped anchors and the refused suites with their
error.  A current report holds its entry when it has the same anchors,
skips, refusals and verdicts, and each residual is within one decade of its
entry or both are under the table's `floor`.

The floor is where rounding ends.  The exact routes read between 0 and
1.4e-14 on the set, and a change of operation order can move such a
residual by more than a decade (0 to 1e-16), so under 1e-13 a residual says
only that the route is exact.  The grid routes (frame transport, analytic
family) read truncation errors of O(h^2), 3e-3 to 3e-2 on the 5^4 grids,
and the counts, flags and margins of the `min` checks read 0 or O(1); all
of these sit far from the floor and are held by the decade alone.

The test never writes the table.  A change that moves an entry edits it, so
the diff is the record of what moved;
`PYTHONPATH=src python tests/test_golden.py > tests/golden.json` prints the
table for the code at hand.
"""
import json
import math
import re
import sys
from pathlib import Path

import pytest

from confflat import reports
from confflat.catalog import default_catalog
from confflat.reports import SUITES, run_pipeline, run_scenario

TABLE = Path(__file__).with_name("golden.json")
SEEDS = (0, 1)
PIPELINES = ("s3xs1", "cylinder_r1xs3")


def _size(residual):
    r = abs(float(residual))
    return None if r == 0.0 else round(math.log10(r), 2)


def _summary(report):
    checks = {}
    for c in report.checks:
        assert c.anchor not in checks, c.anchor
        checks[c.anchor] = [c.passed, _size(c.residual)]
    return {"checks": checks,
            "skipped": sorted(s["anchor"] for s in report.skipped),
            "refused": {r["anchor"]: r["error"] for r in report.refused}}


def run_entry(key):
    """The summary of one entry of the set, 'ITEM/SUITE/SEED' or
    'pipeline/ITEM/SEED'."""
    head, item, seed = key.split("/")
    if head == "pipeline":
        return _summary(run_pipeline({"schema": 1, "item": item,
                                      "seed": int(seed), "count": 3}))
    return _summary(run_scenario({"schema": 1, "item": head, "suite": item,
                                  "seed": int(seed)}))


def golden_keys():
    keys = [f"{name}/{suite}/{seed}" for name in sorted(default_catalog())
            for suite in SUITES + ("all",) for seed in SEEDS]
    return keys + [f"pipeline/{name}/{seed}" for name in PIPELINES
                   for seed in SEEDS]


def _within(got, want, floor):
    low = math.log10(floor)
    if (got is None or got <= low) and (want is None or want <= low):
        return True
    return got is not None and want is not None and abs(got - want) <= 1.0


def mismatches(key, got, want, floor):
    """What differs between an entry's current summary and its record, one
    line per difference, each naming the entry and the anchor."""
    out = [f"{key}: {part} {got[part]} != {want[part]}"
           for part in ("skipped", "refused") if got[part] != want[part]]
    if set(got["checks"]) != set(want["checks"]):
        out.append(f"{key}: anchors {sorted(got['checks'])} != "
                   f"{sorted(want['checks'])}")
    for anchor, (passed, size) in want["checks"].items():
        if anchor not in got["checks"]:
            continue
        now_passed, now_size = got["checks"][anchor]
        if now_passed != passed:
            out.append(f"{key} {anchor}: passed {now_passed} != {passed}")
        if not _within(now_size, size, floor):
            out.append(f"{key} {anchor}: log10 residual {now_size} != {size}")
    return out


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


def test_reports_match_the_golden_table(table):
    """Every entry of the set against its record: the table covers the
    set, and no anchor, skip, refusal, verdict or residual size moved."""
    entries = table["entries"]
    keys = golden_keys()
    assert sorted(keys) == sorted(entries)
    found = []
    for key in keys:
        found += mismatches(key, run_entry(key), entries[key], table["floor"])
    assert not found, "\n".join(found)


def test_golden_table_sees_a_residual_rise_at_a_passing_verdict(table,
                                                              monkeypatch):
    """One residual of one suite scaled by 1e4, still far inside its
    tolerance: the comparison fails and names the anchor, and only it."""
    anchor, key = "extrinsic/flat-normal-bundle", "example2/extrinsic/0"
    suite = reports._SUITE_FUNCS["extrinsic"]

    def scaled(run):
        checks, skipped = suite(run)
        for c in checks:
            if c.anchor == anchor:
                c.residual *= 1e4
                assert c.evaluate().passed
        return checks, skipped

    monkeypatch.setitem(reports._SUITE_FUNCS, "extrinsic", scaled)
    found = mismatches(key, run_entry(key), table["entries"][key],
                       table["floor"])
    assert len(found) == 1 and found[0].startswith(f"{key} {anchor}: log10")


def test_within_one_decade_or_under_the_floor():
    assert _within(-15.0, -14.01, 1e-13) and _within(None, -15.5, 1e-13)
    assert _within(-2.0, -2.9, 1e-13) and not _within(-2.0, -3.1, 1e-13)
    assert not _within(-12.5, -15.0, 1e-13) and not _within(None, -1.0, 1e-13)


if __name__ == "__main__":
    text = json.dumps({"floor": 1e-13, "entries": {
        key: run_entry(key) for key in golden_keys()}}, indent=1)
    # one anchor, or one entry's skips, to a line
    sys.stdout.write(re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: "[" + ", ".join(
        s.strip() for s in m.group(1).split(",")) + "]", text) + "\n")
