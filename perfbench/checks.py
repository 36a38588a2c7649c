"""Output checks of the benchmark.

Every check compares an output of the program with a computation made here,
apart from the program, or with a property the method must have.  None
compares with a stored copy of an earlier output.  Each check returns a list
of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import json

import numpy as np

POINTWISE_SUITES = ("extrinsic", "principal", "conformal", "lightcone")

RIBAUCOUR_ANCHORS = (
    "ribaucour/frame-transport", "ribaucour/analytic-family",
    "ribaucour/nullspace-dimension", "ribaucour/analytic-projection",
    "ribaucour/reflection-cone-defect", "ribaucour/reflection-metric",
    "ribaucour/reflection-projection-flatness", "ribaucour/cone-identity",
    "ribaucour/scaling-invariance",
)

NEGATIVE_NOTE = "negative control confirmed"


def required_anchors(suite, item):
    """The checks a suite must report for a catalog item, decided from the
    item's declared structure and expectations alone."""
    exp = item.expected
    conf = item.conformal
    flat = exp.get("conformally_flat", True)
    if suite == "extrinsic":
        req = {"extrinsic/flat-normal-bundle", "extrinsic/ricci-agreement"}
        if conf is not None:
            req.add("extrinsic/conformal-metric")
    elif suite == "principal":
        req = {"principal/reconstruction", "principal/holonomic-offdiag"}
        if "k" in exp:
            req.add("principal/properness-k")
        if "multiplicities" in exp:
            req.add("principal/multiplicities")
        if flat:
            req.add("principal/single-high-multiplicity")
        if exp.get("k", 0) >= 3:
            req.add("principal/separation")
    elif suite == "conformal":
        req = {"conformal/flatness" if flat
               else "conformal/flatness-negative-control"}
        if conf is not None:
            req |= {"conformal/q-offblock", "conformal/q-duality"}
            if max(exp.get("multiplicities", (1,))) > 1:
                req.add("conformal/q-high-multiplicity")
    elif suite == "lightcone":
        req = set()
        if conf is not None and conf.flat_chart is not None:
            req = {"lightcone/model-second-fundamental",
                   "lightcone/cone-membership", "lightcone/roundtrip",
                   "lightcone/lift-second-fundamental",
                   "lightcone/lift-holonomic", "lightcone/lift-k-match"}
    else:
        raise ValueError(f"no required checks for suite {suite!r}")
    return req


def _verdicts(report):
    """Each check's verdict recomputed from its residual and tolerance must
    agree with the reported one and be a pass, as must the overall verdict."""
    problems = []
    for c in report["checks"]:
        if c["kind"] == "max":
            ok = c["residual"] <= c["tolerance"]
        else:
            ok = c["residual"] >= c["tolerance"]
        if c["passed"] != ok:
            problems.append(f"{c['anchor']}: reported passed={c['passed']} but "
                            f"residual {c['residual']:.3e} vs tolerance "
                            f"{c['tolerance']:.3e} says {ok}")
        elif not ok:
            problems.append(f"{c['anchor']}: failed ({c['residual']:.3e} "
                            f"against {c['tolerance']:.3e})")
    if report["overall_pass"] != all(c["passed"] for c in report["checks"]):
        problems.append("overall verdict disagrees with the checks")
    elif not report["overall_pass"]:
        problems.append("overall verdict is FAIL")
    return problems


def _missing(report, required):
    present = {c["anchor"] for c in report["checks"]}
    return [f"{a}: missing from the report" for a in sorted(required - present)]


def check_pointwise_report(report, suite, item):
    """A pointwise suite's report: the catalog expectation holds, every
    required check is present, and every verdict is a true pass."""
    problems = _missing(report, required_anchors(suite, item))
    problems += _verdicts(report)
    if suite == "conformal" and not item.expected.get("conformally_flat", True):
        neg = [c for c in report["checks"]
               if c["anchor"] == "conformal/flatness-negative-control"]
        if not neg or neg[0]["note"] != NEGATIVE_NOTE:
            problems.append(f"conformal: item is a negative control but the "
                            f"report does not carry {NEGATIVE_NOTE!r}")
    return problems


def check_ribaucour_report(report):
    """All nine ribaucour checks are present and pass, and none is skipped."""
    problems = _missing(report, set(RIBAUCOUR_ANCHORS)) + _verdicts(report)
    problems += [f"{s['anchor']}: skipped ({s['reason']})"
                 for s in report["skipped"]]
    return problems


def central_difference_d1(evaluator, point, h):
    """First derivatives (n, N) by central differences of the evaluator on
    plain floats; the truncation error is O(h^2)."""
    point = np.asarray(point, float)
    rows = []
    for i in range(point.size):
        e = np.zeros_like(point)
        e[i] = h
        plus = np.array([float(c) for c in evaluator(list(point + e))])
        minus = np.array([float(c) for c in evaluator(list(point - e))])
        rows.append((plus - minus) / (2.0 * h))
    return np.array(rows)


JET_STEP = 1e-4
JET_TOL = 100.0 * JET_STEP ** 2   # relative to the scale of the map


def check_jet_d1(d1, value, evaluator, point, h=JET_STEP):
    """Exact first derivatives against central differences, to O(h^2)."""
    ref = central_difference_d1(evaluator, point, h)
    scale = max(1.0, float(np.max(np.abs(value))), float(np.max(np.abs(ref))))
    err = float(np.max(np.abs(np.asarray(d1) - ref)))
    if not err <= JET_TOL * scale:
        return [f"jet d1 at {np.round(point, 4).tolist()} differs from "
                f"central differences by {err:.3e} (tolerance "
                f"{JET_TOL * scale:.3e})"]
    return []


def parse_grid_file(data: bytes):
    """The documented member format: one JSON header line (n, N_amb,
    grid_shape, box), then row-major little-endian float64 samples."""
    end = data.index(b"\n")
    header = json.loads(data[:end].decode())
    shape = tuple(int(s) for s in header["grid_shape"])
    n_amb = int(header["N_amb"])
    body = data[end + 1:]
    expected = 8 * n_amb * int(np.prod(shape))
    if len(body) != expected:
        raise ValueError(f"sample block holds {len(body)} bytes, header "
                         f"implies {expected}")
    return header, np.frombuffer(body, dtype="<f8").reshape(shape + (n_amb,))


def grid_points(box, shape):
    """Row-major grid points of a box, shape (prod(shape), dim)."""
    axes = [np.linspace(lo, hi, s) for (lo, hi), s in zip(box, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(box))


def check_header(header, item):
    dom = item.smooth_map.domain
    problems = []
    if header["n"] != dom.dim or header["N_amb"] != item.smooth_map.codomain_dim:
        problems.append(f"header dimensions {header['n']}, {header['N_amb']} "
                        f"do not match the catalog map")
    if tuple(header["grid_shape"]) != tuple(dom.grid_shape):
        problems.append(f"header grid {header['grid_shape']} is not the "
                        f"catalog grid {list(dom.grid_shape)}")
    if not np.allclose(np.asarray(header["box"], float),
                       np.asarray(dom.box, float), rtol=0, atol=1e-15):
        problems.append("header box is not the catalog box")
    return problems


IDENTITY_TOL = 1e-10


def check_identity_member(samples, item):
    """The identity member is the catalog map itself at the grid points."""
    dom = item.smooth_map.domain
    pts = grid_points(dom.box, dom.grid_shape)
    ref = np.array([[float(c) for c in item.smooth_map.evaluator(list(p))]
                    for p in pts])
    flat = samples.reshape(len(pts), -1)
    if not np.all(np.isfinite(flat)):
        return ["identity member has non-finite samples"]
    err = float(np.max(np.abs(flat - ref)))
    if not err <= IDENTITY_TOL:
        return [f"identity member differs from the catalog map by {err:.3e}"]
    return []


CROSS_RATIO_TOL = 1e-9


def cross_ratios(x, quads):
    """|a-b||c-d| / (|a-c||b-d|) for each quadruple of sample indices."""
    a, b, c, d = (x[quads[:, k]] for k in range(4))
    norm = np.linalg.norm
    return (norm(a - b, axis=1) * norm(c - d, axis=1)
            / (norm(a - c, axis=1) * norm(b - d, axis=1)))


def quadruples(count, rng):
    """One quadruple per sample, led by that sample, the other three drawn
    at random among the rest, so that every sample enters some ratio."""
    quads = np.empty((count, 4), int)
    for i in range(count):
        others = rng.choice(count - 1, size=3, replace=False)
        quads[i, 0] = i
        quads[i, 1:] = others + (others >= i)
    return quads


def check_mobius_member(samples, identity, rng, name="member"):
    """A reflection member is a Moebius image of the identity, so absolute
    cross-ratios of grid samples are unchanged.  Samples on the projection
    pole are NaN and left out."""
    x = identity.reshape(-1, identity.shape[-1])
    y = samples.reshape(-1, samples.shape[-1])
    keep = np.where(np.all(np.isfinite(y), axis=1))[0]
    if keep.size < 4:
        return [f"{name}: fewer than four finite samples"]
    quads = keep[quadruples(keep.size, rng)]
    cx = cross_ratios(x, quads)
    cy = cross_ratios(y, quads)
    err = float(np.max(np.abs(cy - cx) / cx))
    if not err <= CROSS_RATIO_TOL:
        return [f"{name}: cross-ratios change by {err:.3e} relative"]
    return []


def pipeline_anchors(count):
    names = ["identity"] + [f"reflection-{k}" for k in range(count)]
    return names, ({"pipeline/nullspace-dimension"}
                   | {f"pipeline/member-{m}/{kind}" for m in names
                      for kind in ("flatness", "holonomic")})


def check_pipeline(report, files, item, count, rng):
    """The pipeline report and its member files: the identity and every
    reflection member are retained and pass their postchecks, the identity
    file is the catalog map, and each reflection file is a Moebius image of
    it.  `files` maps member file names to their bytes."""
    names, required = pipeline_anchors(count)
    problems = _missing(report, required) + _verdicts(report)
    parsed = {}
    for name in names:
        data = files.get(f"{name}.grid")
        if data is None:
            problems.append(f"{name}.grid: not written")
            continue
        try:
            header, samples = parse_grid_file(data)
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            problems.append(f"{name}.grid: unreadable ({exc})")
            continue
        bad = check_header(header, item)
        if bad:
            problems += [f"{name}.grid: {p}" for p in bad]
            continue
        parsed[name] = samples
    if "identity" in parsed:
        problems += check_identity_member(parsed["identity"], item)
        for name in names[1:]:
            if name in parsed:
                problems += check_mobius_member(parsed[name], parsed["identity"],
                                                rng, name)
    return problems
