"""Verification suites and machine-readable reports.

A scenario selects a catalog item and a suite; running it produces a Report
whose checks each carry a stable anchor string, the measured residual, the
tolerance, and the direction of the comparison; a suite that refuses its
input is listed under `refused` instead.  Reports serialize to
canonical JSON so that identical scenario + seed gives byte-identical
hash-relevant output (timings and environment are excluded from the hash).
"""
from __future__ import annotations

import hashlib
import json
import platform
import sys
import time
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .catalog import default_catalog
from .conformal import conformal_flatness_test, lemma_q_suite
from .errors import ConfflatError, ConfigError, NotApplicable
from .extrinsic import (fundamental_forms, intrinsic_curvatures,
                        normal_connection_and_curvature)
from .jets import evaluate_jet
from .jets.maps import _repacked
from .lightcone import (build_cone_model, flat_lift, lift_correspondence_check,
                        lift_second_fundamental_form, project_from_cone,
                        psi_second_fundamental_residual)
from .principal import (holonomicity_check, principal_decompositions,
                        properness_and_census, separation_check)

SCHEMA_VERSION = 1
SUITES = ("extrinsic", "principal", "conformal", "lightcone", "ribaucour")


@dataclass
class CheckResult:
    """One verified property: pass means residual <= tolerance for kind
    'max' and residual >= tolerance for kind 'min'."""

    name: str
    anchor: str
    residual: float
    tolerance: float
    kind: str = "max"
    passed: bool = False
    note: str = ""

    def evaluate(self):
        if self.kind == "max":
            self.passed = bool(self.residual <= self.tolerance)
        else:
            self.passed = bool(self.residual >= self.tolerance)
        return self

    def as_dict(self):
        return {"name": self.name, "anchor": self.anchor,
                "residual": float(self.residual),
                "tolerance": float(self.tolerance), "kind": self.kind,
                "passed": self.passed, "note": self.note}


@dataclass
class Report:
    scenario: dict
    checks: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    refused: list = field(default_factory=list)   # one entry per refusing suite
    environment: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def overall_pass(self):
        return not self.refused and all(c.passed for c in self.checks)

    def hash_section(self):
        payload = {"scenario": self.scenario,
                   "checks": [c.as_dict() for c in self.checks],
                   "skipped": self.skipped}
        if self.refused:
            payload["refused"] = self.refused
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def as_dict(self):
        section = self.hash_section()
        return {"schema": SCHEMA_VERSION,
                "scenario": self.scenario,
                "checks": [c.as_dict() for c in self.checks],
                "skipped": self.skipped,
                "refused": self.refused,
                "overall_pass": self.overall_pass,
                "hash": hashlib.sha256(section.encode()).hexdigest(),
                "environment": self.environment,
                "timings": self.timings}


def _environment():
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine()}


# ---------------------------------------------------------------------------
# scenario handling
# ---------------------------------------------------------------------------

_DEFAULTS = {"seed": 0, "tol_scale": 1.0, "samples": 6, "count": 3}


def load_scenario(source) -> dict:
    """Parse and validate a scenario (path, JSON string, or dict)."""
    if isinstance(source, dict):
        raw = dict(source)
    else:
        text = source
        if not str(source).lstrip().startswith("{"):
            try:
                with open(source) as fh:
                    text = fh.read()
            except OSError as exc:
                raise ConfigError(f"cannot read scenario file: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("scenario must be a JSON object")
    if raw.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"field 'schema': expected {SCHEMA_VERSION}, "
                          f"got {raw.get('schema')!r}")
    if "item" not in raw:
        raise ConfigError("field 'item': missing")
    suite = raw.get("suite", "all")
    if suite != "all" and suite not in SUITES:
        raise ConfigError(f"field 'suite': unknown suite {suite!r}")
    for key, default in _DEFAULTS.items():
        raw.setdefault(key, default)
    for key, least in (("seed", 0), ("samples", 1), ("count", 0)):
        value = raw[key]
        if isinstance(value, bool) or not (isinstance(value, int) and value >= least):
            raise ConfigError(f"field '{key}': must be an integer >= {least}")
    ts = raw["tol_scale"]
    if (isinstance(ts, bool) or not isinstance(ts, (int, float))
            or not 0 < ts <= sys.float_info.max):
        raise ConfigError("field 'tol_scale': must be a finite number > 0")
    grid = raw.get("grid")
    if grid is not None:
        if (not isinstance(grid, list) or
                not all(isinstance(s, int) and s >= 3 for s in grid)):
            raise ConfigError("field 'grid': must be a list of integers >= 3")
    raw.setdefault("suite", "all")
    return raw


def _resolve_item(scenario):
    cat = default_catalog()
    name = scenario["item"]
    if name not in cat:
        raise ConfigError(f"field 'item': unknown catalog item {name!r} "
                          f"(have: {', '.join(sorted(cat))})")
    item = cat[name]
    grid = scenario.get("grid")
    if grid is not None:
        base = item.smooth_map.domain
        if len(grid) != base.dim:
            raise ConfigError(f"field 'grid': needs {base.dim} entries")
        dom = replace(base, grid_shape=tuple(grid))

        def on(fmap):
            return None if fmap is None else replace(fmap, domain=dom)

        conf = item.conformal
        if conf is not None:
            conf = replace(conf, omega=on(conf.omega),
                           flat_chart=on(conf.flat_chart))
        item = replace(item, smooth_map=on(item.smooth_map), conformal=conf)
    return item


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@dataclass
class Run:
    """One scenario's pass through the chain of layers on its item, each
    computed once, when a suite first reads it: the sample points, the
    jets there of each map the run reads, the item's extrinsic data, its
    principal decompositions and intrinsic curvatures, and the flat lift
    checked at the same points.  Each map is evaluated once per run: the
    item at order 3 when the run holds the `principal` suite (named in
    `suites`), whose Codazzi tensor is the one reader of third
    derivatives, else at order 2, and the conformal factor and the flat
    chart at order 2.  The lift's jet comes from the item's and omega's,
    and the projection's from the lift's, so neither map is evaluated."""

    item: object
    scenario: dict
    suites: tuple = ()

    @cached_property
    def points(self):
        rng = np.random.default_rng(self.scenario["seed"])
        return self.item.smooth_map.domain.sample_points(
            self.scenario["samples"], rng)

    @cached_property
    def jet(self):
        """The item's jet at the points."""
        order = 3 if "principal" in self.suites else 2
        return evaluate_jet(self.item.smooth_map, self.points, order)

    @cached_property
    def conformal_jets(self):
        return self.item.conformal.jets(self.points)

    @cached_property
    def ext(self):
        return fundamental_forms(self.item.smooth_map, self.item.ambient,
                                 self.points, jet=self.jet)

    @cached_property
    def decs(self):
        return principal_decompositions(self.ext, seed=self.scenario["seed"])

    @cached_property
    def curvatures(self):
        return intrinsic_curvatures(self.ext)

    @cached_property
    def lift(self):
        conf = self.item.conformal
        if conf is None or conf.flat_chart is None:
            raise NotApplicable("needs a conformal structure with flat chart")
        model = build_cone_model(self.item.smooth_map.codomain_dim)
        return flat_lift(self.item.smooth_map, conf, model, self.jet,
                         self.conformal_jets)


def suite_extrinsic(run):
    item, ts = run.item, run.scenario["tol_scale"]
    checks, skipped = [], []
    nb = normal_connection_and_curvature(run.ext)
    checks.append(CheckResult("normal curvature vanishes",
                              "extrinsic/flat-normal-bundle",
                              float(np.max(np.abs(nb.r_perp_frame))),
                              1e-8 * ts).evaluate())
    checks.append(CheckResult("normal curvature matches shape-operator commutators",
                              "extrinsic/ricci-agreement", nb.disagreement,
                              1e-8 * ts).evaluate())
    if item.conformal is not None:
        resid = run.conformal_jets.metric_residual(run.ext)
        checks.append(CheckResult("induced metric is e^(2w) x flat chart metric",
                                  "extrinsic/conformal-metric", resid,
                                  1e-8 * ts).evaluate())
    else:
        skipped.append({"anchor": "extrinsic/conformal-metric",
                        "reason": "no conformal structure attached"})
    return checks, skipped


def suite_principal(run):
    item, ts = run.item, run.scenario["tol_scale"]
    checks, skipped = [], []
    census = properness_and_census(run.decs, seed=run.scenario["seed"])
    expected_k = item.expected.get("k")
    if expected_k is not None:
        checks.append(CheckResult("number of principal normals",
                                  "principal/properness-k",
                                  float(abs(census.k - expected_k)),
                                  0.0).evaluate())
    expected_mult = item.expected.get("multiplicities")
    if expected_mult is not None:
        match = tuple(sorted(census.multiplicities)) == tuple(sorted(expected_mult))
        checks.append(CheckResult("principal multiplicities as expected",
                                  "principal/multiplicities",
                                  0.0 if match else 1.0, 0.0).evaluate())
    if item.expected.get("conformally_flat", True):
        checks.append(CheckResult("at most one multiplicity exceeds one",
                                  "principal/single-high-multiplicity",
                                  0.0 if census.single_high_multiplicity else 1.0,
                                  0.0).evaluate())
    else:
        skipped.append({"anchor": "principal/single-high-multiplicity",
                        "reason": "structural property of conformally flat "
                                  "immersions; item is a negative control"})
    checks.append(CheckResult("second fundamental form reconstructed from "
                              "principal normals",
                              "principal/reconstruction",
                              census.reconstruction_residual,
                              1e-7 * ts).evaluate())
    try:
        rep = holonomicity_check(run.decs)
        checks.append(CheckResult("coordinate net follows curvature directions",
                                  "principal/holonomic-offdiag",
                                  max(rep.net_offdiag, rep.alpha_offdiag),
                                  1e-7 * ts).evaluate())
    except NotApplicable as exc:
        skipped.append({"anchor": "principal/holonomic-offdiag",
                        "reason": str(exc)})
    if census.k >= 3:
        checks.append(CheckResult("principal normals pairwise separated",
                                  "principal/separation",
                                  separation_check(run.decs[0]), 0.0,
                                  kind="min").evaluate())
    else:
        skipped.append({"anchor": "principal/separation",
                        "reason": "needs at least three principal normals"})
    return checks, skipped


def suite_conformal(run):
    item, ts = run.item, run.scenario["tol_scale"]
    checks, skipped = [], []
    resid = conformal_flatness_test(run.curvatures)
    expect_flat = item.expected.get("conformally_flat", True)
    if expect_flat:
        checks.append(CheckResult("curvature satisfies the conformal flatness "
                                  "identity",
                                  "conformal/flatness", resid,
                                  1e-6 * ts).evaluate())
    else:
        chk = CheckResult("curvature violates the conformal flatness identity",
                          "conformal/flatness-negative-control", resid,
                          0.05, kind="min").evaluate()
        if chk.passed:
            chk.note = "negative control confirmed"
        checks.append(chk)
    if item.conformal is not None:
        q = lemma_q_suite(run.ext, run.conformal_jets, run.decs,
                          run.curvatures)
        checks.append(CheckResult("Q vanishes between eigendistributions",
                                  "conformal/q-offblock",
                                  q.offblock_residual, 1e-7 * ts).evaluate())
        if q.high_mult_residual is not None:
            checks.append(CheckResult(
                "Q on the high-multiplicity distribution",
                "conformal/q-high-multiplicity",
                q.high_mult_residual, 1e-7 * ts).evaluate())
        checks.append(CheckResult("Schouten tensor is -(Q + |dw|^2 g0 / 2)",
                                  "conformal/q-duality",
                                  q.schouten_residual, 1e-7 * ts).evaluate())
    else:
        skipped.append({"anchor": "conformal/q-suite",
                        "reason": "no conformal structure attached"})
    return checks, skipped


def suite_lightcone(run):
    ts = run.scenario["tol_scale"]
    checks, skipped = [], []
    lift = run.lift
    if run.item.ambient.kind != "euclidean":
        raise NotApplicable("compares the lift with Euclidean extrinsic data")
    model, extF = lift.model, lift.checked
    pts, extf = run.points, run.ext
    rng = np.random.default_rng(run.scenario["seed"] + 1)
    psi_pts = rng.uniform(-0.7, 0.7, size=(3, model.N))
    checks.append(CheckResult("model surface is totally geodesic in the cone",
                              "lightcone/model-second-fundamental",
                              psi_second_fundamental_residual(model, psi_pts),
                              1e-9 * ts).evaluate())
    cone = float(np.max(np.abs(np.einsum("mA,A,mA->m", extF.jet.value,
                                         model.ambient.signature,
                                         extF.jet.value))))
    checks.append(CheckResult("lift lies on the cone",
                              "lightcone/cone-membership", cone,
                              1e-8 * ts).evaluate())
    proj = project_from_cone(lift.F, model, pts, extF.jet)
    rt = float(np.max(np.abs(proj.checked.value - extf.jet.value)))
    checks.append(CheckResult("projection recovers the original immersion",
                              "lightcone/roundtrip", rt, 1e-9 * ts).evaluate())
    lemma = lift_second_fundamental_form(lift, extF, extf,
                                         run.conformal_jets)[1]
    checks.append(CheckResult("closed form of the lifted second fundamental form",
                              "lightcone/lift-second-fundamental", lemma,
                              1e-7 * ts).evaluate())
    rep = lift_correspondence_check(extF, run.decs, seed=run.scenario["seed"])
    checks.append(CheckResult("lift stays holonomic in the same chart",
                              "lightcone/lift-holonomic",
                              rep.offdiag_F, 1e-7 * ts).evaluate())
    checks.append(CheckResult("principal normal count preserved by the lift",
                              "lightcone/lift-k-match",
                              float(abs(rep.k_F - rep.k_f)), 0.0).evaluate())
    return checks, skipped


def suite_ribaucour(run):
    from . import ribaucour as rb
    ts = run.scenario["tol_scale"]
    checks, skipped = [], []
    lift = run.lift
    shape = lift.F.domain.grid_shape
    if shape is None or min(shape) < 5:
        skipped.append({"anchor": "ribaucour/suite",
                        "reason": "centered differences with interior "
                                  "equations need >= 5 points per axis"})
        return checks, skipped
    rng = np.random.default_rng(run.scenario["seed"])
    # every check below reads the frame at every grid point
    grid = rb.extend_sweep(rb.build_lift_grid(lift))
    h2 = float(np.max(grid.spacings)) ** 2
    checks.append(CheckResult("parallel frame transport converged",
                              "ribaucour/frame-transport",
                              grid.parallel_residual, 0.05 * ts).evaluate())
    fam = rb.analytic_family(grid)
    checks.append(CheckResult("analytic family satisfies the condition",
                              "ribaucour/analytic-family",
                              max(d.condition_residual for d in fam),
                              0.5 * h2 * ts).evaluate())
    ns = rb.solve_condition_nullspace(grid)
    checks.append(CheckResult("null space holds at least N+3 directions",
                              "ribaucour/nullspace-dimension",
                              float(ns.dimension), float(lift.model.N + 3),
                              kind="min").evaluate())
    checks.append(CheckResult("analytic family captured by the null space",
                              "ribaucour/analytic-projection",
                              float(np.min(ns.analytic_projections)),
                              0.999, kind="min").evaluate())

    # the reflection's datum at the run's sample points, from the lift's
    # checked order-2 data there: its transform is R F
    ext = lift.checked
    z = rb._off_cone_direction(rng, grid.sig)
    phi, dphi, beta = rb.constant_vector_datum(ext, z)
    F_t, _ = rb.transform_at(ext, phi, dphi, beta)
    pair = grid.lorentz_inner
    # near a pole |F~| is large: the rounding floor is eps |F~|^2
    cone = float(np.max(np.abs(pair(F_t, F_t))
                        / np.maximum(np.einsum("mA,mA->m", F_t, F_t), 1.0)))
    checks.append(CheckResult("reflection transform stays on the cone",
                              "ribaucour/reflection-cone-defect",
                              cone, 1e-12 * ts).evaluate())
    # R applied to the lift's checked d1, and the projection's data from
    # R and the lift's checked jet: no map is evaluated
    R = rb.reflection(grid.sig, z)
    dF = ext.jet.d1
    dT = dF @ R.T
    gF = np.einsum("miA,A,mjA->mij", dF, grid.sig, dF)
    gT = np.einsum("miA,A,mjA->mij", dT, grid.sig, dT)
    mpres = float(np.max(np.max(np.abs(gF - gT), axis=(1, 2))
                         / np.max(np.abs(gF), axis=(1, 2))))
    checks.append(CheckResult("reflection preserves the induced metric",
                              "ribaucour/reflection-metric",
                              mpres, 1e-9 * ts).evaluate())
    cf = conformal_flatness_test(intrinsic_curvatures(rb._projection_data(
        lift, R[None], run.points, _repacked(ext.jet))))
    checks.append(CheckResult("projected reflection is conformally flat",
                              "ribaucour/reflection-projection-flatness",
                              cf, 1e-6 * ts).evaluate())
    # the datum shifted by 1 leaves the cone-preserving slice c = 0
    shifted = phi + 1.0
    F_s, nu_inv = rb.transform_at(ext, shifted, dphi, beta)
    predicted = 4.0 * shifted * (shifted - pair(ext.jet.value, beta)) / nu_inv
    mismatch = (float(np.max(np.abs(pair(F_s, F_s) - predicted)))
                / max(float(np.max(np.abs(predicted))), 1.0))
    checks.append(CheckResult("cone defect matches its algebraic prediction",
                              "ribaucour/cone-identity",
                              mismatch, 1e-8 * ts).evaluate())
    t = 2.5
    F_3, _ = rb.transform_at(ext, t * phi, t * dphi, t * beta)
    inv = (float(np.max(np.abs(F_3 - F_t)))
           / max(1.0, float(np.max(np.abs(F_t)))) ** 2)
    checks.append(CheckResult("transform invariant under data scaling",
                              "ribaucour/scaling-invariance",
                              inv, 1e-12 * ts).evaluate())
    return checks, skipped


_SUITE_FUNCS = {"extrinsic": suite_extrinsic, "principal": suite_principal,
                "conformal": suite_conformal, "lightcone": suite_lightcone,
                "ribaucour": suite_ribaucour}


def _new_report(scenario, keys):
    """An empty report of the scenario's schema, item, seed, tol_scale and
    `keys`, and of its grid when one is given."""
    keys = ("schema", "item", "seed", "tol_scale") + keys + ("grid",)
    return Report({k: scenario[k] for k in keys if scenario.get(k) is not None},
                  environment=_environment())


def run_scenario(source) -> Report:
    scenario = load_scenario(source)
    names = SUITES if scenario["suite"] == "all" else (scenario["suite"],)
    run = Run(_resolve_item(scenario), scenario, names)
    report = _new_report(scenario, ("suite", "samples"))
    for name in names:
        t0 = time.perf_counter()
        checks, skipped = [], []
        try:
            checks, skipped = _SUITE_FUNCS[name](run)
        except NotApplicable as exc:
            skipped = [{"anchor": f"{name}/suite", "reason": str(exc)}]
        except ConfigError:
            raise
        except ConfflatError as exc:
            report.refused.append({"anchor": f"{name}/suite",
                                   "error": type(exc).__name__,
                                   "message": str(exc)})
        report.checks.extend(checks)
        report.skipped.extend(skipped)
        report.timings[name] = round(time.perf_counter() - t0, 3)
    return report


# ---------------------------------------------------------------------------
# family serialization
# ---------------------------------------------------------------------------

def write_grid_samples(path, samples, grid_shape, box, n, n_amb):
    """Header line of JSON metadata, then the row-major float64
    little-endian sample block."""
    header = {"n": int(n), "N_amb": int(n_amb),
              "grid_shape": [int(s) for s in grid_shape],
              "box": [[float(lo), float(hi)] for lo, hi in box]}
    data = np.ascontiguousarray(samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        fh.write(data.tobytes())


def read_grid_samples(path):
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        body = np.frombuffer(fh.read(), dtype="<f8")
    shape = tuple(header["grid_shape"]) + (header["N_amb"],)
    return header, body.reshape(shape)


def run_pipeline(source, out_dir=None) -> Report:
    """Family construction run: lift, null space, transforms, projected
    members; member grid samples written to out_dir when given."""
    import os

    from . import ribaucour as rb
    scenario = load_scenario(source)
    item = _resolve_item(scenario)
    if item.conformal is None or item.conformal.flat_chart is None:
        raise ConfigError(f"field 'item': {scenario['item']!r} has no "
                          "conformal structure with a flat chart to lift")
    shape = item.smooth_map.domain.grid_shape
    if shape is None or min(shape) < 5:
        raise ConfigError("field 'grid': pipeline needs >= 5 points per axis "
                          "(centered differences with interior equations)")
    report = _new_report(scenario, ("count",))
    t0 = time.perf_counter()
    fam = rb.conformally_flat_family(Run(item, scenario).lift,
                                     count=scenario["count"],
                                     seed=scenario["seed"])
    report.timings["pipeline"] = round(time.perf_counter() - t0, 3)
    N = fam.grid.lift.model.N
    report.checks.append(CheckResult("null space holds at least N+3 directions",
                                     "pipeline/nullspace-dimension",
                                     float(fam.nullspace.dimension),
                                     float(N + 3), kind="min").evaluate())
    for rec in fam.members:
        anchor = f"pipeline/member-{rec.name}"
        if rec.error is not None:
            report.skipped.append({"anchor": anchor, "reason": rec.error})
            continue
        if not rec.retained:
            report.skipped.append({"anchor": anchor,
                                   "reason": "flatness filter rejected"})
            continue
        report.checks.append(CheckResult(
            f"member {rec.name}: projection conformally flat",
            anchor + "/flatness", rec.cf_residual,
            1e-6 * scenario["tol_scale"]).evaluate())
        report.checks.append(CheckResult(
            f"member {rec.name}: holonomic in the original chart",
            anchor + "/holonomic", rec.offdiag_residual,
            1e-6 * scenario["tol_scale"]).evaluate())
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            write_grid_samples(
                os.path.join(out_dir, f"{rec.name}.grid"), rec.samples,
                fam.grid.shape, item.smooth_map.domain.box,
                fam.grid.n, N)
    return report
