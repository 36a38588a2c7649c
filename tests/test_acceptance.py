"""Acceptance gate: the six top-level properties the package promises,
one printed verdict line per criterion."""
import json
import time

import numpy as np
import pytest

from confflat.ambient import euclidean
from confflat.conformal import (conformal_change, conformal_flatness_test,
                                lemma_q_suite)
from confflat.extrinsic import fundamental_forms, intrinsic_curvatures
from confflat.lightcone import (build_cone_model, flat_lift,
                                lift_second_fundamental_form,
                                project_from_cone,
                                psi_second_fundamental_residual)
from confflat.principal import (holonomicity_check,
                                nullity_and_leaf_invariants,
                                principal_decompositions, properness_and_census,
                                quasiumbilical_frame, separation_check)
from confflat import ribaucour as rb
from confflat.errors import QuasiumbilicError
from confflat.jets import ChartDomain, SmoothMap, evaluate_jet, sin, cos
from confflat.reports import run_scenario

from conftest import (decomposition_at, decompositions, interior_points,
                      linear_image)


def _verdict(num, label, ok):
    print(f"\n[criterion {num}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_1_principal_structure(catalog):
    """Proper principal structure and holonomic nets at 200 sample points,
    within 60 seconds."""
    t0 = time.perf_counter()
    ok = True
    for name in ("example2", "s3xs1"):
        item = catalog[name]
        pts = interior_points(item, 100)
        decs = decompositions(item, pts)
        census = properness_and_census(decs)
        ok &= census.k == item.expected["k"]
        ok &= census.single_high_multiplicity
        hol = holonomicity_check(decs[:20])
        ok &= hol.alpha_offdiag <= 1e-7 and hol.net_offdiag <= 1e-7
        if census.k >= 3:
            ok &= separation_check(decs[0]) > 0.0
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 60.0
    _verdict(1, f"principal census, holonomicity, separation "
                f"({elapsed:.1f}s for 200 points)", ok)


def test_criterion_2_quasiumbilical(catalog):
    """Quasiumbilical frames exist exactly for the conformally flat items;
    the product of two spheres is refused and fails the curvature identity."""
    ok = True
    for name in ("s3xs1", "s2xpseudosphere"):
        item = catalog[name]
        n = item.smooth_map.domain.dim
        for pt in interior_points(item, 3):
            dec = decomposition_at(item, pt)
            qf = quasiumbilical_frame(dec)
            ok &= all(m >= n - 1 for m in qf.eigen_multiplicities)
            m_high = max(dec.multiplicities)
            ok &= dec.ext.p >= n - m_high
    control = catalog["s2xs2_control"]
    pt = interior_points(control, 1)[0]
    try:
        quasiumbilical_frame(decomposition_at(control, pt))
        ok = False
    except QuasiumbilicError:
        pass
    ok &= conformal_flatness_test(intrinsic_curvatures(fundamental_forms(
        control.smooth_map, control.ambient, interior_points(control, 4)))) > 0.05
    _verdict(2, "quasiumbilical frames with negative control", ok)


def test_criterion_3_nullity_invariants(catalog):
    """Cone over the torus: one-dimensional nullity with the pair invariant
    constant on leaves; the flat cylinder sits in the constant-curvature
    branch."""
    ok = True
    cone = catalog["cone_t3"]
    for pt in interior_points(cone, 3):
        rep = nullity_and_leaf_invariants(decomposition_at(cone, pt))
        ok &= rep.nullity_dim == 1
        ok &= rep.lam_spread <= 1e-7
        ok &= rep.leaf_derivative <= 1e-12
    cyl = catalog["flat_cylinder"]
    c = cyl.expected["constant_curvature"]
    for pt in interior_points(cyl, 3):
        pack = intrinsic_curvatures(
            fundamental_forms(cyl.smooth_map, cyl.ambient, pt))
        flat_part = pack.riemann.copy()
        n = pack.n
        for i in range(n):
            for j in range(n):
                flat_part[i, j, j, i] -= c
                flat_part[i, j, i, j] += c
        ok &= float(np.max(np.abs(flat_part))) <= 1e-8
    _verdict(3, "nullity structure and leaf invariant", ok)


def test_criterion_4_conformal_identities(catalog):
    """Conformal curvature identities, the lifted second fundamental form in
    closed form, cone membership, and the projection round trip."""
    ok = True
    dom = ChartDomain(4, ((-0.6, 0.6),) * 4)
    factors = [SmoothMap(dom, 1, lambda x: [0.4 * x[0] - x[3]], "lin"),
               SmoothMap(dom, 1, lambda x: [sin(x[1]) * 0.3], "sin"),
               SmoothMap(dom, 1, lambda x: [cos(x[0] * x[2]) * 0.2], "mix")]
    rng = np.random.default_rng(0)
    for omega in factors:
        for pt in rng.uniform(-0.4, 0.4, size=(2, 4)):
            ok &= conformal_change(omega, pt).crosscheck_residual <= 1e-7
    for name in ("s3xs1", "cone_t3", "cylinder_r1xs3"):
        item = catalog[name]
        pts = interior_points(item, 4)
        ext = fundamental_forms(item.smooth_map, item.ambient, pts)
        cjets = item.conformal.jets(pts)
        q = lemma_q_suite(ext, cjets, principal_decompositions(ext),
                          intrinsic_curvatures(ext))
        ok &= q.offblock_residual <= 1e-7 and q.schouten_residual <= 1e-7
        if q.high_mult_residual is not None:
            ok &= q.high_mult_residual <= 1e-7
        model = build_cone_model(item.smooth_map.codomain_dim)
        ok &= psi_second_fundamental_residual(
            model, rng.uniform(-0.6, 0.6, size=(2, model.N))) <= 1e-8
        lift = flat_lift(item.smooth_map, item.conformal, model,
                         evaluate_jet(item.smooth_map, pts, 2), cjets)
        for pt in pts[:3]:
            F = lift.F.value(pt)
            ok &= abs(model.ambient.inner(F, F)) <= 1e-8 * max(1.0, F @ F)
        ok &= lift_second_fundamental_form(lift, lift.checked, ext,
                                           cjets)[1] <= 1e-7
        proj = project_from_cone(lift.F, model, pts, lift.checked.jet)
        for pt in pts[:3]:
            ok &= float(np.max(np.abs(
                proj.f.value(pt) - item.smooth_map.value(pt)))) <= 1e-9
    _verdict(4, "conformal identities, lifts and projections", ok)


def test_criterion_5_transform_suite(s3xs1_grid, s3xs1):
    """Transform suite on the lifted product grid: analytic family, null
    space, reflections, cone identity and scaling, within 10 minutes."""
    t0 = time.perf_counter()
    g = s3xs1_grid
    ok = True
    h2 = float(np.max(g.spacings)) ** 2
    fam = rb.analytic_family(g)
    ok &= max(d.condition_residual for d in fam) <= 0.5 * h2
    ns = rb.solve_condition_nullspace(g)
    ok &= ns.dimension >= (g.A - 2) + 3
    ok &= float(np.min(ns.analytic_projections)) >= 0.999
    rng = np.random.default_rng(1)
    z = rng.standard_normal(g.A)
    z /= np.linalg.norm(z)
    ext = g.lift.checked
    sig = g.sig
    phi, dphi, beta = rb.constant_vector_datum(ext, z)
    F_t, _ = rb.transform_at(ext, phi, dphi, beta)
    ok &= float(np.max(np.abs(np.einsum("mA,A,mA->m", F_t, sig, F_t)))) <= 1e-10
    reflected = linear_image(g.lift.F, rb.reflection(sig, z))
    for pt in interior_points(s3xs1, 3):
        jF = g.lift.F.jet(pt, order=1)
        jT = reflected.jet(pt, order=1)
        gF = np.einsum("iA,A,jA->ij", jF.d1, sig, jF.d1)
        gT = np.einsum("iA,A,jA->ij", jT.d1, sig, jT.d1)
        ok &= float(np.max(np.abs(gF - gT))) <= 1e-9 * float(np.max(np.abs(gF)))
    model = g.lift.model
    pts = interior_points(s3xs1, 3)
    proj = project_from_cone(reflected, model, pts,
                             evaluate_jet(reflected, pts, 2))
    ok &= conformal_flatness_test(intrinsic_curvatures(fundamental_forms(
        proj.f, euclidean(model.N), pts))) <= 1e-6
    # the datum shifted by 0.8: <<F~, F~>> = 4 nu phi (phi - <<F, beta>>)
    F_s, nu_inv = rb.transform_at(ext, phi + 0.8, dphi, beta)
    FB = np.einsum("mA,A,mA->m", ext.jet.value, sig, beta)
    predicted = 4.0 * (phi + 0.8) * (phi + 0.8 - FB) / nu_inv
    ok &= float(np.max(np.abs(np.einsum("mA,A,mA->m", F_s, sig, F_s)
                              - predicted))) <= 1e-8 * max(
        float(np.max(np.abs(predicted))), 1.0)
    t = 2.0
    F_2, _ = rb.transform_at(ext, t * phi, t * dphi, t * beta)
    ok &= float(np.max(np.abs(F_2 - F_t))) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok &= elapsed <= 600.0
    _verdict(5, f"lifted transform family ({elapsed:.1f}s)", ok)


def test_criterion_6_determinism():
    """Same scenario, same seed: byte-identical hash-relevant sections."""
    sc = {"schema": 1, "item": "s3xs1", "suite": "principal", "seed": 12}
    a = run_scenario(sc)
    b = run_scenario(sc)
    ok = a.hash_section() == b.hash_section()
    ok &= a.as_dict()["hash"] == b.as_dict()["hash"]
    _verdict(6, "report determinism", ok)
