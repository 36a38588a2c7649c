"""Principal normal census, holonomicity, quasiumbilical frames and the
nullity/leaf invariants over the catalog."""
import numpy as np
import pytest

from confflat.ambient import euclidean
from confflat.errors import NotApplicable, QuasiumbilicError
from confflat.extrinsic import fundamental_forms
from confflat.jets import ChartDomain, SmoothMap
from confflat.principal import (holonomicity_check, joint_diagonalize,
                                nullity_and_leaf_invariants,
                                offdiagonal_defects,
                                principal_decomposition, properness_and_census,
                                quasiumbilical_frame, separation_check,
                                span_structure, traceless_relations)
from conftest import decompositions, interior_points, into_sphere

CENSUS_ITEMS = ["s3xs1", "s2xpseudosphere", "s2xs2_control", "cone_t3",
                "cylinder_r1xs3", "flat_cylinder", "example2",
                "flat_inclusion", "sphere_stereographic"]


def test_joint_diagonalize_random_commuting(rng):
    """Simultaneously diagonalizable families come back diagonal."""
    n = 5
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mats = [q @ np.diag(rng.standard_normal(n)) @ q.T for _ in range(3)]
    v = joint_diagonalize(np.array(mats), seed=0)
    for m in mats:
        d = v.T @ m @ v
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) < 1e-9 * max(1.0, np.max(np.abs(d)))


@pytest.mark.parametrize("name", CENSUS_ITEMS)
def test_census_matches_expectation(catalog, name):
    item = catalog[name]
    pts = interior_points(item, 5)
    census = properness_and_census(decompositions(item, pts))
    assert census.k == item.expected["k"]
    assert tuple(sorted(census.multiplicities)) == \
        tuple(sorted(item.expected["multiplicities"]))
    assert census.reconstruction_residual < 1e-7


@pytest.mark.parametrize("name", ["s3xs1", "example2", "cone_t3"])
def test_holonomicity(catalog, name):
    item = catalog[name]
    pts = interior_points(item, 4)
    rep = holonomicity_check(decompositions(item, pts))
    assert rep.net_offdiag < 1e-7
    assert rep.alpha_offdiag < 1e-7
    assert rep.c1_residual <= 1e-10


def _defects_in_r5(evaluator, pinned_axis=None):
    """offdiagonal_defects of a map of the chart (-1, 1)^4 into R^5 at four
    points, with one coordinate set to 0 when `pinned_axis` is given."""
    smooth_map = SmoothMap(ChartDomain(4, ((-1.0, 1.0),) * 4), 5, evaluator)
    pts = np.random.default_rng(0).uniform(-0.8, 0.8, size=(4, 4))
    if pinned_axis is not None:
        pts[:, pinned_axis] = 0.0
    return [offdiagonal_defects(fundamental_forms(smooth_map, euclidean(5), pt))
            for pt in pts]


def test_offdiagonal_defects_can_fail():
    """The holonomic defect vanishes on principal coordinates and reads
    large where the second fundamental form or the metric is not diagonal."""
    # u0 = 0: orthogonal net, but alpha(d0, d1) = d0 d1 (u0 u1) != 0
    mixed = _defects_in_r5(lambda u: [u[0], u[1], u[2], u[3], u[0] * u[1]], 0)
    assert all(net <= 1e-12 and alpha >= 0.1 for net, alpha in mixed)
    # u1 = 0: orthogonal net and diagonal second fundamental form
    saddle = _defects_in_r5(
        lambda u: [u[0], u[1], u[2], u[3], 0.5 * (u[0] * u[0] - u[1] * u[1])], 1)
    assert all(max(d) <= 1e-12 for d in saddle)
    # flat, but the net is sheared: <d0, d1> = 1e-6
    sheared = _defects_in_r5(
        lambda u: [u[0] + 1e-6 * u[1], u[1], u[2], u[3], 0.0 * u[0]])
    assert all(net > 1e-7 for net, _ in sheared)


def test_dupin_condition(catalog):
    """Principal normals with multiplicity >= 2 are parallel along their own
    eigendistribution."""
    item = catalog["example2"]
    pts = interior_points(item, 3)
    census = properness_and_census(decompositions(item, pts))
    for idx, worst in census.dupin_residuals.items():
        if census.multiplicities[idx] >= 2:
            assert worst < 1e-12


@pytest.mark.parametrize("name", ["s2xpseudosphere", "example2", "cone_t3"])
def test_separation_positive(catalog, name):
    item = catalog[name]
    pt = interior_points(item, 1)[0]
    dec = principal_decomposition(
        fundamental_forms(item.smooth_map, item.ambient, pt))
    assert separation_check(dec) > 1e-3


@pytest.mark.parametrize("name", ["s3xs1", "s2xpseudosphere", "example2"])
def test_quasiumbilical_frame_exists(catalog, name):
    item = catalog[name]
    n = item.smooth_map.domain.dim
    for pt in interior_points(item, 3):
        dec = principal_decomposition(
            fundamental_forms(item.smooth_map, item.ambient, pt))
        qf = quasiumbilical_frame(dec)
        assert all(m >= n - 1 for m in qf.eigen_multiplicities)
        assert qf.orthogonality_defect < 1e-8
        # codimension bound p >= n - m for the high multiplicity m
        m_high = max(dec.multiplicities)
        assert dec.ext.p >= n - m_high


def test_quasiumbilical_frame_negative_control(catalog):
    item = catalog["s2xs2_control"]
    pt = interior_points(item, 1)[0]
    dec = principal_decomposition(
        fundamental_forms(item.smooth_map, item.ambient, pt))
    with pytest.raises(QuasiumbilicError):
        quasiumbilical_frame(dec)


def test_traceless_relations(catalog):
    for name in ("s3xs1", "s2xpseudosphere"):
        item = catalog[name]
        pt = interior_points(item, 1)[0]
        dec = principal_decomposition(
            fundamental_forms(item.smooth_map, item.ambient, pt))
        rep = traceless_relations(dec)
        if rep.high_mult_norm_residual is not None:
            assert rep.high_mult_norm_residual < 1e-7
        if rep.colinearity_residual is not None:
            assert rep.colinearity_residual < 1e-7
        if rep.pair_sum_residual is not None:
            assert rep.pair_sum_residual < 1e-7


def test_span_structure_umbilic_direction(catalog):
    """For the cylinder over S^3 the principal normals span one more
    direction than their differences; the extra direction is umbilic."""
    item = catalog["cylinder_r1xs3"]
    pt = interior_points(item, 1)[0]
    dec = principal_decomposition(
        fundamental_forms(item.smooth_map, item.ambient, pt))
    st = span_structure(dec)
    if st.delta is not None:
        assert st.umbilic_residual < 1e-7


def test_nullity_invariants_cone(catalog):
    item = catalog["cone_t3"]
    for pt in interior_points(item, 3):
        rep = nullity_and_leaf_invariants(principal_decomposition(
            fundamental_forms(item.smooth_map, item.ambient, pt)))
        assert rep.nullity_dim == item.expected["nullity"]
        assert rep.lam_spread < 1e-7
        assert rep.leaf_derivative < 1e-12


def test_nullity_trivial_when_absent(catalog):
    item = catalog["s3xs1"]
    pt = interior_points(item, 1)[0]
    with pytest.raises(NotApplicable):
        nullity_and_leaf_invariants(principal_decomposition(
            fundamental_forms(item.smooth_map, item.ambient, pt)))


def test_flat_cylinder_nullity(catalog):
    item = catalog["flat_cylinder"]
    pt = interior_points(item, 1)[0]
    rep = nullity_and_leaf_invariants(principal_decomposition(
        fundamental_forms(item.smooth_map, item.ambient, pt)))
    assert rep.nullity_dim == item.expected["nullity"]


def _central_eta_derivatives(item, dec, h=1e-5):
    """Oracle for eta_derivatives: central differences of the principal
    normals that principal_decomposition finds at the neighbouring points
    along each chart axis (matched to the nearest principal normal at the
    centre), projected to the normal space."""
    ext = dec.ext
    out = np.zeros_like(dec.eta_derivatives)
    for i in range(ext.n):
        step = np.zeros(ext.n)
        step[i] = h
        plus, minus = (principal_decomposition(
            fundamental_forms(item.smooth_map, item.ambient, ext.point + s))
            for s in (step, -step))
        for c, eta in enumerate(dec.etas):
            ep, em = (min(d.etas, key=lambda e: float(np.linalg.norm(e - eta)))
                      for d in (plus, minus))
            out[c, i] = ext.normal_project((ep - em) / (2.0 * h))
    return out


@pytest.mark.parametrize("name,in_sphere", [
    ("example2", False), ("cone_t3", False), ("s2xpseudosphere", False),
    ("example2", True)])
def test_eta_derivatives_match_central_differences(catalog, name, in_sphere):
    """The principal-normal derivatives taken from the Codazzi tensor of the
    order-3 jet agree with central differences of the decomposition, in
    Euclidean space and in a sphere."""
    item = into_sphere(catalog[name]) if in_sphere else catalog[name]
    for dec in decompositions(item, interior_points(item, 2)):
        exact = dec.eta_derivatives
        scale = float(np.max(np.abs(exact)))
        assert scale > 1e-3
        assert np.max(np.abs(exact - _central_eta_derivatives(item, dec))) \
            <= 1e-7 * scale
