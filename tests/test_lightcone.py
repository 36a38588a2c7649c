"""Light-cone model of flat space, flat lifts, and the projection back."""
from dataclasses import replace

import numpy as np
import pytest

from confflat.ambient import euclidean
from confflat.errors import ConformalStructureError, DomainError
from confflat.extrinsic import fundamental_forms
from confflat.jets import (ChartDomain, SmoothMap, evaluate_jet, exp as jexp,
                           norm_sq, stack, unstack)
from confflat.jets.maps import _packed_jet
from confflat.lightcone import (build_cone_model, lift_correspondence_check,
                                lift_jet, lift_second_fundamental_form,
                                project_from_cone, psi_components,
                                psi_second_fundamental_residual)

from confflat.principal import principal_decompositions

from conftest import interior_points, lift_at

LIFTABLE = ["s3xs1", "cone_t3", "cylinder_r1xs3"]
MEMBERSHIP_TOL = 1e-8


def psi_embed(model, x):
    """Psi(x) at a point x of R^N, as floats."""
    return np.array([float(c) for c in
                     psi_components(model, list(np.asarray(x, float)))])


def psi_invert(model, V, tol=MEMBERSHIP_TOL):
    """Inverse of the embedding on the model slice; ValueError for vectors
    whose cone and slice defects exceed `tol`."""
    V = np.asarray(V, float)
    slice_defect = abs(model.ambient.inner(V, model.w) - 1.0)
    cone_defect = abs(model.ambient.inner(V, V))
    scale = max(float(V @ V), 1.0)
    if slice_defect > tol * np.sqrt(scale) or cone_defect > tol * scale:
        raise ValueError(
            f"vector off the model slice: <<V,w>>-1 = {slice_defect:.3e}, "
            f"<<V,V>> = {cone_defect:.3e}")
    sig = model.ambient.signature
    return np.array([float(np.sum(sig * V * model.A[:, b]))
                     for b in range(model.N)])


def test_model_vectors():
    model = build_cone_model(4)
    assert abs(model.ambient.inner(model.v, model.v)) < 1e-14
    assert abs(model.ambient.inner(model.w, model.w)) < 1e-14
    assert abs(model.ambient.inner(model.v, model.w) - 1.0) < 1e-14
    gram = model.A.T @ np.diag(model.ambient.signature) @ model.A
    assert np.allclose(gram, np.eye(4), atol=1e-14)


def test_embed_invert_roundtrip(rng):
    model = build_cone_model(5)
    for x in rng.uniform(-2.0, 2.0, size=(10, 5)):
        V = psi_embed(model, x)
        assert abs(model.ambient.inner(V, V)) < 1e-12 * max(1.0, V @ V)
        assert np.allclose(psi_invert(model, V), x, atol=1e-12)


def test_invert_rejects_off_cone(rng):
    model = build_cone_model(3)
    V = psi_embed(model, np.array([0.3, -0.2, 0.9]))
    with pytest.raises(ValueError, match="off the model slice"):
        psi_invert(model, V + 0.01 * model.w)


def test_model_totally_geodesic(rng):
    model = build_cone_model(4)
    pts = rng.uniform(-1.0, 1.0, size=(4, 4))
    assert psi_second_fundamental_residual(model, pts) < 1e-10


@pytest.mark.parametrize("name", LIFTABLE)
def test_flat_lift_is_on_cone(catalog, name):
    item = catalog[name]
    model = build_cone_model(item.smooth_map.codomain_dim)
    pts = interior_points(item, 4)
    lift = lift_at(item, pts)
    for pt in pts:
        F = lift.F.value(pt)
        assert abs(model.ambient.inner(F, F)) < 1e-10 * max(1.0, F @ F)


@pytest.mark.parametrize("name", LIFTABLE)
def test_lift_is_isometric_to_flat_chart(catalog, name):
    """The lift induces exactly the metric of the flat representative."""
    item = catalog[name]
    model = build_cone_model(item.smooth_map.codomain_dim)
    lift = lift_at(item, interior_points(item, 5))
    sig = model.ambient.signature
    for pt in interior_points(item, 3):
        jF = lift.F.jet(pt, order=1)
        jx = item.conformal.flat_chart.jet(pt, order=1)
        gF = np.einsum("iA,A,jA->ij", jF.d1, sig, jF.d1)
        gx = jx.d1 @ jx.d1.T
        assert np.allclose(gF, gx, atol=1e-9 * max(1.0, np.max(np.abs(gx))))


def _parent_ext(item, points):
    """Extrinsic data of the item in the Euclidean space its lift sits over."""
    return fundamental_forms(item.smooth_map,
                             euclidean(item.smooth_map.codomain_dim), points)


def test_lift_second_fundamental_closed_form(catalog):
    """The lift's second fundamental form has the closed form on every
    liftable item, and a wrong conformal factor breaks it."""
    for name in LIFTABLE:
        item = catalog[name]
        pts = interior_points(item, 3)
        lift = lift_at(item, pts)
        extf = _parent_ext(item, pts)
        _, resid = lift_second_fundamental_form(lift, lift.checked, extf,
                                                item.conformal.jets(pts))
        assert resid < 1e-7, name
        wrong = SmoothMap(item.smooth_map.domain, 1, lambda x: [0.3 * x[0]],
                          "wrong")
        bad = replace(item.conformal, omega=wrong).jets(pts)
        _, resid = lift_second_fundamental_form(lift, lift.checked, extf, bad)
        assert resid > 1e-3, name


@pytest.mark.parametrize("name", LIFTABLE)
def test_projection_roundtrip(catalog, name):
    item = catalog[name]
    lift = lift_at(item, interior_points(item, 5))
    pts = interior_points(item, 4)
    proj = project_from_cone(lift.F, lift.model, pts,
                             evaluate_jet(lift.F, pts, 1))
    for pt in pts:
        assert np.allclose(proj.f.value(pt), item.smooth_map.value(pt),
                           atol=1e-9)
        w_back = proj.omega.value(pt)[0]
        w_orig = item.conformal.omega.value(pt)[0]
        assert abs(w_back - w_orig) < 1e-9


def test_lift_correspondence(catalog):
    item = catalog["s3xs1"]
    pts = interior_points(item, 4)
    lift = lift_at(item, pts)
    rep = lift_correspondence_check(
        lift.checked, principal_decompositions(_parent_ext(item, pts)))
    assert rep.offdiag_F < 1e-7
    assert rep.k_F == rep.k_f
    assert rep.multiplicities_match


def test_flat_lift_rejects_wrong_factor(catalog):
    """A conformal exponent that does not match the induced metric must be
    refused when check points are supplied."""
    from confflat.conformal import ConformalStructure
    from confflat.jets import SmoothMap
    item = catalog["s3xs1"]
    bad_omega = SmoothMap(item.smooth_map.domain, 1,
                          lambda x: [0.7 * x[0]], "wrong")
    bad = ConformalStructure(bad_omega, item.conformal.flat_chart)
    with pytest.raises(ConformalStructureError):
        lift_at(item, interior_points(item, 3), conformal=bad)


def test_pole_guard_decides_per_point():
    """Over a batch, the projection's pole guard names the first point with
    <<F,w>> under it, and the conformal factor takes |<<F,w>>| per point."""
    model = build_cone_model(2)
    # <<F, w>> = u on the chart (-1, 1)
    F = SmoothMap(ChartDomain(1, ((-1.0, 1.0),)), 4,
                  lambda u: [0.0 * u[0], u[0], 0.0 * u[0], u[0]])
    proj = project_from_cone(F, model)
    pts = np.array([[0.5], [0.0], [-0.3], [0.0]])
    with pytest.raises(DomainError, match="point 1 of the batch"):
        evaluate_jet(proj.f, pts, 0)
    with pytest.raises(DomainError, match="point 1 of the batch"):
        project_from_cone(F, model, pts, evaluate_jet(F, pts, 1))
    with pytest.raises(DomainError) as err:
        evaluate_jet(proj.f, np.array([0.0]), 0)
    assert "batch" not in str(err.value)
    omega = evaluate_jet(proj.omega, np.array([[0.5], [-0.25]]), 1)
    assert np.allclose(omega.value[:, 0], -np.log([0.5, 0.25]), atol=1e-15)
    assert np.allclose(omega.d1[:, 0, 0], [-2.0, 4.0], atol=1e-14)


@pytest.mark.parametrize("name", LIFTABLE)
def test_lift_jet_is_the_lift_evaluated(catalog, name):
    """The lift's jet built from the jets of f and omega is bitwise the
    lift's own evaluation, at every order up to 2, and from the order-3
    jet of f that a run of the extrinsic or principal suite holds."""
    item = catalog[name]
    f, omega = item.smooth_map, item.conformal.omega
    pts = interior_points(item, 6)
    lift = lift_at(item, pts)
    model = lift.model
    for k in (0, 1, 2):
        derived = lift_jet(model, evaluate_jet(f, pts, k),
                           evaluate_jet(omega, pts, k))
        assert derived.order == k
        assert np.array_equal(derived.c, _packed_jet(lift.F, pts, k).c), k
    from_order3 = lift_jet(model, evaluate_jet(f, pts, 3),
                           evaluate_jet(omega, pts, 2))
    assert np.array_equal(from_order3.c, _packed_jet(lift.F, pts, 2).c)
    checked, jet = lift.checked.jet, evaluate_jet(lift.F, pts, 2)
    assert checked.order == 2 and checked.d3 is None
    for field in ("value", "d1", "d2"):
        assert np.array_equal(getattr(checked, field), getattr(jet, field))


def _componentwise_lift(model, xs, omega):
    """e^{-omega} Psi(x) as a list of N + 2 scalars, one jet operation at a
    time: the formula the stacked lift must reproduce bit for bit."""
    q = norm_sq(xs)
    scale = jexp(-1.0 * omega)
    out = []
    for a in range(model.N + 2):
        acc = model.v[a] + (-0.5 * model.w[a]) * q
        for b, x in enumerate(xs):
            if model.A[a, b] != 0.0:
                acc = acc + model.A[a, b] * x
        out.append(scale * acc)
    return out


def _bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


def test_lift_jets_are_the_componentwise_formula(s3xs1_lift):
    """The lift's stacked Psi and e^{-omega} scaling give bitwise (signed
    zeros included) the jets of the componentwise formula, at orders 1 and
    2 over the s3xs1 grid, through `lift_jet` and through the lift's
    evaluator, and the same floats at a point."""
    lift = s3xs1_lift
    model, f, omega = lift.model, lift.parent, lift.conformal.omega
    pts = f.domain.grid_points().reshape(-1, 4)
    for k in (1, 2):
        fj, wj = _packed_jet(f, pts, k), _packed_jet(omega, pts, k)
        ref = stack(_componentwise_lift(model, unstack(fj), unstack(wj)[0]))
        derived = lift_jet(model, evaluate_jet(f, pts, k),
                           evaluate_jet(omega, pts, k))
        assert np.array_equal(_bits(derived.c), _bits(ref.c)), k
        assert np.array_equal(_bits(_packed_jet(lift.F, pts, k).c),
                              _bits(ref.c)), k
    x = list(pts[7])
    ref = _componentwise_lift(model, f.evaluator(x), omega.evaluator(x)[0])
    assert np.array_equal(_bits(lift.F.value(pts[7])), _bits(np.array(ref)))


@pytest.mark.parametrize("name", LIFTABLE)
def test_projection_jet_is_the_projection_evaluated(catalog, name):
    """The projection's jet at the check points, built from the lift's
    jet, is bitwise the projected map's own evaluation there."""
    item = catalog[name]
    pts = interior_points(item, 6)
    lift = lift_at(item, pts)
    proj = project_from_cone(lift.F, lift.model, pts, lift.checked.jet)
    once = evaluate_jet(proj.f, pts, 1)
    assert np.array_equal(proj.checked.value, once.value)
    assert np.array_equal(proj.checked.d1, once.d1)
    assert np.array_equal(proj.checked.d2, evaluate_jet(proj.f, pts, 2).d2)
