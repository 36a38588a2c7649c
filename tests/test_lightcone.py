"""Light-cone model of flat space, flat lifts, and the projection back."""
from dataclasses import replace

import numpy as np
import pytest

from confflat.ambient import euclidean
from confflat.errors import (ConformalStructureError, DomainError,
                             ModelMembershipError)
from confflat.extrinsic import fundamental_forms
from confflat.jets import ChartDomain, SmoothMap, evaluate_jet
from confflat.lightcone import (build_cone_model, flat_lift,
                                lift_correspondence_check,
                                lift_second_fundamental_form, project_from_cone,
                                psi_embed, psi_invert,
                                psi_second_fundamental_residual)

from confflat.principal import principal_decompositions

from conftest import interior_points

LIFTABLE = ["s3xs1", "cone_t3", "cylinder_r1xs3"]


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
    with pytest.raises(ModelMembershipError):
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
    lift = flat_lift(item.smooth_map, item.conformal, model, check_points=pts)
    for pt in pts:
        F = lift.F.value(pt)
        assert abs(model.ambient.inner(F, F)) < 1e-10 * max(1.0, F @ F)


@pytest.mark.parametrize("name", LIFTABLE)
def test_lift_is_isometric_to_flat_chart(catalog, name):
    """The lift induces exactly the metric of the flat representative."""
    item = catalog[name]
    model = build_cone_model(item.smooth_map.codomain_dim)
    lift = flat_lift(item.smooth_map, item.conformal, model,
                     interior_points(item, 5))
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
        model = build_cone_model(item.smooth_map.codomain_dim)
        pts = interior_points(item, 3)
        lift = flat_lift(item.smooth_map, item.conformal, model,
                         check_points=pts)
        extf = _parent_ext(item, pts)
        _, resid = lift_second_fundamental_form(lift, lift.checked, extf)
        assert resid < 1e-7, name
        wrong = SmoothMap(item.smooth_map.domain, 1, lambda x: [0.3 * x[0]],
                          "wrong")
        bad = replace(lift, conformal=replace(item.conformal, omega=wrong))
        _, resid = lift_second_fundamental_form(bad, lift.checked, extf)
        assert resid > 1e-3, name


@pytest.mark.parametrize("name", LIFTABLE)
def test_projection_roundtrip(catalog, name):
    item = catalog[name]
    model = build_cone_model(item.smooth_map.codomain_dim)
    lift = flat_lift(item.smooth_map, item.conformal, model,
                     interior_points(item, 5))
    pts = interior_points(item, 4)
    proj = project_from_cone(lift.F, model, points=pts)
    for pt in pts:
        assert np.allclose(proj.f.value(pt), item.smooth_map.value(pt),
                           atol=1e-9)
        w_back = proj.omega.value(pt)[0]
        w_orig = item.conformal.omega.value(pt)[0]
        assert abs(w_back - w_orig) < 1e-9


def test_lift_correspondence(catalog):
    item = catalog["s3xs1"]
    model = build_cone_model(6)
    pts = interior_points(item, 4)
    lift = flat_lift(item.smooth_map, item.conformal, model, check_points=pts)
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
    model = build_cone_model(6)
    with pytest.raises(ConformalStructureError):
        flat_lift(item.smooth_map, bad, model,
                  check_points=interior_points(item, 3))


def test_pole_guard_decides_per_point():
    """Over a batch, the projection's pole guard names the first point with
    <<F,w>> under it, and the conformal factor takes |<<F,w>>| per point."""
    model = build_cone_model(2)
    # <<F, w>> = u on the chart (-1, 1)
    F = SmoothMap(ChartDomain(1, ((-1.0, 1.0),)), 4,
                  lambda u: [0.0 * u[0], u[0], 0.0 * u[0], u[0]])
    proj = project_from_cone(F, model)
    with pytest.raises(DomainError, match="point 1 of the batch"):
        evaluate_jet(proj.f, np.array([[0.5], [0.0], [-0.3], [0.0]]), 0)
    with pytest.raises(DomainError) as err:
        evaluate_jet(proj.f, np.array([0.0]), 0)
    assert "batch" not in str(err.value)
    omega = evaluate_jet(proj.omega, np.array([[0.5], [-0.25]]), 1)
    assert np.allclose(omega.value[:, 0], -np.log([0.5, 0.25]), atol=1e-15)
    assert np.allclose(omega.d1[:, 0, 0], [-2.0, 4.0], atol=1e-14)
