"""Catalog integrity: every item evaluates cleanly, metadata is coherent,
and the constructed inputs satisfy the constraints they advertise."""
import numpy as np
import pytest

from confflat.catalog import (SphericalCircle, build_example2, space_form_exp,
                              validate_unit_speed)
from confflat import ambient as amb_mod
from confflat.errors import CurveError
from confflat.extrinsic import complement_frame, fundamental_forms, orthonormalize
from confflat.jets import (SmoothMap, cos, evaluate_jet, finite_difference_jet,
                           sin, sqrt as jsqrt, stack, unstack)
from confflat.jets.core import _jet
from confflat.principal import offdiagonal_defects

from conftest import interior_points


def test_catalog_names_consistent(catalog):
    for name, item in catalog.items():
        assert item.name == name
        assert item.smooth_map.codomain_dim == item.ambient.flat_dim
        assert "k" in item.expected and "multiplicities" in item.expected
        assert sum(item.expected["multiplicities"]) == item.smooth_map.domain.dim


def test_all_items_evaluate(catalog):
    for item in catalog.values():
        for pt in interior_points(item, 2):
            j = evaluate_jet(item.smooth_map, pt)
            assert np.all(np.isfinite(j.value))
            # immersion: the differential has full rank
            s = np.linalg.svd(j.d1, compute_uv=False)
            assert s[-1] > 1e-6


def test_jets_against_fd_oracle(catalog):
    """Spot check the analytic jets of every catalog evaluator against
    central differences."""
    for item in catalog.values():
        pt = interior_points(item, 1, seed=5)[0]
        exact = evaluate_jet(item.smooth_map, pt)
        approx = finite_difference_jet(item.smooth_map, pt, h=1e-3)
        assert np.allclose(exact.d1, approx.d1, atol=1e-5)
        assert np.allclose(exact.d2, approx.d2, atol=1e-4)


def test_space_form_exp_stays_on_quadric(rng):
    amb = amb_mod.sphere_form(3, 1.0)
    p = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(5):
        v = rng.standard_normal(4)
        v -= (v @ p) * p
        q = np.array(space_form_exp(amb, list(p), list(v)))
        assert amb.quadric_defect(q) < 1e-12


def test_unit_speed_curves():
    box = (0.1, 2.0)
    validate_unit_speed(SphericalCircle(0.8, 1.1), box)


def test_unit_speed_rejects_bad_curve():
    class Bad:
        def value(self, t):
            return [t, t * t, 0.0 * t]

        def deriv(self, t):
            return [1.0 + 0.0 * t, 2.0 * t, 0.0 * t]

    with pytest.raises(CurveError):
        validate_unit_speed(Bad(), (0.1, 1.0))


def test_liftable_items_have_valid_conformal(catalog):
    for name in ("s3xs1", "cone_t3", "cylinder_r1xs3"):
        item = catalog[name]
        pts = interior_points(item, 3)
        assert item.conformal.jets(pts).metric_residual(
            fundamental_forms(item.smooth_map, item.ambient, pts)) < 1e-8


def test_tractroid_check_refuses_a_wrong_curvature(monkeypatch):
    """The build-time check of the pseudosphere patch can fail: scaled by
    2, the patch has curvature -1/4, and building the products raises."""
    from confflat import catalog
    original = catalog._tractroid
    monkeypatch.setattr(catalog, "_tractroid",
                        lambda u, v: [2.0 * c for c in original(u, v)])
    with pytest.raises(ValueError, match="pseudosphere patch curvature"):
        catalog.build_products()


def test_unit_speed_checks_the_radius():
    """Given a radius, a unit-speed curve on another sphere is refused: the
    closed-form fiber frame of example2 needs |gamma| = r."""
    box = (0.1, 2.0)
    validate_unit_speed(SphericalCircle(0.8, 1.1), box, radius=0.8)
    with pytest.raises(CurveError, match="sphere of radius 0.6"):
        validate_unit_speed(SphericalCircle(0.8, 1.1), box, radius=0.6)
    with pytest.raises(CurveError, match="sphere of radius 0.6"):
        build_example2(curve2=SphericalCircle(0.8, 1.1))


# ---------------------------------------------------------------------------
# example2 as it was built before its closed-form frame, kept here as the
# reference: a step-by-step Gram-Schmidt on stacked jets of the span
# (zeta, h_u, h_v), completed from the ambient axes in the pivot order of
# the chart center.  An ambient vector is one jet whose batch has the
# ambient axis first; inner products keep that axis with length 1, so that
# they multiply vectors directly.
# ---------------------------------------------------------------------------

def _gs_vdot(u, v):
    w = u * v
    return _jet(w.n, w.order, w.c.sum(axis=1, keepdims=True))


def _gs_unit(r):
    q = _gs_vdot(r, r)
    e = np.where(q.v[0] > 0, 1.0, -1.0)
    return jsqrt(q * e) ** -1.0 * r, e


def _gs_project_out(units, eps, r):
    for u, e in zip(units, eps):
        r = r + -e * _gs_vdot(r, u) * u
    return r


def _gs_frame(span, pivot_order):
    """The normal frame of a list of spanning vector jets, completed from
    the axes e_b in `pivot_order`."""
    units, eps = [], []
    for v in span:
        u, e = _gs_unit(_gs_project_out(units, eps, v))
        units.append(u)
        eps.append(e)
    frame = []
    for b in pivot_order:
        axis = (np.arange(6).reshape((6,) + (1,) * (span[0].c.ndim - 2)) == b)
        u, e = _gs_unit(_gs_project_out(units, eps, axis * 1.0))
        units.append(u)
        eps.append(e)
        frame.append(u)
    return frame


def _gram_schmidt_example2(item, r1=0.8, r2=0.6):
    """The reference map of the default example2: the fiber frame is the
    Gram-Schmidt frame of the span at every point (jet evaluation only)."""
    curve1, curve2 = SphericalCircle(r1, 0.9), SphericalCircle(r2, 1.2)

    def span_at(u, v):
        g1, d1 = curve1.value(u), curve1.deriv(u)
        g2, d2 = curve2.value(v), curve2.deriv(v)
        zeros1 = [0.0 * c for c in g1]
        zeros2 = [0.0 * c for c in g2]
        return (list(g1) + list(g2),
                [list(g1) + [-c for c in g2], list(d1) + zeros2, zeros1 + list(d2)])

    c = item.domain.center()
    units, eps = orthonormalize(np.ones(6), np.array(span_at(c[0], c[1])[1]))
    _, _, pivot = complement_frame(np.ones(6), units, eps, 3)

    def phi(x):
        u, v, p, q = x
        h, span = span_at(u, v)
        xi1, xi2, xi3 = _gs_frame([stack(s) for s in span], pivot)
        w = cos(p) * xi1 + sin(p) * cos(q) * xi2 + sin(p) * sin(q) * xi3
        return unstack(stack(h) + w)

    return SmoothMap(item.domain, 6, phi, "example2_gram_schmidt")


def test_example2_matches_its_gram_schmidt_reference(catalog):
    """The closed-form Darboux frame turned by R0 is the Gram-Schmidt frame
    of the reference: value, d1, d2 and d3 agree to 1e-13 of each
    array's largest entry at the chart center and at 6 sample points."""
    item = catalog["example2"]
    ref_map = _gram_schmidt_example2(item)
    pts = np.vstack([item.domain.center(), item.sample_points(6, seed=7)])
    for points in (pts, pts[0]):
        got = evaluate_jet(item.smooth_map, points, 3)
        ref = evaluate_jet(ref_map, points, 3)
        for field in ("value", "d1", "d2", "d3"):
            a, b = getattr(got, field), getattr(ref, field)
            err = np.max(np.abs(a - b))
            assert err <= 1e-13 * np.max(np.abs(b)), (field, err)


def _great_circle(r, tilt):
    """A unit-speed great circle of the sphere of radius r, in a plane
    turned by `tilt` about the first axis: no latitude circle."""
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, np.cos(tilt), np.sin(tilt)])

    class Curve:
        def value(self, u):
            return [r * (cos(u / r) * a[i] + sin(u / r) * b[i]) for i in range(3)]

        def deriv(self, u):
            return [-sin(u / r) * a[i] + cos(u / r) * b[i] for i in range(3)]

    return Curve()


def test_example2_darboux_chart_is_principal_for_any_curves():
    """The Darboux frame is parallel in the fiber space for any pair of
    spherical curves, so the chart stays principal (off-diagonal defects
    at rounding level) on tilted great circles too, where no frame built
    from fixed ambient axes is parallel."""
    item = build_example2(_great_circle(0.8, 0.7), _great_circle(0.6, -0.4))
    ext = fundamental_forms(item.smooth_map, item.ambient, item.sample_points(6))
    net, alpha = offdiagonal_defects(ext)
    assert np.max(net) < 1e-13 and np.max(alpha) < 1e-13
