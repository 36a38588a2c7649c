"""Catalog integrity: every item evaluates cleanly, metadata is coherent,
and the constructed inputs satisfy the constraints they advertise."""
import re

import numpy as np
import pytest

from confflat.catalog import (SphericalCircle, default_catalog,
                              space_form_exp, validate_unit_speed)
from confflat import ambient as amb_mod
from confflat.extrinsic import fundamental_forms
from confflat.jets import evaluate_jet, finite_difference_jet

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
    from confflat.errors import CurveError

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


def test_example2_guard_names_the_degenerate_point(monkeypatch):
    """The conditioning guard decides its six points in one batched jet;
    when that raises FrameError it retraces them one by one and names the
    first point where the frame degenerates."""
    from confflat import catalog
    from confflat.errors import FrameError
    pts = catalog.default_catalog()["example2"].sample_points(6, seed=11)
    original, shapes = catalog.evaluate_jet, []

    def degenerate_at_third(smooth_map, points, order=3):
        shapes.append(np.shape(points))
        if np.any(np.all(np.atleast_2d(points) == pts[2], axis=-1)):
            raise FrameError("frame rank lost")
        return original(smooth_map, points, order)

    monkeypatch.setattr(catalog, "evaluate_jet", degenerate_at_third)
    with pytest.raises(FrameError, match=re.escape(f"degenerates at {pts[2]}")):
        catalog.build_example2()
    assert shapes == [(6, 4), (4,), (4,), (4,)]
    shapes.clear()
    monkeypatch.setattr(catalog, "evaluate_jet",
                        lambda *args: shapes.append(np.shape(args[1])))
    catalog.build_example2()
    assert shapes == [(6, 4)]
