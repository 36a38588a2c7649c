"""Jet arithmetic against the central-difference oracle and algebraic
identities that exact derivatives must satisfy."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confflat.jets import (ChartDomain, Jet, SmoothMap, cos, cosh, dot,
                           evaluate_jet, exp, finite_difference_jet, log,
                           norm_sq, sin, sinh, sqrt, variable)

from conftest import interior_points

finite = st.floats(-2.0, 2.0, allow_nan=False)
positive = st.floats(0.2, 2.0, allow_nan=False)


def seed_jets(values):
    n = len(values)
    return [variable(v, i, n) for i, v in enumerate(values)]


def jets_close(a, b, tol=1e-10):
    scale = max(1.0, abs(a.v), abs(b.v))
    assert abs(a.v - b.v) <= tol * scale
    assert np.allclose(a.g, b.g, atol=tol * scale)
    assert np.allclose(a.h, b.h, atol=tol * scale)
    assert np.allclose(a.t, b.t, atol=tol * scale)


@given(finite, finite, finite)
def test_product_rule_symmetry(x, y, z):
    a, b, c = seed_jets([x, y, z])
    jets_close((a * b) * c, a * (b * c))
    jets_close(a * b, b * a)


@given(finite, finite)
def test_distributivity(x, y):
    a, b = seed_jets([x, y])
    jets_close(a * (a + b), a * a + a * b)


@given(positive, finite)
def test_exp_log_roundtrip(x, y):
    a, _ = seed_jets([x, y])
    jets_close(log(exp(a)), a, tol=1e-9)
    jets_close(exp(log(a)), a, tol=1e-9)


@given(finite, finite)
def test_pythagorean_identity(x, y):
    a, b = seed_jets([x, y])
    one = sin(a + b) * sin(a + b) + cos(a + b) * cos(a + b)
    jets_close(one, Jet.constant(1.0, 2), tol=1e-9)


@given(finite)
def test_hyperbolic_identity(x):
    a = variable(x, 0, 1)
    jets_close(cosh(a) * cosh(a) - sinh(a) * sinh(a),
               Jet.constant(1.0, 1), tol=1e-8)


@given(positive)
def test_sqrt_squares(x):
    a = variable(x, 0, 1)
    jets_close(sqrt(a) * sqrt(a), a, tol=1e-9)


@given(st.lists(finite, min_size=2, max_size=4))
def test_quotient_of_self_is_one(vals):
    js = seed_jets(vals)
    denom = norm_sq(js) + 1.0
    jets_close(denom / denom, Jet.constant(1.0, len(vals)), tol=1e-9)


@settings(deadline=None, max_examples=25)
@given(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6))
def test_jets_match_finite_differences(u, v):
    dom = ChartDomain(2, ((-1.0, 1.0), (-1.0, 1.0)))

    def evaluator(x):
        return [sin(x[0]) * cosh(x[1]),
                exp(0.5 * x[0] - x[1]),
                dot(x, x) + cos(x[0] * x[1])]

    m = SmoothMap(dom, 3, evaluator, "mixed")
    pt = np.array([u, v])
    exact = evaluate_jet(m, pt)
    approx = finite_difference_jet(m, pt, h=1e-3)
    assert np.allclose(exact.value, approx.value, atol=1e-10)
    assert np.allclose(exact.d1, approx.d1, atol=1e-5)
    assert np.allclose(exact.d2, approx.d2, atol=1e-4)
    assert np.allclose(exact.d3, approx.d3, atol=2e-2)


def test_second_and_third_derivatives_symmetric():
    dom = ChartDomain(3, ((-1.0, 1.0),) * 3)
    m = SmoothMap(dom, 1, lambda x: [exp(x[0]) * sin(x[1] * x[2])], "sym")
    j = evaluate_jet(m, np.array([0.3, -0.2, 0.5]))
    assert np.allclose(j.d2, np.transpose(j.d2, (1, 0, 2)))
    for perm in ((1, 0, 2, 3), (0, 2, 1, 3), (2, 1, 0, 3)):
        assert np.allclose(j.d3, np.transpose(j.d3, perm))


def test_domain_guard():
    from confflat.errors import DomainError
    dom = ChartDomain(1, ((0.0, 1.0),))
    m = SmoothMap(dom, 1, lambda x: [x[0]], "id")
    with pytest.raises(DomainError):
        evaluate_jet(m, np.array([2.0]))


def _jets_at(m, pts, order):
    return [evaluate_jet(m, pt, order) for pt in pts]


@pytest.mark.parametrize("order", [1, 2, 3])
def test_batched_jets_match_single_points(catalog, order):
    """One batched pass gives, point for point, the jets of single-point
    calls on every catalog item; derivatives above the order stay None."""
    for name, item in catalog.items():
        pts = interior_points(item, 5, seed=order)
        batch = evaluate_jet(item.smooth_map, pts, order)
        for k, single in enumerate(_jets_at(item.smooth_map, pts, order)):
            for field in ("value", "d1", "d2", "d3"):
                a, b = getattr(batch, field), getattr(single, field)
                if b is None:
                    assert a is None, (name, field)
                    continue
                assert np.max(np.abs(a[k] - b)) <= 1e-13, (name, field, k)


def test_batched_jets_match_finite_differences(catalog):
    """A batched pass agrees with the central-difference oracle at every
    point of the batch, to the oracle's O(h^2) error."""
    dom = ChartDomain(2, ((-1.0, 1.0), (-1.0, 1.0)))

    def evaluator(x):
        return [sin(x[0]) * cosh(x[1]),
                exp(0.5 * x[0] - x[1]),
                dot(x, x) + cos(x[0] * x[1])]

    m = SmoothMap(dom, 3, evaluator, "mixed")
    pts = np.random.default_rng(4).uniform(-0.6, 0.6, size=(6, 2))
    batch = evaluate_jet(m, pts)
    for k, pt in enumerate(pts):
        approx = finite_difference_jet(m, pt, h=1e-3)
        assert np.allclose(batch.value[k], approx.value, atol=1e-10)
        assert np.allclose(batch.d1[k], approx.d1, atol=1e-5)
        assert np.allclose(batch.d2[k], approx.d2, atol=1e-4)
        assert np.allclose(batch.d3[k], approx.d3, atol=2e-2)
    for item in catalog.values():
        pts = interior_points(item, 3, seed=5)
        batch = evaluate_jet(item.smooth_map, pts)
        for k, pt in enumerate(pts):
            approx = finite_difference_jet(item.smooth_map, pt, h=1e-3)
            assert np.allclose(batch.d1[k], approx.d1, atol=1e-5), item.name
            assert np.allclose(batch.d2[k], approx.d2, atol=1e-4), item.name


def test_batched_domain_guard_names_the_point():
    from confflat.errors import DomainError
    dom = ChartDomain(1, ((0.0, 1.0),))
    m = SmoothMap(dom, 1, lambda x: [x[0]], "id")
    with pytest.raises(DomainError, match=r"\[2\.5\]"):
        evaluate_jet(m, np.array([[0.5], [2.5], [0.7]]))
