"""Jet arithmetic against the central-difference oracle and algebraic
identities that exact derivatives must satisfy."""
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confflat.jets import core
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


def test_large_order1_jet_peak_memory(s3xs1_lift):
    """An order-1 pass of the s3xs1 lift at 4,368 points (as many as the
    seven transport sub-step fractions of a 5^4 grid together, which the
    grid build evaluates in passes of 624) releases the evaluator's output
    jets before the value and d1 are copied out: traced allocations peak
    under 4.0 MB for 1.4 MB of results (5.4 MB when the outputs stayed
    alive)."""
    F = s3xs1_lift.F
    pts = F.domain.sample_points(4368, np.random.default_rng(0))
    evaluate_jet(F, pts, 1)                   # warm the cached tables
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        jet = evaluate_jet(F, pts, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert jet.value.nbytes + jet.d1.nbytes == 4368 * 5 * F.codomain_dim * 8
    assert peak < 4.0e6


def test_batched_domain_guard_names_the_point():
    from confflat.errors import DomainError
    dom = ChartDomain(1, ((0.0, 1.0),))
    m = SmoothMap(dom, 1, lambda x: [x[0]], "id")
    with pytest.raises(DomainError, match=r"\[2\.5\]"):
        evaluate_jet(m, np.array([[0.5], [2.5], [0.7]]))


# ---------------------------------------------------------------------------
# the full-tensor jet kernels the packed Taylor coefficients replaced, kept
# here as an oracle only: a jet is (v, g, h, t) with the derivative tensors
# (n,)*k + batch, and components above the order are None
# ---------------------------------------------------------------------------

def _tensor_mul(a, b, order):
    """Product rule on full derivative tensors."""
    v1, g1, h1, t1 = a
    v2, g2, h2, t2 = b
    g = h = t = None
    if order >= 1:
        g = g1 * v2 + v1 * g2
    if order >= 2:
        h = h1 * v2 + v1 * h2 + g1[:, None] * g2[None, :] + g2[:, None] * g1[None, :]
    if order >= 3:
        t = t1 * v2 + v1 * t2
        t = t + h1[:, :, None] * g2[None, None, :]
        t = t + h1[:, None, :] * g2[None, :, None]
        t = t + h1[None, :, :] * g2[:, None, None]
        t = t + h2[:, :, None] * g1[None, None, :]
        t = t + h2[:, None, :] * g1[None, :, None]
        t = t + h2[None, :, :] * g1[:, None, None]
    return v1 * v2, g, h, t


def _tensor_compose(a, order, c0, c1, c2, c3):
    """Univariate chain rule on full derivative tensors, from the Taylor
    coefficients c_k = f^(k)(v)."""
    _, g, h, t = a
    rg = rh = rt = None
    if order >= 1:
        rg = c1 * g
    if order >= 2:
        gg = g[:, None] * g[None, :]
        rh = c1 * h + c2 * gg
    if order >= 3:
        rt = c1 * t
        rt = rt + c2 * (g[:, None, None] * h[None, :, :]
                        + g[None, :, None] * h[:, None, :]
                        + g[None, None, :] * h[:, :, None])
        rt = rt + c3 * (gg[:, :, None] * g[None, None, :])
    return c0, rg, rh, rt


def _symmetric(rng, n, k, batch):
    """A random tensor (n,)*k + batch, symmetric in its first k axes."""
    x = rng.standard_normal((n,) * k + batch)
    perms = list(itertools.permutations(range(k)))
    return sum(np.transpose(x, p + tuple(range(k, k + len(batch))))
               for p in perms) / len(perms)


def _random_jet(rng, n, order, batch):
    """(packed jet, oracle tuple) of one random jet with value in [1, 2]."""
    comps = [rng.uniform(1.0, 2.0, batch)]
    comps += [_symmetric(rng, n, k, batch) for k in range(1, order + 1)]
    comps += [None] * (3 - order)
    jet = Jet(n, order, *comps)
    # the oracle starts from what the jet holds (t is rounded once by 1/6)
    return jet, (jet.v, jet.g, jet.h, jet.t)


def _assert_matches(jet, ref, order):
    for name, got, want in zip("vght", (jet.v, jet.g, jet.h, jet.t), ref):
        if want is None:
            assert got is None, name
            continue
        want = np.asarray(want)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale, (name, order)


_SHAPES = [((), ()), ((5,), (5,)), ((1, 4), (3, 4))]


@pytest.mark.parametrize("n", [1, 2, 4, 6])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_packed_product_matches_the_tensor_oracle(n, order):
    """The packed product agrees with the full-tensor product rule to 1e-14
    of scale, at a point, over a batch, and on the (1, B) x (A, B) broadcast
    that stacked inner products make."""
    rng = np.random.default_rng(n * 10 + order)
    for sa, sb in _SHAPES:
        a, ra = _random_jet(rng, n, order, sa)
        b, rb = _random_jet(rng, n, order, sb)
        _assert_matches(a * b, _tensor_mul(ra, rb, order), order)
        _assert_matches(b * a, _tensor_mul(rb, ra, order), order)


def _loop_product(n, order, a, b, low):
    """Reference product sum: every pair of monomials whose degrees add up
    to at most the order (degree >= low on the left, >= min(low, 1) on the
    right) adds a[i] * b[j] into the row of its product, in (i, j) order,
    starting from zero."""
    mons = core._monomials(n, order)
    row = {m: r for r, m in enumerate(mons)}
    out = np.zeros((len(mons),) + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    for i, x in enumerate(mons):
        for j, y in enumerate(mons):
            if (len(x) >= low and len(y) >= min(low, 1)
                    and len(x) + len(y) <= order):
                out[row[tuple(sorted(x + y))]] += a[i] * b[j]
    return out


@pytest.mark.parametrize("order,low", [(1, 0), (2, 0), (3, 0), (2, 1),
                                       (3, 1), (3, 2)])
@pytest.mark.parametrize("sa,sb", [((), ()), ((6,), (6,)), ((625,), (625,)),
                                   ((1, 5), (3, 5))])
def test_packed_product_sum_is_the_sequential_sum(order, low, sa, sb):
    """At n = 4 every row of the packed product is bitwise the sum of its
    pair products in pair order, starting from +0.0, so no row is -0.0;
    zero and negative coefficients make signed-zero products."""
    rng = np.random.default_rng(order * 10 + low)
    K = core._size(4, order)
    a = rng.standard_normal((K,) + sa)
    b = rng.standard_normal((K,) + sb)
    a[rng.random(a.shape) < 0.3] = 0.0
    b[rng.random(b.shape) < 0.3] = -0.0
    first, got = core._product(4, order, a, b, low)
    want = _loop_product(4, order, a, b, low)
    assert not want[:first].any()
    assert np.array_equal(got, want[first:])
    assert np.array_equal(np.signbit(got), np.signbit(want[first:]))


@pytest.mark.parametrize("n", [1, 2, 4, 6])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_packed_chain_rule_matches_the_tensor_oracle(n, order):
    """sin, exp, log, sqrt, powers and reciprocals of packed jets agree with
    the full-tensor chain rule to 1e-14 of scale, at a point and over a
    batch."""
    rng = np.random.default_rng(n * 10 + order)
    for batch in ((), (5,)):
        a, ra = _random_jet(rng, n, order, batch)
        u = ra[0]
        s, c = np.sin(u), np.cos(u)
        e = np.exp(u)
        cases = [(sin(a), (s, c, -s, -c)), (exp(a), (e, e, e, e)),
                 (log(a), (np.log(u), 1 / u, -1 / u ** 2, 2 / u ** 3)),
                 (sqrt(a), (np.sqrt(u), 0.5 / np.sqrt(u), -0.25 / (np.sqrt(u) * u),
                            0.375 / (np.sqrt(u) * u * u))),
                 (a ** 2.5, (u ** 2.5, 2.5 * u ** 1.5, 3.75 * u ** 0.5,
                             1.875 * u ** -0.5)),
                 (1.0 / a, (1 / u, -1 / u ** 2, 2 / u ** 3, -6 / u ** 4))]
        for jet, coeffs in cases:
            _assert_matches(jet, _tensor_compose(ra, order, *coeffs), order)


def test_packed_order_truncation_and_sums():
    """Mixing orders truncates to the lower one by a prefix of the
    coefficients; sums, differences and scalar multiples act on every
    coefficient."""
    rng = np.random.default_rng(3)
    a, ra = _random_jet(rng, 4, 3, (2,))
    b, rb = _random_jet(rng, 4, 2, (2,))
    _assert_matches(a * b, _tensor_mul(ra, rb, 2), 2)
    s = a + b
    assert s.order == 2 and np.allclose(s.h, ra[2] + rb[2])
    d = 2.0 * a - a
    assert np.max(np.abs(d.c - a.c)) <= 1e-15 * np.max(np.abs(a.c))
