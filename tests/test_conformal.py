"""Conformal change of metric, the quadruple flatness identity, and the
Q-tensor identities for proper holonomic immersions."""
import numpy as np
import pytest

from confflat.conformal import (conformal_change, conformal_flatness_test,
                                lemma_q_suite)
from confflat.extrinsic import fundamental_forms, intrinsic_curvatures
from confflat.jets import ChartDomain, SmoothMap, cos, exp, norm_sq, sin

from conftest import interior_points

DOM = ChartDomain(4, ((-0.7, 0.7),) * 4)

# three unrelated conformal exponents on the same chart
FACTORS = [
    SmoothMap(DOM, 1, lambda x: [x[0] - 0.5 * x[1]], "linear"),
    SmoothMap(DOM, 1, lambda x: [sin(x[0]) * cos(x[2]) * 0.3], "wavy"),
    SmoothMap(DOM, 1, lambda x: [exp(-norm_sq(x) * 0.25)], "bump"),
]


@pytest.mark.parametrize("omega", FACTORS, ids=lambda m: m.name)
def test_conformal_curvature_crosscheck(omega, rng):
    """Curvature of e^{2w} delta assembled through the Q formula agrees with
    direct differentiation of the conformal metric."""
    for pt in rng.uniform(-0.5, 0.5, size=(3, 4)):
        res = conformal_change(omega, pt)
        assert res.crosscheck_residual < 1e-7
        assert np.allclose(res.r_star, res.r_star_direct, atol=1e-7)


def _ext(item, points):
    return fundamental_forms(item.smooth_map, item.ambient, points)


def _quadruple_loop(packs, trials, seed):
    """Reference for conformal_flatness_test: the quadruple test one point
    and one trial at a time, over curvature packs with a `sectional`."""
    rng = np.random.default_rng(seed)
    worst = kmax = 0.0
    for pack in packs:
        for _ in range(trials):
            Qo, _ = np.linalg.qr(rng.standard_normal((pack.n, 4)))
            X = [Qo[:, i] for i in range(4)]
            K = {}
            for a, b in ((0, 1), (2, 3), (0, 2), (1, 3)):
                K[a, b] = pack.sectional(X[a], X[b])
                kmax = max(kmax, abs(K[a, b]))
            worst = max(worst, abs(K[0, 1] + K[2, 3] - K[0, 2] - K[1, 3]))
    return worst / max(kmax, 1e-12)


def test_flatness_identity_positive(catalog):
    for name in ("s3xs1", "s2xpseudosphere", "cone_t3", "example2"):
        item = catalog[name]
        ext = _ext(item, interior_points(item, 4))
        assert conformal_flatness_test(ext, trials=30) < 1e-6


def test_flatness_identity_negative_control(catalog):
    item = catalog["s2xs2_control"]
    ext = _ext(item, interior_points(item, 4))
    assert conformal_flatness_test(ext, trials=30) > 0.05


def test_quadruple_test_on_a_point_set(catalog):
    """The batched quadruple test draws the quadruples of the per-point loop
    and gives its result to 1e-12 relative, on every catalog item with
    n >= 4, the negative control included."""
    for name, item in sorted(catalog.items()):
        for seed in (0, 1):
            ext = _ext(item, interior_points(item, 5, seed=seed))
            packs = [intrinsic_curvatures(ext.at(k)) for k in range(5)]
            ref = _quadruple_loop(packs, trials=20, seed=seed)
            got = conformal_flatness_test(ext, trials=20, seed=seed)
            assert abs(got - ref) <= 1e-12 * max(ref, 1.0), (name, seed)
            if name == "s2xs2_control":
                assert got > 0.05


def test_flatness_identity_on_conformal_metrics(rng):
    """The identity holds for any metric conformal to a flat one, whatever
    the factor."""
    for omega in FACTORS:
        def pack_at(pt, omega=omega):
            res = conformal_change(omega, pt)

            class Pack:
                riemann = res.r_star_direct
                n = 4

                @staticmethod
                def sectional(X, Y):
                    # r_star indices: R(d_i, d_j) d_k = r[l, i, j, k] d_l,
                    # lowered with the conformal metric
                    e2 = np.exp(2.0 * float(omega.value(pt)[0]))
                    low = np.einsum("lijk->ijkl", res.r_star_direct) * e2
                    num = np.einsum("ijkl,i,j,k,l->", low, X, Y, Y, X)
                    gX = e2 * X @ X
                    gY = e2 * Y @ Y
                    gXY = e2 * X @ Y
                    return num / (gX * gY - gXY ** 2)
            return Pack
        pts = rng.uniform(-0.5, 0.5, size=(3, 4))
        assert _quadruple_loop(map(pack_at, pts), trials=20, seed=0) < 1e-6


def test_q_suite(catalog):
    for name in ("s3xs1", "cone_t3", "cylinder_r1xs3"):
        item = catalog[name]
        rep = lemma_q_suite(_ext(item, interior_points(item, 4)),
                            item.conformal)
        assert rep.offblock_residual < 1e-7
        assert rep.duality_residual < 1e-7
        if rep.high_mult_residual is not None:
            assert rep.high_mult_residual < 1e-7
