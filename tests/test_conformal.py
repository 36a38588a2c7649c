"""Conformal change of metric, the Weyl test for conformal flatness against
the quadruple sectional-curvature identity, and the Q-tensor identities for
proper holonomic immersions."""
import numpy as np
import pytest

from confflat.ambient import euclidean
from confflat.conformal import (ConformalStructure, conformal_change,
                                conformal_flatness_test, lemma_q_suite,
                                schouten, weyl_defects)
from confflat.errors import NotApplicable
from confflat.extrinsic import (CurvaturePack, fundamental_forms,
                                intrinsic_curvatures)
from confflat.jets import ChartDomain, SmoothMap, cos, exp, norm_sq, sin
from confflat.principal import principal_decompositions

from conftest import interior_points, sectional

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


def _quadruple_loop(riemanns, trials, seed):
    """Oracle for conformal_flatness_test: the largest |K(X1,X2) + K(X3,X4)
    - K(X1,X3) - K(X2,X4)| over Haar-random orthonormal quadruples, one
    point and one trial at a time, over Riemann tensors in an orthonormal
    basis, relative to the largest sectional curvature met.  Zero iff the
    metric is conformally flat, for n >= 4."""
    rng = np.random.default_rng(seed)
    worst = kmax = 0.0
    for R in riemanns:
        for _ in range(trials):
            Qo, _ = np.linalg.qr(rng.standard_normal((R.shape[0], 4)))
            X = [Qo[:, i] for i in range(4)]
            K = {}
            for a, b in ((0, 1), (2, 3), (0, 2), (1, 3)):
                K[a, b] = sectional(R, X[a], X[b])
                kmax = max(kmax, abs(K[a, b]))
            worst = max(worst, abs(K[0, 1] + K[2, 3] - K[0, 2] - K[1, 3]))
    return worst / max(kmax, 1e-12)


def test_flatness_identity_positive(catalog):
    for name in ("s3xs1", "s2xpseudosphere", "cone_t3", "example2"):
        item = catalog[name]
        ext = _ext(item, interior_points(item, 4))
        assert conformal_flatness_test(intrinsic_curvatures(ext)) < 1e-6


def test_flatness_identity_negative_control(catalog):
    item = catalog["s2xs2_control"]
    ext = _ext(item, interior_points(item, 4))
    assert conformal_flatness_test(intrinsic_curvatures(ext)) > 0.05


def test_quadruple_test_on_a_point_set(catalog):
    """The Weyl residual and the quadruple oracle agree on zero and nonzero
    at seeds 0 and 1: both at rounding level on every conformally flat
    catalog item, both far from zero on the negative control."""
    for name, item in sorted(catalog.items()):
        for seed in (0, 1):
            ext = _ext(item, interior_points(item, 5, seed=seed))
            pack = intrinsic_curvatures(ext)
            ref = _quadruple_loop(pack.riemann, trials=20, seed=seed)
            got = conformal_flatness_test(pack)
            if item.expected.get("conformally_flat", True):
                assert max(got, ref) <= 1e-13, (name, seed, got, ref)
            else:
                assert min(got, ref) > 0.05, (name, seed, got, ref)


def _onb_riemann(omega, pt):
    """Riemann tensor of e^{2w} delta at `pt` over the orthonormal basis
    e^{-w} d_i, from the direct route of conformal_change."""
    res = conformal_change(omega, pt)
    # r_star_direct indices: R(d_i, d_j) d_k = r[l, i, j, k] d_l; lowering
    # with e^{2w} delta and rescaling four indices by e^{-w} divide by e^{2w}
    e2 = np.exp(2.0 * float(omega.value(pt)[0]))
    return np.einsum("lijk->ijkl", res.r_star_direct) / e2


def test_flatness_identity_on_conformal_metrics(rng):
    """The quadruple identity holds and the Weyl tensor vanishes for any
    metric conformal to a flat one, whatever the factor."""
    for omega in FACTORS:
        pts = rng.uniform(-0.5, 0.5, size=(3, 4))
        R = np.array([_onb_riemann(omega, pt) for pt in pts])
        assert _quadruple_loop(R, trials=20, seed=0) < 1e-6
        ric = np.einsum("...ijki->...jk", R)
        weyl, riemann = weyl_defects(CurvaturePack(
            R, ric, np.trace(ric, axis1=-2, axis2=-1), 0.0))
        assert np.max(weyl) <= 1e-12 * np.max(riemann), omega.name


GRAPH_DOM = ChartDomain(4, ((-0.5, 0.5),) * 4)


def _graph(x):
    """The graph of 1/2 sum a_i x_i^2 + x0 x1 x2 + 0.7 x1 x2 x3 with
    a = (1, 2, 3, 4): four distinct principal curvatures at the origin."""
    h = 0.5 * sum((i + 1.0) * x[i] * x[i] for i in range(4))
    return list(x) + [h + x[0] * x[1] * x[2] + 0.7 * x[1] * x[2] * x[3]]


def test_weyl_test_fails_a_generic_graph_hypersurface():
    """A hypersurface of R^5 with four distinct principal curvatures is not
    conformally flat: the Weyl residual and the quadruple oracle both read
    far above the 1e-6 tolerance of `conformal/flatness`."""
    smap = SmoothMap(GRAPH_DOM, 5, _graph, "graph")
    pts = GRAPH_DOM.sample_points(6, np.random.default_rng(0))
    ext = fundamental_forms(smap, euclidean(5), pts)
    pack = intrinsic_curvatures(ext)
    assert conformal_flatness_test(pack) > 1e-2
    assert _quadruple_loop(pack.riemann, trials=20, seed=0) > 1e-2


def test_weyl_test_is_not_applicable_in_dimension_3():
    """The Weyl tensor vanishes identically for n = 3, so it decides
    nothing there: the test refuses the chart."""
    dom = ChartDomain(3, ((-0.5, 0.5),) * 3)
    smap = SmoothMap(dom, 4, lambda x: list(x) + [
        0.5 * (x[0] * x[0] + 2.0 * x[1] * x[1] + 3.0 * x[2] * x[2])], "graph3")
    ext = fundamental_forms(smap, euclidean(4),
                            dom.sample_points(3, np.random.default_rng(0)))
    with pytest.raises(NotApplicable):
        conformal_flatness_test(intrinsic_curvatures(ext))


def test_q_suite(catalog):
    for name in ("s3xs1", "cone_t3", "cylinder_r1xs3"):
        item = catalog[name]
        ext = _ext(item, interior_points(item, 4))
        rep = lemma_q_suite(ext, item.conformal.jets(ext.point),
                            principal_decompositions(ext),
                            intrinsic_curvatures(ext))
        assert rep.offblock_residual < 1e-7
        assert rep.schouten_residual < 1e-7
        if rep.high_mult_residual is not None:
            assert rep.high_mult_residual < 1e-7


def _scaled(omega, factor):
    return SmoothMap(omega.domain, 1,
                     lambda x: [factor * w for w in omega.evaluator(x)],
                     f"{factor}*{omega.name}")


def test_schouten_identity_fails_on_a_wrong_factor(catalog):
    """`conformal/q-duality` compares the Schouten tensor of the induced
    metric e^{2w} g0 with -(Q + |dw|^2_0 g0 / 2): it reads rounding with the
    item's own w and fails its 1e-7 tolerance with w scaled by 1.1.  The
    same comparison without the |dw|^2 term fails too."""
    item = catalog["s3xs1"]
    conf = item.conformal
    ext = _ext(item, interior_points(item, 6))
    decs, pack = principal_decompositions(ext), intrinsic_curvatures(ext)
    cjets = conf.jets(ext.point)
    assert lemma_q_suite(ext, cjets, decs, pack).schouten_residual <= 1e-12
    wrong = ConformalStructure(_scaled(conf.omega, 1.1), conf.flat_chart)
    assert lemma_q_suite(ext, wrong.jets(ext.point), decs,
                         pack).schouten_residual > 1e-7

    _, grad, hess = cjets.omega_flat_jets()
    _, J = cjets.flat_frame()
    E = J @ ext.onb
    P = schouten(intrinsic_curvatures(ext))
    Q = hess - grad[:, :, None] * grad[:, None, :]
    half = 0.5 * np.sum(grad * grad, axis=-1)[:, None, None] * np.eye(4)

    def residual(P0):
        return np.max(np.abs(P - np.swapaxes(E, -1, -2) @ P0 @ E)) / max(
            np.max(np.abs(P)), 1.0)

    assert residual(-(Q + half)) <= 1e-12
    assert residual(-Q) > 1e-7
