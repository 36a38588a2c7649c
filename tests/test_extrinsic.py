"""Pointwise extrinsic data: Gauss equation, frame orthonormality, flat
normal bundle detection, and the intrinsic curvature cross-checks."""
import re
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from confflat import ambient as amb_mod
from confflat import extrinsic
from confflat.catalog import CatalogItem
from confflat.errors import FrameError, ImmersionError
from confflat.extrinsic import (codazzi_tensor, complement_frame,
                                fundamental_forms, intrinsic_curvatures,
                                normal_connection_and_curvature, orthonormalize)
from confflat.jets import (ChartDomain, Jet, SmoothMap, evaluate_jet,
                           sqrt as jsqrt)
from confflat.reports import Run, load_scenario, suite_extrinsic

from conftest import interior_points, into_sphere, sectional


def _ext(item, pt):
    return fundamental_forms(item.smooth_map, item.ambient, pt)


@pytest.mark.parametrize("name", ["s3xs1", "s2xpseudosphere", "s2xs2_control",
                                  "cone_t3", "cylinder_r1xs3", "example2"])
def test_frame_is_pseudo_orthonormal(catalog, name):
    item = catalog[name]
    sig = item.ambient.signature
    for pt in interior_points(item, 3):
        ext = _ext(item, pt)
        gram = np.einsum("aA,A,bA->ab", ext.frame, sig, ext.frame)
        assert np.allclose(gram, np.diag(ext.frame_eps), atol=1e-10)
        # normal frame really is normal to the tangent space
        mixed = np.einsum("iA,A,aA->ia", ext.tangent, sig, ext.frame)
        assert np.max(np.abs(mixed)) < 1e-10


@pytest.mark.parametrize("name", ["s3xs1", "s2xpseudosphere", "example2"])
def test_alpha_reconstructs_from_components(catalog, name):
    item = catalog[name]
    for pt in interior_points(item, 3):
        ext = _ext(item, pt)
        rebuilt = np.einsum("a,aij,aA->ijA", ext.frame_eps.astype(float),
                            ext.h_comp, ext.frame)
        assert np.allclose(rebuilt, ext.alpha, atol=1e-9)


@pytest.mark.parametrize("name", ["s3xs1", "s2xpseudosphere", "s2xs2_control",
                                  "cone_t3", "example2"])
def test_flat_normal_bundle(catalog, name):
    """All catalog immersions carry flat normal bundles, including the
    negative control (flatness of the normal connection does not imply
    conformal flatness of the metric)."""
    item = catalog[name]
    nb = normal_connection_and_curvature(_ext(item, interior_points(item, 3)))
    assert np.max(np.abs(nb.r_perp_frame)) < 1e-8
    assert nb.disagreement < 1e-8


_NB_FIELDS = ("frame", "gamma", "r_perp_frame", "r_perp_commutator")


def test_normal_connection_on_a_point_set(catalog):
    """The normal connection of batched extrinsic data is, point for point,
    that of single-point data (to 1e-12 of each array's scale), on every
    catalog item and on one composed into a sphere; its frame is the frame
    of the extrinsic data, and its two routes to R-perp agree to 1e-12."""
    items = list(catalog.values()) + [into_sphere(catalog["example2"])]
    for item in items:
        ext = _ext(item, interior_points(item, 4, seed=3))
        batch = normal_connection_and_curvature(ext)
        assert np.array_equal(batch.frame, ext.frame)
        assert batch.disagreement <= 1e-12, item.smooth_map.name
        for k in range(len(ext.point)):
            single = normal_connection_and_curvature(ext.at(k))
            for field in _NB_FIELDS:
                ref = getattr(single, field)
                err = np.max(np.abs(getattr(batch, field)[k] - ref))
                assert err <= 1e-12 * max(1.0, np.max(np.abs(ref))), \
                    (item.smooth_map.name, field, k)


def test_normal_connection_reads_the_span_units_of_the_data(catalog,
                                                           s3xs1_lift):
    """The span's units and signs that fundamental_forms keeps are bitwise
    a fresh Gram-Schmidt of the spanning vectors, and `at` slices them; the
    normal bundle data read from them is bitwise that of a frame
    derivative which orthonormalizes the span again, on every catalog
    item, on one composed into a sphere and on the lift, over 4 points and
    at one."""
    items = list(catalog.values()) + [into_sphere(catalog["example2"])]
    cases = [(i.smooth_map, i.ambient) for i in items]
    for fmap, amb in cases + [(s3xs1_lift.F, s3xs1_lift.ambient)]:
        pts = fmap.domain.sample_points(4, np.random.default_rng(3))
        for points in (pts, pts[1]):
            ext = fundamental_forms(fmap, amb, points)
            su, se = orthonormalize(amb.signature,
                                    extrinsic._spanning_vectors(ext.jet, amb))
            assert np.array_equal(ext.span_units, su), fmap.name
            assert np.array_equal(ext.span_eps, se), fmap.name
            fresh = replace(ext, span_units=su.copy(), span_eps=se.copy())
            got, ref = (normal_connection_and_curvature(e) for e in (ext, fresh))
            for field in _NB_FIELDS + ("disagreement",):
                assert np.array_equal(getattr(got, field), getattr(ref, field)), \
                    (fmap.name, field)
        ext = fundamental_forms(fmap, amb, pts)
        for m in (1, [0, 2]):
            assert np.array_equal(ext.at(m).span_units, ext.span_units[m])
            assert np.array_equal(ext.at(m).span_eps, ext.span_eps[m])


def _surface(name, dim, evaluator):
    dom = ChartDomain(2, ((-1.0, 1.0), (-1.0, 1.0)))
    return CatalogItem(name, SmoothMap(dom, dim, evaluator, name),
                       amb_mod.euclidean(dim), None, {}, "")


def test_normal_curvature_gate_can_fail():
    """Surfaces whose normal bundle is not flat: the holomorphic curve
    (x, y, x^2 - y^2, 2xy) in R^4, and (x, y, x^2, xy, y^2) in R^5, whose
    normal connection matrices do not commute.  R-perp reads large, the two
    routes still agree, and the suite's flat-normal-bundle gate, which runs
    on order-2 jets, fails."""
    holo = _surface("holomorphic", 4,
                    lambda x: [x[0], x[1], x[0] * x[0] - x[1] * x[1],
                               2.0 * x[0] * x[1]])
    pts = np.array([[0.0, 0.0], [0.3, -0.2]])
    nb = normal_connection_and_curvature(_ext(holo, pts))
    assert nb.disagreement <= 1e-12
    rperp = np.max(np.abs(nb.r_perp_frame), axis=(1, 2, 3, 4))
    assert np.all(rperp > 1.0)
    assert abs(rperp[0] - 8.0) <= 1e-12
    quad = _surface("quadratic", 5,
                    lambda x: [x[0], x[1], x[0] * x[0], x[0] * x[1],
                               x[1] * x[1]])
    pts = np.array([[0.3, -0.2], [-0.5, 0.4]])
    nb = normal_connection_and_curvature(_ext(quad, pts))
    assert nb.disagreement <= 1e-12
    comm = (np.einsum("...jac,...icb->...ijab", nb.gamma, nb.gamma)
            - np.einsum("...iac,...jcb->...ijab", nb.gamma, nb.gamma))
    assert np.max(np.abs(comm)) > 0.1
    assert np.max(np.abs(nb.r_perp_frame)) > 1.0
    for item in (holo, quad):
        run = Run(item, load_scenario(
            {"schema": 1, "item": item.name, "suite": "extrinsic"}),
            ("extrinsic",))
        checks, _ = suite_extrinsic(run)
        assert run.jet.order == 2, item.name
        verdicts = {c.anchor: c.passed for c in checks}
        assert verdicts == {"extrinsic/flat-normal-bundle": False,
                            "extrinsic/ricci-agreement": True}, item.name


def test_shape_operators_commute(catalog):
    item = catalog["s3xs1"]
    for pt in interior_points(item, 3):
        ext = _ext(item, pt)
        for a in range(len(ext.S)):
            for b in range(a):
                comm = ext.S[a] @ ext.S[b] - ext.S[b] @ ext.S[a]
                assert np.max(np.abs(comm)) < 1e-9


def test_sphere_curvature_constant(catalog):
    """Stereographic patch of the round sphere: sectional curvature 1."""
    item = catalog["sphere_stereographic"]
    c = item.expected["constant_curvature"]
    rng = np.random.default_rng(1)
    for pt in interior_points(item, 3):
        pack = intrinsic_curvatures(_ext(item, pt))
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((pack.riemann.shape[0], 2)))
            assert abs(sectional(pack.riemann, q[:, 0], q[:, 1]) - c) < 1e-8


def test_flat_items_have_zero_curvature(catalog):
    for name in ("flat_inclusion", "flat_cylinder"):
        item = catalog[name]
        for pt in interior_points(item, 2):
            pack = intrinsic_curvatures(_ext(item, pt))
            assert np.max(np.abs(pack.riemann)) < 1e-9


def test_ricci_crosscheck(catalog):
    for name in ("s3xs1", "s2xpseudosphere", "cone_t3"):
        item = catalog[name]
        for pt in interior_points(item, 2):
            pack = intrinsic_curvatures(_ext(item, pt))
            assert pack.ricci_crosscheck_residual < 1e-9


def test_space_form_quadric():
    amb = amb_mod.sphere_form(4, 2.0)
    p = np.zeros(5)
    p[0] = amb.radius
    assert amb.quadric_defect(p) < 1e-14
    hyp = amb_mod.hyperbolic_form(4, -0.5)
    q = np.zeros(5)
    q[0] = hyp.radius
    assert hyp.quadric_defect(q) < 1e-14


def test_conformal_metric_residual(catalog):
    for name in ("s3xs1", "cone_t3", "cylinder_r1xs3"):
        item = catalog[name]
        pts = interior_points(item, 4)
        resid = item.conformal.jets(pts).metric_residual(_ext(item, pts))
        assert resid < 1e-8


_FF_FIELDS = ("g", "g_inv", "frame", "frame_eps", "alpha", "h_comp",
              "shape_ops", "onb", "S", "H")


def _pivots(sig, tangents):
    """Complement pivots and signs of the frame built on these tangents,
    (n, A) at a point or (B, n, A) over a point set."""
    units, eps = orthonormalize(sig, tangents)
    _, frame_eps, chosen = complement_frame(sig, units, eps,
                                            len(sig) - tangents.shape[-2])
    return chosen, frame_eps


def test_fundamental_forms_on_a_point_set(catalog, s3xs1_lift):
    """A point set gives, point for point, the pivots, signs and arrays of
    single-point calls (to 1e-12 of each array's scale), on every catalog
    item and on a Lorentzian lift."""
    cases = [(item.smooth_map, item.ambient) for item in catalog.values()]
    cases.append((s3xs1_lift.F, s3xs1_lift.ambient))
    for fmap, amb in cases:
        pts = fmap.domain.sample_points(4, np.random.default_rng(6))
        batch = fundamental_forms(fmap, amb, pts)
        sig = amb.signature
        chosen_b, eps_b = _pivots(sig, batch.tangent)
        for k, pt in enumerate(pts):
            single = fundamental_forms(fmap, amb, pt)
            for field in _FF_FIELDS:
                ref = getattr(single, field)
                err = np.max(np.abs(getattr(batch, field)[k] - ref))
                # relative: example2 has ill-conditioned metrics (|g^-1| ~ 300)
                assert err <= 1e-12 * max(1.0, np.max(np.abs(ref))), \
                    (fmap.name, field, k)
            assert (single.lame is None) == (batch.at(k).lame is None)
            chosen, eps = _pivots(sig, single.tangent)
            assert np.array_equal(chosen, chosen_b[k]), fmap.name
            assert np.array_equal(eps, eps_b[k]), fmap.name


def test_codazzi_tensor_on_a_point_set(catalog):
    """The Codazzi tensor of batched extrinsic data is, point for point, that
    of single-point data."""
    for item in catalog.values():
        pts = interior_points(item, 3)
        batch = codazzi_tensor(_ext(item, pts))
        for k, pt in enumerate(pts):
            ref = codazzi_tensor(_ext(item, pt))
            assert np.max(np.abs(batch[k] - ref)) <= 1e-12 * max(
                1.0, np.max(np.abs(ref))), item.smooth_map.name


def test_point_set_refuses_a_degenerate_point():
    """A rank-deficient differential at one point of a set is refused and
    the point is named."""
    from confflat.errors import ImmersionError
    from confflat.jets import ChartDomain, SmoothMap
    dom = ChartDomain(2, ((-1.0, 1.0), (-1.0, 1.0)))
    fold = SmoothMap(dom, 3, lambda x: [x[0], x[1] * x[1], x[1] * x[1] * x[1]],
                     "fold")
    pts = np.array([[0.2, 0.5], [0.3, 0.0], [0.1, -0.4]])
    with pytest.raises(ImmersionError, match=r"\[0\.3 0\. *\]"):
        fundamental_forms(fold, amb_mod.euclidean(3), pts)


def test_a_jet_needs_no_map_and_no_jet_needs_one(catalog):
    """Given a jet, fundamental_forms reads no map: with None for the map it
    returns the data it returns beside the jet's own map.  Given neither a
    map nor a jet, it refuses with a ValueError."""
    item = catalog["s3xs1"]
    pts = interior_points(item, 3)
    jet = evaluate_jet(item.smooth_map, pts, 2)
    ref = fundamental_forms(item.smooth_map, item.ambient, pts, jet=jet)
    got = fundamental_forms(None, item.ambient, pts, jet=jet)
    for field in _FF_FIELDS:
        assert np.array_equal(getattr(got, field), getattr(ref, field)), field
    with pytest.raises(ValueError, match="needs a map or a jet"):
        fundamental_forms(None, item.ambient, pts)


def test_codimension_zero_is_not_applicable():
    """A map with no normal directions is refused before any frame is
    built, at one point and over a point set."""
    from confflat.errors import NotApplicable
    dom = ChartDomain(2, ((-1.0, 1.0), (-1.0, 1.0)))
    chart = SmoothMap(dom, 2, lambda x: [x[0], x[1]], "identity")
    for pts in (np.array([0.1, 0.2]), np.array([[0.1, 0.2], [0.3, -0.4]])):
        with pytest.raises(NotApplicable, match="codimension 0"):
            fundamental_forms(chart, amb_mod.euclidean(2), pts)


# ---------------------------------------------------------------------------
# the einsum contractions the matmuls replaced, kept here as an oracle only
# ---------------------------------------------------------------------------

def _einsum_oracle(ext):
    """alpha, h_comp, shape_ops, H, S, alpha_onb and the normal projector of
    `ext` recomputed from its jet, frame, metric and ONB by the einsum
    formulas fundamental_forms used before."""
    jet, amb = ext.jet, ext.ambient
    sig = amb.signature.astype(float)
    su, se = orthonormalize(sig, extrinsic._spanning_vectors(jet, amb))
    coeffs = se[..., None, None, :] * np.einsum("...kA,A,...ijA->...ijk",
                                                su, sig, jet.d2)
    alpha = jet.d2 - np.einsum("...ijk,...kA->...ijA", coeffs, su)
    h_comp = np.einsum("...ijA,A,...aA->...aij", alpha, sig, ext.frame)
    S = np.einsum("...ki,...akl,...lj->...aij", ext.onb, h_comp, ext.onb)
    return {
        "alpha": alpha,
        "h_comp": h_comp,
        "shape_ops": np.einsum("...ij,...ajk->...aik", ext.g_inv, h_comp),
        "H": np.einsum("...ij,...ijA->...A", ext.g_inv, alpha) / ext.n,
        "S": 0.5 * (S + np.swapaxes(S, -1, -2)),
        "alpha_onb": np.einsum("...ki,...lj,...klA->...ijA", ext.onb, ext.onb,
                               alpha),
        "normal_projector": np.einsum("...a,...aA,B,...aB->...AB",
                                      ext.frame_eps, ext.frame, sig, ext.frame),
    }


def _assert_matches_oracle(ext, label):
    got = {"alpha": ext.alpha, "h_comp": ext.h_comp, "shape_ops": ext.shape_ops,
           "H": ext.H, "S": ext.S, "alpha_onb": ext.alpha_onb(),
           "normal_projector": ext.normal_projector()}
    for field, ref in _einsum_oracle(ext).items():
        assert got[field].shape == ref.shape, (label, field)
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        assert np.max(np.abs(got[field] - ref)) <= 1e-13 * scale, (label, field)


def test_contractions_match_the_einsum_oracle(catalog, s3xs1_lift):
    """The matmul contractions of fundamental_forms, alpha_onb and the
    normal projector equal the einsum formulas to 1e-13 of each array's
    scale, at a single point and over a point set, on every catalog item,
    on a Lorentzian lift and on a graph in non-orthogonal coordinates (the
    catalog's charts are principal, so their ONB is diagonal and would not
    tell B from its transpose)."""
    cases = [(item.smooth_map, item.ambient) for item in catalog.values()]
    cases.append((s3xs1_lift.F, s3xs1_lift.ambient))
    graph = SmoothMap(ChartDomain(2, ((-1.0, 1.0), (-1.0, 1.0))), 4,
                      lambda x: [x[0], x[1], x[0] * x[1] + x[0] * x[0],
                                 x[1] * x[1] * x[1] - x[0] * x[1]], "graph")
    cases.append((graph, amb_mod.euclidean(4)))
    for fmap, amb in cases:
        pts = fmap.domain.sample_points(5, np.random.default_rng(3))
        _assert_matches_oracle(fundamental_forms(fmap, amb, pts[0]), fmap.name)
        _assert_matches_oracle(fundamental_forms(fmap, amb, pts), fmap.name)


def _metric_jet(eigenvalues, seed=0, A=6):
    """A stand-in jet whose tangents (rows of d1, shape (B, n, A)) have the
    Euclidean metric Q diag(eigenvalues) Q^T per row of `eigenvalues`."""
    lam = np.atleast_2d(np.asarray(eigenvalues, float))
    B, n = lam.shape
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((B, n, n)))[0]
    W = np.linalg.qr(rng.standard_normal((B, A, A)))[0][:, :n]   # orthonormal rows
    return SimpleNamespace(d1=(Q * np.sqrt(lam)[:, None, :]) @ W)


def _decides_as_eigvalsh(jet, sig, points):
    """Assert that _immersion_metric makes the rank decision of eigvalsh, as
    the gate made it before the Cholesky test: it refuses the stack exactly
    when some point has lambda_min <= RANK_TOL max(lambda_max, 1), and
    names the first such point.  Returns that point's index in the stack
    (0 for a single point), or None when the gate passes."""
    T = jet.d1
    g = T @ (sig[:, None] * np.swapaxes(T, -1, -2))
    evals = np.linalg.eigvalsh(0.5 * (g + np.swapaxes(g, -1, -2)))
    bad = evals[..., 0] <= extrinsic.RANK_TOL * np.maximum(evals[..., -1], 1.0)
    if not bad.any():
        extrinsic._immersion_metric(jet, sig, points)
        return None
    first = int(np.argmax(bad))
    where = points[first] if bad.ndim else points
    with pytest.raises(ImmersionError, match=re.escape(str(where))):
        extrinsic._immersion_metric(jet, sig, points)
    return first


@pytest.mark.parametrize("factor", [0.5, 0.99, 1.01, 3.0, 10.0])
@pytest.mark.parametrize("top", [2.5, 0.5])
def test_rank_gate_decides_as_eigvalsh(factor, top):
    """lambda_min at 0.5x, 0.99x, 1.01x, 3x and 10x the threshold
    RANK_TOL max(lambda_max, 1), with lambda_max above and below 1: the
    Cholesky-first gate refuses exactly where eigvalsh does, and names the
    same point of the stack (at 10x the factorization alone passes it)."""
    thresh = extrinsic.RANK_TOL * max(top, 1.0)
    good = [top, 0.3, 0.2, 0.1]
    jet = _metric_jet([good, good, [top, 0.3, 0.2, factor * thresh], good])
    bad = _decides_as_eigvalsh(jet, np.ones(6), np.arange(8.0).reshape(4, 2))
    assert bad == (None if factor > 1.0 else 2)


def test_rank_gate_refuses_an_indefinite_metric():
    """A metric with a negative eigenvalue (tangents timelike in a
    Lorentzian pairing) fails the factorization and is refused by eigvalsh,
    naming the first such point, in a stack and at a single point."""
    sig = np.array([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    spacelike = np.eye(4, 6, k=1)                  # g = I
    mixed = np.eye(4, 6)                           # g = diag(-1, 1, 1, 1)
    points = np.arange(6.0).reshape(3, 2)
    stack = SimpleNamespace(d1=np.array([spacelike, mixed, mixed]))
    assert _decides_as_eigvalsh(stack, sig, points) == 1
    assert _decides_as_eigvalsh(SimpleNamespace(d1=spacelike), sig,
                                points[0]) is None
    assert _decides_as_eigvalsh(SimpleNamespace(d1=mixed), sig, points[2]) == 0


def test_rank_gate_does_not_pass_a_nan_metric():
    """Cholesky factors a NaN metric into NaNs without an error; such a
    stack still goes to eigvalsh, which refuses it or raises, as before the
    Cholesky test, instead of passing it."""
    d1 = np.array([np.eye(4, 6, k=1)] * 3)
    d1[1, 0, 1] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
            (ImmersionError, np.linalg.LinAlgError)):
        extrinsic._immersion_metric(SimpleNamespace(d1=d1), np.ones(6),
                                    np.arange(6.0).reshape(3, 2))


# ---------------------------------------------------------------------------
# a list-based, step-by-step signed Gram-Schmidt, kept here as an oracle for
# the batched factorizations: an ambient vector is a list of A scalars
# (floats, (B,) arrays or jets), and every inner product is a sequential sum
# over the components
# ---------------------------------------------------------------------------

def _list_vdot(sig, u, v):
    acc = sig[0] * (u[0] * v[0])
    for s, a, b in zip(sig[1:], u[1:], v[1:]):
        acc = acc + s * (a * b)
    return acc


def _list_value(x):
    return x.v if isinstance(x, Jet) else x


def _list_sign(q):
    if isinstance(q, np.ndarray):
        return np.where(q > 0, 1.0, -1.0)
    return 1.0 if q > 0 else -1.0


def _list_pick(take, new, old):
    if isinstance(take, np.ndarray):
        return np.where(take, new, old)
    return new if take else old


def _list_unit(sig, r):
    q = _list_vdot(sig, r, r)
    e = _list_sign(_list_value(q))
    if isinstance(q, Jet):
        c = jsqrt(q * e) ** -1.0
    else:
        c = 1.0 / np.sqrt(q * e)
    return [c * a for a in r], e


def _list_project_out(sig, units, eps, r):
    for u, e in zip(units, eps):
        c = -e * _list_vdot(sig, r, u)
        r = [b + c * a for a, b in zip(u, r)]
    return r


def _list_orthonormalize(sig, vectors):
    units, eps = [], []
    for v in vectors:
        u, e = _list_unit(sig, _list_project_out(sig, units, eps, list(v)))
        units.append(u)
        eps.append(e)
    return units, eps


def _list_complement_frame(sig, units, eps, count, pivot_order=None):
    dim = len(sig)
    units, eps = list(units), list(eps)
    order = list(pivot_order) if pivot_order is not None else None
    frame, frame_eps, chosen = [], [], []

    def residual(b):
        r = _list_project_out(sig, units, eps, [(b == c) * 1.0 for c in range(dim)])
        return abs(_list_value(_list_vdot(sig, r, r))), r

    for _ in range(count):
        if order is not None:
            b = order.pop(0)
            _, r = residual(b)
        else:
            # the lowest free candidate within 1e-15 of the largest residual
            scored = []
            for c in range(dim):
                free = True
                for prev in chosen:
                    free = free & (prev != c)
                if free is not False:
                    scored.append((free, c) + residual(c))
            top = -np.inf
            for free, _, qc, _ in scored:
                top = np.maximum(top, _list_pick(free, qc, -np.inf))
            b, r = -1, [0.0] * dim
            for free, c, qc, rc in scored:
                take = free & (qc >= top - 1e-15) & (b == -1)
                b = _list_pick(take, c, b)
                r = [_list_pick(take, x, y) for x, y in zip(rc, r)]
        chosen.append(b)
        unit, e = _list_unit(sig, r)
        units.append(unit)
        eps.append(e)
        frame.append(unit)
        frame_eps.append(e)
    return frame, frame_eps, chosen


def _list_jet_span(jet, ambient):
    """Tangents (and the scaled position for space forms) as lists of order-2
    jet scalars with the batch axis last."""
    def last(x):
        return np.moveaxis(x, 0, -1) if jet.value.ndim == 2 else x

    span = [[Jet(jet.n, 2, last(jet.d1[..., i, a]), last(jet.d2[..., :, i, a]),
                 last(jet.d3[..., :, :, i, a])) for a in range(jet.codim)]
            for i in range(jet.n)]
    if ambient.is_space_form:
        span.append([Jet(jet.n, 2, last(jet.value[..., a]), last(jet.d1[..., a]),
                         last(jet.d2[..., a])) * (1.0 / ambient.radius)
                     for a in range(jet.codim)])
    return span


def _parity_cases(catalog, lift):
    cases = [(item.smooth_map, item.ambient) for item in catalog.values()]
    return cases + [(lift.F, lift.ambient)]


def _assert_close(got, ref, what):
    """Equal to 1e-14 of the reference's scale: the oracle repeats the
    step-by-step arithmetic, and the factorizations round differently."""
    ref = np.asarray(ref, float)
    err = np.max(np.abs(np.asarray(got, float) - ref))
    assert err <= 1e-14 * max(1.0, np.max(np.abs(ref))), (what, err)


def test_pivots_match_the_list_oracle(catalog, s3xs1_lift):
    """The batched Gram-Schmidt picks the list oracle's pivots and signs
    bit for bit, and its frames agree to 1e-14 of scale, on every catalog
    item and the s3xs1 lift, at one point and over 6 points."""
    for fmap, amb in _parity_cases(catalog, s3xs1_lift):
        sig = amb.signature.tolist()
        pts = fmap.domain.sample_points(6, np.random.default_rng(2))
        for points in (pts[0], pts):
            ext = fundamental_forms(fmap, amb, points)
            span = extrinsic._spanning_vectors(ext.jet, amb)
            if points.ndim == 2:            # A lists of (B,) arrays
                span = np.moveaxis(span, 0, -1)
            units, eps = _list_orthonormalize(sig, [list(v) for v in span])
            frame, frame_eps, chosen = _list_complement_frame(sig, units, eps, ext.p)
            # the oracle carries the batch axis last
            frame, frame_eps, chosen = (
                np.moveaxis(np.array(x), -1, 0) if points.ndim == 2 else np.array(x)
                for x in (frame, frame_eps, chosen))
            name = (fmap.name, points.ndim)
            assert np.array_equal(ext.pivots, chosen), name
            assert np.array_equal(ext.frame_eps, frame_eps), name
            _assert_close(ext.frame, frame, name)


def _list_frame_jets(ext):
    """The list oracle's frame of `ext` as order-2 jets of order-3 data,
    completed from the pivots of `ext`: the frame lists and their signs."""
    amb = ext.ambient
    sig = amb.signature.tolist()
    units, eps = _list_orthonormalize(sig, _list_jet_span(ext.jet, amb))
    return _list_complement_frame(sig, units, eps, ext.p,
                                  pivot_order=list(ext.pivots.T))[:2]


def test_jet_frame_matches_the_list_oracle(catalog, s3xs1_lift):
    """The closed-form first derivatives of the normal frame, over 6
    points, agree to 1e-14 of scale with the first derivatives of the list
    oracle's frame jets, and the oracle's frame takes the value and signs of
    the frame of the extrinsic data."""
    for fmap, amb in _parity_cases(catalog, s3xs1_lift):
        ext = fundamental_forms(fmap, amb, fmap.domain.sample_points(
            6, np.random.default_rng(2)))
        ref, ref_eps = _list_frame_jets(ext)
        assert np.array_equal(ext.frame_eps, np.array(ref_eps).T), fmap.name
        V, G = (np.array([[getattr(c, f) for c in xi] for xi in ref])
                for f in "vg")                       # (p, A, [n,] B)
        _assert_close(ext.frame, np.einsum("aAB->BaA", V), (fmap.name, "v"))
        _assert_close(extrinsic._frame_derivative(ext),
                      np.einsum("aAiB->BiaA", G), (fmap.name, "g"))


def _r_perp_with_second_derivatives(ext):
    """The frame route of R-perp with the term <d_k d_i xi_a, xi_b> of d_k
    Gamma_i kept, from the list oracle's order-2 frame jets of order-3
    data: (gamma, <R-perp(d_i, d_j) xi_a, xi_b>), batch first."""
    sig = ext.ambient.signature.astype(float)
    ref, ref_eps = _list_frame_jets(ext)
    V, G, H = (np.array([[getattr(c, f) for c in xi] for xi in ref])
               for f in "vgh")                       # (p, A, [n, [n,]] B)
    e = np.array(ref_eps).T                          # (B, p)
    gamma = e[:, None, None] * np.einsum("aAiB,A,bAB->Biab", G, sig, V)
    dgamma = e[:, None, None, None] * (
        np.einsum("aAikB,A,bAB->Bkiab", H, sig, V)
        + np.einsum("aAiB,A,bAkB->Bkiab", G, sig, G))
    comm = (np.einsum("Bjac,Bicb->Bijab", gamma, gamma)
            - np.einsum("Biac,Bjcb->Bijab", gamma, gamma))
    r = dgamma - np.swapaxes(dgamma, 1, 2) + comm
    return gamma, r * e[:, None, None, None]


def test_normal_connection_on_order2_data(catalog, s3xs1_lift):
    """On every catalog item and on the lift, over 6 points, the normal
    connection of extrinsic data from an order-2 jet has bitwise the gamma
    and R-perp of order-3 data, and R-perp and the disagreement of the two
    routes agree to 1e-14 of scale with a frame route that keeps the
    second frame derivatives, which cancel in R-perp."""
    for fmap, amb in _parity_cases(catalog, s3xs1_lift):
        pts = fmap.domain.sample_points(6, np.random.default_rng(2))
        ext3 = fundamental_forms(fmap, amb, pts)
        nb = normal_connection_and_curvature(fundamental_forms(
            None, amb, pts, jet=evaluate_jet(fmap, pts, 2)))
        nb3 = normal_connection_and_curvature(ext3)
        assert np.array_equal(nb.gamma, nb3.gamma), fmap.name
        assert np.array_equal(nb.r_perp_frame, nb3.r_perp_frame), fmap.name
        gamma, r_ref = _r_perp_with_second_derivatives(ext3)
        _assert_close(nb.gamma, gamma, (fmap.name, "gamma"))
        _assert_close(nb.r_perp_frame, r_ref, (fmap.name, "r_perp_frame"))
        _assert_close(nb.disagreement,
                      np.max(np.abs(r_ref - nb3.r_perp_commutator)),
                      (fmap.name, "disagreement"))


def test_fundamental_forms_refuses_a_jet_below_order_2(catalog):
    """An order-1 jet holds no second fundamental form: refused with the
    order named, at a point and over a point set."""
    item = catalog["s3xs1"]
    for pts in (interior_points(item, 2), interior_points(item, 1)[0]):
        jet = evaluate_jet(item.smooth_map, pts, 1)
        with pytest.raises(ValueError, match="not order 1"):
            fundamental_forms(None, item.ambient, pts, jet=jet)


def _one_unit_span(*us):
    """A unit vector (*us, z) of R^(len(us) + 1), whose residuals leave
    e_b at 1 - us[b]^2."""
    return list(us) + [np.sqrt(1.0 - sum(u * u for u in us))]


def test_complement_pivot_tie_break():
    """The pivot is the lowest index within 1e-15 of the largest residual:
    at a residual gap of about 5e-16 the earlier index wins, at about
    1e-14 the later one does, at one point and per point over a batch.  In
    a chain of three residuals about 6e-16 apart the middle one wins, where
    the rule "a later candidate must beat the best by more than 1e-15"
    would take the last."""
    sig = np.ones(3)
    near, far = 0.3 - 8.3e-16, 0.3 - 1.7e-14
    for u1, expected in ((near, 0), (far, 1)):
        units, eps = orthonormalize(sig, np.array([_one_unit_span(0.3, u1)]))
        r0, r1 = 1.0 - units[0, :2] ** 2
        assert 0.0 < r1 - r0 and (r1 - r0 < 1e-15) == (expected == 0)
        _, _, chosen = complement_frame(sig, units, eps, 1)
        assert chosen.tolist() == [expected]
    batch = np.array([[_one_unit_span(0.3, near)], [_one_unit_span(0.3, far)],
                      [_one_unit_span(0.3, near)]])
    units, eps = orthonormalize(sig, batch)
    _, _, chosen = complement_frame(sig, units, eps, 1)
    assert chosen[:, 0].tolist() == [0, 1, 0]

    units, eps = orthonormalize(np.ones(4), np.array(
        [_one_unit_span(0.3, 0.3 - 1e-15, 0.3 - 2e-15)]))
    r = 1.0 - units[0] ** 2
    assert r[0] < r[1] < r[2] and r[3] < r[0]
    assert r[2] - r[1] < 1e-15 < r[2] - r[0]     # the lowest within 1e-15: 1
    assert r[1] - r[0] < 1e-15 < r[2] - r[0]     # best-beating scan: 2
    _, _, chosen = complement_frame(np.ones(4), units, eps, 1)
    assert chosen.tolist() == [1]


def test_batch_breakdown_names_the_point():
    """A vector that degenerates at one point of a batch is refused and the
    point is named."""
    x = np.array([0.1, 0.5, 0.9])         # the second vector dies at x = 0.5
    vectors = np.zeros((3, 2, 3))
    vectors[:, 0, 0] = vectors[:, 1, 0] = 1.0
    vectors[:, 1, 1] = x - 0.5
    with pytest.raises(FrameError, match=r"\(point 1 of the batch\)"):
        orthonormalize(np.ones(3), vectors)
