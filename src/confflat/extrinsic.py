"""Pointwise submanifold geometry: fundamental forms, frames, shape
operators, normal connection and curvature, and the intrinsic curvature
quantities (Riemann, Ricci, scalar, sectional).

The normal frame is built by Gram-Schmidt (with signs, so it also handles
Lorentzian ambient spaces) applied to the ambient basis projected to the
normal space.  The same construction is run on vector jets to obtain exact
derivatives of the frame, which gives the normal connection and its
curvature without finite differencing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import QUADRIC_TOL, AmbientSpace
from .errors import FrameError, ImmersionError, NotApplicable
from .jets import Jet, evaluate_jet, sqrt as jsqrt, stack, unstack
from .jets.core import _jet
from .jets.maps import Jet3, SmoothMap

RANK_TOL = 1e-8
SPAN_TOL = 1e-12          # Gram-Schmidt breakdown, relative to the vector
COMPLETE_TOL = 1e-10      # smallest residual a completing candidate may have


# ---------------------------------------------------------------------------
# signed Gram-Schmidt over stacked ambient vectors
# ---------------------------------------------------------------------------
# An ambient vector is one object with the ambient axis first: an (A,) array
# at a point, an (A, B) array over a point set, or a Jet whose batch shape is
# (A,) or (A, B), so axis 1 of its coefficients.  Inner products keep that
# axis with length 1, so that they multiply vectors directly (jet products
# align on trailing axes).  Signs and pivots are floats at a point and (B,)
# arrays over a point set, so sign choices, pivots and breakdown checks are
# made per point.

def _val(x):
    return x.v if isinstance(x, Jet) else x


def _sig(sig, v):
    """The signature shaped to broadcast against the stacked vector v."""
    return np.asarray(sig, float).reshape((-1,) + (1,) * (_val(v).ndim - 1))


def _vdot(sig, u, v):
    w = sig * (u * v)
    if isinstance(w, Jet):
        return _jet(w.n, w.order, w.c.sum(axis=1, keepdims=True))
    return w.sum(axis=0, keepdims=True)


def _sign(q):
    if isinstance(q, np.ndarray):
        return np.where(q > 0, 1.0, -1.0)
    return 1.0 if q > 0 else -1.0


def _pick(take, new, old):
    if isinstance(take, np.ndarray):
        return np.where(take, new, old)
    return new if take else old


def _refuse(bad, message):
    """FrameError when `bad` holds, at the point or at any point of a batch
    (the first one is named)."""
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise FrameError(f"{message} (point {int(np.argmax(bad))} of the batch)")
    elif bad:
        raise FrameError(message)


def _unit(sig, r, q):
    """r scaled to <u, u> = eps in {-1, +1}, given q = <r, r>; returns
    (u, eps)."""
    e = _sign(_val(q)[0])
    if isinstance(q, Jet):
        return jsqrt(q * e) ** -1.0 * r, e
    return 1.0 / np.sqrt(q * e) * r, e


def _project_out(sig, units, eps, r):
    for u, e in zip(units, eps):
        r = r + -e * _vdot(sig, r, u) * u
    return r


def _orthonormalize(sig, vectors, tol):
    units, eps = [], []
    for v in vectors:
        r = _project_out(sig, units, eps, v)
        q = _vdot(sig, r, r)
        scale = np.maximum(np.sum(_val(v) ** 2, axis=0), 1.0)
        _refuse(abs(_val(q)[0]) < tol * scale,
                "Gram-Schmidt breakdown: degenerate residual")
        u, e = _unit(sig, r, q)
        units.append(u)
        eps.append(e)
    return units, eps


def _complete(sig, units, eps, count, pivot_order, tol):
    A = sig.shape[0]
    units, eps = list(units), list(eps)
    frame, frame_eps, chosen = [], [], []
    # residuals of all A candidates (axis 1), projected once per unit
    R, done = np.eye(A).reshape((A,) + sig.shape), 0
    for j in range(count):
        if pivot_order is None:
            R = _project_out(sig[:, None], [u[:, None] for u in units[done:]],
                             eps[done:], R)
            done = len(units)
            Q = abs(_vdot(sig[:, None], R, R))[0]
            if chosen:
                np.put_along_axis(Q, np.array(chosen), -np.inf, axis=0)
            q, b = -np.inf, -1
            for c, qc in enumerate(Q):
                take = qc > q + 1e-15
                q, b = _pick(take, qc, q), _pick(take, c, b)
            r = np.take_along_axis(R, np.asarray(b)[None, None], axis=1)[:, 0]
        else:
            b = pivot_order[j]
            r = _project_out(sig, units, eps,
                             (np.arange(A).reshape(sig.shape) == b) * 1.0)
        q = _vdot(sig, r, r)
        _refuse(abs(_val(q)[0]) < tol,
                "cannot complete normal frame: residuals degenerate")
        chosen.append(b)
        unit, e = _unit(sig, r, q)
        units.append(unit)
        eps.append(e)
        frame.append(unit)
        frame_eps.append(e)
    return frame, frame_eps, chosen


def _stacked_in(vectors):
    """k vectors, given as a (..., k, A) array, as one jet of batch shape
    (k, A[, B]) or as sequences of A scalars, as stacked vectors.  Arrays
    come out C-contiguous, so that every sum over the ambient axis adds in
    ambient order over a batch."""
    if isinstance(vectors, np.ndarray):
        return list(np.ascontiguousarray(np.moveaxis(vectors, (-2, -1), (0, 1))))
    if isinstance(vectors, Jet):
        return unstack(vectors)
    return [stack(v) for v in vectors]


def _stacked_out(vectors, like):
    """Stacked vectors in the form of `like`, as _stacked_in takes it."""
    if isinstance(like, np.ndarray):
        return np.moveaxis(np.array(vectors), (0, 1), (-2, -1))
    if isinstance(like, Jet):
        return stack(vectors)
    return [unstack(u) for u in vectors]


def _batch_last(xs):
    return np.moveaxis(np.array(xs), 0, -1)


def orthonormalize(sig, vectors, tol=SPAN_TOL):
    """Gram-Schmidt with signs for a (possibly indefinite) diagonal metric.

    `vectors` is a (..., k, A) array, one jet of batch shape (k, A) or
    (k, A, B), or k vectors each a sequence of A scalars (floats, (B,)
    arrays over a point set, or jets).  Returns (units, eps) with units in
    the same form and eps a (..., k) array for an array, else a list, where
    each unit u satisfies <u,u> = eps in {-1,+1}.  Raises FrameError when a
    vector degenerates against the span built so far.
    """
    vecs = _stacked_in(vectors)
    units, eps = _orthonormalize(_sig(sig, vecs[0]), vecs, tol)
    if isinstance(vectors, np.ndarray):
        eps = _batch_last(eps)
    return _stacked_out(units, vectors), eps


def complement_frame(sig, span_units, span_eps, count, pivot_order=None,
                     tol=COMPLETE_TOL):
    """Extend an orthonormalized spanning set, in any form orthonormalize
    returns, to the full space by projecting the ambient basis, pivoting on
    the largest residual self inner product (per point over a batch: in
    candidate order, a candidate replaces the best only when its residual is
    larger by more than 1e-15).  With a `pivot_order` the candidates are
    taken in that order instead; over a batch an entry may be a (B,) array
    of per-point pivots.  Without one the span must not be jets.  Returns
    (frame, eps, pivots), the frame in the span's form; eps and pivots are
    (..., count) arrays for an array span, else lists."""
    units = _stacked_in(span_units)
    as_array = isinstance(span_units, np.ndarray)
    if as_array:
        span_eps = list(np.moveaxis(span_eps, -1, 0))
    frame, eps, chosen = _complete(_sig(sig, units[0]), units, span_eps, count,
                                   pivot_order, tol)
    if as_array:
        eps, chosen = _batch_last(eps), _batch_last(chosen)
    return _stacked_out(frame, span_units), eps, chosen


# ---------------------------------------------------------------------------
# extrinsic data
# ---------------------------------------------------------------------------

@dataclass
class ExtrinsicData:
    """Extrinsic data at a point, or at each point of a point set (then every
    array field has a leading batch axis; the methods below take one point,
    see `at`)."""

    point: np.ndarray
    ambient: AmbientSpace
    jet: Jet3
    tangent: np.ndarray       # (n, A) coordinate vectors
    g: np.ndarray             # (n, n) induced metric
    g_inv: np.ndarray
    lame: np.ndarray | None   # (n,) when the net is orthogonal; over a point
                              # set, NaN rows where it is not
    frame: np.ndarray         # (p, A) pseudo-orthonormal normal frame
    frame_eps: np.ndarray     # (p,) signs <xi_a, xi_a>
    alpha: np.ndarray         # (n, n, A) second fundamental form
    h_comp: np.ndarray        # (p, n, n) components <alpha, xi_a>
    shape_ops: np.ndarray     # (p, n, n) in the coordinate basis
    onb: np.ndarray           # (n, n) columns = orthonormal tangent basis
    S: np.ndarray             # (p, n, n) symmetric shape operators in the ONB
    H: np.ndarray             # (A,) mean curvature vector
    pivots: np.ndarray        # (p,) ambient axes the frame was completed from

    @property
    def n(self):
        return self.g.shape[-1]

    @property
    def p(self):
        return self.frame.shape[-2]

    def at(self, m):
        """The data at point m of a point set, or at the points of an index
        array m as a point set."""
        lame = self.lame
        if np.ndim(m) == 0:
            lame = None if self.lame is None or np.isnan(self.lame[m]).any() \
                else self.lame[m]
        elif lame is not None:
            lame = lame[m]
        return ExtrinsicData(self.point[m], self.ambient, self.jet.at(m),
                             self.tangent[m], self.g[m], self.g_inv[m], lame,
                             self.frame[m], self.frame_eps[m], self.alpha[m],
                             self.h_comp[m], self.shape_ops[m], self.onb[m],
                             self.S[m], self.H[m], self.pivots[m])

    def alpha_onb(self):
        """Second fundamental form over the orthonormal tangent basis."""
        return _congruent(self.onb, self.alpha)

    def normal_projector(self):
        """Matrix P (..., A, A) of the projection onto the normal space,
        P v = sum_a eps_a <xi_a, v> xi_a."""
        frame = self.frame
        return np.swapaxes(frame, -1, -2) @ (
            self.frame_eps[..., None] * frame * self.ambient.signature)

    def normal_project(self, v):
        """Projection of an ambient vector onto the normal space."""
        return self.normal_projector() @ v

    def shape_operator(self, xi):
        """A_xi in the ONB for an arbitrary normal vector xi."""
        sig = self.ambient.signature
        return np.einsum("a,aA,A,aij->ij", self.frame_eps, self.frame, sig * xi,
                         self.S)


def _congruent(B, form):
    """sum_kl B[k, i] B[l, j] form[k, l, :]: a vector-valued bilinear form
    (..., n, n, A) over the basis given by the columns of B (..., n, n),
    as two matmuls."""
    Bt = np.swapaxes(B, -1, -2)
    half = Bt[..., None, :, :] @ form                       # second slot
    flat = half.reshape(half.shape[:-2] + (-1,))
    return (Bt @ flat).reshape(half.shape)                  # first slot


def _net_is_orthogonal(g, rel=1e-8):
    """Per point: off-diagonal metric entries below `rel` times the largest
    diagonal one."""
    d = np.diagonal(g, axis1=-2, axis2=-1)
    off = np.abs(g - d[..., None] * np.eye(g.shape[-1]))
    return off.max(axis=(-2, -1)) <= rel * d.max(axis=-1)


def _immersion_metric(jet: Jet3, sig, points):
    """Induced metric of the jet's tangents; raises ImmersionError naming the
    first point where the differential is rank deficient, that is where
    lambda_min(g) <= RANK_TOL max(lambda_max(g), 1).

    A Cholesky factorization of g - tau I, tau = 2 RANK_TOL max(tr g, 1),
    proves the common case: it succeeds only where lambda_min(g) > tau, up
    to a backward error of about 1e-15 tr g, seven orders below tau, and
    lambda_max(g) <= tr g for a positive definite g.  A stack it does not
    factor into finite numbers is decided by eigvalsh."""
    T = jet.d1
    g = T @ (sig[:, None] * np.swapaxes(T, -1, -2))
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    tau = 2.0 * RANK_TOL * np.maximum(np.trace(g, axis1=-2, axis2=-1), 1.0)
    shifted = g - tau[..., None, None] * np.eye(g.shape[-1])
    try:
        if np.isfinite(np.linalg.cholesky(shifted)).all():
            return g
    except np.linalg.LinAlgError:
        pass
    evals = np.linalg.eigvalsh(g)
    bad = evals[..., 0] <= RANK_TOL * np.maximum(evals[..., -1], 1.0)
    if np.any(bad):
        where = points[np.argmax(bad)] if bad.ndim else points
        raise ImmersionError(f"rank-deficient differential at {where}")
    return g


def _spanning_vectors(jet: Jet3, ambient: AmbientSpace):
    """Tangents, plus the position normal for space-form ambients, as rows
    of a (..., k, A) array."""
    if not ambient.is_space_form:
        return jet.d1
    pos = ambient.position_normal(jet.value)
    return np.concatenate([jet.d1, pos[..., None, :]], axis=-2)


def fundamental_forms(smooth_map: SmoothMap | None, ambient: AmbientSpace,
                      points, jet: Jet3 | None = None) -> ExtrinsicData:
    """Complete pointwise extrinsic data of an immersion, at one point (n,)
    or at each point of a point set (B, n), where every field comes back
    stacked along a leading batch axis.  Frames, pivots and the FrameError
    and ImmersionError checks are decided per point.  Without `jet` the
    map's order-3 jet at the points is evaluated; with one, the map is not
    read and may be None.  A caller's `jet` may be of lower order: every
    field here needs order 2 only, and the readers of third derivatives
    (`codazzi_tensor`, `normal_connection_and_curvature`) then refuse the
    data.  Raises ValueError when given neither a map nor a jet."""
    points = np.asarray(points, float)
    batched = points.ndim == 2
    if jet is None:
        if smooth_map is None:
            raise ValueError("fundamental_forms needs a map or a jet")
        jet = evaluate_jet(smooth_map, points, 3)
    n = jet.n
    A = jet.codim
    if A != ambient.flat_dim:
        raise ValueError("map codomain does not match ambient realization dim")
    sig = ambient.signature.astype(float)
    g = _immersion_metric(jet, sig, points)

    if ambient.is_space_form:
        tol = 1e3 * QUADRIC_TOL * max(1.0, abs(1.0 / ambient.c))
        if np.any(ambient.quadric_defect(jet.value) > tol):
            raise ValueError("evaluator does not land on the model quadric")
    span = _spanning_vectors(jet, ambient)
    p = A - span.shape[-2]
    if p <= 0:
        raise NotApplicable(
            f"no normal directions: a {n}-dimensional map into the "
            f"{ambient.manifold_dim}-dimensional {ambient.kind} ambient "
            f"has codimension {p}")
    su, se = orthonormalize(sig, span)               # (..., k, A), (..., k)
    frame, frame_eps, pivots = complement_frame(sig, su, se, p)

    # second fundamental form: second derivatives minus their part in the
    # span, with the two derivative axes as one axis of n * n rows
    d2 = jet.d2.reshape(jet.d2.shape[:-3] + (n * n, A))
    coeffs = (d2 @ np.swapaxes(su * sig, -1, -2)) * se[..., None, :]
    alpha = d2 - coeffs @ su                         # (..., n * n, A)

    g_inv = np.linalg.inv(g)
    h_comp = ((frame * sig) @ np.swapaxes(alpha, -1, -2)).reshape(
        frame.shape[:-1] + (n, n))                   # (..., p, n, n)
    shape_ops = g_inv[..., None, :, :] @ h_comp
    H = (g_inv.reshape(g.shape[:-2] + (1, n * n)) @ alpha)[..., 0, :] / n
    alpha = alpha.reshape(jet.d2.shape)

    L = np.linalg.cholesky(g)
    B = np.swapaxes(np.linalg.inv(L), -1, -2)        # columns: ONB in coordinates
    S = np.swapaxes(B, -1, -2)[..., None, :, :] @ h_comp @ B[..., None, :, :]
    S = 0.5 * (S + np.swapaxes(S, -1, -2))

    lame = np.sqrt(np.diagonal(g, axis1=-2, axis2=-1))
    orthogonal = _net_is_orthogonal(g)
    if not batched:
        lame = lame if orthogonal else None
    else:
        lame[~orthogonal] = np.nan
    return ExtrinsicData(points, ambient, jet, jet.d1, g, g_inv, lame, frame,
                         frame_eps, alpha, h_comp, shape_ops, B, S, H, pivots)


def normal_projectors(smooth_map: SmoothMap, ambient: AmbientSpace, points):
    """Projectors onto the normal space at a point set (B, n), shape
    (B, A, A), from one batched order-1 jet: P = I - U (U^T G U)^{-1} U^T G
    with U the tangents, plus the position normal for space-form ambients.
    Needs no normal frame; the rank check is that of fundamental_forms."""
    points = np.asarray(points, float)
    jet = evaluate_jet(smooth_map, points, 1)
    sig = ambient.signature.astype(float)
    _immersion_metric(jet, sig, points)
    U = _spanning_vectors(jet, ambient)              # (B, k, A), rows
    UG = U * sig
    coef = np.linalg.solve(UG @ np.swapaxes(U, -1, -2), UG)
    return np.eye(jet.codim) - np.swapaxes(U, -1, -2) @ coef


# ---------------------------------------------------------------------------
# Levi-Civita connection and the Codazzi tensor
# ---------------------------------------------------------------------------

def christoffels(ext: ExtrinsicData):
    """Gamma[..., k, i, j] = <nabla_{d_i} d_j, d_k> from exact metric
    derivatives, at a point or at each point of a point set."""
    jet = ext.jet
    sig = ext.ambient.signature.astype(float)
    # d_i g_jk = <d2[i,j], d1[k]> + <d1[j], d2[i,k]>
    dg = (np.einsum("...ijA,A,...kA->...ijk", jet.d2, sig, jet.d1)
          + np.einsum("...jA,A,...ikA->...ijk", jet.d1, sig, jet.d2))
    return 0.5 * (np.einsum("...ijk->...kij", dg) + np.einsum("...jik->...kij", dg)
                  - dg)


def _require_order3(ext: ExtrinsicData, reader):
    if ext.jet.order < 3:
        raise ValueError(f"{reader} reads third derivatives: it needs "
                         f"extrinsic data from an order-3 jet, not order "
                         f"{ext.jet.order}")


def codazzi_tensor(ext: ExtrinsicData):
    """T[..., i, j, k, :] = (nabla_{d_i} alpha)(d_j, d_k) from the order-3 jet,
    at a point or at each point of a point set:
    (F_ijk)^perp - Gamma^l_jk alpha_il - Gamma^l_ij alpha_lk - Gamma^l_ik alpha_jl.
    The first two terms are nabla-perp_{d_i} alpha_jk; in a space form the
    position normal of alpha_jk = F_jk - Gamma^l_jk F_l + c g_jk F differentiates
    into tangent and position terms, which the projection drops."""
    _require_order3(ext, "codazzi_tensor")
    perp = ext.normal_projector()
    gam = np.einsum("...lm,...mij->...lij", ext.g_inv, christoffels(ext))
    alpha = ext.alpha
    return (np.einsum("...AB,...ijkB->...ijkA", perp, ext.jet.d3)
            - np.einsum("...ljk,...ilA->...ijkA", gam, alpha)
            - np.einsum("...lij,...lkA->...ijkA", gam, alpha)
            - np.einsum("...lik,...jlA->...ijkA", gam, alpha))


# ---------------------------------------------------------------------------
# normal connection and its curvature
# ---------------------------------------------------------------------------

@dataclass
class NormalBundleData:
    """Normal connection and curvature at a point, or at each point of a
    point set (then every array has a leading batch axis)."""

    frame: np.ndarray          # (p, A) value of the jet frame: ext.frame
    gamma: np.ndarray          # (n, p, p) connection coefficients Gamma_{i,a}^b
    r_perp_frame: np.ndarray   # (n, n, p, p) from frame differentiation
    r_perp_commutator: np.ndarray  # (n, n, p, p) from shape-operator commutators
    disagreement: float        # worst |frame - commutator| over all points


def _vector_jets(jet: Jet3):
    """The map and its tangent basis as order-2 vector jets in the chart
    variables, with the ambient axis before the batch axis."""
    def last(x):
        return np.moveaxis(x, 0, -1) if jet.value.ndim == 2 else x

    value = Jet(jet.n, 2, last(jet.value), last(jet.d1), last(jet.d2))
    tangent = [Jet(jet.n, 2, last(jet.d1[..., i, :]), last(jet.d2[..., :, i, :]),
                   last(jet.d3[..., :, :, i, :])) for i in range(jet.n)]
    return value, tangent


def normal_connection_and_curvature(ext: ExtrinsicData) -> NormalBundleData:
    """Normal connection coefficients and R-perp at the points of `ext`,
    computed two independent ways: (a) exact differentiation of the
    Gram-Schmidt frame through jets, (b) shape-operator commutators (Ricci
    equation).  The jet frame is completed from the pivots of `ext`, so its
    value is `ext.frame` at every point."""
    _require_order3(ext, "normal_connection_and_curvature")
    jet, ambient, p = ext.jet, ext.ambient, ext.p
    sig = ambient.signature.astype(float)
    batch = ext.g.shape[:-2]

    value, span = _vector_jets(jet)
    if ambient.is_space_form:
        span.append(value * (1.0 / ambient.radius))
    sig_v = _sig(sig, value)
    units, eps_span = _orthonormalize(sig_v, span, SPAN_TOL)
    frame, frame_eps, _ = _complete(sig_v, units, eps_span, p,
                                    list(ext.pivots.T), COMPLETE_TOL)
    # frame jets stacked (a, [derivative axes,] A, batch...)
    V = np.array([xi.v for xi in frame])
    G = np.array([xi.g for xi in frame])
    Hs = np.array([xi.h for xi in frame])
    eps = _batch_last(frame_eps)                     # (..., p)

    # Gamma_{i,a}^b = eps_b <d_i xi_a, xi_b> and its derivatives
    # dgamma[k, i] = d_k Gamma_i
    gamma = eps[..., None, None, :] * np.einsum("aiA...,A,bA...->...iab", G, sig, V)
    dgamma = eps[..., None, None, None, :] * (
        np.einsum("aikA...,A,bA...->...kiab", Hs, sig, V)
        + np.einsum("aiA...,A,bkA...->...kiab", G, sig, G))
    comm = (np.einsum("...jac,...icb->...ijab", gamma, gamma)
            - np.einsum("...iac,...jcb->...ijab", gamma, gamma))
    r_frame = dgamma - np.swapaxes(dgamma, -4, -3) + comm
    # the same metric pairing as route (b): <R(d_i,d_j)xi_a, xi_b>
    r_frame_pair = r_frame * eps[..., None, None, None, :]

    # Ricci equation: <R-perp(d_i, d_j) xi_a, xi_b> = <[A_a, A_b] d_i, d_j>,
    # with the shape operators in the coordinate basis
    M = ext.shape_ops
    MM = np.einsum("...aik,...bkj->...abij", M, M)
    C = MM - np.swapaxes(MM, -4, -3)
    r_comm = np.einsum("...jk,...abki->...ijab", ext.g, C)

    disagreement = float(np.max(np.abs(r_frame_pair - r_comm)))
    return NormalBundleData(np.moveaxis(V, -1, 0) if batch else V, gamma,
                            r_frame_pair, r_comm, disagreement)


# ---------------------------------------------------------------------------
# intrinsic curvature
# ---------------------------------------------------------------------------

@dataclass
class CurvaturePack:
    """Curvature quantities over an orthonormal tangent basis, at a point or
    at each point of a point set (then every array has a leading batch
    axis).

    Convention: riemann[i, j, k, l] = R(e_i, e_j, e_k, e_l)
    = <alpha(e_i, e_l), alpha(e_j, e_k)> - <alpha(e_i, e_k), alpha(e_j, e_l)>
    (+ the constant-curvature term for space-form ambients), so that the
    sectional curvature of the (e_i, e_j) plane is riemann[i, j, j, i].
    """

    riemann: np.ndarray   # (n, n, n, n)
    ricci: np.ndarray     # (n, n)
    tau: float            # (B,) over a point set
    ricci_crosscheck_residual: float   # worst over all points

    @property
    def n(self):
        return self.ricci.shape[-1]


def intrinsic_curvatures(ext: ExtrinsicData) -> CurvaturePack:
    n = ext.n
    sig = ext.ambient.signature.astype(float)
    aon = ext.alpha_onb()                       # (..., n, n, A)
    inner = np.einsum("...ijA,A,...klA->...ijkl", aon, sig, aon)  # <a_ij, a_kl>
    # R_{ijkl} = <a_il, a_jk> - <a_ik, a_jl>
    R = np.einsum("...iljk->...ijkl", inner) - np.einsum("...ikjl->...ijkl", inner)
    c = ext.ambient.c
    if c != 0.0:
        I = np.eye(n)
        R = R + c * (np.einsum("il,jk->ijkl", I, I) - np.einsum("ik,jl->ijkl", I, I))
    ric = np.einsum("...ijki->...jk", R)
    tau = np.trace(ric, axis1=-2, axis2=-1)

    # independent mean-curvature form of the Ricci tensor
    H = ext.H
    ric2 = (n * np.einsum("...jkA,...A->...jk", aon, sig * H)
            - np.einsum("...jiA,A,...kiA->...jk", aon, sig, aon))
    if c != 0.0:
        ric2 = ric2 + c * (n - 1) * np.eye(n)
    resid = float(np.max(np.abs(ric - ric2)))
    return CurvaturePack(R, 0.5 * (ric + np.swapaxes(ric, -1, -2)),
                         float(tau) if tau.ndim == 0 else tau, resid)
