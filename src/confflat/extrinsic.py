"""Pointwise submanifold geometry: fundamental forms, frames, shape
operators, normal connection and curvature, and the intrinsic curvature
quantities (Riemann, Ricci, scalar, sectional).

The normal frame is built by Gram-Schmidt (with signs, so it also handles
Lorentzian ambient spaces) on the tangents, the position normal of a space
form, and then the ambient axes with the largest residuals.  Over a point
set this is a few batched factorizations: a signed LDL^T of the span's Gram
matrix, pivoted rank-1 steps on the candidates' residual metric, and
triangular solves.  The first derivatives of the frame follow in closed
form from those of the vectors it was built from, which gives the normal
connection and its curvature exactly, without jets of the frame and
without finite differencing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import QUADRIC_TOL, AmbientSpace
from .errors import FrameError, ImmersionError, NotApplicable
from .jets import evaluate_jet
from .jets.maps import Jet3, SmoothMap

RANK_TOL = 1e-8
SPAN_TOL = 1e-12          # Gram-Schmidt breakdown, relative to the vector
COMPLETE_TOL = 1e-10      # smallest residual a completing candidate may have


# ---------------------------------------------------------------------------
# signed Gram-Schmidt
# ---------------------------------------------------------------------------
# k vectors, as the rows of a (k, A) array at a point or of a (..., k, A)
# stack over a point set, are orthonormalized by factorizations batched over
# the points: a signed LDL^T of the Gram matrix for the span, pivoted rank-1
# steps on the candidates' residual metric for the completion, and one
# triangular solve for the units of each.  Every sign, pivot and refusal is
# decided per point.

def _refuse(bad, message):
    """FrameError when `bad` holds, at the point or at any point of a batch
    (the first one is named)."""
    if np.ndim(bad):
        if bad.any():
            raise FrameError(f"{message} (point {int(np.argmax(bad))} of the batch)")
    elif bad:
        raise FrameError(message)


def _units(L, d, V):
    """The rows of L^-1 V, each scaled to <u, u> = sign(d), for the unit
    lower triangular L and the pivots d of a signed LDL^T; returns
    (units, signs)."""
    R = np.linalg.solve(L, V)
    return R / np.sqrt(np.abs(d))[..., None], np.where(d > 0, 1.0, -1.0)


def orthonormalize(sig, vectors, tol=SPAN_TOL):
    """Gram-Schmidt with signs for a (possibly indefinite) diagonal metric.

    `vectors` is a (..., k, A) array.  Returns (units, eps), the units of
    the same shape and eps a (..., k) array, where each unit u satisfies
    <u,u> = eps in {-1,+1}.  The units come from a signed LDL^T of the Gram
    matrix V S V^T, k rank-1 steps over the whole stack, and one triangular
    solve.  Raises FrameError when a vector degenerates against the span
    before it: when its residual |<r, r>| falls below `tol` max(|v|^2, 1),
    which is checked before the residual divides anything."""
    sig = np.asarray(sig, float)
    V = np.asarray(vectors, float)
    batch, k = V.shape[:-2], V.shape[-2]
    Vf = V.reshape((-1,) + V.shape[-2:])
    M = (Vf * sig) @ np.swapaxes(Vf, -1, -2)          # (N, k, k) Gram matrix
    floor = tol * np.maximum(np.sum(Vf * Vf, axis=-1), 1.0)
    L = np.zeros(M.shape)
    d = np.empty(M.shape[:-1])
    for j in range(k):
        # M is the Schur complement on vectors j.. : <r_i, r_l>
        col = M[:, :, 0]
        d[:, j] = col[:, 0]
        bad = np.abs(d[:, j]) < floor[:, j]
        if bad.any():
            _refuse(bad.reshape(batch),
                    "Gram-Schmidt breakdown: degenerate residual")
        L[:, j:, j] = col / d[:, j, None]
        M = M[:, 1:, 1:] - L[:, j + 1:, j, None] * col[:, None, 1:]
    units, eps = _units(L, d, Vf)
    return units.reshape(V.shape), eps.reshape(batch + (k,))


def complement_frame(sig, span_units, span_eps, count, tol=COMPLETE_TOL):
    """Extend an orthonormalized spanning set, as orthonormalize returns it,
    by `count` units made from ambient axes e_b.

    Each step pivots on the candidate with the largest residual
    |<r_b, r_b>|, read from the diagonal of the candidates' residual metric
    M = S - S U^T E U S (S the signature, U the span's units, E their
    signs); ties go to the lowest index within 1e-15 of the largest.  A
    step is one pivoted rank-1 update of M for every point at once, and the
    new units come from one triangular solve.  Raises FrameError when the
    chosen candidate's residual |<r_b, r_b>| is below `tol`, before it
    divides anything.  Returns (frame, eps, pivots), the frame (..., count,
    A) and eps and pivots (..., count) arrays."""
    sig = np.asarray(sig, float)
    U = np.asarray(span_units, float)
    batch, A = U.shape[:-2], sig.shape[0]
    Uf = U.reshape((-1,) + U.shape[-2:])
    E = np.asarray(span_eps, float).reshape(Uf.shape[:-1])
    # rows: the candidates' residuals r_b; times S, their metric M
    residual = np.eye(A) - np.swapaxes(Uf * sig, -1, -2) @ (E[..., None] * Uf)
    M = residual * sig
    at = np.arange(len(M))
    L = np.empty((len(M), A, count))
    d = np.empty((len(M), count))
    pivots = np.empty((len(M), count), int)
    for j in range(count):
        # a taken axis's residual is 0 after its own step and stays at
        # rounding level, so it can only come within 1e-15 of the largest
        # where every residual is below tol, and the step refuses
        q = np.abs(np.diagonal(M, axis1=-2, axis2=-1))
        b = np.argmax(q >= q.max(axis=-1, keepdims=True) - 1e-15, axis=-1)
        col = M[at, :, b]
        d[:, j] = col[at, b]
        bad = np.abs(d[:, j]) < tol
        if bad.any():
            _refuse(bad.reshape(batch),
                    "cannot complete normal frame: residuals degenerate")
        L[:, :, j] = col / d[:, j, None]
        M = M - L[:, :, j, None] * col[:, None, :]
        pivots[:, j] = b
    # the multipliers at the pivots, made exactly unit lower triangular
    Lp = L[at[:, None], pivots] * np.tri(count)
    frame, eps = _units(Lp, d, residual[at[:, None], pivots])
    return (frame.reshape(batch + frame.shape[-2:]),
            eps.reshape(batch + (count,)), pivots.reshape(batch + (count,)))


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
    span_units: np.ndarray    # (k, A) Gram-Schmidt units of the spanning
                              # vectors (tangents, then the position normal)
    span_eps: np.ndarray      # (k,) their signs

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
                             self.S[m], self.H[m], self.pivots[m],
                             self.span_units[m], self.span_eps[m])

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


def _require_order(jet: Jet3, order, reader):
    if jet.order < order:
        raise ValueError(f"{reader} reads derivatives of order {order}: it "
                         f"needs a jet of order {order}, not order {jet.order}")


def fundamental_forms(smooth_map: SmoothMap | None, ambient: AmbientSpace,
                      points, jet: Jet3 | None = None) -> ExtrinsicData:
    """Complete pointwise extrinsic data of an immersion, at one point (n,)
    or at each point of a point set (B, n), where every field comes back
    stacked along a leading batch axis.  Frames, pivots and the FrameError
    and ImmersionError checks are decided per point.  Without `jet` the
    map's order-3 jet at the points is evaluated; with one, the map is not
    read and may be None.  Every field here needs order 2, and so do
    `normal_connection_and_curvature`, `christoffels` and
    `intrinsic_curvatures`; a caller's `jet` may be of order 2, as every
    suite's is, and then `codazzi_tensor`, the one reader of third
    derivatives, refuses the data.  Raises ValueError when given neither a
    map nor a jet, or a jet below order 2."""
    points = np.asarray(points, float)
    batched = points.ndim == 2
    if jet is None:
        if smooth_map is None:
            raise ValueError("fundamental_forms needs a map or a jet")
        jet = evaluate_jet(smooth_map, points, 3)
    _require_order(jet, 2, "fundamental_forms")
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
                         frame_eps, alpha, h_comp, shape_ops, B, S, H, pivots,
                         su, se)


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


def codazzi_tensor(ext: ExtrinsicData):
    """T[..., i, j, k, :] = (nabla_{d_i} alpha)(d_j, d_k) from the order-3 jet,
    at a point or at each point of a point set:
    (F_ijk)^perp - Gamma^l_jk alpha_il - Gamma^l_ij alpha_lk - Gamma^l_ik alpha_jl.
    The first two terms are nabla-perp_{d_i} alpha_jk; in a space form the
    position normal of alpha_jk = F_jk - Gamma^l_jk F_l + c g_jk F differentiates
    into tangent and position terms, which the projection drops."""
    _require_order(ext.jet, 3, "codazzi_tensor")
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

    frame: np.ndarray          # (p, A) the normal frame: ext.frame
    gamma: np.ndarray          # (n, p, p) connection coefficients Gamma_{i,a}^b
    r_perp_frame: np.ndarray   # (n, n, p, p) from frame differentiation
    r_perp_commutator: np.ndarray  # (n, n, p, p) from shape-operator commutators
    disagreement: float        # worst |frame - commutator| over all points


def _frame_derivative(ext: ExtrinsicData):
    """d_i xi_a, (..., n, p, A): the first derivatives of the normal frame
    of `ext` in closed form.

    V, the span rows then the pivot axes e_b, is L U with U the units of
    the Gram-Schmidt frame (the span's units of `ext`, then its normal
    frame), E their signs and L = V S U^T E lower triangular.  With
    X_i = L^-1 (d_i V) S U^T E, d_i U = Omega_i E U, where Omega_i is the
    strict upper part of X_i E made antisymmetric: d_i V = (d_i L) U + L
    d_i U, L^-1 d_i L is lower triangular, and (d_i U) S U^T is
    antisymmetric.  The rows of d_i V are F_ij, then F_i / r for the
    position normal of a space form, then zero."""
    jet, ambient = ext.jet, ext.ambient
    sig = ambient.signature.astype(float)
    span = _spanning_vectors(jet, ambient)           # (..., k, A)
    U = np.concatenate([ext.span_units, ext.frame], axis=-2)   # (..., A, A)
    E = np.concatenate([ext.span_eps, ext.frame_eps], axis=-1)
    W = np.swapaxes(U * sig, -1, -2) * E[..., None, :]   # S U^T E = U^-1
    A = W.shape[-1]
    axes = np.take_along_axis(W, ext.pivots[..., None], axis=-2)
    L = np.concatenate([span @ W, axes], axis=-2) * np.tri(A)
    dspan = jet.d2                                   # (..., n, k, A)
    if ambient.is_space_form:
        dspan = np.concatenate([dspan, jet.d1[..., None, :] / ambient.radius],
                               axis=-2)
    # X_i E, with d_i V zero on the pivot axes
    k = span.shape[-2]
    XE = (np.linalg.inv(L)[..., None, :, :k] @ (dspan @ W[..., None, :, :])) \
        * E[..., None, None, :]
    omega = XE * np.tri(A, k=-1).T
    omega = omega - np.swapaxes(omega, -1, -2)
    return (omega[..., k:, :] * E[..., None, None, :]) @ U[..., None, :, :]


def normal_connection_and_curvature(ext: ExtrinsicData) -> NormalBundleData:
    """Normal connection coefficients and R-perp at the points of `ext`,
    computed two independent ways: (a) differentiation of the Gram-Schmidt
    normal frame of `ext`, whose first derivatives come in closed form from
    the derivatives of the vectors it was built from
    (`_frame_derivative`), (b) shape-operator commutators (Ricci
    equation).  Route (a) reads first derivatives of the frame only, so it
    runs on extrinsic data from an order-2 jet."""
    sig = ext.ambient.signature.astype(float)
    frame, eps = ext.frame, ext.frame_eps            # (..., p, A), (..., p)
    G = _frame_derivative(ext)                       # (..., n, p, A)

    # Gamma_{i,a}^b = eps_b <d_i xi_a, xi_b> and its derivatives
    # dgamma[k, i] = d_k Gamma_i without its term eps_b <d_k d_i xi_a, xi_b>,
    # which is symmetric in (k, i) and cancels in dgamma - swap(dgamma)
    GS = G * sig
    gamma = (GS @ np.swapaxes(frame, -1, -2)[..., None, :, :]) \
        * eps[..., None, None, :]
    dgamma = (GS[..., None, :, :, :] @ np.swapaxes(G, -1, -2)[..., :, None, :, :]) \
        * eps[..., None, None, None, :]
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
    return NormalBundleData(frame, gamma, r_frame_pair, r_comm, disagreement)


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
