"""Pointwise submanifold geometry: fundamental forms, frames, shape
operators, normal connection and curvature, and the intrinsic curvature
quantities (Riemann, Ricci, scalar, sectional).

The normal frame is built by Gram-Schmidt (with signs, so it also handles
Lorentzian ambient spaces) applied to the ambient basis projected to the
normal space.  The same construction is run on jet scalars to obtain exact
derivatives of the frame, which gives the normal connection and its
curvature without finite differencing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import QUADRIC_TOL, AmbientSpace
from .errors import FrameError, ImmersionError, NotApplicable
from .jets import Jet, evaluate_jet, sqrt as jsqrt
from .jets.maps import Jet3, SmoothMap

RANK_TOL = 1e-8


# ---------------------------------------------------------------------------
# generic vector algebra over floats, point-set arrays or jets
# ---------------------------------------------------------------------------

def _vdot(sig, u, v):
    acc = sig[0] * (u[0] * v[0])
    for s, a, b in zip(sig[1:], u[1:], v[1:]):
        acc = acc + s * (a * b)
    return acc


def _axpy(c, u, v):
    """v + c*u componentwise."""
    return [b + c * a for a, b in zip(u, v)]


def _scale(c, u):
    return [c * a for a in u]


def _val(x):
    return x.v if isinstance(x, Jet) else x


# Scalars here are floats at one point and (B,) arrays over a point set, so
# sign choices, pivots and breakdown checks are made per point.

def _sign(q):
    if isinstance(q, np.ndarray):
        return np.where(q > 0, 1.0, -1.0)
    return 1.0 if q > 0 else -1.0


def _pick(take, new, old):
    if isinstance(take, np.ndarray):
        return np.where(take, new, old)
    return new if take else old


def _sqrt(x):
    return np.sqrt(x) if isinstance(x, np.ndarray) else float(np.sqrt(x))


def _refuse(bad, message):
    """FrameError when `bad` holds, at the point or at any point of a batch
    (the first one is named)."""
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise FrameError(f"{message} (point {int(np.argmax(bad))} of the batch)")
    elif bad:
        raise FrameError(message)


def _unit(sig, r, q=None):
    """r scaled to <u, u> = eps in {-1, +1}, given q = <r, r> when known;
    returns (u, eps)."""
    if q is None:
        q = _vdot(sig, r, r)
    e = _sign(_val(q))
    if isinstance(q, Jet):
        return _scale(jsqrt(q * e) ** -1.0, r), e
    return _scale(1.0 / _sqrt(q * e), r), e


def _project_out(sig, units, eps, r):
    for u, e in zip(units, eps):
        r = _axpy(-e * _vdot(sig, r, u), u, r)
    return r


def orthonormalize(sig, vectors, tol=1e-12):
    """Gram-Schmidt with signs for a (possibly indefinite) diagonal metric.

    Returns (units, eps) where each unit u satisfies <u,u> = eps in {-1,+1}.
    Raises FrameError when a vector degenerates against the span built so far.
    """
    units, eps = [], []
    for v in vectors:
        r = _project_out(sig, units, eps, list(v))
        q = _vdot(sig, r, r)
        qv = _val(q)
        scale = sum(_val(a) ** 2 for a in v)
        scale = np.maximum(scale, 1.0) if isinstance(scale, np.ndarray) else max(scale, 1.0)
        _refuse(abs(qv) < tol * scale, "Gram-Schmidt breakdown: degenerate residual")
        u, e = _unit(sig, r, q)
        units.append(u)
        eps.append(e)
    return units, eps


def complement_frame(sig, span_units, span_eps, count, pivot_order=None, tol=1e-10):
    """Extend an orthonormalized spanning set to the full space by projecting
    the ambient basis, pivoting on the largest residual self inner product
    (per point over a batch: in candidate order, a candidate replaces the
    best only when its residual is larger by more than 1e-15).  With a
    `pivot_order` the candidates are taken in that order instead; over a
    batch an entry may be a (B,) array of per-point pivots."""
    dim = len(sig)
    order = list(pivot_order) if pivot_order is not None else None
    units = list(span_units)
    eps = list(span_eps)
    frame, frame_eps, chosen = [], [], []

    def residual(b):
        r = [(b == c) * 1.0 for c in range(dim)]
        r = _project_out(sig, units, eps, r)
        return abs(_val(_vdot(sig, r, r))), r

    for _ in range(count):
        if order is not None:
            b = order.pop(0)
            q, r = residual(b)
        else:
            q, b, r = -np.inf, -1, [0.0] * dim
            for c in range(dim):
                free = True
                for prev in chosen:
                    free = free & (prev != c)
                if free is False:       # taken already (at a single point)
                    continue
                qc, rc = residual(c)
                take = free & (qc > q + 1e-15)
                q, b = _pick(take, qc, q), _pick(take, c, b)
                r = [_pick(take, x, y) for x, y in zip(rc, r)]
        _refuse(q < tol, "cannot complete normal frame: residuals degenerate")
        chosen.append(b)
        unit, e = _unit(sig, r)
        units.append(unit)
        eps.append(e)
        frame.append(unit)
        frame_eps.append(e)
    return frame, frame_eps, chosen


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
        """The data at point m of a point set."""
        lame = None
        if self.lame is not None and not np.isnan(self.lame[m]).any():
            lame = self.lame[m]
        return ExtrinsicData(self.point[m], self.ambient, self.jet.at(m),
                             self.tangent[m], self.g[m], self.g_inv[m], lame,
                             self.frame[m], self.frame_eps[m], self.alpha[m],
                             self.h_comp[m], self.shape_ops[m], self.onb[m],
                             self.S[m], self.H[m], self.pivots[m])

    def alpha_onb(self):
        """Second fundamental form over the orthonormal tangent basis."""
        return np.einsum("...ki,...lj,...klA->...ijA", self.onb, self.onb, self.alpha)

    def normal_project(self, v):
        """Projection of an ambient vector onto the normal space."""
        sig = self.ambient.signature
        out = np.zeros_like(np.asarray(v, float))
        for xi, e in zip(self.frame, self.frame_eps):
            out = out + e * float(np.sum(sig * v * xi)) * xi
        return out

    def shape_operator(self, xi):
        """A_xi in the ONB for an arbitrary normal vector xi."""
        sig = self.ambient.signature
        coeffs = np.array([e * float(np.sum(sig * xi * f))
                           for f, e in zip(self.frame, self.frame_eps)])
        return np.einsum("a,aij->ij", coeffs, self.S)


def _net_is_orthogonal(g, rel=1e-8):
    """Per point: off-diagonal metric entries below `rel` times the largest
    diagonal one."""
    d = np.diagonal(g, axis1=-2, axis2=-1)
    off = np.abs(g - d[..., None] * np.eye(g.shape[-1]))
    return off.max(axis=(-2, -1)) <= rel * d.max(axis=-1)


def _immersion_metric(jet: Jet3, sig, points):
    """Induced metric of the jet's tangents; raises ImmersionError naming the
    first point where the differential is rank deficient."""
    T = jet.d1
    g = T @ (sig[:, None] * np.swapaxes(T, -1, -2))
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
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


def _components(vectors):
    """(..., k, A) vectors as k lists of A scalars: floats at one point,
    (B,) arrays over a point set."""
    if vectors.ndim == 2:
        return vectors.tolist()
    return [list(v) for v in np.moveaxis(vectors, 0, -1)]


def _stacked(rows, batched):
    out = np.array(rows, float)
    return np.moveaxis(out, -1, 0) if batched else out


def fundamental_forms(smooth_map: SmoothMap, ambient: AmbientSpace, points,
                      jet: Jet3 | None = None) -> ExtrinsicData:
    """Complete pointwise extrinsic data of an immersion, at one point (n,)
    or at each point of a point set (B, n), where every field comes back
    stacked along a leading batch axis.  Frames, pivots and the FrameError
    and ImmersionError checks are decided per point."""
    points = np.asarray(points, float)
    batched = points.ndim == 2
    if jet is None:
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
    sig_list = sig.tolist()
    span_units, span_eps = orthonormalize(sig_list, _components(span))

    frame_list, frame_eps, pivots = complement_frame(sig_list, span_units,
                                                     span_eps, p)
    frame = _stacked(frame_list, batched)            # (..., p, A)
    frame_eps = _stacked(frame_eps, batched)         # (..., p)
    pivots = _stacked(pivots, batched).astype(int)

    # second fundamental form: second derivatives minus their part in the span
    su = _stacked(span_units, batched)               # (..., k, A)
    se = _stacked(span_eps, batched)
    coeffs = se[..., None, None, :] * np.einsum("...kA,A,...ijA->...ijk",
                                                su, sig, jet.d2)
    alpha = jet.d2 - np.einsum("...ijk,...kA->...ijA", coeffs, su)

    g_inv = np.linalg.inv(g)
    h_comp = np.einsum("...ijA,A,...aA->...aij", alpha, sig, frame)
    shape_ops = np.einsum("...ij,...ajk->...aik", g_inv, h_comp)
    H = np.einsum("...ij,...ijA->...A", g_inv, alpha) / n

    L = np.linalg.cholesky(g)
    B = np.swapaxes(np.linalg.inv(L), -1, -2)        # columns: ONB in coordinates
    S = np.einsum("...ki,...akl,...lj->...aij", B, h_comp, B)
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


def codazzi_tensor(ext: ExtrinsicData):
    """T[..., i, j, k, :] = (nabla_{d_i} alpha)(d_j, d_k) from the order-3 jet,
    at a point or at each point of a point set:
    (F_ijk)^perp - Gamma^l_jk alpha_il - Gamma^l_ij alpha_lk - Gamma^l_ik alpha_jl.
    The first two terms are nabla-perp_{d_i} alpha_jk; in a space form the
    position normal of alpha_jk = F_jk - Gamma^l_jk F_l + c g_jk F differentiates
    into tangent and position terms, which the projection drops."""
    sig = ext.ambient.signature.astype(float)
    perp = np.einsum("...a,...aA,...aB->...AB", ext.frame_eps, ext.frame,
                     ext.frame * sig)
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


def _jet_components(jet: Jet3):
    """Ambient vectors of the map and its tangent basis as order-2 jet
    scalars in the chart variables, with the batch axis last."""
    n = jet.n
    batched = jet.value.ndim == 2

    def last(x):
        return np.moveaxis(x, 0, -1) if batched else x

    value = [Jet(n, 2, last(jet.value[..., a]), last(jet.d1[..., a]),
                 last(jet.d2[..., a])) for a in range(jet.codim)]
    tangent = [[Jet(n, 2, last(jet.d1[..., i, a]), last(jet.d2[..., :, i, a]),
                    last(jet.d3[..., :, :, i, a])) for a in range(jet.codim)]
               for i in range(n)]
    return value, tangent


def normal_connection_and_curvature(ext: ExtrinsicData) -> NormalBundleData:
    """Normal connection coefficients and R-perp at the points of `ext`,
    computed two independent ways: (a) exact differentiation of the
    Gram-Schmidt frame through jets, (b) shape-operator commutators (Ricci
    equation).  The jet frame is completed from the pivots of `ext`, so its
    value is `ext.frame` at every point."""
    jet, ambient, p = ext.jet, ext.ambient, ext.p
    sig = ambient.signature.astype(float)
    batch = ext.g.shape[:-2]

    value, tangent = _jet_components(jet)
    span = list(tangent)
    if ambient.is_space_form:
        span.append([c * (1.0 / ambient.radius) for c in value])
    units, eps_span = orthonormalize(sig, span)
    pivots = list(ext.pivots.T) if batch else ext.pivots.tolist()
    frame, frame_eps, _ = complement_frame(sig, units, eps_span, p,
                                           pivot_order=pivots)
    # frame jets stacked (a, A, [derivative axes,] batch...)
    V = np.array([[c.v for c in xi] for xi in frame])
    G = np.array([[c.g for c in xi] for xi in frame])
    Hs = np.array([[c.h for c in xi] for xi in frame])
    eps = np.moveaxis(np.array(frame_eps, float), 0, -1)     # (..., p)

    # Gamma_{i,a}^b = eps_b <d_i xi_a, xi_b> and its derivatives
    # dgamma[k, i] = d_k Gamma_i
    gamma = eps[..., None, None, :] * np.einsum("aAi...,A,bA...->...iab", G, sig, V)
    dgamma = eps[..., None, None, None, :] * (
        np.einsum("aAik...,A,bA...->...kiab", Hs, sig, V)
        + np.einsum("aAi...,A,bAk...->...kiab", G, sig, G))
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
    axis; `sectional` takes one point).

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

    def sectional(self, X, Y):
        """Sectional curvature of the plane spanned by X, Y (ONB coords)."""
        num = np.einsum("ijkl,i,j,k,l->", self.riemann, X, Y, Y, X)
        den = (X @ X) * (Y @ Y) - (X @ Y) ** 2
        return float(num / den)


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
