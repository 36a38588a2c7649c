"""Conformal calculus: conformal changes of metric, the Q tensors, the
Schouten and Weyl tensors (a vanishing Weyl tensor decides conformal
flatness for n >= 4), and the residual suite for the Q identities on proper
submanifolds with flat normal bundle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotApplicable
from .extrinsic import CurvaturePack, ExtrinsicData
from .jets import SmoothMap, evaluate_jet


# ---------------------------------------------------------------------------
# conformal structures on a chart
# ---------------------------------------------------------------------------

@dataclass
class ConformalStructure:
    """Declares the induced metric of an immersion to be e^{2 omega} times a
    flat metric.  `omega` is a scalar map on the chart; when the chart
    coordinates are not themselves the flat ones, `flat_chart` is the
    diffeomorphism onto flat coordinates."""

    omega: SmoothMap
    flat_chart: SmoothMap | None = None

    def flat_frame(self, points):
        """(x, J) with x the flat coordinates of `points` and J = dPhi, at
        a point or at each point of a point set."""
        points = np.asarray(points, float)
        if self.flat_chart is None:
            return points, np.broadcast_to(np.eye(points.shape[-1]),
                                           points.shape + points.shape[-1:])
        jet = evaluate_jet(self.flat_chart, points, 1)
        return jet.value, np.swapaxes(jet.d1, -1, -2)  # J[a, i] = d Phi_a / d u_i

    def omega_flat_jets(self, points):
        """(omega, grad, Hess) with respect to the flat coordinates, at a
        point or at each point of a point set."""
        jw = evaluate_jet(self.omega, points, 2)
        w = jw.value[..., 0]
        gu = jw.d1[..., 0]
        Hu = jw.d2[..., 0]
        if self.flat_chart is None:
            return w, gu, Hu
        jp = evaluate_jet(self.flat_chart, points, 2)
        JinvT = np.linalg.inv(jp.d1)                 # J^-T, with J = d1^T
        gx = np.einsum("...ij,...j->...i", JinvT, gu)
        # H_u = J^T H_x J + sum_a (g_x)_a Hess_u Phi_a
        corr = np.einsum("...a,...ija->...ij", gx, jp.d2)
        Hx = JinvT @ (Hu - corr) @ np.swapaxes(JinvT, -1, -2)
        return w, gx, 0.5 * (Hx + np.swapaxes(Hx, -1, -2))

    def metric_residual(self, ext: ExtrinsicData):
        """Worst relative defect of the induced metric `ext.g` against
        e^{2 omega} (flat chart metric) over the points of `ext`."""
        _, J = self.flat_frame(ext.point)
        w = evaluate_jet(self.omega, ext.point, 0).value[..., 0]
        target = np.exp(2.0 * w)[..., None, None] * (np.swapaxes(J, -1, -2) @ J)
        r = (np.max(np.abs(ext.g - target), axis=(-2, -1))
             / np.max(np.abs(ext.g), axis=(-2, -1)))
        return float(np.max(r))


# ---------------------------------------------------------------------------
# conformal change of a flat metric
# ---------------------------------------------------------------------------

@dataclass
class QPack:
    """Q(X,Y) = Hess omega(X,Y) - X(omega) Y(omega) with respect to the base
    (flat) metric."""

    omega: float
    grad: np.ndarray          # (n,)
    Q: np.ndarray             # (n, n)
    grad_norm_sq: float

    def T(self):
        """T[l, i, j, k]: components of T(d_i, d_j) d_k on the d_l basis."""
        n = self.Q.shape[0]
        I = np.eye(n)
        Qg = self.Q + self.grad_norm_sq * I
        T = (np.einsum("jk,li->lijk", Qg, I) - np.einsum("ik,lj->lijk", Qg, I)
             + np.einsum("jk,il->lijk", I, self.Q) - np.einsum("ik,jl->lijk", I, self.Q))
        return T


@dataclass
class ConformalChangeResult:
    correction: np.ndarray    # (k, i, j): (nabla* - nabla) coefficients
    qpack: QPack
    r_star: np.ndarray        # (l, i, j, k): R*(d_i, d_j) d_k, via the Q formula
    r_star_direct: np.ndarray  # same, assembled from the conformal metric's jets
    crosscheck_residual: float


def conformal_change(omega_map: SmoothMap, point) -> ConformalChangeResult:
    """Levi-Civita correction, Q tensors, and curvature of e^{2 omega} times
    the flat metric in the chart coordinates (assumed Cartesian).  The
    curvature comes out two ways: through the Q-tensor formula and directly
    from Christoffel symbols of the conformal metric; both are returned with
    their disagreement."""
    point = np.asarray(point, float)
    jw = evaluate_jet(omega_map, point, 3)
    n = len(point)
    w = float(jw.value[0])
    g1 = jw.d1[:, 0]                         # omega_i
    g2 = jw.d2[:, :, 0]                      # omega_ij
    I = np.eye(n)

    corr = (np.einsum("j,ki->kij", g1, I) + np.einsum("i,kj->kij", g1, I)
            - np.einsum("ij,k->kij", I, g1))
    Q = g2 - np.outer(g1, g1)
    qp = QPack(w, g1.copy(), Q, float(g1 @ g1))
    r_star = -qp.T()                          # flat base: R* = R - T = -T

    # direct route: generic curvature assembly from the metric e^{2w} delta
    e2 = np.exp(2.0 * w)
    g = e2 * I
    ginv = I / e2
    dg = 2.0 * e2 * np.einsum("m,ij->mij", g1, I)
    ddg = 2.0 * e2 * np.einsum("mp,ij->mpij", g2 + 2.0 * np.outer(g1, g1), I)
    gam_l = 0.5 * (np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg)
                   - np.einsum("lij->lij", dg))          # Gamma_{l,ij}
    gam = np.einsum("kl,lij->kij", ginv, gam_l)
    dgam_l = 0.5 * (np.einsum("mijl->mlij", ddg) + np.einsum("mjil->mlij", ddg)
                    - np.einsum("mlij->mlij", ddg))
    dginv = -np.einsum("ka,mab,bl->mkl", ginv, dg, ginv)
    dgam = (np.einsum("mkl,lij->mkij", dginv, gam_l)
            + np.einsum("kl,mlij->mkij", ginv, dgam_l))
    # R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} + Gamma Gamma terms
    r_direct = (np.einsum("iljk->lijk", dgam) - np.einsum("jlik->lijk", dgam)
                + np.einsum("lim,mjk->lijk", gam, gam)
                - np.einsum("ljm,mik->lijk", gam, gam))
    scale = max(float(np.max(np.abs(r_star))), 1.0)
    resid = float(np.max(np.abs(r_star - r_direct))) / scale
    return ConformalChangeResult(corr, qp, r_star, r_direct, resid)


# ---------------------------------------------------------------------------
# conformal flatness: the Weyl tensor
# ---------------------------------------------------------------------------

def schouten(pack: CurvaturePack):
    """P = (Ric - tau g / (2(n-1))) / (n-2) over the orthonormal basis of
    `pack`, at a point or at each point of a point set."""
    n = pack.n
    tau = np.asarray(pack.tau)[..., None, None]
    return (pack.ricci - tau * np.eye(n) / (2 * (n - 1))) / (n - 2)


def weyl_defects(pack: CurvaturePack):
    """(max|W|, max|R|) at each point of `pack`, with W = R - P (.) g the
    Weyl tensor: the Riemann tensor less the Kulkarni-Nomizu product of the
    Schouten tensor with g = I.  W = 0 iff the metric is conformally flat,
    for n >= 4; in dimension 3 it vanishes identically."""
    n = pack.n
    if n < 4:
        raise NotApplicable("the Weyl tensor decides conformal flatness "
                            "only for n >= 4")
    P = schouten(pack)
    # T[i, j, k, l] = P_il delta_jk; (P (.) g)_ijkl = T + T_jilk - (k <-> l)
    T = P[..., :, None, None, :] * np.eye(n)[:, :, None]
    S = T + np.swapaxes(np.swapaxes(T, -4, -3), -2, -1)
    W = pack.riemann - (S - np.swapaxes(S, -2, -1))
    axes = (-4, -3, -2, -1)
    return np.max(np.abs(W), axis=axes), np.max(np.abs(pack.riemann), axis=axes)


def conformal_flatness_test(pack: CurvaturePack):
    """max|W| / max|R| over the points of `pack` (the largest Riemann
    component at least 1e-12): zero to rounding iff the metric is
    conformally flat, for n >= 4."""
    weyl, riemann = weyl_defects(pack)
    return float(np.max(weyl)) / max(float(np.max(riemann)), 1e-12)


# ---------------------------------------------------------------------------
# Q-identity suite for proper conformally flat submanifolds
# ---------------------------------------------------------------------------

@dataclass
class QSuiteReport:
    offblock_residual: float         # Q(X, Z) = 0 for X in E_i, Z orthogonal to X
    high_mult_residual: float | None  # Q(Z,Z) + (|eta_1|^2 + e^{-4w}|grad w|^2)/2
    schouten_residual: float         # P = -(Q + |grad w|^2 g0 / 2), g0 flat


def lemma_q_suite(ext: ExtrinsicData, conf: ConformalStructure, decs,
                  pack: CurvaturePack) -> QSuiteReport:
    """Residuals of the two pointwise Q identities that hold for any proper
    isometric immersion with flat normal bundle of a globally conformally
    flat manifold, with Q and gradients taken in the flat chart metric, over
    the points of batched extrinsic data `ext` with their principal
    decompositions `decs`; and of the Schouten tensor of e^{2w} g0 (from the
    curvatures `pack` of `ext`) against -(Q + |dw|^2_0 g0 / 2) over the
    orthonormal basis, relative to max(|P|, 1)."""
    W, GW, HW = conf.omega_flat_jets(ext.point)
    _, J = conf.flat_frame(ext.point)
    Q = HW - GW[..., :, None] * GW[..., None, :]                  # (B, n, n)
    gw2 = np.sum(GW * GW, axis=-1)
    # the Schouten tensor against -(Q + |dw|^2 g0 / 2), both over the
    # orthonormal basis E (in flat coordinates)
    E = J @ ext.onb
    P = schouten(pack)
    P0 = -(Q + 0.5 * gw2[..., None, None] * np.eye(ext.n))
    dP = np.max(np.abs(P - np.swapaxes(E, -1, -2) @ P0 @ E), axis=(-2, -1))
    sch = float(np.max(dP / np.maximum(np.max(np.abs(P), axis=(-2, -1)), 1.0)))
    qscale = np.maximum(np.max(np.abs(Q), axis=(-2, -1)), 1.0)

    # the eigendistribution bases, cluster after cluster, in chart and in
    # flat coordinates: one column per direction X
    chart = ext.onb @ np.array([np.concatenate(d.bases, axis=1) for d in decs])
    flat = J @ chart                                              # (B, n, n)
    X = np.swapaxes(flat, -1, -2)                                 # (B, n, n) rows
    # flat-orthogonal complement of each X spans the admissible Z: one
    # batched SVD of the projectors onto X
    P = X[..., :, None] * X[..., None, :] / np.sum(X * X, axis=-1)[..., None, None]
    Z = np.linalg.svd(P)[0][..., 1:]                              # (B, n, n, n-1)
    XQZ = np.abs((X[..., None, :] @ Q[:, None] @ Z)[..., 0, :])   # (B, n, n-1)
    denom = (np.linalg.norm(X, axis=-1)[..., None] * np.linalg.norm(Z, axis=-2)
             * qscale[:, None, None])
    off = float(np.max(XQZ / denom))

    high = None
    first = np.array([d.multiplicities[0] for d in decs])
    if np.any(first >= 2):
        etas = np.array([d.etas[0] for d in decs])
        # gradient in the flat metric, its norm in the curved one:
        # e^{-4w} |grad_0 w|^2_curved = e^{-2w} |grad_0 w|^2_flat
        target = -0.5 * (np.sum(ext.ambient.signature * etas * etas, axis=-1)
                         + np.exp(-2.0 * W) * gw2)
        # unit with respect to the induced metric of the immersion
        nrm = np.sqrt(np.einsum("bic,bij,bjc->bc", chart, ext.g, chart))
        Zc = flat / nrm[:, None, :]
        r = (np.abs(np.einsum("bic,bij,bjc->bc", Zc, Q, Zc) - target[:, None])
             / np.maximum(np.abs(target), 1.0)[:, None])
        cols = (np.arange(ext.n) < first[:, None]) & (first[:, None] >= 2)
        high = float(np.max(r[cols]))
    return QSuiteReport(off, high, sch)
