"""Light-cone model of Euclidean space inside a flat Lorentzian ambient:
the isometric embedding of R^N onto a slice of the cone, flat lifts of
conformally flat immersions, the closed-form second fundamental form of a
lift, and the projection from the cone back to R^N.

The cone slice E^N = {V : <<V,V>> = 0, <<V,w>> = 1} is an isometric copy of
R^N; an immersion f whose induced metric is e^{2 omega} times a flat metric
lifts to F = e^{-omega} Psi o f, which is an isometric immersion of the flat
metric with image inside the cone.  Transforms of F that stay in the cone
project back to new immersions of conformally flat metrics.

Component convention: with signature (-,+,...,+) two null vectors on the
same component of the cone have nonpositive pairing, so the model slice
(and v) sit on the opposite component from w; every displayed identity is
preserved.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ambient as amb_mod
from .ambient import AmbientSpace
from .conformal import ConformalStructure
from .errors import (ConformalStructureError, DomainError,
                     ModelMembershipError, NotApplicable)
from .extrinsic import fundamental_forms
from .jets import ChartDomain, Jet, SmoothMap, exp as jexp, log as jlog, norm_sq
from .principal import offdiagonal_defects, principal_decomposition

MEMBERSHIP_TOL = 1e-8


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeModel:
    """Concrete cone slice: null vectors v, w with <<v,w>> = 1 and a linear
    isometry A of R^N onto the spacelike complement of span{v, w}, inside
    the Lorentzian space L^{N+2} that carries the pairing <<,>>."""

    N: int
    v: np.ndarray          # (N+2,)
    w: np.ndarray          # (N+2,)
    A: np.ndarray          # (N+2, N), columns orthonormal spacelike
    ambient: AmbientSpace  # L^{N+2}


def build_cone_model(N: int) -> ConeModel:
    """Standard choice: w = e0 + e_{N+1}, v = (-e0 + e_{N+1})/2, A the
    inclusion onto the axes 1..N."""
    if N < 1:
        raise ValueError("cone model needs N >= 1")
    dim = N + 2
    w = np.zeros(dim)
    w[0] = 1.0
    w[N + 1] = 1.0
    v = np.zeros(dim)
    v[0] = -0.5
    v[N + 1] = 0.5
    A = np.zeros((dim, N))
    for b in range(N):
        A[b + 1, b] = 1.0
    return ConeModel(N, v, w, A, amb_mod.lorentz(dim))


def psi_components(model: ConeModel, xs):
    """Psi(x) = v + Ax - (|x|^2 / 2) w, componentwise over floats or jets."""
    q = norm_sq(xs)
    out = []
    for a in range(model.N + 2):
        acc = model.v[a] + (-0.5 * model.w[a]) * q
        for b, x in enumerate(xs):
            if model.A[a, b] != 0.0:
                acc = acc + model.A[a, b] * x
        out.append(acc)
    return out


def psi_embed(model: ConeModel, x):
    return np.array([float(c) for c in psi_components(model, list(np.asarray(x, float)))])


def psi_invert(model: ConeModel, V, tol=MEMBERSHIP_TOL):
    """Inverse of the embedding on the model slice; rejects vectors whose
    cone and slice defects exceed `tol`."""
    V = np.asarray(V, float)
    slice_defect = abs(model.ambient.inner(V, model.w) - 1.0)
    cone_defect = abs(model.ambient.inner(V, V))
    scale = max(float(V @ V), 1.0)
    if slice_defect > tol * np.sqrt(scale) or cone_defect > tol * scale:
        raise ModelMembershipError(
            f"vector off the model slice: <<V,w>>-1 = {slice_defect:.3e}, "
            f"<<V,V>> = {cone_defect:.3e}")
    sig = model.ambient.signature
    return np.array([float(np.sum(sig * V * model.A[:, b])) for b in range(model.N)])


def psi_second_fundamental_residual(model: ConeModel, points):
    """Worst defect of alpha_Psi(X, Y) = -<X,Y> w over coordinate pairs,
    with alpha_Psi computed by jets of the embedding."""
    amb = model.ambient
    worst = 0.0
    for x in np.asarray(points, float):
        lo = x - 1.0
        hi = x + 1.0
        dom = ChartDomain(model.N, np.column_stack([lo, hi]))
        m = SmoothMap(dom, model.N + 2, lambda u: psi_components(model, u), "psi")
        ext = fundamental_forms(m, amb, x)
        target = -np.einsum("ij,A->ijA", np.eye(model.N), model.w)
        worst = max(worst, float(np.max(np.abs(ext.alpha - target))))
    return worst


# ---------------------------------------------------------------------------
# flat lifts
# ---------------------------------------------------------------------------

@dataclass
class LiftedImmersion:
    """F = e^{-omega} Psi o f, an isometric immersion of the flat metric of
    the source, with image inside the cone."""

    F: SmoothMap
    parent: SmoothMap
    conformal: ConformalStructure
    model: ConeModel

    @property
    def ambient(self) -> AmbientSpace:
        return self.model.ambient

    def flat_metric(self, point):
        """The flat chart metric g0 = J^T J at a chart point."""
        _, J = self.conformal.flat_frame(point)
        return J.T @ J

    def cone_defects(self, point):
        """(<<F,F>>, <<F,w>> - e^{-omega}) at a chart point."""
        val = self.F.value(point)
        ff = self.ambient.inner(val, val)
        fw = self.ambient.inner(val, self.model.w)
        return ff, fw - np.exp(-self.conformal.omega.value(point)[0])


def flat_lift(f: SmoothMap, conf: ConformalStructure, model: ConeModel,
              check_points=None, tol=1e-8) -> LiftedImmersion:
    """Flat lift of an immersion f whose induced metric is e^{2 omega} times
    the flat chart metric.  Verifies at the check points that the lift is an
    isometric immersion of the flat metric, that <<alpha_F(X,Y), F>> =
    -<X,Y>_0, and that the position field is parallel in the normal
    connection."""
    if conf is None:
        raise NotApplicable("flat lift needs a conformal structure")
    omega_eval = conf.omega.evaluator
    f_eval = f.evaluator

    def F_eval(x):
        wv = omega_eval(list(x))[0]
        scale = jexp(-1.0 * wv)
        psi = psi_components(model, f_eval(list(x)))
        return [scale * c for c in psi]

    F = SmoothMap(f.domain, model.N + 2, F_eval, f.name + "_lift")
    lift = LiftedImmersion(F, f, conf, model)

    if check_points is None:
        rng = np.random.default_rng(0)
        check_points = f.domain.sample_points(5, rng)
    amb = model.ambient
    worst_metric, worst_pt = 0.0, None
    for pt in np.asarray(check_points, float):
        ext = fundamental_forms(F, amb, pt)
        g0 = lift.flat_metric(pt)
        r = float(np.max(np.abs(ext.g - g0))) / float(np.max(np.abs(g0)))
        if r > worst_metric:
            worst_metric, worst_pt = r, pt
        ff, fw = lift.cone_defects(pt)
        if abs(ff) > tol or abs(fw) > tol:
            raise ConformalStructureError(
                f"lift leaves the model set at {pt}: <<F,F>> = {ff:.3e}, "
                f"slice defect = {fw:.3e}")
        # position field: <<alpha_F(X,Y), F>> = -<X,Y>_0 and parallel normal
        val = ext.jet.value
        sig = amb.signature
        pairing = np.einsum("ijA,A->ij", ext.alpha, sig * val)
        if float(np.max(np.abs(pairing + g0))) > tol * float(np.max(np.abs(g0))):
            raise ConformalStructureError(
                f"position pairing defect beyond {tol} at {pt}")
        for i in range(ext.n):
            perp = ext.normal_project(ext.jet.d1[i])
            if float(np.max(np.abs(perp))) > tol * max(1.0, float(np.max(np.abs(val)))):
                raise ConformalStructureError(
                    f"position field not parallel in the normal connection at {pt}")
    if worst_metric > tol:
        raise ConformalStructureError(
            f"lift metric differs from the flat metric by {worst_metric:.3e} "
            f"at {worst_pt}")
    return lift


def lift_second_fundamental_form(lift: LiftedImmersion, point):
    """alpha_F over the flat coordinate frame, by direct jets of F, together
    with its residual against the closed form

        -Q(X,Y) F + e^{-w} Psi_*(alpha_f(X,Y) - <X,Y>_0 f_* grad_0 w)
        - e^{w} <X,Y>_0 w.
    """
    point = np.asarray(point, float)
    model = lift.model
    conf = lift.conformal
    extF = fundamental_forms(lift.F, model.ambient, point)
    extf = fundamental_forms(lift.parent, amb_mod.euclidean(model.N), point)

    wv, gw, Hw = conf.omega_flat_jets(point)
    Q = Hw - np.outer(gw, gw)
    _, J = conf.flat_frame(point)
    Jinv = np.linalg.inv(J)

    # second fundamental forms are tensorial: move the slots to flat coords
    aF = np.einsum("ia,jb,ijA->abA", Jinv, Jinv, extF.alpha)
    af = np.einsum("ia,jb,ijA->abA", Jinv, Jinv, extf.alpha)
    df_flat = Jinv.T @ extf.jet.d1                 # rows: f_* of flat frame
    push_grad = gw @ df_flat                        # f_* grad_0 omega

    fx = extf.jet.value
    Fval = extF.jet.value
    e_m = np.exp(-wv)
    n = extf.n
    I = np.eye(n)

    def psi_star(u):
        return model.A @ u - float(fx @ u) * model.w

    rhs = np.zeros_like(aF)
    for a in range(n):
        for b in range(n):
            inner = af[a, b] - I[a, b] * push_grad
            rhs[a, b] = (-Q[a, b] * Fval + e_m * psi_star(inner)
                         - np.exp(wv) * I[a, b] * model.w)
    scale = max(float(np.max(np.abs(rhs))), 1.0)
    residual = float(np.max(np.abs(aF - rhs))) / scale
    return aF, residual


# ---------------------------------------------------------------------------
# projection from the cone
# ---------------------------------------------------------------------------

@dataclass
class ConeProjection:
    """Map into R^N recovered from a cone-valued immersion, together with
    the conformal factor of the induced metric: <,> = <<F,w>>^{-2} <,>_0."""

    f: SmoothMap
    omega: SmoothMap
    eps_pole: float     # pole guard on |<<F,w>>|


def project_from_cone(F: SmoothMap, model: ConeModel, points=None,
                      tol=1e-8) -> ConeProjection:
    """Invert the lift: f with Psi o f = F / <<F,w>>, plus the conformal
    factor map omega = -log|<<F,w>>|.  Evaluating the returned maps where
    |<<F,w>>| falls under the pole guard (1e-6 times the chart box diagonal)
    raises DomainError: such points map near infinity.  At the given points
    the projected metric is checked against <<F,w>>^{-2} <,>_0."""
    widths = [hi - lo for lo, hi in F.domain.box]
    eps_pole = 1e-6 * float(np.sqrt(sum(w * w for w in widths)))
    sig = model.ambient.signature
    sw = sig * model.w
    F_eval = F.evaluator

    def guarded(x):
        """(F, <<F,w>>, sign of <<F,w>>) at x, or at each point of a batch;
        DomainError under the pole guard, naming the first such point of a
        batch."""
        vals = F_eval(list(x))
        rho = sw[0] * vals[0]
        for s, c in zip(sw[1:], vals[1:]):
            if s != 0.0:
                rho = rho + s * c
        r = np.asarray(rho.v if isinstance(rho, Jet) else rho)
        bad = np.abs(r) < eps_pole
        if bad.any():
            m = int(np.argmax(bad))
            where = f" (point {m} of the batch)" if r.ndim else ""
            raise DomainError(f"<<F,w>> = {r.flat[m]:.3e} under the pole guard "
                              f"{eps_pole:.3e}{where}")
        return vals, rho, np.where(r > 0, 1.0, -1.0)

    def f_eval(x):
        vals, rho, _ = guarded(x)
        unit = [c / rho for c in vals]
        out = []
        for b in range(model.N):
            col = sig * model.A[:, b]
            acc = col[0] * unit[0]
            for s, c in zip(col[1:], unit[1:]):
                if s != 0.0:
                    acc = acc + s * c
            out.append(acc)
        return out

    def omega_eval(x):
        _, rho, sign = guarded(x)
        return [-1.0 * jlog(sign * rho)]

    f = SmoothMap(F.domain, model.N, f_eval, F.name + "_proj")
    omega = SmoothMap(F.domain, 1, omega_eval, F.name + "_proj_omega")

    if points is not None:
        ambE = amb_mod.euclidean(model.N)
        ambL = model.ambient
        for pt in np.asarray(points, float):
            vals = np.array([float(c) for c in F_eval(list(pt))])
            rho = float(np.sum(sw * vals))
            if abs(rho) < eps_pole:
                continue
            extf = fundamental_forms(f, ambE, pt)
            extF = fundamental_forms(F, ambL, pt)
            target = extF.g / rho ** 2
            r = float(np.max(np.abs(extf.g - target))) / float(np.max(np.abs(target)))
            if r > tol:
                raise ConformalStructureError(
                    f"projected metric defect {r:.3e} at {pt}")
    return ConeProjection(f, omega, eps_pole)


# ---------------------------------------------------------------------------
# correspondence of principal structure between f and its lift
# ---------------------------------------------------------------------------

@dataclass
class LiftCorrespondenceReport:
    offdiag_F: float              # max(net, alpha) holonomic defect of the lift
    k_f: int
    k_F: int
    multiplicities_match: bool


def lift_correspondence_check(lift: LiftedImmersion, points, cluster_tol=1e-6,
                              seed=0) -> LiftCorrespondenceReport:
    """For an immersion with orthogonal (principal) chart net: the flat lift
    is holonomic with respect to the same coordinates (its net orthogonal and
    its second fundamental form diagonal), and the principal normals of f and
    of the lift correspond one to one."""
    f = lift.parent
    ambE = amb_mod.euclidean(lift.model.N)
    off_F = 0.0
    k_f = k_F = None
    match = True
    for pt in np.asarray(points, float):
        extf = fundamental_forms(f, ambE, pt)
        extF = fundamental_forms(lift.F, lift.ambient, pt)
        off_F = max(off_F, *offdiagonal_defects(extF))
        dec_f = principal_decomposition(extf, cluster_tol=cluster_tol, seed=seed)
        dec_F = principal_decomposition(extF, cluster_tol=cluster_tol, seed=seed)
        k_f, k_F = dec_f.k, dec_F.k
        match = match and (sorted(dec_f.multiplicities)
                           == sorted(dec_F.multiplicities))
    return LiftCorrespondenceReport(off_F, k_f, k_F, match)
