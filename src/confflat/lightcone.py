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
from .conformal import ConformalJets, ConformalStructure
from .errors import ConformalStructureError, DomainError
from .extrinsic import ExtrinsicData, _congruent, fundamental_forms
from .jets import (ChartDomain, Jet, Jet3, SmoothMap, evaluate_jet, exp as jexp,
                   log as jlog, stack, unstack)
from .jets.core import _jet
from .jets.maps import _jet3, _repacked
from .principal import offdiagonal_defects, principal_decompositions


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


# the pair table of a jet product holds 1.8 (order 1), 3 (order 2) or 4.7
# (order 3) times its stacked operand at n = 4; groups of components of at
# most this many bytes keep the lift's order-1 tables under glibc's 128 KiB
# mmap threshold, where the pipeline's peak RSS is the componentwise lift's
# (0.45 MB above it with 96 KiB groups or more, at the same traced peak)
_GROUP_BYTES = 1 << 16


def _groups(count, nbytes):
    """Slices over `count` components of `nbytes` each, in groups of at most
    _GROUP_BYTES (at least one component)."""
    step = max(1, _GROUP_BYTES // max(nbytes, 1))
    return [slice(i, i + step) for i in range(0, count, step)]


def _square_sum(cols, ref):
    """|x|^2 of the coordinates cols (all floats, or all jets like `ref`),
    summed in coordinate order, as coefficients with a leading Taylor axis
    (one row for floats); the squares are one stacked product per group."""
    q = None
    for sl in _groups(len(cols), 0 if ref is None else ref.c.nbytes):
        S = stack(cols[sl])
        S = S * S
        for s in np.moveaxis(S.c if ref is not None else S[None], 1, 0):
            q = s if q is None else q + s
    return q


def psi_components(model: ConeModel, xs):
    """Psi(x) = v + Ax - (|x|^2 / 2) w for the N coordinates xs (floats or
    jets, or one jet stacked along its first batch axis), as one array or
    jet with the N + 2 components along its first axis.  Each component is
    bitwise the componentwise formula over scalars (up to the sign of a
    zero where floats come mixed with jets): |x|^2 summed in coordinate
    order, then v_a - (w_a / 2) |x|^2 plus the nonzero A_ab x_b in order of
    b."""
    cols = unstack(xs) if isinstance(xs, Jet) else list(xs)
    ref = next((x for x in cols if isinstance(x, Jet)), None)
    if ref is not None:                  # floats among jets become constants
        cols = [x if isinstance(x, Jet) else
                Jet.constant(np.full(np.shape(ref.v), x), ref.n, ref.order)
                for x in cols]
    pad = (1,) * (0 if ref is None else np.ndim(ref.v))
    out = (_square_sum(cols, ref)[:, None]
           * (-0.5 * model.w).reshape((-1,) + pad))
    out[0] += model.v.reshape((-1,) + pad)
    for b, a in zip(*np.nonzero(model.A.T)):
        out[:, a] += model.A[a, b] * (cols[b] if ref is None else cols[b].c)
    return out[0] if ref is None else _jet(ref.n, ref.order, out)


def psi_second_fundamental_residual(model: ConeModel, points):
    """Worst defect of alpha_Psi(X, Y) = -<X,Y> w over coordinate pairs at
    a point set, with alpha_Psi computed by order-2 jets of the embedding
    on one chart around the hull of the points."""
    points = np.asarray(points, float)
    dom = ChartDomain(model.N, np.column_stack([points.min(axis=0) - 1.0,
                                                points.max(axis=0) + 1.0]))
    m = SmoothMap(dom, model.N + 2,
                  lambda u: unstack(psi_components(model, u)), "psi")
    ext = fundamental_forms(m, model.ambient, points,
                            jet=evaluate_jet(m, points, 2))
    target = -np.einsum("ij,A->ijA", np.eye(model.N), model.w)
    return float(np.max(np.abs(ext.alpha - target)))


# ---------------------------------------------------------------------------
# flat lifts
# ---------------------------------------------------------------------------

@dataclass
class LiftedImmersion:
    """F = e^{-omega} Psi o f, an isometric immersion of the flat metric of
    the source, with image inside the cone, together with its extrinsic
    data at the points where `flat_lift` verified it (`checked`), from
    F's order-2 jet there: none of its readers needs third derivatives."""

    F: SmoothMap
    parent: SmoothMap
    conformal: ConformalStructure
    model: ConeModel
    checked: ExtrinsicData

    @property
    def ambient(self) -> AmbientSpace:
        return self.model.ambient


def _scaled(psi, omega):
    """e^{-omega} psi for Psi o f stacked as `psi_components` returns it
    (a jet is scaled in place) and the scalar omega (floats or jets), one
    product per group of components, bitwise the product component by
    component: the lift's evaluator applies it to the outputs of f's and
    omega's, and `lift_jet` to their jets."""
    scale = jexp(-1.0 * omega)
    if not isinstance(psi, Jet):
        return scale * psi
    for sl in _groups(psi.c.shape[1], psi.c[:, 0].nbytes):
        psi.c[:, sl] = (scale * _jet(psi.n, psi.order, psi.c[:, sl])).c
    return psi


def lift_jet(model: ConeModel, f_jet: Jet3, omega_jet: Jet3) -> Jet:
    """The lift's packed jet (K, N+2, *batch) from the jets of f and omega
    at the same points, at the lowest of their orders and 2.  These are the
    operations the lift's evaluator runs, so the result is bitwise what
    evaluating the lift at those points gives."""
    order = min(f_jet.order, omega_jet.order, 2)
    psi = psi_components(model, _repacked(f_jet, order))
    return _scaled(psi, unstack(_repacked(omega_jet, order))[0])


def flat_lift(f: SmoothMap, conf: ConformalStructure, model: ConeModel,
              f_jet: Jet3, cjets: ConformalJets, tol=1e-8) -> LiftedImmersion:
    """Flat lift of an immersion f whose induced metric is e^{2 omega} times
    the flat chart metric, verified at the points of the conformal jets
    `cjets` (`conf.jets(points)`) from f's jet there (`f_jet`, of order 2
    or more) and those jets; no map is evaluated.  The lift's order-2 jet
    comes from f's and omega's by `lift_jet`, and one batched pass of
    extrinsic data over it verifies that the lift is an isometric
    immersion of the flat metric, that it lies on the model slice of the
    cone, that <<alpha_F(X,Y), F>> = -<X,Y>_0, and that the position field
    is parallel in the normal connection.  The first point (in order) that
    breaks one of the last three is named; the metric is judged by its
    worst point."""
    omega_eval = conf.omega.evaluator
    f_eval = f.evaluator

    def F_eval(x):
        return unstack(_scaled(psi_components(model, f_eval(list(x))),
                               omega_eval(list(x))[0]))

    F = SmoothMap(f.domain, model.N + 2, F_eval, f.name + "_lift")
    pts = cjets.points
    amb = model.ambient
    sig = amb.signature.astype(float)
    ext = fundamental_forms(F, amb, pts,
                            jet=_jet3(lift_jet(model, f_jet, cjets.omega), pts))
    _, J = cjets.flat_frame()
    g0 = np.swapaxes(J, -1, -2) @ J
    g0_scale = np.max(np.abs(g0), axis=(-2, -1))
    metric = np.max(np.abs(ext.g - g0), axis=(-2, -1)) / g0_scale

    val = ext.jet.value
    ff = np.einsum("...A,A,...A->...", val, sig, val)
    fw = (np.einsum("...A,A->...", val, sig * model.w)
          - np.exp(-cjets.omega.value[..., 0]))
    # position field: <<alpha_F(X,Y), F>> = -<X,Y>_0 and parallel normal
    pairing = np.einsum("...ijA,...A->...ij", ext.alpha, sig * val)
    coef = np.einsum("...iA,A,...aA->...ia", ext.jet.d1, sig, ext.frame)
    perp = np.einsum("...ia,...aA->...iA", coef * ext.frame_eps[..., None, :],
                     ext.frame)
    off_slice = (np.abs(ff) > tol) | (np.abs(fw) > tol)
    off_pairing = np.max(np.abs(pairing + g0), axis=(-2, -1)) > tol * g0_scale
    not_parallel = (np.max(np.abs(perp), axis=(-2, -1))
                    > tol * np.maximum(1.0, np.max(np.abs(val), axis=-1)))
    bad = off_slice | off_pairing | not_parallel
    if bad.any():
        m = int(np.argmax(bad))
        if off_slice[m]:
            raise ConformalStructureError(
                f"lift leaves the model set at {pts[m]}: <<F,F>> = {ff[m]:.3e}, "
                f"slice defect = {fw[m]:.3e}")
        if off_pairing[m]:
            raise ConformalStructureError(
                f"position pairing defect beyond {tol} at {pts[m]}")
        raise ConformalStructureError(
            f"position field not parallel in the normal connection at {pts[m]}")
    if np.max(metric) > tol:
        m = int(np.argmax(metric))
        raise ConformalStructureError(
            f"lift metric differs from the flat metric by {metric[m]:.3e} "
            f"at {pts[m]}")
    return LiftedImmersion(F, f, conf, model, ext)


def lift_second_fundamental_form(lift: LiftedImmersion, extF: ExtrinsicData,
                                 extf: ExtrinsicData, cjets: ConformalJets):
    """alpha_F over the flat coordinate frame, from the extrinsic data of
    the lift and of its parent and the conformal structure's jets `cjets`,
    all at the same point set, together with its worst residual (relative
    per point) against the closed form

        -Q(X,Y) F + e^{-w} Psi_*(alpha_f(X,Y) - <X,Y>_0 f_* grad_0 w)
        - e^{w} <X,Y>_0 w.
    """
    model = lift.model
    wv, gw, Hw = cjets.omega_flat_jets()
    Q = Hw - gw[..., :, None] * gw[..., None, :]
    _, J = cjets.flat_frame()
    Jinv = np.linalg.inv(J)

    # second fundamental forms are tensorial: move the slots to flat coords
    aF = _congruent(Jinv, extF.alpha)
    af = _congruent(Jinv, extf.alpha)
    df_flat = np.swapaxes(Jinv, -1, -2) @ extf.jet.d1   # rows: f_* of flat frame
    push_grad = np.einsum("...a,...aN->...N", gw, df_flat)  # f_* grad_0 omega

    I = np.eye(extf.n)
    inner = af - I[:, :, None] * push_grad[..., None, None, :]
    # Psi_*(u) = A u - <f, u> w
    psi_star = (np.einsum("AN,...abN->...abA", model.A, inner)
                - np.einsum("...N,...abN->...ab", extf.jet.value, inner)[..., None]
                * model.w)
    rhs = (-Q[..., None] * extF.jet.value[..., None, None, :]
           + np.exp(-wv)[..., None, None, None] * psi_star
           - np.exp(wv)[..., None, None, None] * I[:, :, None] * model.w)
    scale = np.maximum(np.max(np.abs(rhs), axis=(-3, -2, -1)), 1.0)
    residual = np.max(np.abs(aF - rhs), axis=(-3, -2, -1)) / scale
    return aF, float(np.max(residual))


# ---------------------------------------------------------------------------
# projection from the cone
# ---------------------------------------------------------------------------

@dataclass
class ConeProjection:
    """Map into R^N recovered from a cone-valued immersion, together with
    the conformal factor of the induced metric: <,> = <<F,w>>^{-2} <,>_0,
    and f's jet at the points where `project_from_cone` checked it."""

    f: SmoothMap
    omega: SmoothMap
    eps_pole: float     # pole guard on |<<F,w>>|
    checked: Jet3 | None = None


def _pole_guard(domain: ChartDomain) -> float:
    """The pole guard on |<<F,w>>| of a map on `domain`: 1e-6 times the
    diagonal of its chart box."""
    widths = [hi - lo for lo, hi in domain.box]
    return 1e-6 * float(np.sqrt(sum(w * w for w in widths)))


def _refuse_pole(rho, eps_pole):
    """DomainError when |<<F,w>>| falls under the pole guard at a point
    (rho a float) or at a point of a batch (rho (B,)), naming the first."""
    r = np.asarray(rho)
    bad = np.abs(r) < eps_pole
    if bad.any():
        m = int(np.argmax(bad))
        where = f" (point {m} of the batch)" if r.ndim else ""
        raise DomainError(f"<<F,w>> = {r.flat[m]:.3e} under the pole guard "
                          f"{eps_pole:.3e}{where}")


def _w_pairing(model: ConeModel, V):
    """<<V, w>> of a stacked ambient vector or jet V: the ambient axis is
    axis 0 of an array (A, *batch) and axis 1 of a jet's coefficients, and
    it is summed out."""
    sw = model.ambient.signature * model.w
    if isinstance(V, Jet):
        return _jet(V.n, V.order, np.einsum("KA...,A->K...", V.c, sw))
    return np.einsum("A...,A->...", V, sw)


def _slice_coordinates(model: ConeModel, V, rho):
    """A^T S V / rho for a stacked ambient vector or jet V (as in
    `_w_pairing`) and rho = <<V, w>>: the point of R^N whose embedding is
    V / <<V, w>>, with the ambient axis replaced by the N coordinates.
    Shared by the projected map's evaluator and the family's batched
    member pass."""
    P = (model.ambient.signature[:, None] * model.A).T          # (N, A)
    if isinstance(V, Jet):
        num = _jet(V.n, V.order, np.einsum("NA,KA...->KN...", P, V.c))
    else:
        num = np.einsum("NA,A...->N...", P, V)
    return num * (1.0 / rho)


def project_from_cone(F: SmoothMap, model: ConeModel, points=None,
                      jet: Jet3 | None = None, tol=1e-8) -> ConeProjection:
    """Invert the lift: f with Psi o f = F / <<F,w>>, plus the conformal
    factor map omega = -log|<<F,w>>|.  Evaluating the returned maps where
    |<<F,w>>| falls under the pole guard (1e-6 times the chart box diagonal)
    raises DomainError: such points map near infinity.  Given `points` and
    F's jet there (`jet`, of order 1 or more), f's jet at the points (to
    the same order, at most 2) comes from it by the evaluator's own
    operations, with no evaluation, and is kept as `checked`; the pole
    guard must hold at every point, and the projected metric is checked
    against <<F,w>>^{-2} <,>_0."""
    eps_pole = _pole_guard(F.domain)
    sig = model.ambient.signature
    F_eval = F.evaluator

    def guarded(V):
        """(<<V,w>>, its sign) of F stacked at a point or at each point of
        a batch, past the pole guard."""
        rho = _w_pairing(model, V)
        r = np.asarray(rho.v if isinstance(rho, Jet) else rho)
        _refuse_pole(r, eps_pole)
        return rho, np.where(r > 0, 1.0, -1.0)

    def f_eval(x):
        V = stack(list(F_eval(list(x))))
        return unstack(_slice_coordinates(model, V, guarded(V)[0]))

    def omega_eval(x):
        rho, sign = guarded(stack(list(F_eval(list(x)))))
        return [-1.0 * jlog(sign * rho)]

    f = SmoothMap(F.domain, model.N, f_eval, F.name + "_proj")
    omega = SmoothMap(F.domain, 1, omega_eval, F.name + "_proj_omega")
    if points is None:
        return ConeProjection(f, omega, eps_pole)

    pts = np.asarray(points, float)
    V = _repacked(jet)
    jf = _jet3(_slice_coordinates(model, V, guarded(V)[0]), pts)
    dF, df = jet.d1, jf.d1
    target = (np.einsum("...iA,A,...jA->...ij", dF, sig, dF)
              / (jet.value @ (sig * model.w))[:, None, None] ** 2)
    r = (np.max(np.abs(df @ np.swapaxes(df, -1, -2) - target), axis=(-2, -1))
         / np.max(np.abs(target), axis=(-2, -1)))
    if np.any(r > tol):
        m = int(np.argmax(r > tol))
        raise ConformalStructureError(
            f"projected metric defect {r[m]:.3e} at {pts[m]}")
    return ConeProjection(f, omega, eps_pole, jf)


# ---------------------------------------------------------------------------
# correspondence of principal structure between f and its lift
# ---------------------------------------------------------------------------

@dataclass
class LiftCorrespondenceReport:
    offdiag_F: float              # max(net, alpha) holonomic defect of the lift
    k_f: int
    k_F: int
    multiplicities_match: bool


def lift_correspondence_check(extF: ExtrinsicData, decs_f,
                              seed=0) -> LiftCorrespondenceReport:
    """For an immersion with orthogonal (principal) chart net, from the
    extrinsic data of the flat lift and the immersion's principal
    decompositions at the same points: the lift is holonomic with respect to
    the same coordinates (its net orthogonal and its second fundamental form
    diagonal), and the principal normals of f and of the lift correspond
    one to one."""
    decs_F = principal_decompositions(extF, seed=seed)
    match = all(sorted(a.multiplicities) == sorted(b.multiplicities)
                for a, b in zip(decs_f, decs_F))
    off_F = float(max(np.max(x) for x in offdiagonal_defects(extF)))
    return LiftCorrespondenceReport(off_F, decs_f[-1].k, decs_F[-1].k, match)
