"""Ribaucour transformations of flat holonomic immersions inside the light
cone, on a discrete grid: the linear compatibility condition on the data
(phi, beta), its numerical null space, the transform
F~ = F - 2 nu_R phi (F_* grad phi + beta), cone preservation, a flatness
filter for the transformed metric, and the pipeline that projects the
surviving transforms back to new conformally flat immersions.

All grid fields are stored flat in row-major order over the domain grid.
Normal fields are expressed in a parallel pseudo-orthonormal normal frame
obtained by transporting the base-point frame along grid lines (the normal
bundle of a flat lift is flat, so the transport is path independent up to
discretization error).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from . import ambient as amb_mod
from .conformal import conformal_flatness_test
from .errors import (ConfflatError, DegenerateInputError,
                     DegenerateTransformError, DimensionAmbiguityError,
                     FrameError, NotApplicable, SingularTransformError)
from .extrinsic import (ExtrinsicData, christoffels, fundamental_forms,
                        intrinsic_curvatures, normal_projectors)
from .jets import SmoothMap, evaluate_jet
from .lightcone import (ConeModel, LiftedImmersion, build_cone_model,
                        flat_lift, project_from_cone)
from .principal import offdiagonal_defects, principal_decomposition

SINGULAR_TOL = 1e-8
DEGENERATE_MARGIN = 1e-3
RANK_MARGIN = 1e-8
FLAT_TOL = 1e-8


# ---------------------------------------------------------------------------
# grid geometry of a lift
# ---------------------------------------------------------------------------

def _grid_diff(values, shape, spacings, axis):
    """Second-order derivative along a grid axis (centered interior,
    one-sided edges) of a flat row-major field of shape (M, ...)."""
    full = values.reshape(shape + values.shape[1:])
    out = np.gradient(full, spacings[axis], axis=axis, edge_order=2)
    return out.reshape(values.shape)


def _grid_diff2(values, shape, spacings, axis):
    """Compact three-point second derivative along one axis; the two edge
    layers copy their interior neighbor (callers use interior points only)."""
    full = values.reshape(shape + values.shape[1:])
    out = np.empty_like(full)
    sl = [slice(None)] * full.ndim
    lo, mid, hi = list(sl), list(sl), list(sl)
    lo[axis] = slice(0, -2)
    mid[axis] = slice(1, -1)
    hi[axis] = slice(2, None)
    out[tuple(mid)] = (full[tuple(lo)] - 2.0 * full[tuple(mid)]
                       + full[tuple(hi)]) / spacings[axis] ** 2
    first, last = list(sl), list(sl)
    first[axis] = 0
    last[axis] = -1
    nxt, prv = list(sl), list(sl)
    nxt[axis] = 1
    prv[axis] = -2
    out[tuple(first)] = out[tuple(nxt)]
    out[tuple(last)] = out[tuple(prv)]
    return out.reshape(values.shape)


@dataclass
class LiftGrid:
    """Pointwise geometry of a lifted immersion sampled on the chart grid,
    with a parallel pseudo-orthonormal normal frame."""

    lift: LiftedImmersion
    shape: tuple
    points: np.ndarray          # (M, n)
    spacings: np.ndarray        # (n,)
    F_vals: np.ndarray          # (M, A)
    tangents: np.ndarray        # (M, n, A)
    g: np.ndarray               # (M, n, n)
    g_inv: np.ndarray
    alpha: np.ndarray           # (M, n, n, A)
    frame: np.ndarray           # (M, p, A) parallel normal frame
    eps: np.ndarray             # (p,)
    parallel_residual: float    # Richardson estimate of the transport error
    ext: ExtrinsicData          # pointwise data at the grid points, batched

    @property
    def M(self):
        return self.points.shape[0]

    @property
    def n(self):
        return self.points.shape[1]

    @property
    def p(self):
        return self.frame.shape[1]

    @property
    def A(self):
        return self.F_vals.shape[1]

    @property
    def sig(self):
        return self.lift.ambient.signature

    def diff(self, values, axis):
        return _grid_diff(values, self.shape, self.spacings, axis)

    def lorentz_inner(self, U, V):
        """Pointwise <<U, V>> for (M, A) fields."""
        return np.einsum("mA,A,mA->m", U, self.sig, V)

    def beta_ambient(self, b):
        """Ambient components of beta = sum_a b_a psi_a, b of shape (M, p)."""
        return np.einsum("ma,maA->mA", b, self.frame)

    def cone_constant(self, phi, b):
        """Pointwise <<F, beta>> - phi, constant for a solution of the
        condition (its light-cone constant c)."""
        return self.lorentz_inner(self.F_vals, self.beta_ambient(b)) - phi

    @cached_property
    def h_parallel(self):
        """eps_a <<alpha(d_i, d_i), psi_a>>, shape (M, p, n); computed once
        per grid."""
        diag = np.einsum("miiA->miA", self.alpha)
        return np.einsum("a,maA,A,miA->mai", self.eps.astype(float),
                         self.frame, self.sig, diag)


def _pseudo_gs(sig, vectors, eps_expected, points):
    """Pseudo-orthonormalize the p rows of each frame in a batch (B, p, A),
    in order; the resulting signs must reproduce `eps_expected` (the
    transported frame keeps its causal type for small steps).  Raises
    FrameError naming the first point (row of `points`) where it does not."""
    out = np.empty_like(vectors)
    for a in range(vectors.shape[1]):
        r = vectors[:, a].copy()
        for b in range(a):
            u = out[:, b]
            r -= eps_expected[b] * np.sum(sig * r * u, axis=-1)[:, None] * u
        q = np.sum(sig * r * r, axis=-1)
        bad = q * eps_expected[a] <= 0
        if np.any(bad):
            raise FrameError("transported frame changed causal type at "
                             f"{points[np.argmax(bad)]}")
        out[:, a] = r / np.sqrt(np.abs(q))[:, None]
    return out


def _sweep_edges(shape):
    """Grid edges (from, to) in the order the frame sweep crosses them,
    grouped into levels: along axis 0 from the base point, then along axis 1
    from every point reached, and so on.  Level (axis, k) holds the k-th
    edge of every line along `axis` whose start was reached before that
    axis, so its sources were reached at an earlier level and its edges are
    independent of each other.  Returns one (E_l, 2) array per level; each
    point is reached exactly once."""
    strides = np.array([int(np.prod(shape[d + 1:])) for d in range(len(shape))])
    done = np.zeros(int(np.prod(shape)), bool)
    done[0] = True
    levels = []
    for axis, size in enumerate(shape):
        starts = np.flatnonzero(done)
        for k in range(1, size):
            to = starts + k * strides[axis]
            levels.append(np.stack([to - strides[axis], to], axis=1))
            done[to] = True
    if not done.all():
        raise FrameError("grid transport failed to reach every point")
    return levels


def build_lift_grid(lift: LiftedImmersion, frame_tol=0.05,
                    substeps=2) -> LiftGrid:
    """Sample the lift geometry on the domain grid and construct a parallel
    normal frame by second-order discrete transport of the base-point frame
    along grid lines.  Each edge step applies the commutator exponential
    exp([P1 - P0, P_mid]) built from normal-space projectors, which is a
    midpoint discretization of the transport equation and preserves the
    ambient pairing exactly.  The transport is run at step counts `substeps`
    and 2*`substeps` per edge; the Richardson difference between the two
    estimates the transport error, and a frame error is raised when it
    exceeds frame_tol.

    All pointwise data comes from two batched passes before the sweep: the
    extrinsic data at the grid points, and the normal projectors at the
    transport sub-step points of every edge (fractions k / (4 substeps),
    which the two step counts share).  A step depends on the projectors
    only, not on the frame it carries, so every edge's transport operator
    is built up front, per resolution: one batched expm per sub-step over
    all edges, multiplied into one (E, A, A) operator.  The sweep then runs
    level by level (`_sweep_edges`): sum(N_i - 1) levels on a grid of shape
    (N_1, ..., N_n), each one batched apply, projection onto the normal
    space and pseudo-Gram-Schmidt over all of its edges."""
    dom = lift.F.domain
    if dom.grid_shape is None:
        raise ValueError("lift domain carries no grid")
    shape = tuple(dom.grid_shape)
    pts = dom.grid_points().reshape(-1, dom.dim)
    spac = dom.spacings()
    amb = lift.ambient
    n = dom.dim
    M = pts.shape[0]
    sig = amb.signature

    ext = fundamental_forms(lift.F, amb, pts)
    p = ext.p
    fe = ext.frame_eps.astype(float)
    P_grid = np.einsum("ma,maA,B,maB->mAB", fe, ext.frame, sig, ext.frame)

    levels = _sweep_edges(shape)
    edges = np.concatenate(levels)
    D = 4 * substeps
    fracs = np.arange(1, D) / D
    u0 = pts[edges[:, 0]]
    u1 = pts[edges[:, 1]]
    sub = u0[:, None, :] + (u1 - u0)[:, None, :] * fracs[None, :, None]
    P_sub = normal_projectors(lift.F, amb, sub.reshape(-1, n)).reshape(
        len(edges), D - 1, amb.flat_dim, amb.flat_dim)

    def operators(K):
        """Every edge's transport in K commutator-exponential steps, as one
        (E, A, A) operator; step s uses the projectors at fractions s/K,
        (s + 1/2)/K and (s + 1)/K."""
        r = D // K
        Pa = P_grid[edges[:, 0]]
        T = None
        for s in range(K):
            Pm = P_sub[:, (2 * s + 1) * r // 2 - 1]
            Pc = P_grid[edges[:, 1]] if s == K - 1 else P_sub[:, (s + 1) * r - 1]
            dP = Pc - Pa
            step = expm(dP @ Pm - Pm @ dP)
            T = step if T is None else step @ T
            Pa = Pc
        return np.swapaxes(T, -1, -2)    # acts on frame rows from the right

    # two resolutions of the same transport for a Richardson error estimate
    coarse = np.zeros((M, p, amb.flat_dim))
    frame = np.zeros_like(coarse)
    coarse[0] = frame[0] = ext.frame[0]
    eps = ext.frame_eps[0].copy()
    runs = ((coarse, operators(substeps)), (frame, operators(2 * substeps)))
    start = 0
    for level in levels:
        src, dst = level.T
        ops = slice(start, start + len(level))
        start = ops.stop
        normals = ext.frame[dst]
        for out, T in runs:
            moved = out[src] @ T[ops]
            # clean residual out-of-bundle drift, keep pseudo-orthonormality
            coef = np.einsum("epA,A,eaA->epa", moved, sig, normals)
            coef *= fe[dst][:, None]
            out[dst] = _pseudo_gs(sig, coef @ normals, eps, pts[dst])
    transport_error = float(np.max(np.abs(frame - coarse))) / 3.0

    if transport_error > frame_tol:
        raise FrameError(
            f"transported frame not parallel: residual {transport_error:.3e}")
    return LiftGrid(lift, shape, pts, spac, ext.jet.value, ext.tangent, ext.g,
                    ext.g_inv, ext.alpha, frame, eps, transport_error, ext)


# ---------------------------------------------------------------------------
# the compatibility condition
# ---------------------------------------------------------------------------

@dataclass
class RibaucourData:
    """Scalar phi and normal field beta (components b_a in the parallel
    frame) satisfying the compatibility condition, together with the
    light-cone constant c = <<F, beta>> - phi."""

    phi: np.ndarray             # (M,)
    b: np.ndarray               # (M, p)
    c: float
    condition_residual: float
    z: np.ndarray | None = None  # set when the datum comes from a constant vector
    name: str = ""


def check_condition(grid: LiftGrid, phi, b):
    """Residual field of the compatibility condition in principal
    coordinates: D_i b_a + g^{ii} (D_i phi) eps_a <<alpha(d_i,d_i), psi_a>>
    per grid point, direction and frame index; shape (M, n, p)."""
    phi = np.asarray(phi, float)
    b = np.asarray(b, float)
    M, n, p = grid.M, grid.n, grid.p
    hpar = grid.h_parallel                      # (M, p, n)
    res = np.zeros((M, n, p))
    for i in range(n):
        Dphi = grid.diff(phi[:, None], i)[:, 0]
        Db = grid.diff(b, i)
        res[:, i, :] = Db + (grid.g_inv[:, i, i] * Dphi)[:, None] * hpar[:, :, i]
    return res


def _interior_mask(shape):
    m = np.zeros(shape, bool)
    m[(slice(1, -1),) * len(shape)] = True
    return m.reshape(-1)


def condition_residual(grid: LiftGrid, phi, b, interior=True):
    res = check_condition(grid, phi, b)
    scale = max(float(np.max(np.abs(b))), float(np.max(np.abs(phi))), 1e-12)
    if interior:
        res = res[_interior_mask(grid.shape)]
    return float(np.max(np.abs(res))) / scale


def constant_vector_data(grid: LiftGrid, z, name="") -> RibaucourData:
    """The analytic compatibility solution generated by a constant ambient
    vector z: phi = <<F, z>>, beta = normal part of z."""
    z = np.asarray(z, float)
    phi = np.einsum("mA,A,A->m", grid.F_vals, grid.sig, z)
    b = np.einsum("a,maA,A,A->ma", grid.eps.astype(float), grid.frame,
                  grid.sig, z)
    c = float(np.mean(grid.cone_constant(phi, b)))
    return RibaucourData(phi, b, c, condition_residual(grid, phi, b), z=z,
                         name=name or "constant-vector")


def shift_data(grid: LiftGrid, data: RibaucourData, delta) -> RibaucourData:
    """(phi + delta, beta): still a compatibility solution, with the
    light-cone constant shifted by -delta."""
    return RibaucourData(data.phi + delta, data.b.copy(), data.c - delta,
                         data.condition_residual, z=None,
                         name=data.name + f"+shift({delta:g})")


def analytic_family(grid: LiftGrid):
    """The known compatibility solutions: one per ambient basis vector plus
    the constant-shift datum (phi = 1, beta = 0)."""
    fam = [constant_vector_data(grid, e, name=f"basis-{a}")
           for a, e in enumerate(np.eye(grid.A))]
    one = RibaucourData(np.ones(grid.M), np.zeros((grid.M, grid.p)), -1.0,
                        0.0, z=None, name="shift")
    one.condition_residual = condition_residual(grid, one.phi, one.b)
    fam.append(one)
    return fam


# ---------------------------------------------------------------------------
# null space of the discrete condition operator
# ---------------------------------------------------------------------------

@dataclass
class NullspaceResult:
    spectrum: np.ndarray
    threshold: float
    analytic_projections: np.ndarray   # fraction of each analytic member in the span
    dimension: int
    basis: np.ndarray                  # (dimension, M*(1+p)) orthonormal rows


def _degeneracy_guard(grid: LiftGrid):
    idx = np.linspace(0, grid.M - 1, 3).astype(int)
    for m in idx:
        dec = principal_decomposition(grid.ext.at(m))
        if dec.k < 2:
            raise DegenerateInputError(
                "input has a single principal normal: the condition loses "
                "rigidity and its null space is infinite dimensional")
        scale = max(np.linalg.norm(e) for e in dec.etas)
        for i in range(dec.k):
            for j in range(i + 1, dec.k):
                gap = np.linalg.norm(dec.etas[i] - dec.etas[j]) / scale
                if gap < DEGENERATE_MARGIN:
                    raise DegenerateInputError(
                        f"principal normals {i}, {j} too close (margin {gap:.3e})")


def _condition_operator(grid: LiftGrid):
    """The condition as a sparse CSR operator on the grid unknowns (phi,
    b_1..b_p per point, column blocks of M): one row per interior point m,
    direction i and frame index a, in that order, holding the centered
    differences of b_a and of phi (weighted by g^{ii} h_par) at m +- e_i."""
    from scipy import sparse

    M, n, p = grid.M, grid.n, grid.p
    hpar = grid.h_parallel                      # (M, p, n)
    strides = np.array([int(np.prod(grid.shape[d + 1:])) for d in range(n)])
    interior = np.where(_interior_mask(grid.shape))[0]
    shape = (len(interior), n, p)
    n_rows = len(interior) * n * p
    inv2h = np.broadcast_to((1.0 / (2.0 * grid.spacings))[:, None], shape)
    m_plus = np.broadcast_to((interior[:, None] + strides)[:, :, None], shape)
    m_minus = np.broadcast_to((interior[:, None] - strides)[:, :, None], shape)
    b_off = M * (1 + np.arange(p))
    coef = grid.g_inv[interior][:, np.arange(n), np.arange(n)]
    # g^{ii} (D_i phi) h_par, as coef * h_par * inv2h
    w = coef[:, :, None] * hpar[interior].transpose(0, 2, 1) * inv2h
    cols = np.stack([b_off + m_plus, b_off + m_minus, m_plus, m_minus], -1)
    vals = np.stack([inv2h, -inv2h, w, -w], -1)
    rows = np.repeat(np.arange(n_rows), 4)
    return sparse.coo_matrix((vals.reshape(-1), (rows, cols.reshape(-1))),
                             shape=(n_rows, M * (1 + p))).tocsr()


def _nullspace_threshold(spectrum, h):
    """Singular-value threshold of the numerical null space for a spectrum
    sorted descending (zero-padded to the column count) on a grid of largest
    spacing h: 100 h^2 smax, or on a coarse grid the geometric middle of the
    largest gap in the small spectrum.  Raises DimensionAmbiguityError when
    no clear plateau separates the null space."""
    cols_total = len(spectrum)
    smax = float(spectrum[0])
    threshold = 100.0 * h * h * smax
    if threshold >= 0.1 * smax:
        # the truncation-noise formula is vacuous on a coarse grid; fall
        # back to the largest multiplicative gap in the small spectrum
        small = np.sort(spectrum[(spectrum > 1e-13 * smax)
                                 & (spectrum < 0.1 * smax)])
        if small.size < 2:
            raise DimensionAmbiguityError(
                "no resolvable small singular values", spectrum=spectrum)
        ratios = small[1:] / small[:-1]
        k = int(np.argmax(ratios))
        if ratios[k] < 30.0:
            raise DimensionAmbiguityError(
                f"no clear singular-value plateau (best gap ratio "
                f"{ratios[k]:.1f})", spectrum=spectrum)
        threshold = float(np.sqrt(small[k] * small[k + 1]))
    threshold = min(threshold, 0.1 * smax)
    near = np.sum((spectrum >= threshold) & (spectrum < 3.0 * threshold))
    inside = np.sum((spectrum >= threshold / 3.0) & (spectrum < threshold))
    if near + inside > 0.02 * cols_total:
        raise DimensionAmbiguityError(
            f"no clear singular-value plateau around {threshold:.3e}",
            spectrum=spectrum)
    return threshold


def solve_condition_nullspace(grid: LiftGrid) -> NullspaceResult:
    """Assemble the condition as a sparse operator on the grid unknowns
    (phi, b_1..b_p per point; centered differences, equations at interior
    points) and return an orthonormal basis of its numerical null space.

    The operator is block diagonal up to a permutation: an equation at m
    touches only m +- e_i, so the connected components of its row/column
    graph are independent blocks (columns no equation touches are blocks of
    their own).  The SVD of the operator is the union of the dense SVDs of
    its blocks."""
    _degeneracy_guard(grid)
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    op = _condition_operator(grid)
    rows_total, cols_total = op.shape
    _, labels = connected_components(
        sparse.bmat([[None, op], [op.T, None]]), directed=False)
    row_labels, col_labels = labels[:rows_total], labels[rows_total:]
    blocks = []                                 # (columns, svals, vt)
    for label in np.unique(row_labels):
        r = np.flatnonzero(row_labels == label)
        c = np.flatnonzero(col_labels == label)
        _, s, vt = np.linalg.svd(op[r][:, c].toarray(), full_matrices=True)
        blocks.append((c, s, vt))
    untouched = np.flatnonzero(~np.isin(col_labels, row_labels))

    svals = np.sort(np.concatenate([s for _, s, _ in blocks]))[::-1]
    spectrum = np.concatenate([svals, np.zeros(cols_total - len(svals))])
    threshold = _nullspace_threshold(spectrum, float(np.max(grid.spacings)))
    null_count = int(np.sum(spectrum < threshold))
    # each block's trailing right singular vectors (below the threshold, or
    # beyond its row count), then one unit row per untouched column
    basis = np.zeros((null_count, cols_total))
    row = 0
    for c, s, vt in blocks:
        null = vt[int(np.sum(s >= threshold)):]
        basis[row:row + len(null), c] = null
        row += len(null)
    basis[np.arange(row, null_count), untouched] = 1.0

    fam = analytic_family(grid)
    projections = np.zeros(len(fam))
    for k, data in enumerate(fam):
        vec = np.concatenate([data.phi, data.b.T.reshape(-1)])
        vec = vec / np.linalg.norm(vec)
        projections[k] = float(np.linalg.norm(basis @ vec))
    return NullspaceResult(spectrum, threshold, projections, null_count, basis)


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------

@dataclass
class TransformResult:
    F_tilde: np.ndarray         # (M, A) grid samples
    nu_inv: np.ndarray          # (M,) <<calF, calF>>
    calF: np.ndarray            # (M, A)
    rank_margin: float
    cone_defect: float
    data: RibaucourData
    F_tilde_map: SmoothMap | None = None   # exact map when available


def _exact_transform_map(grid: LiftGrid, data: RibaucourData):
    """Closed-form transformed map when the datum comes from a constant
    vector (an ambient reflection) or is the identity datum phi = 0."""
    F = grid.lift.F
    if float(np.max(np.abs(data.phi))) == 0.0:
        return F
    if data.z is None:
        return None
    z = data.z
    zz = float(np.sum(grid.sig * z * z))
    if abs(zz) < SINGULAR_TOL:
        return None
    sig = grid.sig
    F_eval = F.evaluator

    def refl_eval(x):
        vals = F_eval(list(x))
        acc = sig[0] * z[0] * vals[0]
        for s, zc, c in zip(sig[1:], z[1:], vals[1:]):
            if zc != 0.0:
                acc = acc + (s * zc) * c
        fac = 2.0 / zz
        return [c - (fac * z[a]) * acc for a, c in enumerate(vals)]

    return SmoothMap(F.domain, grid.A, refl_eval, F.name + "_reflected")


def transform(grid: LiftGrid, data: RibaucourData) -> TransformResult:
    """F~ = F - 2 nu_R phi calF with calF = F_* grad phi + beta and
    nu_R^{-1} = <<calF, calF>>."""
    n = grid.n
    if data.z is not None:
        zz = float(np.sum(grid.sig * data.z * data.z))
        if abs(zz) < SINGULAR_TOL * float(np.sum(data.z * data.z)):
            raise SingularTransformError(
                f"<<z, z>> = {zz:.3e}: constant-vector direction is null")
    Dphi = np.stack([grid.diff(data.phi[:, None], i)[:, 0] for i in range(n)],
                    axis=1)                       # (M, n)
    gradphi = np.einsum("mij,mj->mi", grid.g_inv, Dphi)
    Fgrad = np.einsum("mi,miA->mA", gradphi, grid.tangents)
    calF = Fgrad + grid.beta_ambient(data.b)
    nu_inv = grid.lorentz_inner(calF, calF)
    scale = max(float(np.max(np.einsum("mA,mA->m", calF, calF))), 1e-300)
    if float(np.min(np.abs(nu_inv))) < SINGULAR_TOL * scale:
        worst = int(np.argmin(np.abs(nu_inv)))
        raise SingularTransformError(
            f"<<calF, calF>> = {nu_inv[worst]:.3e} at grid point {worst}: "
            "transform direction is null")
    F_tilde = grid.F_vals - 2.0 * (data.phi / nu_inv)[:, None] * calF

    dF = np.stack([grid.diff(F_tilde, i) for i in range(n)], axis=1)  # (M,n,A)
    sv = np.linalg.svd(dF, compute_uv=False)                         # (M, n)
    rank_margin = float(np.min(sv[:, -1] / sv[:, 0]))
    if rank_margin < RANK_MARGIN:
        raise DegenerateTransformError(
            f"transformed differential rank margin {rank_margin:.3e}")
    cone_defect = float(np.max(np.abs(grid.lorentz_inner(F_tilde, F_tilde))))
    return TransformResult(F_tilde, nu_inv, calF, rank_margin, cone_defect,
                           data, _exact_transform_map(grid, data))


@dataclass
class ConePreservationReport:
    prediction_mismatch: float  # <<F~, F~>> vs 4 nu_R phi (phi - <<F, beta>>)


def cone_preservation_check(grid: LiftGrid, data: RibaucourData,
                            result: TransformResult) -> ConePreservationReport:
    """<<F~, F~>> against the algebraic identity
    4 nu_R phi (phi - <<F, beta>>); zero exactly when c = 0."""
    measured = grid.lorentz_inner(result.F_tilde, result.F_tilde)
    FB = grid.lorentz_inner(grid.F_vals, grid.beta_ambient(data.b))
    predicted = 4.0 * data.phi * (data.phi - FB) / result.nu_inv
    scale = max(float(np.max(np.abs(predicted))), 1.0)
    return ConePreservationReport(
        float(np.max(np.abs(measured - predicted))) / scale)


# ---------------------------------------------------------------------------
# flatness filtering
# ---------------------------------------------------------------------------

def exact_flatness_residual(grid: LiftGrid, F_map: SmoothMap, samples=3, seed=0):
    """Riemann residual of an exactly represented map via jets, relative per
    point to the scale of its second fundamental form, from one batched
    pass at the sample points."""
    rng = np.random.default_rng(seed)
    pts = F_map.domain.sample_points(samples, rng)
    ext = fundamental_forms(F_map, grid.lift.ambient, pts)
    riemann = intrinsic_curvatures(ext).riemann
    aon = ext.alpha_onb()
    scale = np.maximum(np.max(np.abs(np.einsum(
        "mijA,A,mklA->mijkl", aon, grid.sig.astype(float), aon)),
        axis=(1, 2, 3, 4)), 1e-12)
    return float(np.max(np.max(np.abs(riemann), axis=(1, 2, 3, 4)) / scale))


@dataclass
class FilterRecord:
    data: RibaucourData
    result: TransformResult | None
    flat_residual: float | None
    retained: bool
    error: str | None = None


def flatness_filter(grid: LiftGrid, candidates):
    """Retain the transforms whose induced metric stays flat, decided by
    the exact-jet Riemann residual of their closed-form map at FLAT_TOL.
    Constant-vector data (ambient reflections) and the identity datum have
    such a map.  A candidate without one is refused with an error: the
    finite-difference curvature of grid samples cannot decide flatness on
    the grids this package runs (on s3xs1 at 5^4 it reads 0.36 to 1.00 on
    exactly flat reflection transforms)."""
    records = []
    for data in candidates:
        try:
            result = transform(grid, data)
        except (SingularTransformError, DegenerateTransformError) as err:
            records.append(FilterRecord(data, None, None, False,
                                        f"{type(err).__name__}: {err}"))
            continue
        if result.F_tilde_map is None:
            records.append(FilterRecord(
                data, result, None, False,
                "no closed-form map: flatness of a grid-only transform is "
                "not decided"))
            continue
        resid = exact_flatness_residual(grid, result.F_tilde_map)
        records.append(FilterRecord(data, result, resid, resid <= FLAT_TOL))
    return records


# ---------------------------------------------------------------------------
# derived compatibility: Hessian of phi commutes with the shape operators
# ---------------------------------------------------------------------------

def hessian_commutation_residual(grid: LiftGrid, phi):
    """Residual of [Hess phi, A_xi] = 0, a consequence of the condition plus
    flat normal bundle; noise floor O(h^2)."""
    n = grid.n
    phi = np.asarray(phi, float)
    Dphi = np.stack([grid.diff(phi[:, None], i)[:, 0] for i in range(n)],
                    axis=1)
    DDphi = np.stack([grid.diff(Dphi, i) for i in range(n)], axis=1)  # (M,i,j)
    for i in range(n):
        DDphi[:, i, i] = _grid_diff2(phi[:, None], grid.shape,
                                     grid.spacings, i)[:, 0]
    inner = _interior_mask(grid.shape)
    ext = grid.ext
    g_inv = ext.g_inv[inner]
    gam = np.einsum("mlk,mkij->mlij", g_inv, christoffels(ext)[inner])
    gam_dphi = np.einsum("mlij,ml->mij", gam, Dphi[inner])
    dd = DDphi[inner]
    # Hess phi_ij = D_i D_j phi - Gamma^l_ij D_l phi, as a mixed operator
    H = g_inv @ (0.5 * (dd + np.swapaxes(dd, -1, -2)) - gam_dphi)
    S = ext.shape_ops[inner]
    C = H[:, None] @ S - S @ H[:, None]
    # the normalization uses the raw second-derivative scale of phi, which
    # stays O(1) even when the intrinsic Hessian itself nearly vanishes
    # (for solutions the Christoffel and coordinate terms cancel)
    dd_scale = max(float(np.max(np.abs(dd))), float(np.max(np.abs(gam_dphi))))
    a_scale = float(np.max(np.abs(S)))
    return float(np.max(np.abs(C))) / max(dd_scale * a_scale, 1e-12)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

@dataclass
class MemberReport:
    name: str
    c: float
    condition_residual: float
    cone_defect: float | None = None
    flat_residual: float | None = None
    retained: bool = False
    cf_residual: float | None = None
    offdiag_residual: float | None = None
    error: str | None = None
    f_map: SmoothMap | None = None
    omega_map: SmoothMap | None = None
    samples: np.ndarray | None = None


@dataclass
class FamilyResult:
    lift: LiftedImmersion
    grid: LiftGrid
    nullspace: NullspaceResult | None
    members: list


def _member_postchecks(grid: LiftGrid, rec: MemberReport, model: ConeModel,
                       F_map: SmoothMap, seed=0):
    proj = project_from_cone(F_map, model)
    rec.f_map = proj.f
    rec.omega_map = proj.omega
    rng = np.random.default_rng(seed)
    pts = F_map.domain.sample_points(4, rng)
    # the quadruple test and the holonomic gate share one pass
    ext = fundamental_forms(proj.f, amb_mod.euclidean(model.N), pts)
    rec.cf_residual = conformal_flatness_test(ext, trials=20, seed=seed)
    rec.offdiag_residual = max(max(offdiagonal_defects(ext.at(m)))
                               for m in range(len(pts)))
    # grid samples, NaN at the points under the pole guard
    vals = np.full((grid.M, model.N), np.nan)
    rho = evaluate_jet(F_map, grid.points, 0).value @ (grid.sig * model.w)
    keep = np.abs(rho) >= proj.eps_pole
    if keep.any():
        vals[keep] = evaluate_jet(proj.f, grid.points[keep], 0).value
    rec.samples = vals


def conformally_flat_family(smooth_map: SmoothMap, conf, amb,
                            count=3, seed=0) -> FamilyResult:
    """Full pipeline: lift an immersion with known conformal structure to
    the cone, solve the compatibility condition, transform by the identity
    datum and `count` random ambient reflections (constant-vector data,
    which sit on the cone-preserving c = 0 slice), keep the members whose
    closed-form transform stays flat, and project each back to a new
    conformally flat immersion."""
    if conf is None:
        raise NotApplicable("pipeline needs a conformal structure")
    if smooth_map.domain.dim < 4:
        raise NotApplicable("pipeline needs n >= 4")
    N = amb.flat_dim
    model = build_cone_model(N)
    lift = flat_lift(smooth_map, conf, model)
    grid = build_lift_grid(lift)
    ns = solve_condition_nullspace(grid)

    rng = np.random.default_rng(seed)
    candidates = []
    identity = RibaucourData(np.zeros(grid.M),
                             np.tile(np.eye(grid.p)[0], (grid.M, 1)),
                             0.0, 0.0, name="identity")
    identity.condition_residual = condition_residual(grid, identity.phi, identity.b)
    candidates.append(identity)
    made = 0
    while made < count:
        z = rng.standard_normal(N + 2)
        z /= np.linalg.norm(z)
        if abs(float(np.sum(grid.sig * z * z))) < 0.3:
            continue
        data = constant_vector_data(grid, z, name=f"reflection-{made}")
        candidates.append(data)
        made += 1

    members = []
    for data in candidates:
        rec = MemberReport(data.name, data.c, data.condition_residual)
        try:
            frec, = flatness_filter(grid, [data])
            if frec.error is not None:
                rec.error = frec.error
                members.append(rec)
                continue
            rec.flat_residual = frec.flat_residual
            rec.retained = frec.retained
            rec.cone_defect = frec.result.cone_defect
            if frec.retained:
                _member_postchecks(grid, rec, model, frec.result.F_tilde_map,
                                   seed=seed)
        except ConfflatError as err:   # isolate per-member failures
            rec.error = f"{type(err).__name__}: {err}"
        members.append(rec)
    return FamilyResult(lift, grid, ns, members)
