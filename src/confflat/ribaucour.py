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
discretization error); each transport step is a Pade [2/2] approximant of a
commutator exponential, which preserves the ambient pairing exactly.  The
condition operator is held as its nonzeros, four per row, and split into
its independent blocks by labelling the connected components of its
row/column graph in numpy.  The null-space basis is a sparse matrix whose
rows each live on one block of the condition operator; it is the only
sparse matrix here, and solve_condition_nullspace alone loads the sparse
module that builds it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import ambient as amb_mod
from .conformal import weyl_defects
from .errors import (ConfflatError, DegenerateInputError,
                     DegenerateTransformError, DimensionAmbiguityError,
                     DomainError, FrameError, NotApplicable,
                     SingularTransformError)
from .extrinsic import (ExtrinsicData, christoffels, fundamental_forms,
                        intrinsic_curvatures, normal_projectors)
from .jets import Jet, SmoothMap, evaluate_jet, stack, unstack
from .jets.core import _jet
from .jets.maps import _jet3, _packed_jet
from .lightcone import (LiftedImmersion, _slice_coordinates, _w_pairing,
                        project_from_cone)
from .principal import (CLUSTER_TOL, FLAT_NB_TOL, _principal_pass,
                        offdiagonal_defects)

SINGULAR_TOL = 1e-8
DEGENERATE_MARGIN = 1e-3
RANK_MARGIN = 1e-8
GRAM_RATIO = 1e-4    # rank margins below this come from singular values
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
    ext: ExtrinsicData          # pointwise data at the grid points, batched,
                                # from order-2 jets (no Codazzi tensor)

    @cached_property
    def _analytic_data(self):
        """The analytic family's data, without residuals, built once."""
        fam = [_constant_vector(self, e, f"basis-{a}")
               for a, e in enumerate(np.eye(self.A))]
        return fam + [RibaucourData(np.ones(self.M), np.zeros((self.M, self.p)),
                                    -1.0, None, z=None, name="shift")]

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
        diag = np.diagonal(self.alpha, axis1=1, axis2=2)     # (M, A, n)
        return self.eps[:, None] * ((self.frame * self.sig) @ diag)


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


def _pade_step(X):
    """The diagonal Pade [2/2] approximant of exp(X),
    (I - X/2 + X^2/12)^{-1} (I + X/2 + X^2/12), for a stack (..., A, A) in
    one batched solve.  Its local error is fifth order in X.  Being r(X) with
    r(z) r(-z) = 1, it maps a matrix that is skew for a pairing G
    (X^T G = -G X) to one that preserves it (S^T G S = G) exactly, as the
    exponential does."""
    sq = X @ X
    sq /= 12.0
    half = 0.5 * X
    eye = np.eye(X.shape[-1])
    lhs = eye - half
    lhs += sq
    half += eye
    half += sq
    del sq    # before the solve allocates its result
    return np.linalg.solve(lhs, half)


def _commutator_step(Pa, Pm, Pc, T):
    """One Pade step of exp([Pc - Pa, Pm]) over a stack of edges, composed
    after the product T of the earlier steps (None before the first)."""
    dP = Pc - Pa
    X = dP @ Pm
    X -= Pm @ dP
    del dP    # before the Pade step allocates its operands
    S = _pade_step(X)
    return S if T is None else S @ T


def _transport_operators(lift: LiftedImmersion, pts, edges, P_grid, substeps):
    """Every edge's transport in `substeps` and in 2*`substeps` commutator
    Pade steps, as two (E, A, A) operators acting on frame rows from the
    right.  Both step counts read the normal projectors at fractions k / D,
    D = 4 substeps, of every edge.  They are evaluated one coarse step at a
    time: coarse step s spans fractions 4s/D to (4s + 4)/D and takes one
    step through its midpoint, the fine run two through its quarter points,
    and only the end projector is kept, as the start of the next step, so
    the projectors held at once are those of one step, not of all of them."""
    D = 4 * substeps
    u0 = pts[edges[:, 0]]
    du = pts[edges[:, 1]] - u0

    def projectors(k):
        return normal_projectors(lift.F, lift.ambient, u0 + du * (k / D))

    Pa = P_grid[edges[:, 0]]
    T_coarse = T_fine = None
    for s in range(substeps):
        P1, P2, P3 = (projectors(4 * s + j) for j in (1, 2, 3))
        Pc = P_grid[edges[:, 1]] if s == substeps - 1 else projectors(4 * s + 4)
        T_fine = _commutator_step(Pa, P1, P2, T_fine)
        T_fine = _commutator_step(P2, P3, Pc, T_fine)
        T_coarse = _commutator_step(Pa, P2, Pc, T_coarse)
        Pa = Pc
        del P1, P2, P3    # only the end projector outlives its step
    return np.swapaxes(T_coarse, -1, -2), np.swapaxes(T_fine, -1, -2)


def build_lift_grid(lift: LiftedImmersion, frame_tol=0.05,
                    substeps=2) -> LiftGrid:
    """Sample the lift geometry on the domain grid and construct a parallel
    normal frame by second-order discrete transport of the base-point frame
    along grid lines.  Each edge step applies the Pade [2/2] approximant of
    the commutator exponential exp([P1 - P0, P_mid]) built from normal-space
    projectors (`_pade_step`), a midpoint discretization of the transport
    equation.  The commutator of two projectors that are self-adjoint for
    the ambient pairing is skew for it, and the diagonal Pade approximant
    maps such a matrix into the pairing's group exactly, so each step
    preserves the ambient pairing.  The transport is run at step counts
    `substeps` and 2*`substeps` per edge; the Richardson difference between
    the two estimates the transport error, and a frame error is raised when
    it exceeds frame_tol.

    The extrinsic data at the grid points comes from one batched pass of
    order-2 jets (the metric, the second fundamental form and the normal
    frame need no more).  A step depends on the projectors only, not on the
    frame it carries, so every edge's transport operator is built before
    the sweep, per resolution: one batched Pade step per sub-step over all
    edges, multiplied into one (E, A, A) operator (`_transport_operators`).
    The normal projectors at the sub-step points (fractions k / (4
    substeps) of every edge, which the two step counts share) are evaluated
    one coarse step at a time, 4 substeps - 1 batched passes of M - 1
    points each, and dropped once the step is taken, so that the build's
    memory peak grows with one step's projectors, not with all of them.
    The sweep then runs level by level (`_sweep_edges`): sum(N_i - 1)
    levels on a grid of shape (N_1, ..., N_n), each one batched apply,
    projection onto the normal space and pseudo-Gram-Schmidt over all of
    its edges."""
    dom = lift.F.domain
    if dom.grid_shape is None:
        raise ValueError("lift domain carries no grid")
    shape = tuple(dom.grid_shape)
    pts = dom.grid_points().reshape(-1, dom.dim)
    spac = dom.spacings()
    amb = lift.ambient
    M = pts.shape[0]
    sig = amb.signature

    ext = fundamental_forms(lift.F, amb, pts, jet=evaluate_jet(lift.F, pts, 2))
    p = ext.p
    fe = ext.frame_eps
    P_grid = ext.normal_projector()

    levels = _sweep_edges(shape)
    edges = np.concatenate(levels)
    T_coarse, T_fine = _transport_operators(lift, pts, edges, P_grid, substeps)

    # two resolutions of the same transport for a Richardson error estimate
    coarse = np.zeros((M, p, amb.flat_dim))
    frame = np.zeros_like(coarse)
    coarse[0] = frame[0] = ext.frame[0]
    eps = ext.frame_eps[0].copy()
    runs = ((coarse, T_coarse), (frame, T_fine))
    start = 0
    for level in levels:
        src, dst = level.T
        ops = slice(start, start + len(level))
        start = ops.stop
        normals = ext.frame[dst]
        for out, T in runs:
            moved = out[src] @ T[ops]
            # clean residual out-of-bundle drift, keep pseudo-orthonormality
            coef = moved @ np.swapaxes(normals * sig, -1, -2)
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
    condition_residual: float | None   # None where no check reads it
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


def _constant_vector(grid: LiftGrid, z, name):
    """constant_vector_data without its condition residual."""
    z = np.asarray(z, float)
    sz = grid.sig * z
    phi = grid.F_vals @ sz
    b = grid.eps * (grid.frame @ sz)
    c = float(np.mean(grid.cone_constant(phi, b)))
    return RibaucourData(phi, b, c, None, z=z, name=name)


def constant_vector_data(grid: LiftGrid, z, name="") -> RibaucourData:
    """The analytic compatibility solution generated by a constant ambient
    vector z: phi = <<F, z>>, beta = normal part of z."""
    data = _constant_vector(grid, z, name or "constant-vector")
    data.condition_residual = condition_residual(grid, data.phi, data.b)
    return data


def shift_data(grid: LiftGrid, data: RibaucourData, delta) -> RibaucourData:
    """(phi + delta, beta): still a compatibility solution, with the
    light-cone constant shifted by -delta."""
    return RibaucourData(data.phi + delta, data.b.copy(), data.c - delta,
                         data.condition_residual, z=None,
                         name=data.name + f"+shift({delta:g})")


def analytic_family(grid: LiftGrid):
    """The known compatibility solutions, with their condition residuals:
    one per ambient basis vector plus the constant-shift datum (phi = 1,
    beta = 0)."""
    return [replace(d, condition_residual=condition_residual(grid, d.phi, d.b))
            for d in grid._analytic_data]


# ---------------------------------------------------------------------------
# null space of the discrete condition operator
# ---------------------------------------------------------------------------

@dataclass
class NullspaceResult:
    spectrum: np.ndarray
    threshold: float
    analytic_projections: np.ndarray   # fraction of each analytic member in the span
    dimension: int
    basis: object                      # sparse CSR array (dimension, M*(1+p)):
                                       # orthonormal rows, each on one block's
                                       # columns only


def _degeneracy_guard(grid: LiftGrid):
    """Refuse, at three grid points decided in one pass, a single principal
    normal or two principal normals too close to tell apart."""
    idx = np.linspace(0, grid.M - 1, 3).astype(int)
    decs, failure = _principal_pass(grid.ext.at(idx), CLUSTER_TOL, FLAT_NB_TOL, 0)
    for dec in decs:
        if dec.k < 2:
            raise DegenerateInputError(
                "input has a single principal normal: the condition loses "
                "rigidity and its null space is infinite dimensional")
        etas = np.array(dec.etas)
        scale = np.max(np.linalg.norm(etas, axis=-1))
        gaps = np.linalg.norm(etas[:, None] - etas[None], axis=-1) / scale
        close = np.argwhere(np.triu(gaps < DEGENERATE_MARGIN, 1))
        if len(close):
            i, j = close[0]
            raise DegenerateInputError(
                f"principal normals {i}, {j} too close (margin {gaps[i, j]:.3e})")
    if failure is not None:
        raise failure[1]


def _condition_operator(grid: LiftGrid):
    """The condition as an operator on the grid unknowns (phi, b_1..b_p per
    point, column blocks of M): one row per interior point m, direction i
    and frame index a, in that order, holding the centered differences of
    b_a and of phi (weighted by g^{ii} h_par) at m +- e_i.  Every row has
    exactly four nonzeros, in four distinct columns, so the operator is
    returned as (cols, vals, shape): the column indices and values, each of
    shape (rows, 4), and the operator's (rows, columns)."""
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
    return cols.reshape(-1, 4), vals.reshape(-1, 4), (n_rows, M * (1 + p))


def _components(cols, n_cols):
    """Connected components of the bipartite graph that joins row r to the
    columns cols[r] (an integer array of shape (rows, k)), by min-label
    propagation with pointer jumping.  Each pass gives every column the
    least label of its rows and every row the least label of its columns,
    then jumps each row to its label's label; labels only fall, and a pass
    that moves none leaves every row labelled by the smallest row of its
    component.  Returns (row_labels, col_labels): a column gets its rows'
    label, and a column no row touches gets `rows`."""
    rows, k = cols.shape
    label = np.arange(rows)
    while True:
        col_label = np.full(n_cols, rows)
        np.minimum.at(col_label, cols.reshape(-1), np.repeat(label, k))
        new = col_label[cols].min(axis=1)
        new = new[new]
        if np.array_equal(new, label):
            return label, col_label
        label = new


def _condition_blocks(grid: LiftGrid):
    """The condition operator split into its independent blocks, after the
    degeneracy guard.  An equation at m touches only m +- e_i, so the
    connected components of the operator's row/column graph
    (`_components`) are independent blocks; columns that no equation
    touches are blocks of their own.  Returns (blocks, untouched, cols):
    an iterator over the blocks in the order of their smallest row, each
    as its columns and its dense matrix (rows and columns in ascending
    order, filled from the operator's nonzeros at block-local positions)
    and built only when it is reached, the untouched columns, and the
    operator's column count."""
    _degeneracy_guard(grid)
    cols, vals, (rows_total, cols_total) = _condition_operator(grid)
    row_labels, col_labels = _components(cols, cols_total)

    def blocks():
        for label in np.unique(row_labels):
            r = np.flatnonzero(row_labels == label)
            c = np.flatnonzero(col_labels == label)
            dense = np.zeros((len(r), len(c)))
            dense[np.arange(len(r))[:, None],
                  np.searchsorted(c, cols[r])] = vals[r]
            yield c, dense

    return blocks(), np.flatnonzero(col_labels == rows_total), cols_total


def _nullspace_threshold(svals, cols_total, h):
    """The null-space decision from the singular values of the blocks (a
    list of arrays) on a grid of largest spacing h.  The spectrum is their
    union sorted descending, zero-padded to the column count.  Its
    threshold is 100 h^2 smax, or on a coarse grid the geometric middle of
    the largest gap in the small spectrum; the dimension is the count of
    the spectrum below it.  Returns (spectrum, threshold, dimension).
    Raises DimensionAmbiguityError when no clear plateau separates the null
    space."""
    svals = np.sort(np.concatenate(svals))[::-1]
    spectrum = np.concatenate([svals, np.zeros(cols_total - len(svals))])
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
    return spectrum, threshold, int(np.sum(spectrum < threshold))


class ConditionSpectrum(NamedTuple):
    spectrum: np.ndarray    # singular values, descending, zero-padded
    threshold: float
    dimension: int


def condition_spectrum(grid: LiftGrid) -> ConditionSpectrum:
    """The spectrum of the condition operator with its null-space threshold
    and dimension, from the blocks' singular values alone (no singular
    vectors, no basis): the count solve_condition_nullspace reports, by the
    same decision.  Returns (spectrum, threshold, dimension)."""
    blocks, _, cols_total = _condition_blocks(grid)
    svals = [np.linalg.svd(dense, compute_uv=False) for _, dense in blocks]
    return ConditionSpectrum(*_nullspace_threshold(
        svals, cols_total, float(np.max(grid.spacings))))


def solve_condition_nullspace(grid: LiftGrid) -> NullspaceResult:
    """Assemble the condition as a sparse operator on the grid unknowns
    (phi, b_1..b_p per point; centered differences, equations at interior
    points) and return an orthonormal basis of its numerical null space,
    with the analytic family's projections onto it.

    The operator is block diagonal up to a permutation (`_condition_blocks`).
    Its SVD is the union of the dense SVDs of its blocks, and the basis is
    sparse: each row lives on the columns of one block.  Only each block's
    columns, singular values and right singular vectors outlive its SVD;
    the dense block and its left singular vectors are dropped at once."""
    from scipy import sparse     # the basis only; the pipeline needs none
    blocks, untouched, cols_total = _condition_blocks(grid)
    svds = [(c, *np.linalg.svd(dense, full_matrices=True)[1:])
            for c, dense in blocks]
    spectrum, threshold, null_count = _nullspace_threshold(
        [s for _, s, _ in svds], cols_total, float(np.max(grid.spacings)))
    # each block's trailing right singular vectors (below the threshold, or
    # beyond its row count) on that block's columns, then one unit row per
    # untouched column
    values, indices, row_nnz = [], [], []
    for c, s, vt in svds:
        null = vt[int(np.sum(s >= threshold)):]
        values.append(null.reshape(-1))
        indices.append(np.tile(c, len(null)))
        row_nnz.append(np.full(len(null), len(c)))
    values.append(np.ones(len(untouched)))
    indices.append(untouched)
    row_nnz.append(np.ones(len(untouched), int))
    indptr = np.concatenate([[0], np.cumsum(np.concatenate(row_nnz))])
    basis = sparse.csr_array(
        (np.concatenate(values), np.concatenate(indices), indptr),
        shape=(null_count, cols_total))

    fam = grid._analytic_data
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
    cone_defect: float          # max |<<F~, F~>>| / max(1, |F~|^2)
    data: RibaucourData
    F_tilde_map: SmoothMap | None = None   # exact map when available
    R: np.ndarray | None = None            # (A, A), F~ = R F, with the map


def _member_matrix(grid: LiftGrid, data: RibaucourData):
    """The constant matrix R with F~ = R F when the datum has a closed-form
    transform: I for the identity datum phi = 0, and the Lorentz reflection
    I - (2 / <<z, z>>) z (S z)^T, S = diag(sig), for a constant vector z off
    the null cone.  None otherwise."""
    if float(np.max(np.abs(data.phi))) == 0.0:
        return np.eye(grid.A)
    if data.z is None:
        return None
    z = data.z
    zz = float(np.sum(grid.sig * z * z))
    if abs(zz) < SINGULAR_TOL:
        return None
    return np.eye(grid.A) - (2.0 / zz) * np.outer(z, grid.sig * z)


def _exact_transform_map(grid: LiftGrid, R):
    """The closed-form transformed map R F: the lift itself for R = I,
    else an evaluator that applies R to the lift's stacked outputs."""
    F = grid.lift.F
    if R is None:
        return None
    if np.array_equal(R, np.eye(grid.A)):
        return F
    F_eval = F.evaluator

    def refl_eval(x):
        V = stack(list(F_eval(list(x))))
        if isinstance(V, Jet):
            return unstack(_jet(V.n, V.order, np.einsum("BA,KA...->KB...", R, V.c)))
        return list(R @ V)

    return SmoothMap(F.domain, grid.A, refl_eval, F.name + "_reflected")


def _refuse_null_z(grid: LiftGrid, data: RibaucourData):
    if data.z is not None:
        zz = float(np.sum(grid.sig * data.z * data.z))
        if abs(zz) < SINGULAR_TOL * float(np.sum(data.z * data.z)):
            raise SingularTransformError(
                f"<<z, z>> = {zz:.3e}: constant-vector direction is null")


def _refuse_null_calF(nu_inv, scale):
    if float(np.min(np.abs(nu_inv))) < SINGULAR_TOL * scale:
        worst = int(np.argmin(np.abs(nu_inv)))
        raise SingularTransformError(
            f"<<calF, calF>> = {nu_inv[worst]:.3e} at grid point {worst}: "
            "transform direction is null")


def _rank_margins(dF):
    """sigma_min / sigma_max of each matrix of a stack (..., n, A), n <= A.
    The extreme eigenvalues of the n x n Gram dF dF^T give the ratio with a
    relative error of about eps / ratio^2, so within 1e-8 of it wherever it
    is at least GRAM_RATIO; below that, or where it is not finite (a
    vanishing differential), it is recomputed from the singular values."""
    lam = np.linalg.eigvalsh(dF @ np.swapaxes(dF, -1, -2))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sqrt(lam[..., 0] / lam[..., -1])
        redo = ~(ratio >= GRAM_RATIO)
        if np.any(redo):
            sv = np.linalg.svd(dF[redo], compute_uv=False)
            ratio[redo] = sv[..., -1] / sv[..., 0]
    return ratio


def _refuse_rank(margin):
    if not np.isfinite(margin) or margin < RANK_MARGIN:
        raise DegenerateTransformError(
            f"transformed differential rank margin {margin:.3e}")


def _passing(check, out, members, *fields):
    """Run check(*per-member fields) for each member index in `members`;
    a member whose check raises its toolkit error gets it in `out`.
    Returns the positions (into `members`) of the members that pass."""
    kept = []
    for j, k in enumerate(members):
        try:
            check(*(f[j] for f in fields))
            kept.append(j)
        except ConfflatError as err:
            out[k] = err
    return np.array(kept, dtype=int)


def _transforms(grid: LiftGrid, candidates):
    """The transform of every candidate in one pass over a leading member
    axis: one np.gradient per axis for grad phi and for F~, and the rank
    margins of every point from one stacked Gram eigensolve
    (`_rank_margins`).  Returns, per candidate, its TransformResult or the
    SingularTransformError / DegenerateTransformError it meets; a candidate
    that fails a check leaves the pass there."""
    n, shape = grid.n, grid.shape
    out = [None] * len(candidates)
    live = _passing(lambda d: _refuse_null_z(grid, d), out,
                    range(len(candidates)), candidates)
    if not len(live):
        return out

    def diff(values, axis):
        """_grid_diff along `axis` of fields stacked as (m, M, ...)."""
        full = values.reshape((len(values),) + shape + values.shape[2:])
        return np.gradient(full, grid.spacings[axis], axis=axis + 1,
                           edge_order=2).reshape(values.shape)

    phi = np.stack([candidates[k].phi for k in live])              # (m, M)
    b = np.stack([candidates[k].b for k in live])                  # (m, M, p)
    Dphi = np.stack([diff(phi, i) for i in range(n)], axis=-1)     # (m, M, n)
    gradphi = np.einsum("Mij,mMj->mMi", grid.g_inv, Dphi)
    calF = (np.einsum("mMi,MiA->mMA", gradphi, grid.tangents)
            + np.einsum("mMa,MaA->mMA", b, grid.frame))
    nu_inv = np.einsum("mMA,A,mMA->mM", calF, grid.sig, calF)
    scale = np.maximum(np.max(np.einsum("mMA,mMA->mM", calF, calF), axis=1),
                       1e-300)
    keep = _passing(_refuse_null_calF, out, live, nu_inv, scale)
    if not len(keep):
        return out
    live, phi, calF, nu_inv = live[keep], phi[keep], calF[keep], nu_inv[keep]
    F_tilde = grid.F_vals - 2.0 * (phi / nu_inv)[..., None] * calF  # (m, M, A)

    dF = np.stack([diff(F_tilde, i) for i in range(n)], axis=2)    # (m, M, n, A)
    margins = np.min(_rank_margins(dF), axis=1)
    # near a pole <<calF, calF>> cancels: the rounding floor is eps |F~|^2
    cone = np.max(np.abs(np.einsum("mMA,A,mMA->mM", F_tilde, grid.sig, F_tilde))
                  / np.maximum(np.einsum("mMA,mMA->mM", F_tilde, F_tilde), 1.0),
                  axis=1)
    for j in _passing(_refuse_rank, out, live, margins):
        k = live[j]
        R = _member_matrix(grid, candidates[k])
        out[k] = TransformResult(F_tilde[j], nu_inv[j], calF[j],
                                 float(margins[j]), float(cone[j]),
                                 candidates[k], _exact_transform_map(grid, R), R)
    return out


def transform(grid: LiftGrid, data: RibaucourData) -> TransformResult:
    """F~ = F - 2 nu_R phi calF with calF = F_* grad phi + beta and
    nu_R^{-1} = <<calF, calF>>: the batched pass on one datum."""
    result, = _transforms(grid, [data])
    if isinstance(result, ConfflatError):
        raise result
    return result


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

def _flatness_ratios(ext: ExtrinsicData):
    """Per point: the largest Riemann component over the scale of the
    second fundamental form."""
    riemann = intrinsic_curvatures(ext).riemann
    aon = ext.alpha_onb()
    scale = np.maximum(np.max(np.abs(np.einsum(
        "...ijA,A,...klA->...ijkl", aon, ext.ambient.signature.astype(float),
        aon)), axis=(-4, -3, -2, -1)), 1e-12)
    return np.max(np.abs(riemann), axis=(-4, -3, -2, -1)) / scale


def exact_flatness_residual(grid: LiftGrid, F_map: SmoothMap, samples=3, seed=0):
    """Riemann residual of an exactly represented map via jets, relative per
    point to the scale of its second fundamental form, from one batched
    pass at the sample points."""
    rng = np.random.default_rng(seed)
    pts = F_map.domain.sample_points(samples, rng)
    ext = fundamental_forms(F_map, grid.lift.ambient, pts)
    return float(np.max(_flatness_ratios(ext)))


def _member_jets(Rs, lift_jet):
    """The packed jets R F of the members with matrices Rs (m, A, A), from
    the lift's packed jet at P points: coefficients (K, A, m, P)."""
    return _jet(lift_jet.n, lift_jet.order,
                np.einsum("mBA,KAP->KBmP", Rs, lift_jet.c))


def _flattened(jet, pts):
    """Jet3 of member jets (K, N, m, P) over the point set of m copies of
    the P points `pts`, member after member."""
    K, N, m, P = jet.c.shape
    tiled = np.tile(pts, (m, 1))
    return _jet3(_jet(jet.n, jet.order, jet.c.reshape(K, N, m * P)), tiled), tiled


def _flat_residuals(grid: LiftGrid, Rs, pts, lift_jet):
    """exact_flatness_residual of each map R F, R in Rs (m, A, A), at the
    points `pts`, from the lift's packed jet there and one pass of extrinsic
    data over all members' points."""
    jet, tiled = _flattened(_member_jets(Rs, lift_jet), pts)
    ext = fundamental_forms(grid.lift.F, grid.lift.ambient, tiled, jet=jet)
    return list(np.max(_flatness_ratios(ext).reshape(len(Rs), -1), axis=1))


def _per_member(run, items):
    """run(items) -> one entry per item, in one batched pass.  When the pass
    raises a toolkit error, the same pass runs on each item alone, and an
    item whose pass raises gets its error in place of its entry."""
    try:
        return run(items)
    except ConfflatError:
        out = []
        for item in items:
            try:
                out.extend(run([item]))
            except ConfflatError as err:
                out.append(err)
        return out


@dataclass
class FilterRecord:
    data: RibaucourData
    result: TransformResult | None
    flat_residual: float | None
    retained: bool
    error: str | None = None


def _error_text(err):
    return f"{type(err).__name__}: {err}"


def flatness_filter(grid: LiftGrid, candidates):
    """Retain the transforms whose induced metric stays flat, decided by
    the exact-jet Riemann residual of their closed-form map at FLAT_TOL.
    Constant-vector data (ambient reflections) and the identity datum have
    such a map, R F with a constant matrix R.  A candidate without one is
    refused with an error: the finite-difference curvature of grid samples
    cannot decide flatness on the grids this package runs (on s3xs1 at 5^4
    it reads 0.36 to 1.00 on exactly flat reflection transforms).

    All candidates go through one transform pass (`_transforms`); the
    members with a map share one jet of the lift at the sample points of
    exact_flatness_residual, each member's jet is R applied to its
    coefficients, and one pass of extrinsic data over all members' points
    gives their residuals."""
    records = []
    for data, result in zip(candidates, _transforms(grid, candidates)):
        if isinstance(result, ConfflatError):
            records.append(FilterRecord(data, None, None, False,
                                        _error_text(result)))
        elif result.F_tilde_map is None:
            records.append(FilterRecord(
                data, result, None, False,
                "no closed-form map: flatness of a grid-only transform is "
                "not decided"))
        else:
            records.append(FilterRecord(data, result, None, False))
    exact = [rec for rec in records if rec.error is None]
    if not exact:
        return records
    F = grid.lift.F
    pts = F.domain.sample_points(3, np.random.default_rng(0))
    lift_jet = _packed_jet(F, pts, 2)       # Riemann by the Gauss equation

    def residuals(recs):
        return _flat_residuals(grid, np.stack([r.result.R for r in recs]),
                               pts, lift_jet)

    for rec, resid in zip(exact, _per_member(residuals, exact)):
        if isinstance(resid, ConfflatError):
            rec.error = _error_text(resid)
        else:
            rec.flat_residual = float(resid)
            rec.retained = rec.flat_residual <= FLAT_TOL
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
    samples: np.ndarray | None = None


@dataclass
class FamilyResult:
    """The pipeline's output.  `nullspace` is the condition's spectrum with
    its null-space threshold and dimension (`condition_spectrum`): the
    pipeline reports the count and builds no basis."""

    lift: LiftedImmersion
    grid: LiftGrid
    nullspace: ConditionSpectrum
    members: list                   # one MemberReport per candidate


def _refuse_pole(rho, eps_pole):
    """The pole guard of project_from_cone on one member's <<F~, w>> at its
    sample points."""
    under = np.abs(rho) < eps_pole
    if under.any():
        q = int(np.argmax(under))
        raise DomainError(f"<<F,w>> = {rho[q]:.3e} under the pole guard "
                          f"{eps_pole:.3e} (point {q} of the batch)")


def _member_postchecks(grid: LiftGrid, members, seed=0):
    """Postchecks of the retained members, given as (MemberReport,
    TransformResult) pairs, in one batched pass: the projection f of each
    member R F to R^N, its Weyl residual and holonomic gate from one pass
    of extrinsic data over all members' sample points (f's jets come from
    one jet of the lift by R and the cone projection), and its grid
    samples, NaN at the points under the pole guard, from the lift's grid
    values.  A member under the pole guard at a sample point gets that
    DomainError as its error."""
    model = grid.lift.model
    F = grid.lift.F
    for rec, result in members:
        proj = project_from_cone(result.F_tilde_map, model)
        rec.f_map = proj.f
    eps_pole = proj.eps_pole        # set by the chart box: one for all members
    pts = F.domain.sample_points(4, np.random.default_rng(seed))
    lift_jet = _packed_jet(F, pts, 2)       # Riemann and the holonomic gate
    euclid = amb_mod.euclidean(model.N)

    def residuals(items):
        V = _member_jets(np.stack([result.R for _, result in items]), lift_jet)
        rho = _w_pairing(model, V)                              # (K, m, P)
        out = [None] * len(items)
        ok = _passing(lambda r: _refuse_pole(r, eps_pole), out,
                      range(len(items)), rho.v)
        if not len(ok):
            return out
        f = _slice_coordinates(model, _jet(V.n, V.order, V.c[:, :, ok]),
                               _jet(V.n, V.order, rho.c[:, ok]))
        jet, tiled = _flattened(f, pts)
        # the Weyl residual and the holonomic gate share one pass
        ext = fundamental_forms(F, euclid, tiled, jet=jet)
        defects = weyl_defects(intrinsic_curvatures(ext)) + offdiagonal_defects(ext)
        worst, kmax, net, alpha = (np.max(x.reshape(len(ok), -1), axis=1)
                                   for x in defects)
        cf = worst / np.maximum(kmax, 1e-12)
        for j, c, o in zip(ok, cf, np.maximum(net, alpha)):
            out[j] = (float(c), float(o))
        return out

    checked = []
    for (rec, result), res in zip(members, _per_member(residuals, members)):
        if isinstance(res, ConfflatError):
            rec.error = _error_text(res)
        else:
            rec.cf_residual, rec.offdiag_residual = res
            checked.append((rec, result))
    if not checked:
        return
    # grid samples: R F at the grid values of the lift, projected where
    # |<<R F, w>>| clears the pole guard
    Rs = np.stack([result.R for _, result in checked])
    V = np.einsum("mBA,PA->BmP", Rs, grid.F_vals)                  # (A, m, M)
    rho = _w_pairing(model, V)
    keep = np.abs(rho) >= eps_pole
    samples = np.full((model.N,) + rho.shape, np.nan)
    samples[:, keep] = _slice_coordinates(model, V[:, keep], rho[keep])
    for (rec, _), vals in zip(checked, np.moveaxis(samples, 0, -1)):
        rec.samples = vals


def _family_members(grid: LiftGrid, candidates, seed=0):
    """The member layer over all candidates at once: one flatness filter
    pass, then one postcheck pass over the retained members.  A candidate
    that fails a check gets its error; the others are unaffected."""
    members = [MemberReport(d.name, d.c, d.condition_residual)
               for d in candidates]
    retained = []
    for rec, frec in zip(members, flatness_filter(grid, candidates)):
        if frec.error is not None:
            rec.error = frec.error
            continue
        rec.flat_residual = frec.flat_residual
        rec.retained = frec.retained
        rec.cone_defect = frec.result.cone_defect
        if frec.retained:
            retained.append((rec, frec.result))
    if retained:
        _member_postchecks(grid, retained, seed=seed)
    return members


def conformally_flat_family(lift: LiftedImmersion, count=3,
                            seed=0) -> FamilyResult:
    """Full pipeline from the flat lift of an immersion: solve the
    compatibility condition, transform by the identity datum and `count`
    random ambient reflections (constant-vector data, which sit on the
    cone-preserving c = 0 slice), keep the members whose closed-form
    transform stays flat, and project each back to a new conformally flat
    immersion.  The null space enters as its dimension only
    (`condition_spectrum`): no member is drawn from its basis."""
    if lift.F.domain.dim < 4:
        raise NotApplicable("pipeline needs n >= 4")
    grid = build_lift_grid(lift)
    ns = condition_spectrum(grid)

    rng = np.random.default_rng(seed)
    candidates = []
    identity = RibaucourData(np.zeros(grid.M),
                             np.tile(np.eye(grid.p)[0], (grid.M, 1)),
                             0.0, 0.0, name="identity")
    identity.condition_residual = condition_residual(grid, identity.phi, identity.b)
    candidates.append(identity)
    made = 0
    while made < count:
        z = rng.standard_normal(grid.A)
        z /= np.linalg.norm(z)
        if abs(float(np.sum(grid.sig * z * z))) < 0.3:
            continue
        data = constant_vector_data(grid, z, name=f"reflection-{made}")
        candidates.append(data)
        made += 1
    return FamilyResult(lift, grid, ns, _family_members(grid, candidates, seed))
