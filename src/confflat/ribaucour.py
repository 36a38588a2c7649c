"""Ribaucour transformations of flat holonomic immersions inside the light
cone: the linear compatibility condition on the data (phi, beta) on a
discrete grid and its numerical null space, the transform
F~ = F - 2 nu_R phi (F_* grad phi + beta) at points where the lift's exact
extrinsic data is known, and the pipeline that builds a family of new
conformally flat immersions.

A member of the family is a constant Lorentz image R F of the lift: the
identity, or the reflection in <<z, .>> = 0, which is the transform by the
constant-vector datum of z.  The member layer works on the matrices alone:
R applied to the coefficients of one jet of the lift at the postcheck
points gives every member's jet there, one pass of extrinsic data over all
members decides their flatness, and one more gives the Weyl residuals and
holonomic gates of their projections back to R^N.

All grid fields are stored flat in row-major order over the domain grid.
Normal fields are expressed in a parallel pseudo-orthonormal normal frame
obtained by transporting the base-point frame along grid lines (the normal
bundle of a flat lift is flat, so the transport is path independent up to
discretization error); each transport step is a Pade [2/2] approximant of a
commutator exponential, which preserves the ambient pairing exactly.  The
frame is swept only where a reader reads it: build_lift_grid sweeps the
interior points, which the condition operator reads, and the points on
their sweep paths from the base point (121 of 625 at 5^4), and that is all
the pipeline reads; extend_sweep continues the same sweep over the rest of
the grid for the ribaucour suite, whose analytic family reads the frame at
every grid point.  The condition operator is held as its nonzeros, four
per row, and split into its independent blocks by labelling the connected
components of its row/column graph in numpy.  The null-space basis is a
sparse matrix whose rows each live on one block of the condition operator;
it is the only sparse matrix here, and solve_condition_nullspace alone
loads the sparse module that builds it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import ambient as amb_mod
from .conformal import weyl_defects
from .errors import (ConfflatError, DegenerateInputError,
                     DimensionAmbiguityError, FrameError, NotApplicable,
                     SingularTransformError)
from .extrinsic import (ExtrinsicData, _immersion_metric, fundamental_forms,
                        intrinsic_curvatures, normal_projectors)
from .jets import SmoothMap, evaluate_jet
from .jets.core import _jet
from .jets.maps import _jet3, _packed_jet
from .lightcone import (LiftedImmersion, _pole_guard, _refuse_pole,
                        _slice_coordinates, _w_pairing)
from .principal import (CLUSTER_TOL, FLAT_NB_TOL, _principal_pass,
                        offdiagonal_defects)

SINGULAR_TOL = 1e-8
DEGENERATE_MARGIN = 1e-3
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


def _interior_mask(shape):
    m = np.zeros(shape, bool)
    m[(slice(1, -1),) * len(shape)] = True
    return m.reshape(-1)


class _Carry(NamedTuple):
    """What `extend_sweep` continues a grid's sweep from, at its swept
    points, and the build's settings."""

    coarse: np.ndarray          # (S, p, A) the coarse run of the frame
    P: np.ndarray               # (S, A, A) the normal projectors
    substeps: int
    frame_tol: float


@dataclass
class LiftGrid:
    """Pointwise geometry of a lifted immersion sampled on the chart grid,
    with a parallel pseudo-orthonormal normal frame: only the fields that
    the condition and the member layer read, and the tangents that the
    frame is checked against.  The values, tangents and inverse metric are
    held at every grid point; the frame only at the points its sweep
    reached (`swept`), and alpha(d_i, d_i) only at those and the degeneracy
    guard's, with NaN elsewhere.  `build_lift_grid` sweeps the points the
    condition operator reads, and `extend_sweep` the whole grid, which the
    readers of every point (`check_condition`, `_constant_vector`) need."""

    lift: LiftedImmersion
    shape: tuple
    points: np.ndarray          # (M, n)
    spacings: np.ndarray        # (n,)
    F_vals: np.ndarray          # (M, A)
    tangents: np.ndarray        # (M, n, A)
    g_inv: np.ndarray           # (M, n, n)
    alpha_diag: np.ndarray      # (M, n, A) alpha(d_i, d_i)
    frame: np.ndarray           # (M, p, A) parallel normal frame
    eps: np.ndarray             # (p,)
    parallel_residual: float    # Richardson estimate of the transport
                                # error at the swept points
    ext: ExtrinsicData          # the grid pass's data at the first, middle
                                # and last grid point, which the degeneracy
                                # guard decides; order-2 jets (no Codazzi)
    swept: np.ndarray           # (M,) bool, where the frame is held
    carry: _Carry | None        # None once swept everywhere

    @cached_property
    def _analytic_data(self):
        """The analytic family's data, without residuals, built once."""
        fam = [_constant_vector(self, e, f"basis-{a}")
               for a, e in enumerate(np.eye(self.A))]
        return fam + [RibaucourData(np.ones(self.M), np.zeros((self.M, self.p)),
                                    None, name="shift")]

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
        """Pointwise <<U, V>> for (M, A) fields, or (P, A) ones at P
        points."""
        return np.einsum("mA,A,mA->m", U, self.sig, V)

    def _require_swept(self, reader):
        """Refuse, with a ValueError, a grid whose frame is not swept
        everywhere: `reader` reads it at every grid point."""
        if self.carry is not None:
            raise ValueError(f"{reader} reads the frame at every grid "
                             "point: sweep the grid with extend_sweep")

    @cached_property
    def h_parallel(self):
        """eps_a <<alpha(d_i, d_i), psi_a>>, shape (M, p, n), NaN where the
        frame is not swept; computed once per grid."""
        diag = np.swapaxes(self.alpha_diag, 1, 2)           # (M, A, n)
        return self.eps[:, None] * ((self.frame * self.sig) @ diag)


def _pseudo_gs(sig, vectors, eps_expected, points):
    """Pseudo-orthonormalize the p rows of each frame in batches
    (..., B, p, A), in order; the resulting signs must reproduce
    `eps_expected` (the transported frame keeps its causal type for small
    steps).  Where they do not, raises FrameError naming a point (row of
    `points`): of the batches in the order of their leading indices, the
    first one that fails, at its first row to fail, its first such point,
    as if the batches were orthonormalized one after the other."""
    out = np.empty_like(vectors)
    bad = np.empty(vectors.shape[:-1], bool)         # (..., B, p)
    for a in range(vectors.shape[-2]):
        r = vectors[..., a, :].copy()
        for b in range(a):
            u = out[..., b, :]
            r -= eps_expected[b] * np.sum(sig * r * u, axis=-1)[..., None] * u
        q = np.sum(sig * r * r, axis=-1)
        bad[..., a] = q * eps_expected[a] <= 0
        out[..., a, :] = r / np.sqrt(np.abs(q))[..., None]
    if bad.any():
        batches = bad.reshape((-1,) + bad.shape[-2:])
        first = batches[np.argmax(batches.any(axis=(1, 2)))]
        row = first[:, np.argmax(first.any(axis=0))]
        raise FrameError("transported frame changed causal type at "
                         f"{points[np.argmax(row)]}")
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
    Pade steps, as one (2, E, A, A) stack of operators acting on frame rows
    from the right: the coarse run's, then the fine run's.  Both step
    counts read the normal projectors at fractions k / D, D = 4 substeps,
    of every edge.  Coarse step s spans fractions 4s/D to (4s + 4)/D and
    takes one step through its midpoint P2, the fine run two through its
    quarter points P1 and P3.  Each projector is evaluated just before the
    first step that reads it and dropped after the last one, so at most
    three are held at once: (Pa, P1, P2) for the first fine step, (Pa, P2,
    Pc) for the coarse step and (P2, P3, Pc) for the second fine step; the
    end projector Pc starts the next coarse step."""
    D = 4 * substeps
    u0 = pts[edges[:, 0]]
    du = pts[edges[:, 1]] - u0

    def projectors(k):
        return normal_projectors(lift.F, lift.ambient, u0 + du * (k / D))

    Pa = P_grid[edges[:, 0]]
    T_coarse = T_fine = None
    for s in range(substeps):
        P1 = projectors(4 * s + 1)
        P2 = projectors(4 * s + 2)
        T_fine = _commutator_step(Pa, P1, P2, T_fine)
        del P1
        Pc = P_grid[edges[:, 1]] if s == substeps - 1 else projectors(4 * s + 4)
        T_coarse = _commutator_step(Pa, P2, Pc, T_coarse)
        del Pa
        P3 = projectors(4 * s + 3)
        T_fine = _commutator_step(P2, P3, Pc, T_fine)
        del P2, P3
        Pa = Pc
    del Pa, Pc
    return np.swapaxes(np.stack([T_coarse, T_fine]), -1, -2)


def _sweep_paths(shape, targets):
    """Mask of the grid points on the sweep's paths from the base point to
    the points of the mask `targets`, the base point and the targets
    included.  A point's path is the chain of `_sweep_edges` edges that
    reaches it, so walking the levels backwards from the targets marks
    every point on one."""
    on_path = targets.copy()
    on_path[0] = True
    for level in reversed(_sweep_edges(shape)):
        src, dst = level.T
        on_path[src[on_path[dst]]] = True
    return on_path


def _normal_pass(lift: LiftedImmersion, pts, at):
    """The order-2 extrinsic pass at the grid points `at` (indices into the
    M points `pts`; the metric, the second fundamental form and the normal
    frame need no more), and what the sweep reads of it as (M, ...) arrays
    that hold its values at `at`, NaN elsewhere: the diagonal
    alpha(d_i, d_i), the Gram-Schmidt normal frame with its signs (zero
    elsewhere) and the normal projectors.  Returns (ext, alpha_diag,
    normals, fe, P)."""
    ext = fundamental_forms(lift.F, lift.ambient, pts[at],
                            jet=evaluate_jet(lift.F, pts[at], 2))
    M, (n, A), p = len(pts), ext.tangent.shape[1:], ext.p
    alpha_diag = np.full((M, n, A), np.nan)
    alpha_diag[at] = np.einsum("miiA->miA", ext.alpha)
    normals = np.full((M, p, A), np.nan)
    normals[at] = ext.frame
    fe = np.zeros((M, p), ext.frame_eps.dtype)
    fe[at] = ext.frame_eps
    P = np.full((M, A, A), np.nan)
    P[at] = ext.normal_projector()
    return ext, alpha_diag, normals, fe, P


def _sweep(lift: LiftedImmersion, shape, pts, reach, runs, P, normals, fe,
           eps, substeps):
    """Carry the coarse and the fine run of the frame (`runs`, (2, M, p, A),
    the fine one second) over the edges of `_sweep_edges(shape)` that end at
    the points of the mask `reach`, in place; every edge must start at a
    point whose runs and normal projector (`P`, (M, A, A)) are set, or that
    an earlier level reaches.  A step depends on the projectors only, not
    on the frame it carries, so every edge's two transport operators are
    built first (`_transport_operators`).  The sweep then runs level by
    level: one batched apply, projection onto the normal space at the
    edges' ends (the Gram-Schmidt frames `normals` with signs `fe`) and
    pseudo-Gram-Schmidt to the signs `eps` over all of a level's edges and
    both runs."""
    levels = [lvl[reach[lvl[:, 1]]] for lvl in _sweep_edges(shape)]
    levels = [lvl for lvl in levels if len(lvl)]
    T = _transport_operators(lift, pts, np.concatenate(levels), P, substeps)
    sig = lift.ambient.signature
    start = 0
    for level in levels:
        src, dst = level.T
        ops = slice(start, start + len(level))
        start = ops.stop
        nd = normals[dst]
        moved = runs[:, src] @ T[:, ops]
        # clean residual out-of-bundle drift, keep pseudo-orthonormality
        coef = moved @ np.swapaxes(nd * sig, -1, -2)
        coef *= fe[dst][:, None]
        runs[:, dst] = _pseudo_gs(sig, coef @ nd, eps, pts[dst])


def _transport_error(runs, swept, frame_tol):
    """The Richardson estimate of the transport error at the points of the
    mask `swept`, from the coarse and the fine run; raises FrameError above
    frame_tol."""
    coarse, fine = runs[:, swept]
    error = float(np.max(np.abs(fine - coarse))) / 3.0
    if error > frame_tol:
        raise FrameError(
            f"transported frame not parallel: residual {error:.3e}")
    return error


def build_lift_grid(lift: LiftedImmersion, frame_tol=0.05,
                    substeps=2) -> LiftGrid:
    """Sample the lift geometry on the domain grid and construct a parallel
    normal frame by second-order discrete transport of the base-point frame
    along grid lines, at the points the condition operator reads: the
    interior points and the points on their sweep paths from the base
    point (`_sweep_paths`; 121 of 625 at 5^4, 781 of 2,401 at 7^4).
    `extend_sweep` continues the same sweep over the rest of the grid.
    Each edge step applies the Pade [2/2] approximant of the commutator
    exponential exp([P1 - P0, P_mid]) built from normal-space projectors
    (`_pade_step`), a midpoint discretization of the transport equation.
    The commutator of two projectors that are self-adjoint for the ambient
    pairing is skew for it, and the diagonal Pade approximant maps such a
    matrix into the pairing's group exactly, so each step preserves the
    ambient pairing.  The transport is run at step counts `substeps` and
    2*`substeps` per edge; the Richardson difference between the two at the
    swept points estimates the transport error, and a frame error is raised
    when it exceeds frame_tol.

    The lift's values, tangents and inverse metric at every grid point come
    from one order-1 pass, whose rank check refuses a differential that is
    rank deficient at any grid point.  One order-2 extrinsic pass at the
    swept points and the three points the degeneracy guard decides (the
    first, middle and last) gives the diagonal alpha(d_i, d_i) that
    `h_parallel` reads, the guard's data, and the Gram-Schmidt normal frames
    and projectors that the sweep reads (`_normal_pass`); the rest of the
    pass is dropped before the transport starts.  The normal projectors at
    the sub-step points (fractions k / (4 substeps) of every swept edge,
    which the two step counts share) are 4 substeps - 1 batched passes,
    each evaluated just before the first step that reads it and dropped
    after the last, so that at most three are held at once.  The sweep then
    runs level by level (`_sweep`).  On the s3xs1 lift the build's traced
    allocations peak at 1.9 MB at 5^4 and 8.7 MB at 7^4, against 4.0 and
    15.1 MB for a pass and a sweep at every grid point."""
    dom = lift.F.domain
    if dom.grid_shape is None:
        raise ValueError("lift domain carries no grid")
    shape = tuple(dom.grid_shape)
    pts = dom.grid_points().reshape(-1, dom.dim)
    M = pts.shape[0]

    jet = evaluate_jet(lift.F, pts, 1)
    sig = lift.ambient.signature.astype(float)
    g_inv = np.linalg.inv(_immersion_metric(jet, sig, pts))
    swept = _sweep_paths(shape, _interior_mask(shape))
    guard = np.linspace(0, M - 1, 3).astype(int)
    at = np.union1d(np.flatnonzero(swept), guard)
    ext, alpha_diag, normals, fe, P = _normal_pass(lift, pts, at)
    guarded = ext.at(np.searchsorted(at, guard))
    del ext     # the rest of the pass: nothing below reads it

    # two resolutions of the same transport, coarse and fine, for a
    # Richardson error estimate
    runs = np.full((2,) + normals.shape, np.nan)
    runs[:, 0] = normals[0]
    eps = fe[0].copy()
    _sweep(lift, shape, pts, swept, runs, P, normals, fe, eps, substeps)
    error = _transport_error(runs, swept, frame_tol)
    # a copy of the fine run, so that the grid does not hold the coarse one
    return LiftGrid(lift, shape, pts, dom.spacings(), jet.value, jet.d1,
                    g_inv, alpha_diag, runs[1].copy(), eps, error, guarded,
                    swept, _Carry(runs[0, swept], P[swept], substeps,
                                  frame_tol))


def extend_sweep(grid: LiftGrid) -> LiftGrid:
    """The grid with its frame swept over every grid point: the build's
    sweep continued from its runs and projectors at the swept points over
    the edges that end at the others, with one order-2 extrinsic pass
    there.  Every frame, alpha(d_i, d_i) and the Richardson estimate, now
    over the whole grid, are bitwise those of one sweep of the whole grid,
    because each point's frame depends only on its path.  Raises FrameError
    as build_lift_grid does, with its frame_tol.  A grid that is swept
    everywhere is returned as it is."""
    carry = grid.carry
    if carry is None:
        return grid
    swept, rest = grid.swept, ~grid.swept
    alpha_diag, normals, fe, P = _normal_pass(grid.lift, grid.points,
                                              np.flatnonzero(rest))[1:]
    alpha_diag[swept] = grid.alpha_diag[swept]
    P[swept] = carry.P
    runs = np.full((2,) + normals.shape, np.nan)
    runs[:, swept] = carry.coarse, grid.frame[swept]
    _sweep(grid.lift, grid.shape, grid.points, rest, runs, P, normals, fe,
           grid.eps, carry.substeps)
    everywhere = np.ones(grid.M, bool)
    return replace(grid, alpha_diag=alpha_diag, frame=runs[1].copy(),
                   parallel_residual=_transport_error(runs, everywhere,
                                                      carry.frame_tol),
                   swept=everywhere, carry=None)


# ---------------------------------------------------------------------------
# the compatibility condition
# ---------------------------------------------------------------------------

@dataclass
class RibaucourData:
    """Scalar phi and normal field beta (components b_a in the parallel
    frame) satisfying the compatibility condition."""

    phi: np.ndarray             # (M,)
    b: np.ndarray               # (M, p)
    condition_residual: float | None   # None where no check reads it
    name: str = ""


def check_condition(grid: LiftGrid, phi, b):
    """Residual field of the compatibility condition in principal
    coordinates: D_i b_a + g^{ii} (D_i phi) eps_a <<alpha(d_i,d_i), psi_a>>
    per grid point, direction and frame index; shape (M, n, p)."""
    grid._require_swept("check_condition")
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


def condition_residual(grid: LiftGrid, phi, b, interior=True):
    res = check_condition(grid, phi, b)
    scale = max(float(np.max(np.abs(b))), float(np.max(np.abs(phi))), 1e-12)
    if interior:
        res = res[_interior_mask(grid.shape)]
    return float(np.max(np.abs(res))) / scale


def _constant_vector(grid: LiftGrid, z, name):
    """The analytic compatibility solution on the grid generated by a
    constant ambient vector z: phi = <<F, z>>, beta = normal part of z,
    without its condition residual."""
    grid._require_swept("_constant_vector")
    z = np.asarray(z, float)
    sz = grid.sig * z
    return RibaucourData(grid.F_vals @ sz, grid.eps * (grid.frame @ sz), None,
                         name=name)


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
    """Refuse, at the three grid points of `grid.ext` (the first, middle and
    last), decided in one pass, a single principal normal or two principal
    normals too close to tell apart."""
    decs, failure = _principal_pass(grid.ext, CLUSTER_TOL, FLAT_NB_TOL, 0)
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

def reflection(sig, z):
    """The Lorentz reflection R = I - (2 / <<z, z>>) z (S z)^T, S = diag(sig),
    of a constant vector z off the null cone: R^T S R = S, and R F is the
    transform of the lift F by the constant-vector datum of z.  Raises
    SingularTransformError when z is null."""
    z = np.asarray(z, float)
    zz = float(np.sum(sig * z * z))
    if abs(zz) < SINGULAR_TOL * float(np.sum(z * z)):
        raise SingularTransformError(
            f"<<z, z>> = {zz:.3e}: constant-vector direction is null")
    return np.eye(len(z)) - (2.0 / zz) * np.outer(z, sig * z)


def _off_cone_direction(rng, sig):
    """A unit vector z with |<<z, z>>| >= 0.3: standard normal draws from
    `rng`, each normalized, until one clears the bound."""
    while True:
        z = rng.standard_normal(len(sig))
        z /= np.linalg.norm(z)
        if abs(float(np.sum(sig * z * z))) >= 0.3:
            return z


def constant_vector_datum(ext: ExtrinsicData, z):
    """The constant-vector datum of z at the points of `ext`: phi = <<F, z>>,
    its differential dphi_i = <<d_i F, z>> and beta, the normal part of z.
    Returns (phi, dphi, beta) of shapes (P,), (P, n) and (P, A)."""
    z = np.asarray(z, float)
    sz = ext.ambient.signature * z
    return ext.jet.value @ sz, ext.tangent @ sz, ext.normal_projector() @ z


def transform_at(ext: ExtrinsicData, phi, dphi, beta):
    """F~ = F - 2 nu_R phi calF at the points of `ext`, with
    calF = F_* g^{-1} dphi + beta and nu_R^{-1} = <<calF, calF>>, from a
    datum's values phi (P,), differentials dphi (P, n) and normal fields
    beta (P, A) there.  Returns (F~, <<calF, calF>>).  Raises
    SingularTransformError where calF is null."""
    grad = np.einsum("mij,mj->mi", ext.g_inv, dphi)
    calF = np.einsum("mi,miA->mA", grad, ext.tangent) + beta
    nu_inv = np.einsum("mA,A,mA->m", calF, ext.ambient.signature, calF)
    scale = max(float(np.max(np.sum(calF * calF, -1))), 1e-300)
    if float(np.min(np.abs(nu_inv))) < SINGULAR_TOL * scale:
        worst = int(np.argmin(np.abs(nu_inv)))
        raise SingularTransformError(
            f"<<calF, calF>> = {nu_inv[worst]:.3e} at point {worst}: "
            "transform direction is null")
    return ext.jet.value - 2.0 * (phi / nu_inv)[:, None] * calF, nu_inv


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
    """The packed jets R F of the matrices Rs (..., A, A), from the lift's
    packed jet at P points: coefficients (K, A, ..., P)."""
    return _jet(lift_jet.n, lift_jet.order,
                np.einsum("...BA,KAP->KB...P", Rs, lift_jet.c))


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
    ext = fundamental_forms(None, grid.lift.ambient, tiled, jet=jet)
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


def _error_text(err):
    return f"{type(err).__name__}: {err}"


def flatness_filter(grid: LiftGrid, members, pts, lift_jet):
    """Retain the members whose induced metric stays flat: the exact-jet
    Riemann residual of each R F at the points `pts`, at most FLAT_TOL.
    Each member's jet is its R applied to the lift's packed jet there
    (`lift_jet`), and one pass of extrinsic data over all members' points
    gives the residuals (`_flat_residuals`); a member whose pass raises a
    toolkit error gets it as its error.  Flatness is decided on exact jets
    only: the finite-difference curvature of grid samples cannot decide it
    on the grids this package runs (on s3xs1 at 5^4 it reads 0.36 to 1.00
    on exactly flat reflection transforms)."""

    def residuals(recs):
        return _flat_residuals(grid, np.stack([r.R for r in recs]), pts,
                               lift_jet)

    for rec, resid in zip(members, _per_member(residuals, members)):
        if isinstance(resid, ConfflatError):
            rec.error = _error_text(resid)
        else:
            rec.flat_residual = float(resid)
            rec.retained = rec.flat_residual <= FLAT_TOL


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

@dataclass
class MemberReport:
    """A member R F of the family, the lift F under a constant Lorentz
    matrix R, with what the flatness filter and the postchecks found."""

    name: str
    R: np.ndarray                       # (A, A)
    flat_residual: float | None = None
    retained: bool = False
    cf_residual: float | None = None
    offdiag_residual: float | None = None
    error: str | None = None
    samples: np.ndarray | None = None


@dataclass
class FamilyResult:
    """The pipeline's output.  `nullspace` is the condition's spectrum with
    its null-space threshold and dimension (`condition_spectrum`): the
    pipeline reports the count and builds no basis.  `grid` is
    build_lift_grid's, with the frame swept on the interior points' paths
    only; the member layer reads its values at every grid point."""

    lift: LiftedImmersion
    grid: LiftGrid
    nullspace: ConditionSpectrum
    members: list                   # one MemberReport per member


def _projection_data(lift: LiftedImmersion, Rs, pts, lift_jet):
    """Extrinsic data of the projections to R^N of the maps R F, R in Rs
    (m, A, A), at the points `pts`, in one pass over all members' points,
    member after member: their jets come from the lift's packed jet there
    (`lift_jet`) by R and the cone projection.  Raises DomainError when
    |<<R F, w>>| falls under the pole guard at one of the points."""
    model = lift.model
    V = _member_jets(Rs, lift_jet)
    rho = _w_pairing(model, V)                                  # (K, m, P)
    _refuse_pole(rho.v, _pole_guard(lift.F.domain))
    jet, tiled = _flattened(_slice_coordinates(model, V, rho), pts)
    return fundamental_forms(None, amb_mod.euclidean(model.N), tiled, jet=jet)


def _member_postchecks(grid: LiftGrid, members, pts, lift_jet):
    """Postchecks of the retained members (MemberReports) in one batched
    pass: the projection f of each member R F to R^N, its Weyl residual and
    holonomic gate from one pass of extrinsic data over all members' points
    `pts` (`_projection_data`), and its grid samples, NaN at the points
    under the pole guard, from the lift's grid values.  A member under the
    pole guard at one of the points gets that DomainError as its error."""
    model = grid.lift.model

    def residuals(recs):
        ext = _projection_data(grid.lift, np.stack([rec.R for rec in recs]),
                               pts, lift_jet)
        # the Weyl residual and the holonomic gate share one pass
        defects = weyl_defects(intrinsic_curvatures(ext)) + offdiagonal_defects(ext)
        worst, kmax, net, alpha = (np.max(x.reshape(len(recs), -1), axis=1)
                                   for x in defects)
        cf = worst / np.maximum(kmax, 1e-12)
        return [(float(c), float(o))
                for c, o in zip(cf, np.maximum(net, alpha))]

    checked = []
    for rec, res in zip(members, _per_member(residuals, members)):
        if isinstance(res, ConfflatError):
            rec.error = _error_text(res)
        else:
            rec.cf_residual, rec.offdiag_residual = res
            checked.append(rec)
    if not checked:
        return
    # grid samples: R F at the grid values of the lift, projected where
    # |<<R F, w>>| clears the pole guard
    Rs = np.stack([rec.R for rec in checked])
    V = np.einsum("mBA,PA->BmP", Rs, grid.F_vals)                  # (A, m, M)
    rho = _w_pairing(model, V)
    keep = np.abs(rho) >= _pole_guard(grid.lift.F.domain)
    samples = np.full((model.N,) + rho.shape, np.nan)
    samples[:, keep] = _slice_coordinates(model, V[:, keep], rho[keep])
    for rec, vals in zip(checked, np.moveaxis(samples, 0, -1)):
        rec.samples = vals


def _family_members(grid: LiftGrid, members, seed=0):
    """The member layer over all members (MemberReports) at once: one
    order-2 jet of the lift at the postcheck points (sample points of the
    chart from `seed`), one flatness filter pass and one postcheck pass over
    the retained members, both from that jet.  A member that fails a check
    gets its error; the others are unaffected.  Returns `members`."""
    F = grid.lift.F
    pts = F.domain.sample_points(4, np.random.default_rng(seed))
    lift_jet = _packed_jet(F, pts, 2)   # Riemann and the holonomic gate
    flatness_filter(grid, members, pts, lift_jet)
    retained = [rec for rec in members if rec.retained]
    if retained:
        _member_postchecks(grid, retained, pts, lift_jet)
    return members


def conformally_flat_family(lift: LiftedImmersion, count=3,
                            seed=0) -> FamilyResult:
    """Full pipeline from the flat lift of an immersion: solve the
    compatibility condition, take the identity and `count` random ambient
    reflections R F (the transforms by constant-vector data, which sit on
    the cone-preserving c = 0 slice), keep the members that stay flat, and
    project each back to a new conformally flat immersion.  The null space
    enters as its dimension only (`condition_spectrum`): no member is drawn
    from its basis."""
    if lift.F.domain.dim < 4:
        raise NotApplicable("pipeline needs n >= 4")
    grid = build_lift_grid(lift)
    ns = condition_spectrum(grid)

    rng = np.random.default_rng(seed)
    members = [MemberReport("identity", np.eye(grid.A))] + [
        MemberReport(f"reflection-{k}",
                     reflection(grid.sig, _off_cone_direction(rng, grid.sig)))
        for k in range(count)]
    return FamilyResult(lift, grid, ns, _family_members(grid, members, seed))
