"""Sphere-congruence transforms of the lifted grid: compatibility condition,
numerical null space, exact reflections, and the full family pipeline."""
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import expm

from confflat import extrinsic
from confflat.extrinsic import christoffels
from confflat.errors import (DegenerateInputError, DimensionAmbiguityError,
                             FrameError, ImmersionError,
                             SingularTransformError)
from confflat.extrinsic import normal_projectors
from confflat.jets import SmoothMap, evaluate_jet
from confflat import ribaucour as rb
from confflat.reports import _resolve_item, run_scenario

from conftest import interior_points, lift_at, linear_image


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def _grid_pass(grid):
    """The grid's order-2 extrinsic pass at all of its points, as
    build_lift_grid makes it before it keeps only what its readers read."""
    F, pts = grid.lift.F, grid.points
    return rb.fundamental_forms(F, grid.lift.ambient, pts,
                                jet=evaluate_jet(F, pts, 2))


@pytest.fixture(scope="module")
def s3xs1_grid_pass(s3xs1_grid):
    return _grid_pass(s3xs1_grid)


def test_grid_transport_converged(s3xs1_grid):
    assert s3xs1_grid.parallel_residual < 0.05


def test_grid_frame_pseudo_orthonormal(s3xs1_grid):
    g = s3xs1_grid
    gram = np.einsum("maA,A,mbA->mab", g.frame, g.sig, g.frame)
    target = np.diag(g.eps.astype(float))
    assert np.max(np.abs(gram - target)) < 1e-10


def test_grid_frame_normal_to_tangents(s3xs1_grid):
    g = s3xs1_grid
    mixed = np.einsum("miA,A,maA->mia", g.tangents, g.sig, g.frame)
    assert np.max(np.abs(mixed)) < 1e-10


def test_grid_metric_orthogonal_net(s3xs1_grid, s3xs1_grid_pass):
    g, metric = s3xs1_grid, s3xs1_grid_pass.g
    off = metric - np.einsum("mij,ij->mij", metric, np.eye(g.n))
    assert np.max(np.abs(off)) < 1e-8 * np.max(np.abs(metric))


# Edges of the (2, 3) grid in the order the one-edge-at-a-time sweep
# crossed them: along axis 0 from the base point, then along axis 1 line by
# line.
SEQUENTIAL_EDGES_2x3 = [(0, 3), (0, 1), (1, 2), (3, 4), (4, 5)]


@pytest.mark.parametrize("shape", [(5, 5, 5, 5), (3, 4, 2)])
def test_sweep_levels_reach_every_point_once(shape):
    levels = rb._sweep_edges(shape)
    assert len(levels) == sum(k - 1 for k in shape)
    reached_at = np.full(int(np.prod(shape)), -1)
    reached_at[0] = 0
    for lvl, level in enumerate(levels, start=1):
        src, dst = level.T
        assert np.all(reached_at[dst] == -1)
        assert np.all((reached_at[src] >= 0) & (reached_at[src] < lvl))
        reached_at[dst] = lvl
        step = np.array(np.unravel_index(dst, shape)) - np.array(
            np.unravel_index(src, shape))
        assert np.all(np.abs(step).sum(axis=0) == 1)
        assert np.all(step.sum(axis=0) == 1)
    assert np.all(reached_at >= 0)


@pytest.mark.parametrize("shape, count", [((5, 5, 5, 5), 121),
                                          ((6, 6, 5, 5), 213),
                                          ((7, 7, 7, 7), 781)])
def test_sweep_paths_reach_the_interior(shape, count):
    """The build sweeps the interior points and the points on their sweep
    paths from the base point: with every point but the base, the source
    of the edge that reaches it, and no point on an axis's last layer."""
    swept = rb._sweep_paths(shape, rb._interior_mask(shape))
    assert int(np.sum(swept)) == count
    assert np.all(swept[rb._interior_mask(shape)])
    for level in rb._sweep_edges(shape):
        src, dst = level.T
        assert np.all(swept[src[swept[dst]]])
    last = np.stack(np.unravel_index(np.arange(len(swept)), shape), axis=1)
    assert not np.any(swept & np.any(last == np.array(shape) - 1, axis=1))


def test_sweep_levels_regroup_the_sequential_edges():
    """The levels hold the sequential sweep's edges, each grid line's edges
    in the same order; only lines along one axis are interleaved."""
    levels = rb._sweep_edges((2, 3))
    assert [lvl.tolist() for lvl in levels] == [
        [[0, 3]], [[0, 1], [3, 4]], [[1, 2], [4, 5]]]
    edges = [tuple(e) for e in np.concatenate(levels).tolist()]
    assert sorted(edges) == sorted(SEQUENTIAL_EDGES_2x3)
    for line in ([(0, 1), (1, 2)], [(3, 4), (4, 5)]):
        assert [e for e in edges if e in line] == line


def _sequential_transport(lift, step, substeps=2):
    """The one-edge-at-a-time transport: one `step` (an approximation of the
    matrix exponential) per sub-step and edge, then projection and
    Gram-Schmidt of that edge's frame alone.  Returns the fine frame and the
    Richardson estimate."""
    dom = lift.F.domain
    shape = tuple(dom.grid_shape)
    pts = dom.grid_points().reshape(-1, dom.dim)
    amb = lift.ambient
    sig = amb.signature
    ext = rb.fundamental_forms(lift.F, amb, pts)
    fe = ext.frame_eps.astype(float)
    P_grid = np.einsum("ma,maA,B,maB->mAB", fe, ext.frame, sig, ext.frame)
    strides = [int(np.prod(shape[d + 1:])) for d in range(len(shape))]
    done = np.zeros(len(pts), bool)
    done[0] = True
    edges = []
    for axis in range(len(shape)):
        for m in np.flatnonzero(done):
            for k in range(1, shape[axis]):
                edges.append((m + (k - 1) * strides[axis], m + k * strides[axis]))
                done[m + k * strides[axis]] = True
    D = 4 * substeps
    eps = ext.frame_eps[0]

    def gs(vectors):
        out = []
        for a, v in enumerate(vectors):
            r = v.copy()
            for u, e in zip(out, eps):
                r = r - e * float(np.sum(sig * r * u)) * u
            q = float(np.sum(sig * r * r))
            assert q * eps[a] > 0
            out.append(r / np.sqrt(abs(q)))
        return np.array(out)

    frames = []
    for K in (substeps, 2 * substeps):
        r = D // K
        frame = np.zeros(ext.frame.shape)
        frame[0] = ext.frame[0]
        for m0, m1 in edges:
            P_sub = normal_projectors(
                lift.F, amb, pts[m0] + np.outer(np.arange(1, D) / D,
                                                pts[m1] - pts[m0]))
            cur, Pa = frame[m0], P_grid[m0]
            for s in range(K):
                Pm = P_sub[(2 * s + 1) * r // 2 - 1]
                Pc = P_grid[m1] if s == K - 1 else P_sub[(s + 1) * r - 1]
                cur = (step((Pc - Pa) @ Pm - Pm @ (Pc - Pa)) @ cur.T).T
                Pa = Pc
            coef = np.einsum("a,vA,A,aA->va", fe[m1], cur, sig, ext.frame[m1])
            frame[m1] = gs(coef @ ext.frame[m1])
        frames.append(frame)
    return frames[1], float(np.max(np.abs(frames[1] - frames[0]))) / 3.0


@pytest.fixture(scope="module")
def s3xs1_coarse_lift():
    item = _resolve_item({"item": "s3xs1", "grid": [3, 3, 3, 3]})
    return lift_at(item, interior_points(item, 5))


def test_level_sweep_matches_sequential_transport(s3xs1_coarse_lift):
    """The level sweep, the build's extended over the whole grid, is the
    sequential transport with the same Pade step, regrouped; against the
    sequential transport with the exact exponential it differs by the
    step's fifth-order local error (1.4e-5 at 3^4)."""
    # the 3^4 grid is too coarse for the default frame_tol gate
    grid = rb.extend_sweep(rb.build_lift_grid(s3xs1_coarse_lift,
                                              frame_tol=1.0))
    frame, residual = _sequential_transport(s3xs1_coarse_lift, rb._pade_step)
    assert np.max(np.abs(grid.frame - frame)) <= 1e-12
    assert abs(grid.parallel_residual - residual) <= 1e-12
    frame, _ = _sequential_transport(s3xs1_coarse_lift, expm)
    assert np.max(np.abs(grid.frame - frame)) <= 1e-4


@pytest.mark.parametrize("substeps", [1, 2])
def test_transport_makes_one_pade_step_per_substep(s3xs1_coarse_lift,
                                                   monkeypatch, substeps):
    """Every edge's operator comes from batched Pade steps: 3 * substeps
    calls per sweep, each on the stack of all of that sweep's edges.  At
    3^4 the build sweeps the 4 edges on the path to the one interior
    point, and extend_sweep the other 76 of the M - 1 = 80."""
    stacks = []
    original = rb._pade_step

    def counting(a):
        stacks.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(rb, "_pade_step", counting)
    grid = rb.build_lift_grid(s3xs1_coarse_lift, frame_tol=1.0,
                              substeps=substeps)
    assert int(np.sum(grid.swept)) == 5
    assert stacks == [(4, grid.A, grid.A)] * (3 * substeps)
    stacks.clear()
    rb.extend_sweep(grid)
    assert stacks == [(grid.M - 5, grid.A, grid.A)] * (3 * substeps)


def test_normal_projectors_are_batch_invariant(s3xs1_lift):
    """The projectors at the s3xs1 5^4 transport sub-step points are the
    same bits whether they come from one 4,368-point pass or from the
    grid build's seven passes of 624, one per sub-step fraction."""
    F, amb = s3xs1_lift.F, s3xs1_lift.ambient
    pts = F.domain.grid_points().reshape(-1, F.domain.dim)
    edges = np.concatenate(rb._sweep_edges(F.domain.grid_shape))
    u0 = pts[edges[:, 0]]
    du = pts[edges[:, 1]] - u0
    fracs = np.arange(1, 8) / 8
    sub = u0[:, None, :] + du[:, None, :] * fracs[None, :, None]
    whole = normal_projectors(F, amb, sub.reshape(-1, F.domain.dim))
    assert whole.shape[0] == 4368
    whole = whole.reshape(len(edges), 7, amb.flat_dim, amb.flat_dim)
    for j in range(7):
        part = normal_projectors(F, amb, u0 + du * ((j + 1) / 8))
        assert np.array_equal(part, whole[:, j]), j


def test_lift_grid_peak_memory(s3xs1_lift):
    """The grid build makes its extrinsic pass at the 122 points the
    condition operator's sweep and the degeneracy guard read, drops it, but
    for what its readers read, before the transport, and holds at most
    three sub-step projectors at once: on the s3xs1 5^4 lift its traced
    allocations peak under 2.5 MB (1.9 MB; 4.0 MB with the pass and the
    sweep at all 625 points, 6.9 MB with the whole pass and five
    projectors held, 11.7 MB with every sub-step projector held at
    once)."""
    rb.build_lift_grid(s3xs1_lift)              # warm the cached tables
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        rb.build_lift_grid(s3xs1_lift)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_transport_holds_at_most_three_projectors(s3xs1_coarse_lift,
                                                  monkeypatch):
    """Each sub-step projector is evaluated just before the first Pade step
    that reads it and dropped after the last one: no normal_projectors call
    of the transport finds more than two earlier sub-step projectors still
    alive, so at most three are held at once, in the build's sweep and in
    extend_sweep's, seven calls each."""
    made, alive_at_call = [], []
    original = rb.normal_projectors

    def tracking(*args):
        alive_at_call.append(sum(ref() is not None for ref in made))
        P = original(*args)
        made.append(weakref.ref(P))
        return P

    monkeypatch.setattr(rb, "normal_projectors", tracking)
    grid = rb.build_lift_grid(s3xs1_coarse_lift, frame_tol=1.0)
    assert len(alive_at_call) == 7
    assert max(alive_at_call) <= 2
    alive_at_call.clear()
    rb.extend_sweep(grid)
    assert len(alive_at_call) == 7
    assert max(alive_at_call) <= 2


def test_pade_step_preserves_the_lorentz_form(rng):
    """On random elements X of so(sig) (sig X skew), the Pade step S keeps
    S^T diag(sig) S = diag(sig) to rounding, and its gap to expm falls at
    least 20x when X is halved (fifth-order local error: 32x)."""
    sig = np.array([-1.0] + [1.0] * 7)
    K = rng.standard_normal((20, 8, 8))
    X = sig[:, None] * (K - np.swapaxes(K, -1, -2))
    X *= 0.5 / np.linalg.norm(X, axis=(1, 2))[:, None, None]
    S = rb._pade_step(X)
    form = np.einsum("eAa,A,eAb->eab", S, sig, S)
    assert np.max(np.abs(form - np.diag(sig))) <= 1e-13
    gaps = [np.max(np.abs(rb._pade_step(Y) - expm(Y)), axis=(1, 2))
            for Y in (X, 0.5 * X)]
    assert np.all(gaps[0] >= 20.0 * gaps[1])


def test_condition_reads_only_the_swept_points(s3xs1_lift, s3xs1_grid):
    """The build's grid holds the frame at its 121 swept points of 625 and
    NaN elsewhere.  There its frame, alpha(d_i, d_i) and h_parallel, and
    its values, tangents and inverse metric everywhere, are bitwise those
    of the grid swept everywhere, and so is the condition's spectrum,
    which reads the interior points alone; the readers of every point
    refuse it."""
    g, full = rb.build_lift_grid(s3xs1_lift), s3xs1_grid
    swept = g.swept
    assert int(np.sum(swept)) == 121 and np.all(full.swept)
    assert np.all(np.isnan(g.frame[~swept]))
    for name in ("F_vals", "tangents", "g_inv"):
        assert np.array_equal(getattr(g, name), getattr(full, name)), name
    for name in ("frame", "alpha_diag", "h_parallel"):
        assert np.array_equal(getattr(g, name)[swept],
                              getattr(full, name)[swept]), name
    ours, theirs = rb.condition_spectrum(g), rb.condition_spectrum(full)
    assert np.array_equal(ours.spectrum, theirs.spectrum)
    assert ours[1:] == theirs[1:]
    with pytest.raises(ValueError, match="extend_sweep"):
        rb.analytic_family(g)
    with pytest.raises(ValueError, match="extend_sweep"):
        rb._constant_vector(g, np.ones(g.A), "z")


def _folded(F, corner):
    """F after the chart map that squares (u_0 - c_0) + i (u_1 - c_1), for
    `corner` = (c_0, c_1), as a SmoothMap: its differential has rank n - 2
    where u_0 = c_0 and u_1 = c_1, and full rank elsewhere."""
    c0, c1 = corner

    def evaluator(x):
        a, b = x[0] - c0, x[1] - c1
        return F.evaluator([a * a - b * b + c0, 2.0 * a * b + c1] + list(x[2:]))

    return SmoothMap(F.domain, F.codomain_dim, evaluator, F.name + "_folded")


def test_pipeline_refuses_a_rank_deficiency_it_does_not_sweep(s3xs1_lift):
    """The lift after a chart fold is rank deficient on the 25 grid points
    where u_0 is at its upper and u_1 at its lower bound.  None of them is
    swept, in the extrinsic pass or on a transport edge of the pipeline's
    grid; the order-1 pass at every grid point still refuses the lift,
    naming the first of them, the corner (4, 0, 0, 0) of the 5^4 grid."""
    F = s3xs1_lift.F
    (_, hi), (lo, _) = F.domain.box[:2]
    shape = F.domain.grid_shape
    pts = F.domain.grid_points().reshape(-1, F.domain.dim)
    corner = np.ravel_multi_index((4, 0, 0, 0), shape)
    assert not rb._sweep_paths(shape, rb._interior_mask(shape))[corner]
    folded = replace(s3xs1_lift, F=_folded(F, (hi, lo)))
    with pytest.raises(ImmersionError, match=re.escape(
            f"rank-deficient differential at {pts[corner]}")):
        rb.conformally_flat_family(folded, count=1)


def test_grid_from_order2_jets_is_exact(s3xs1_grid, s3xs1_grid_pass,
                                       s3xs1_lift, monkeypatch):
    """The grid's extrinsic pass uses order-2 jets, and every field of the
    grid is bitwise that of a grid built from the default order-3 pass, as
    are the metric and the second fundamental form of the two passes at
    the grid points: truncating a jet drops only its highest coefficient
    rows.  The grid keeps the pass's diagonal alpha(d_i, d_i) and its data
    at the first, middle and last point, and its arrays are their own."""
    from confflat.jets import maps
    g = s3xs1_grid
    assert g.ext.jet.order == 2
    monkeypatch.setattr(rb, "evaluate_jet",
                        lambda F, pts, order: maps.evaluate_jet(F, pts, 3))
    oracle = rb.extend_sweep(rb.build_lift_grid(s3xs1_lift))
    assert oracle.ext.jet.order == 3
    for name in ("F_vals", "tangents", "g_inv", "alpha_diag", "frame", "eps"):
        assert np.array_equal(getattr(g, name), getattr(oracle, name)), name
    assert g.parallel_residual == oracle.parallel_residual
    order3 = rb.fundamental_forms(g.lift.F, g.lift.ambient, g.points)
    for name in ("g", "alpha"):
        assert np.array_equal(getattr(s3xs1_grid_pass, name),
                              getattr(order3, name)), name
    assert np.array_equal(g.alpha_diag,
                          np.einsum("miiA->miA", s3xs1_grid_pass.alpha))
    kept = s3xs1_grid_pass.at(np.array([0, (g.M - 1) // 2, g.M - 1]))
    for name in ("point", "g", "frame", "alpha", "S"):
        assert np.array_equal(getattr(g.ext, name), getattr(kept, name)), name
    # no kept field is a view that holds a larger array of the build alive
    for name in ("F_vals", "tangents", "g_inv", "alpha_diag", "frame"):
        assert getattr(g, name).base is None, name


def test_order3_readers_refuse_the_grid_data(s3xs1_grid):
    """The grid's extrinsic data holds no third derivatives; the Codazzi
    tensor says so instead of failing inside numpy.  The frame-derivative
    route of the normal connection reads first frame derivatives only: it
    accepts that data and gives, bitwise, the connection of order-3 data at
    the same points."""
    from confflat.extrinsic import (codazzi_tensor,
                                    normal_connection_and_curvature)
    ext = s3xs1_grid.ext
    with pytest.raises(ValueError, match="order 2"):
        codazzi_tensor(ext)
    nb = normal_connection_and_curvature(ext)
    ref = normal_connection_and_curvature(rb.fundamental_forms(
        s3xs1_grid.lift.F, s3xs1_grid.lift.ambient, ext.point))
    assert ext.jet.order == 2 and ref.disagreement == nb.disagreement
    for name in ("frame", "gamma", "r_perp_frame", "r_perp_commutator"):
        assert np.array_equal(getattr(nb, name), getattr(ref, name)), name


def test_frame_tolerance_gate_can_fail(s3xs1_lift):
    """Each sweep gates the Richardson estimate at the points it swept: on
    the default 5^4 grid it reads about 5.6e-3 on the build's 121 points
    and 1.2e-2 on the whole grid, so a 1e-6 tolerance fails the build, and
    8e-3 passes the build and fails extend_sweep."""
    with pytest.raises(FrameError, match="transported frame not parallel"):
        rb.build_lift_grid(s3xs1_lift, frame_tol=1e-6)
    grid = rb.build_lift_grid(s3xs1_lift, frame_tol=8e-3)
    assert 1e-3 < grid.parallel_residual < 8e-3
    with pytest.raises(FrameError,
                       match="transported frame not parallel: residual 1.2"):
        rb.extend_sweep(grid)


def test_pseudo_gs_names_the_point_of_a_causal_type_change():
    sig = np.array([-1.0, 1.0, 1.0, 1.0])
    e = np.eye(4)
    frames = np.array([[e[1], e[0]], [e[1], e[2] + 0.1 * e[0]], [e[1], e[0]]])
    points = np.array([[0.0, 0.0], [0.5, -0.25], [1.0, 1.0]])
    eps = np.array([1, -1])
    out = rb._pseudo_gs(sig, frames[[0, 2]], eps, points[[0, 2]])
    assert np.allclose(out, frames[[0, 2]])
    with pytest.raises(FrameError, match=re.escape(str(points[1]))):
        rb._pseudo_gs(sig, frames, eps, points)
    # stacked runs, as the sweep's coarse and fine run: the first run that
    # fails is named, even where a later run fails at an earlier row (here
    # at row 0 of point 2, against row 1 of point 1)
    other = np.array([[e[1], e[0]], [e[1], e[0]], [e[0], e[1]]])
    with pytest.raises(FrameError, match=re.escape(str(points[1]))):
        rb._pseudo_gs(sig, np.stack([frames, other]), eps, points)
    with pytest.raises(FrameError, match=re.escape(str(points[2]))):
        rb._pseudo_gs(sig, np.stack([other, frames]), eps, points)


# ---------------------------------------------------------------------------
# the compatibility condition
# ---------------------------------------------------------------------------

def test_analytic_family_satisfies_condition(s3xs1_grid):
    h2 = float(np.max(s3xs1_grid.spacings)) ** 2
    for data in rb.analytic_family(s3xs1_grid):
        assert data.condition_residual <= 0.5 * h2, data.name


def test_random_data_violates_condition(s3xs1_grid, rng):
    g = s3xs1_grid
    phi = rng.standard_normal(g.M)
    b = rng.standard_normal((g.M, g.p))
    assert rb.condition_residual(g, phi, b) > 0.1


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


def hessian_commutation_residual(grid, phi):
    """Residual of [Hess phi, A_xi] = 0, a consequence of the condition plus
    flat normal bundle, from the grid's order-2 extrinsic pass at all of its
    points (`_grid_pass`); noise floor O(h^2)."""
    n = grid.n
    phi = np.asarray(phi, float)
    Dphi = np.stack([grid.diff(phi[:, None], i)[:, 0] for i in range(n)],
                    axis=1)
    DDphi = np.stack([grid.diff(Dphi, i) for i in range(n)], axis=1)  # (M,i,j)
    for i in range(n):
        DDphi[:, i, i] = _grid_diff2(phi[:, None], grid.shape,
                                     grid.spacings, i)[:, 0]
    inner = rb._interior_mask(grid.shape)
    ext = _grid_pass(grid)
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


def test_hessian_commutation_for_solutions(s3xs1_grid, rng):
    """Solutions of the condition have Hessians commuting with every shape
    operator; random scalars do not."""
    g = s3xs1_grid
    z = rng.standard_normal(g.A)
    data = rb._constant_vector(g, z, "z")
    h2 = float(np.max(g.spacings)) ** 2
    assert hessian_commutation_residual(g, data.phi) < 0.5 * h2
    phi_bad = np.sin(3.0 * g.points[:, 0]) * np.cos(2.0 * g.points[:, 2])
    assert hessian_commutation_residual(g, phi_bad) > 0.1


def test_nullspace_dimension_and_projections(s3xs1_grid):
    ns = rb.solve_condition_nullspace(s3xs1_grid)
    N = s3xs1_grid.A - 2
    assert ns.dimension >= N + 3
    assert float(np.min(ns.analytic_projections)) >= 0.999
    # random orthonormal combinations of the basis rows: the raw rows mix
    # the solution family with boundary values that no equation touches
    g = s3xs1_grid
    h2 = float(np.max(g.spacings)) ** 2
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal(
        (ns.dimension, 24)))
    for vec in q.T @ ns.basis:
        b = vec[g.M:].reshape(g.p, g.M).T
        assert rb.condition_residual(g, vec[:g.M], b) <= h2


def test_nullspace_basis_is_sparse(s3xs1_grid):
    """Each basis row lives on the columns of one block of the operator, so
    the basis is held sparse: at 5^4 it keeps under 5% of its entries."""
    ns = rb.solve_condition_nullspace(s3xs1_grid)
    dimension, cols = ns.basis.shape
    assert sparse.issparse(ns.basis)
    assert ns.basis.nnz <= 0.05 * dimension * cols


def test_components_label_by_smallest_row():
    """Min-label propagation on a hand-made bipartite graph of 8 rows and 11
    columns, two columns per row.  Rows 7, 6, 5, 4, 3 form a chain from
    row 0 (each pair shares one column), so row 0's label needs several
    passes to reach row 3; rows 1 and 2 share column 6 and form a second
    component; column 9 is touched by no row."""
    cols = np.array([[0, 10], [6, 7], [8, 6], [4, 5],
                     [3, 4], [2, 3], [1, 2], [0, 1]])
    row_labels, col_labels = rb._components(cols, 11)
    np.testing.assert_array_equal(row_labels, [0, 1, 1, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(col_labels, [0, 0, 0, 0, 0, 0, 1, 1, 1, 8, 0])


@pytest.mark.parametrize("grid_name", ["s3xs1_grid", "s3xs1_refined_grid"])
def test_condition_blocks_match_connected_components(grid_name, request):
    """The numpy labelling splits the condition operator exactly as scipy's
    connected_components on its row/column graph does: the same blocks in
    the same order (by smallest row), the same columns, bitwise the same
    dense blocks filled from the COO triplets, and the same untouched
    columns."""
    from scipy.sparse.csgraph import connected_components
    g = request.getfixturevalue(grid_name)
    cols, vals, shape = rb._condition_operator(g)
    rows_total = shape[0]
    rows = np.repeat(np.arange(rows_total), 4)
    op = sparse.coo_matrix((vals.reshape(-1), (rows, cols.reshape(-1))),
                           shape=shape).tocsr()
    _, labels = connected_components(
        sparse.bmat([[None, op], [op.T, None]]), directed=False)
    row_labels, col_labels = labels[:rows_total], labels[rows_total:]
    coo = op.tocoo()
    expected = []
    for label in np.unique(row_labels):
        r = np.flatnonzero(row_labels == label)
        c = np.flatnonzero(col_labels == label)
        take = row_labels[coo.row] == label
        dense = np.zeros((len(r), len(c)))
        dense[np.searchsorted(r, coo.row[take]),
              np.searchsorted(c, coo.col[take])] = coo.data[take]
        expected.append((c, dense))
    blocks, untouched, cols_total = rb._condition_blocks(g)
    blocks = list(blocks)
    assert cols_total == shape[1]
    assert len(blocks) == len(expected) > 1
    for (c, dense), (c_ref, dense_ref) in zip(blocks, expected):
        np.testing.assert_array_equal(c, c_ref)
        assert dense.shape == dense_ref.shape
        assert dense.tobytes() == dense_ref.tobytes()
    np.testing.assert_array_equal(
        untouched, np.flatnonzero(~np.isin(col_labels, row_labels)))


@pytest.fixture(scope="module")
def s3xs1_refined_grid():
    item = _resolve_item({"item": "s3xs1", "grid": [5, 5, 5, 6]})
    return rb.extend_sweep(rb.build_lift_grid(
        lift_at(item, interior_points(item, 5))))


@pytest.mark.parametrize("grid_name", ["s3xs1_grid", "s3xs1_refined_grid"])
def test_block_nullspace_matches_dense_svd(grid_name, request):
    """The union of the block SVDs is the SVD of the whole operator: the
    same spectrum, threshold, dimension, null space and analytic
    projections as one dense SVD of the densified operator, and the same
    spectrum, threshold and dimension from the blocks' singular values
    alone (condition_spectrum).  The dense null space is the orthogonal
    complement of the right singular vectors above the threshold (`above`),
    so for orthonormal bases of equal dimension ||B_ref - B_ref B^T B|| =
    ||above B^T||, and the projection of a unit vector onto it is
    sqrt(1 - ||above vec||^2); the thin SVD holds `above`."""
    g = request.getfixturevalue(grid_name)
    ns = rb.solve_condition_nullspace(g)
    cs = rb.condition_spectrum(g)
    op_cols, op_vals, shape = rb._condition_operator(g)
    dense = np.zeros(shape)
    dense[np.arange(shape[0])[:, None], op_cols] = op_vals
    _, svals, vt = np.linalg.svd(dense, full_matrices=False)
    smax = float(svals[0])
    cols = dense.shape[1]
    spectrum = np.concatenate([svals, np.zeros(cols - len(svals))])
    assert np.max(np.abs(ns.spectrum - spectrum)) <= 1e-12 * smax
    assert np.max(np.abs(cs.spectrum - spectrum)) <= 1e-12 * smax
    h = float(np.max(g.spacings))
    _, threshold, dimension = rb._nullspace_threshold([svals], cols, h)
    assert threshold == pytest.approx(ns.threshold, rel=1e-9)
    assert threshold == pytest.approx(cs.threshold, rel=1e-9)
    assert dimension == int(np.sum(spectrum < ns.threshold))
    assert ns.dimension == cs.dimension == dimension
    assert ns.basis.shape == (dimension, cols)
    B = ns.basis
    assert np.max(np.abs(B @ B.T - np.eye(dimension))) <= 1e-12
    above = vt[:cols - dimension]
    assert np.linalg.norm(above @ B.T) <= 1e-10
    for k, data in enumerate(rb.analytic_family(g)):
        vec = np.concatenate([data.phi, data.b.T.reshape(-1)])
        vec = vec / np.linalg.norm(vec)
        ref = np.sqrt(1.0 - float(np.linalg.norm(above @ vec)) ** 2)
        assert abs(ns.analytic_projections[k] - ref) <= 1e-12


def test_degenerate_input_guard(catalog):
    """A single principal normal (umbilic lift) makes the condition lose
    rigidity; the solver must refuse instead of reporting a dimension."""
    item = catalog["mobius_flat"]
    grid = rb.build_lift_grid(lift_at(item, interior_points(item, 5)))
    with pytest.raises(DegenerateInputError):
        rb.solve_condition_nullspace(grid)
    with pytest.raises(DegenerateInputError):
        rb.condition_spectrum(grid)


def test_count_and_basis_refuse_alike(catalog):
    """cone_t3 has no clear singular-value plateau at the default grid:
    the count alone and the basis refuse with the same message, because
    one decision (_nullspace_threshold) serves both."""
    item = catalog["cone_t3"]
    grid = rb.build_lift_grid(lift_at(item, interior_points(item, 5)))
    with pytest.raises(DimensionAmbiguityError, match="gap ratio 1.1") as basis:
        rb.solve_condition_nullspace(grid)
    with pytest.raises(DimensionAmbiguityError) as count:
        rb.condition_spectrum(grid)
    assert str(count.value) == str(basis.value)


def test_pipeline_reads_the_count_from_singular_values_alone(s3xs1_lift,
                                                            monkeypatch):
    """The family needs the null-space dimension only: it never builds the
    basis, and every SVD it runs skips the singular vectors."""
    def no_basis(grid):
        raise AssertionError("the pipeline built the null-space basis")

    svd = np.linalg.svd
    kinds = []

    def recording(a, *args, **kwargs):
        kinds.append(kwargs.get("compute_uv", args[1] if len(args) > 1 else True))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(rb, "solve_condition_nullspace", no_basis)
    monkeypatch.setattr(np.linalg, "svd", recording)
    fam = rb.conformally_flat_family(s3xs1_lift, count=1, seed=0)
    assert fam.nullspace.dimension >= fam.grid.A + 1
    assert kinds and not any(kinds)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _reflection_vector(sig, seed=7):
    return rb._off_cone_direction(np.random.default_rng(seed), sig)


def test_constant_vector_data_sits_on_cone_slice(s3xs1_grid):
    """phi - <<F, beta>> = <<F, tangential part of z>> vanishes on the cone,
    so constant-vector data needs no shift: its light-cone constant
    <<F, beta>> - phi, beta = sum_a b_a psi_a, is 0 at every grid point."""
    g = s3xs1_grid
    data = rb._constant_vector(g, _reflection_vector(g.sig), "z")
    beta = np.einsum("ma,maA->mA", data.b, g.frame)
    assert np.max(np.abs(g.lorentz_inner(g.F_vals, beta) - data.phi)) < 1e-10


def test_reflection_stays_on_cone(s3xs1_lift):
    ext = s3xs1_lift.checked
    sig = ext.ambient.signature
    F_t, _ = rb.transform_at(ext, *rb.constant_vector_datum(
        ext, _reflection_vector(sig)))
    cone = (np.abs(np.einsum("mA,A,mA->m", F_t, sig, F_t))
            / np.maximum(np.sum(F_t * F_t, -1), 1.0))
    assert np.max(cone) < 1e-14


def test_transform_of_the_constant_vector_datum_is_the_reflection(s3xs1_lift):
    """The transform by the constant-vector datum of z is R F at the lift's
    checked points, R the reflection of z, to 1e-13 relative (about 3e-16
    on s3xs1): calF = grad phi + beta is z itself."""
    ext = s3xs1_lift.checked
    sig = ext.ambient.signature
    for seed in (7, 11, 13, 17):
        z = _reflection_vector(sig, seed=seed)
        F_t, nu_inv = rb.transform_at(ext, *rb.constant_vector_datum(ext, z))
        RF = ext.jet.value @ rb.reflection(sig, z).T
        assert np.max(np.abs(F_t - RF)) <= 1e-13 * np.max(np.abs(RF)), seed
        assert np.allclose(nu_inv, np.sum(sig * z * z), rtol=1e-13), seed


def _reflected(grid, z):
    """The reflection R F of the lift by the constant-vector datum of z, as a
    map."""
    return linear_image(grid.lift.F, rb.reflection(grid.sig, z))


def test_reflection_preserves_metric(s3xs1_grid, s3xs1):
    reflected = _reflected(s3xs1_grid, _reflection_vector(s3xs1_grid.sig))
    sig = s3xs1_grid.sig
    for pt in interior_points(s3xs1, 3):
        jF = s3xs1_grid.lift.F.jet(pt, order=1)
        jT = reflected.jet(pt, order=1)
        gF = np.einsum("iA,A,jA->ij", jF.d1, sig, jF.d1)
        gT = np.einsum("iA,A,jA->ij", jT.d1, sig, jT.d1)
        assert np.max(np.abs(gF - gT)) < 1e-9 * np.max(np.abs(gF))


def test_reflection_is_exactly_flat(s3xs1_grid):
    reflected = _reflected(s3xs1_grid, _reflection_vector(s3xs1_grid.sig))
    assert rb.exact_flatness_residual(s3xs1_grid, reflected) < 1e-8


def test_reflection_is_a_lorentz_matrix(family, s3xs1_lift):
    """Every member matrix the pipeline makes preserves the ambient pairing,
    R^T S R = S to 1e-14 of |R|^2, so R F has the lift's induced metric and
    lies on the cone with it: the identity and each reflection, of the
    shared family and of a larger one."""
    sig = family.grid.sig
    S = np.diag(sig.astype(float))
    more = rb.conformally_flat_family(s3xs1_lift, count=8, seed=5).members
    for m in family.members + more:
        R = m.R
        scale = np.max(np.abs(R)) ** 2
        assert np.max(np.abs(R.T @ S @ R - S)) <= 1e-14 * scale, m.name
    assert len(family.members + more) == 3 + 9


def test_cone_defect_identity(s3xs1_lift):
    """<<F~, F~>> equals 4 nu phi (phi - <<F, beta>>) algebraically, shifted
    datum or not."""
    ext = s3xs1_lift.checked
    sig = ext.ambient.signature
    phi, dphi, beta = rb.constant_vector_datum(
        ext, _reflection_vector(s3xs1_lift.ambient.signature, seed=11))
    FB = np.einsum("mA,A,mA->m", ext.jet.value, sig, beta)
    for shifted in (phi, phi + 1.3):
        F_t, nu_inv = rb.transform_at(ext, shifted, dphi, beta)
        measured = np.einsum("mA,A,mA->m", F_t, sig, F_t)
        predicted = 4.0 * shifted * (shifted - FB) / nu_inv
        assert np.max(np.abs(measured - predicted)) < 1e-8 * max(
            np.max(np.abs(predicted)), 1.0)


def test_scaling_invariance(s3xs1_lift):
    ext = s3xs1_lift.checked
    phi, dphi, beta = rb.constant_vector_datum(
        ext, _reflection_vector(s3xs1_lift.ambient.signature, seed=13))
    base, _ = rb.transform_at(ext, phi, dphi, beta)
    t = 3.7
    again, _ = rb.transform_at(ext, t * phi, t * dphi, t * beta)
    assert np.max(np.abs(again - base)) < 1e-12


def _suite_verdicts(item, seed):
    report = run_scenario({"schema": 1, "item": item, "suite": "ribaucour",
                           "seed": seed})
    return {c.anchor: c.passed for c in report.checks}


@pytest.mark.parametrize("seed", [3, 37])
def test_cone_and_scaling_checks_pass_near_a_pole(seed):
    """At these seeds cylinder_r1xs3's reflection passes near a pole of the
    grid, where a transform from grid differences reached max|F~| of about
    1e4.  The suite transforms at the run's sample points from the lift's
    exact data, where max|F~| stays under 5 (the shifted datum's); the cone
    defect and the scaling residual, taken relative to |F~|^2, stay at
    rounding level, and every check of the suite passes."""
    verdicts = _suite_verdicts("cylinder_r1xs3", seed)
    assert verdicts["ribaucour/reflection-cone-defect"]
    assert verdicts["ribaucour/scaling-invariance"]
    assert all(verdicts.values()), verdicts


def _wrapped_transform(monkeypatch, change):
    """Wrap rb.transform_at: `change(ext, phi, dphi, beta, first)` gives the
    datum to transform, `first` being the phi of the suite's first call
    (the reflection's datum)."""
    real, first = rb.transform_at, []

    def wrapped(ext, phi, dphi, beta):
        if not first:
            first.append(phi)
        return real(ext, *change(ext, phi, dphi, beta, first[0]))

    monkeypatch.setattr(rb, "transform_at", wrapped)


def test_cone_defect_check_fails_off_the_cone(monkeypatch):
    """The reflection's datum shifted by 1 (light-cone constant c = -1)
    leaves the cone: `ribaucour/reflection-cone-defect` FAILs (it reads
    0.70 on s3xs1 at seed 0)."""
    real = rb.constant_vector_datum

    def shifted(ext, z):
        phi, dphi, beta = real(ext, z)
        return phi + 1.0, dphi, beta

    monkeypatch.setattr(rb, "constant_vector_datum", shifted)
    assert not _suite_verdicts("s3xs1", 0)["ribaucour/reflection-cone-defect"]


def test_cone_identity_check_fails_on_a_perturbed_beta(monkeypatch):
    """The shifted datum transformed with beta + 1e-6 xi, xi a unit normal
    field, while the prediction reads beta: <<F~, F~>> moves by
    4 nu phi 1e-6 <<F, xi>> off the prediction, and
    `ribaucour/cone-identity` FAILs (it reads 1.2e-6 on s3xs1 at seed 0)."""
    def perturbed(ext, phi, dphi, beta, first):
        if np.array_equal(phi, first + 1.0):
            beta = beta + 1e-6 * ext.frame[:, 0]
        return phi, dphi, beta

    _wrapped_transform(monkeypatch, perturbed)
    verdicts = _suite_verdicts("s3xs1", 0)
    assert not verdicts["ribaucour/cone-identity"]
    assert verdicts["ribaucour/reflection-cone-defect"]
    assert verdicts["ribaucour/scaling-invariance"]


def test_scaling_check_fails_when_phi_alone_is_scaled(monkeypatch):
    """Scaling phi by 2.5 without dphi and beta is a different datum, with a
    different transform: `ribaucour/scaling-invariance` FAILs (it reads
    0.31 on s3xs1 at seed 0)."""
    def phi_alone(ext, phi, dphi, beta, first):
        if np.array_equal(phi, 2.5 * first):     # the suite's scaled datum
            dphi, beta = dphi / 2.5, beta / 2.5
        return phi, dphi, beta

    _wrapped_transform(monkeypatch, phi_alone)
    verdicts = _suite_verdicts("s3xs1", 0)
    assert not verdicts["ribaucour/scaling-invariance"]
    assert verdicts["ribaucour/cone-identity"]


def test_identity_datum_returns_lift(s3xs1_lift, family):
    """The identity datum phi = 0 (with a normal beta) transforms the lift's
    checked values to themselves exactly, and the family's identity member
    is the lift: R = I."""
    ext = s3xs1_lift.checked
    P = len(ext.point)
    F_t, _ = rb.transform_at(ext, np.zeros(P), np.zeros((P, ext.n)),
                             ext.frame[:, 0])
    assert np.array_equal(F_t, ext.jet.value)
    identity = family.members[0]
    assert identity.name == "identity"
    assert np.array_equal(identity.R, np.eye(len(ext.ambient.signature)))


def test_null_direction_rejected(s3xs1_lift):
    """The constant-vector datum of the null direction z = w has calF = w,
    and the transform refuses it."""
    ext = s3xs1_lift.checked
    datum = rb.constant_vector_datum(ext, s3xs1_lift.model.w)
    with pytest.raises(SingularTransformError,
                       match=r"^<<calF, calF>> = .*transform direction is null"):
        rb.transform_at(ext, *datum)


def test_reflection_refuses_a_null_direction(s3xs1_grid):
    """The reflection builder refuses the null direction z = w, naming
    <<z, z>>: a member cannot be the reflection in a null hyperplane."""
    with pytest.raises(SingularTransformError,
                       match=r"^<<z, z>> = .*constant-vector direction is null"):
        rb.reflection(s3xs1_grid.sig, s3xs1_grid.lift.model.w)


def test_off_cone_draws_match_the_inline_loop(s3xs1_grid):
    """The shared draw makes the draws of the loop it replaced: standard
    normal vectors, each normalized, until |<<z, z>>| >= 0.3."""
    sig = s3xs1_grid.sig
    for seed in range(6):
        ref = np.random.default_rng(seed)
        z = ref.standard_normal(len(sig))
        z /= np.linalg.norm(z)
        while abs(float(np.sum(sig * z * z))) < 0.3:
            z = ref.standard_normal(len(sig))
            z /= np.linalg.norm(z)
        rng = np.random.default_rng(seed)
        assert np.array_equal(rb._off_cone_direction(rng, sig), z), seed
        assert np.array_equal(rng.standard_normal(3), ref.standard_normal(3))


def test_flatness_filter(s3xs1_grid):
    """Flatness is decided through exact jets of R F at the points given.
    The identity and a reflection are retained with residuals at most
    FLAT_TOL; generic linear images I + 0.05 X, whose metric is not flat,
    are rejected with their residuals and no error."""
    g = s3xs1_grid
    F = g.lift.F
    pts = F.domain.sample_points(4, np.random.default_rng(0))
    generic = np.eye(g.A) + 0.05 * np.random.default_rng(5).standard_normal(
        (2, g.A, g.A))
    members = [rb.MemberReport("identity", np.eye(g.A)),
               rb.MemberReport("reflection", rb.reflection(
                   g.sig, _reflection_vector(g.sig, seed=19)))]
    members += [rb.MemberReport(f"generic-{k}", R)
                for k, R in enumerate(generic)]
    rb.flatness_filter(g, members, pts, rb._packed_jet(F, pts, 2))
    for m in members:
        assert m.error is None, m.name
    kept, refused = members[:2], members[2:]
    for m in kept:
        assert m.retained and m.flat_residual <= rb.FLAT_TOL, m.name
    for m in refused:
        assert not m.retained and m.flat_residual > rb.FLAT_TOL, m.name


# ---------------------------------------------------------------------------
# the family pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def family(s3xs1_lift):
    return rb.conformally_flat_family(s3xs1_lift, count=2, seed=0)


def test_family_nullspace(family):
    N = family.grid.A - 2
    assert family.nullspace.dimension >= N + 3


def test_family_members_project_to_flat_immersions(family):
    g = family.grid
    retained = [m for m in family.members if m.retained]
    assert len(retained) >= 3    # identity plus both reflections
    for m in retained:
        assert m.cf_residual < 1e-6
        assert m.offdiag_residual < 1e-6
        # R F stays on the cone at the grid points
        V = g.F_vals @ m.R.T
        cone = np.abs(g.lorentz_inner(V, V)) / np.maximum(np.sum(V * V, -1), 1.0)
        assert np.max(cone) < 1e-10
        assert np.isfinite(m.samples).any()


def test_family_reflections_differ_from_original(family, s3xs1):
    """The new immersions are genuinely different from the input: their
    grid samples are not the input's values at the grid points."""
    original = evaluate_jet(s3xs1.smooth_map, family.grid.points, 0).value
    for m in family.members:
        if not m.retained or m.name == "identity":
            continue
        assert np.nanmax(np.abs(m.samples - original)) > 1e-3, m.name


def test_grid_projectors_match_frame_projectors(s3xs1_grid, s3xs1_grid_pass):
    """The transport's normal projectors, built from (U^T G U)^{-1} without
    a frame, equal the projectors of the Gram-Schmidt normal frame at the
    grid points."""
    g, ext = s3xs1_grid, s3xs1_grid_pass
    from_frame = np.einsum("ma,maA,B,maB->mAB", ext.frame_eps, ext.frame,
                           g.sig, ext.frame)
    direct = normal_projectors(g.lift.F, g.lift.ambient, g.points)
    assert np.max(np.abs(direct - from_frame)) <= 1e-12


def test_grid_contractions_match_the_einsum_oracle(s3xs1_grid,
                                                  s3xs1_grid_pass):
    """h_parallel, the grid-point normal projectors and the constant-vector
    data equal their einsum formulas to 1e-13 of each array's scale."""
    g, ext = s3xs1_grid, s3xs1_grid_pass
    z = _reflection_vector(g.sig)
    diag = np.einsum("miiA->miA", ext.alpha)
    data = rb._constant_vector(g, z, "z")
    pairs = [
        (g.h_parallel,
         np.einsum("a,maA,A,miA->mai", g.eps, g.frame, g.sig, diag)),
        (ext.normal_projector(),
         np.einsum("ma,maA,B,maB->mAB", ext.frame_eps, ext.frame, g.sig,
                   ext.frame)),
        (data.phi, np.einsum("mA,A,A->m", g.F_vals, g.sig, z)),
        (data.b, np.einsum("a,maA,A,A->ma", g.eps, g.frame, g.sig, z)),
    ]
    for k, (got, ref) in enumerate(pairs):
        assert got.shape == ref.shape, k
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), k


def test_lift_grid_rank_checks_need_no_eigvalsh(s3xs1_lift, monkeypatch):
    """Building the s3xs1 lift grid decides every rank check by the
    Cholesky test: _immersion_metric sees the 625 grid points (the order-1
    pass), the 122 of the extrinsic pass and the 840 transport sub-step
    points of the 120 swept edges, in seven passes of 120 (one per sub-step
    fraction), and calls eigvalsh on none of them."""
    sizes, eig_calls = [], []
    gate, eigvalsh = extrinsic._immersion_metric, np.linalg.eigvalsh

    def counting_gate(jet, sig, points):
        sizes.append(len(points))
        return gate(jet, sig, points)

    def counting_eigvalsh(a, *args, **kwargs):
        eig_calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(extrinsic, "_immersion_metric", counting_gate)
    monkeypatch.setattr(rb, "_immersion_metric", counting_gate)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    rb.build_lift_grid(s3xs1_lift)
    assert sizes == [625, 122] + [120] * 7
    assert eig_calls == []


def test_member_postcheck_errors_propagate(s3xs1_lift, monkeypatch):
    """A programming error in a member's postchecks ends the run; it is not
    reported as a skipped member."""
    def broken(*args, **kwargs):
        raise TypeError("broken postcheck")

    monkeypatch.setattr(rb, "_member_postchecks", broken)
    with pytest.raises(TypeError, match="broken postcheck"):
        rb.conformally_flat_family(s3xs1_lift, count=1, seed=0)


def test_member_layer_passes_do_not_grow_with_the_family(
        s3xs1, fundamental_forms_calls, monkeypatch):
    """The member layer makes one batched pass per stage whatever the
    number of members: with 1 and with 3 reflections the pipeline makes
    the same 4 fundamental_forms passes (the lift check of its caller, grid,
    flatness, postchecks) and the same jet evaluations, of which one is of
    the lift in the member layer, shared by the flatness filter and the
    postchecks, and none at the grid points after build_lift_grid.
    The grid's values come from one order-1 pass at its M points; from its
    extrinsic pass (the 121 swept points and the degeneracy guard's far
    corner at 5^4) on every jet is of order 2 (the metric, the second
    fundamental form and Riemann by the Gauss equation need no more), and
    the normal projectors' of order 1, one pass of the 120 swept edges per
    transport sub-step fraction.  Every jet evaluation, evaluate_jet's
    and the member layer's, goes through the packed step, which is counted
    here."""
    from confflat.jets import maps
    original = maps._packed_jet
    calls, grid_built, grid_started = [], [], []

    def counting(smooth_map, points, order):
        calls.append((smooth_map.name, np.shape(points), order))
        return original(smooth_map, points, order)

    build = rb.build_lift_grid

    def building(*args, **kwargs):
        grid_started.append(len(calls))
        grid = build(*args, **kwargs)
        grid_built.append(len(calls))
        return grid

    monkeypatch.setattr(maps, "_packed_jet", counting)
    monkeypatch.setattr(rb, "_packed_jet", counting)
    monkeypatch.setattr(rb, "build_lift_grid", building)
    seen = {}
    for count in (1, 3):
        calls.clear()
        fundamental_forms_calls.clear()
        grid_built.clear()
        grid_started.clear()
        lift = lift_at(s3xs1, interior_points(s3xs1, 5))
        fam = rb.conformally_flat_family(lift, count=count, seed=0)
        assert all(m.retained and m.error is None for m in fam.members)
        assert len(fam.members) == count + 1
        # the values at the grid points, the extrinsic pass, then the
        # projectors
        in_grid = calls[grid_started[0]:grid_built[0]]
        assert [order for _, _, order in in_grid] == [1, 2] + [1] * 7
        assert [shape[0] for _, shape, _ in in_grid] == [
            fam.grid.M, 122] + [120] * 7
        after = calls[grid_built[0]:]
        assert all(shape[0] != fam.grid.M for _, shape, _ in after)
        assert [(name, order) for name, _, order in after
                if name == fam.lift.F.name] == [(fam.lift.F.name, 2)]
        seen[count] = (len(fundamental_forms_calls), list(calls))
    assert seen[1] == seen[3]
    assert seen[1][0] == 4


def test_pipeline_and_suite_sweep_counts(s3xs1_lift, fundamental_forms_calls,
                                        monkeypatch):
    """At 5^4 the pipeline sweeps the 120 edges on the paths to the
    interior points, in 3 * substeps Pade stacks of 120, and its grid makes
    one extrinsic pass of 122 points (the 121 swept and the degeneracy
    guard's far corner).  The ribaucour suite extends the sweep over the
    other 504 edges, 624 in all, with one more pass at the other 504
    points."""
    stacks, passes = [], []
    original, build = rb._pade_step, rb.build_lift_grid

    def counting(a):
        stacks.append(len(a))
        return original(a)

    def building(*args, **kwargs):
        before = len(fundamental_forms_calls)
        grid = build(*args, **kwargs)
        passes.extend(len(p) for p in fundamental_forms_calls[before:])
        return grid

    monkeypatch.setattr(rb, "_pade_step", counting)
    monkeypatch.setattr(rb, "build_lift_grid", building)
    rb.conformally_flat_family(s3xs1_lift, count=1, seed=0)
    assert stacks == [120] * 6
    assert passes == [122]
    stacks.clear()
    fundamental_forms_calls.clear()
    run_scenario({"schema": 1, "item": "s3xs1", "suite": "ribaucour",
                  "seed": 0})
    assert stacks == [120] * 6 + [504] * 6
    assert [len(p) for p in fundamental_forms_calls if len(p) > 100] == [
        122, 504]


def _members(grid, seeds=(7, 11, 13)):
    """The identity member and one reflection member per seed."""
    return [rb.MemberReport("identity", np.eye(grid.A))] + [
        rb.MemberReport(f"reflection-{seed}", rb.reflection(
            grid.sig, _reflection_vector(grid.sig, seed=seed)))
        for seed in seeds]


def _member_map(grid, m):
    """The member's map as its own SmoothMap: the lift itself for the
    identity member, else R applied to the lift's outputs."""
    return grid.lift.F if m.name == "identity" else linear_image(grid.lift.F, m.R)


def _member_oracle(grid, F_map, seed):
    """(flat, cf, offdiag, samples) of one member R F, each from its own
    pass through the public functions: the exact flatness residual and the
    Weyl residual and holonomic gate of the projection's extrinsic data, at
    the postcheck points, and the projection at the grid points (NaN under
    the pole guard)."""
    from confflat.ambient import euclidean
    from confflat.conformal import conformal_flatness_test
    from confflat.extrinsic import fundamental_forms, intrinsic_curvatures
    from confflat.lightcone import project_from_cone
    from confflat.principal import offdiagonal_defects

    model = grid.lift.model
    pts = F_map.domain.sample_points(4, np.random.default_rng(seed))
    proj = project_from_cone(F_map, model)
    ext = fundamental_forms(proj.f, euclidean(model.N), pts)
    cf = conformal_flatness_test(intrinsic_curvatures(ext))
    off = float(max(np.max(x) for x in offdiagonal_defects(ext)))
    samples = np.full((grid.M, model.N), np.nan)
    rho = evaluate_jet(F_map, grid.points, 0).value @ (grid.sig * model.w)
    keep = np.abs(rho) >= proj.eps_pole
    samples[keep] = evaluate_jet(proj.f, grid.points[keep], 0).value
    flat = rb.exact_flatness_residual(grid, F_map, samples=4, seed=seed)
    return flat, cf, off, samples


def _assert_samples_match(samples, oracle, name):
    assert np.array_equal(np.isnan(samples), np.isnan(oracle)), name
    assert np.nanmax(np.abs(samples - oracle)) <= 1e-14 * max(
        1.0, float(np.nanmax(np.abs(oracle)))), name


def test_batched_members_match_the_per_member_oracle(s3xs1_grid):
    """Each member of the batched layer against its own pass through the
    public functions (`_member_oracle`): the Weyl residual exactly, the
    other residuals to 1e-12, samples to 1e-14 of scale with the same NaN
    points, and the identity member exactly."""
    g = s3xs1_grid
    seed = 1
    for m in rb._family_members(g, _members(g), seed=seed):
        assert m.error is None and m.retained, m.name
        flat, cf, off, samples = _member_oracle(g, _member_map(g, m), seed)
        assert abs(m.flat_residual - flat) <= 1e-12, m.name
        assert m.cf_residual == cf, m.name
        assert abs(m.offdiag_residual - off) <= 1e-12, m.name
        _assert_samples_match(m.samples, samples, m.name)
        if m.name == "identity":
            assert (m.flat_residual, m.cf_residual, m.offdiag_residual) == (
                flat, cf, off)


def test_batched_passes_match_the_oracle_on_generic_images(s3xs1_grid):
    """The batched flatness and postcheck passes on generic linear images
    R F (R = I + 0.05 X), which are neither flat nor conformally flat, so
    that every point and member shows in the residuals: each matches
    `_member_oracle` to 1e-12 relative, the Weyl residual exactly."""
    g = s3xs1_grid
    seed = 1
    F = g.lift.F
    Rs = np.eye(g.A) + 0.05 * np.random.default_rng(5).standard_normal(
        (3, g.A, g.A))
    members = [rb.MemberReport(f"generic-{k}", R) for k, R in enumerate(Rs)]
    pts = F.domain.sample_points(4, np.random.default_rng(seed))
    lift_jet = rb._packed_jet(F, pts, 2)
    rb.flatness_filter(g, members, pts, lift_jet)
    rb._member_postchecks(g, members, pts, lift_jet)
    for m in members:
        assert m.error is None, m.name
        ref = _member_oracle(g, _member_map(g, m), seed)
        for got, want in zip((m.flat_residual, m.cf_residual,
                              m.offdiag_residual), ref[:3]):
            assert want > 1e-4, m.name
            assert abs(got - want) <= 1e-12 * want, m.name
        assert m.cf_residual == ref[1], m.name
        _assert_samples_match(m.samples, ref[3], m.name)


def _pole_reflection(grid, point):
    """The reflection member that maps the lift at `point` onto the pole
    direction w: z = F(point) + w."""
    w = grid.lift.model.w
    z = grid.lift.F.value(point) + w
    return rb.MemberReport("pole", rb.reflection(grid.sig, z / np.linalg.norm(z)))


def test_member_errors_stay_with_their_member(s3xs1_grid, monkeypatch):
    """Members that fail inside a batched pass get their own errors: a
    rank-deficient matrix (R F is no immersion) in the flatness pass, a
    reflection that maps a postcheck point onto the pole in the pole guard,
    and a member whose postcheck extrinsic pass raises a toolkit error
    (injected here), each attributed by rerunning the pass member by
    member.  The other members' residuals and samples are those of a run
    without them.  A programming error inside a batched pass still ends
    the run."""
    from confflat.errors import FrameError
    from confflat.lightcone import project_from_cone

    g = s3xs1_grid
    seed = 1
    before = rb._family_members(g, _members(g), seed=seed)
    pts = g.lift.F.domain.sample_points(4, np.random.default_rng(seed))
    e0 = np.eye(g.A)[0]
    degenerate = rb.MemberReport("rank-deficient", np.outer(e0, e0))
    pole = _pole_reflection(g, pts[0])
    broken, = _members(g, seeds=(17,))[1:]
    broken.name = "broken"
    marker = project_from_cone(_member_map(g, broken),
                               g.lift.model).f.value(pts[0])
    original = rb.fundamental_forms

    def injecting(smooth_map, ambient, points, jet=None):
        if (ambient.flat_dim == marker.size and jet is not None and np.any(
                np.all(np.abs(jet.value - marker) <= 1e-12, axis=-1))):
            raise FrameError("injected postcheck failure")
        return original(smooth_map, ambient, points, jet=jet)

    monkeypatch.setattr(rb, "fundamental_forms", injecting)
    after = rb._family_members(
        g, [degenerate] + _members(g) + [pole, broken], seed=seed)
    assert after[0].error.startswith(
        "ImmersionError: rank-deficient differential")
    assert after[0].flat_residual is None and not after[0].retained
    assert after[-2].error.startswith("DomainError: <<F,w>>")
    assert "under the pole guard" in after[-2].error
    assert after[-1].error == "FrameError: injected postcheck failure"
    for m in (after[0], after[-2], after[-1]):
        assert m.cf_residual is None and m.samples is None, m.name
    for b, a in zip(before, after[1:-2]):
        assert a.error is None, a.name
        for field in ("flat_residual", "cf_residual", "offdiag_residual"):
            assert getattr(a, field) == getattr(b, field), (a.name, field)
        assert np.array_equal(a.samples, b.samples, equal_nan=True), a.name

    def mistyped(*args, **kwargs):
        raise TypeError("broken extrinsic pass")

    monkeypatch.setattr(rb, "fundamental_forms", mistyped)
    with pytest.raises(TypeError, match="broken extrinsic pass"):
        rb._family_members(g, _members(g), seed=seed)
