"""Sphere-congruence transforms of the lifted grid: compatibility condition,
numerical null space, exact reflections, and the full family pipeline."""
import re

import numpy as np
import pytest

from confflat.errors import (DegenerateInputError, FrameError,
                             SingularTransformError)
from confflat.extrinsic import normal_projectors
from confflat.lightcone import build_cone_model, flat_lift
from confflat import ribaucour as rb
from confflat.reports import _resolve_item

from conftest import interior_points


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

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


def test_grid_metric_orthogonal_net(s3xs1_grid):
    g = s3xs1_grid
    off = g.g - np.einsum("mij,ij->mij", g.g, np.eye(g.n))
    assert np.max(np.abs(off)) < 1e-8 * np.max(np.abs(g.g))


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


def _sequential_transport(lift, substeps=2):
    """The one-edge-at-a-time transport: one expm per sub-step and edge,
    then projection and Gram-Schmidt of that edge's frame alone.  Returns
    the fine frame and the Richardson estimate."""
    from scipy.linalg import expm
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
                cur = (expm((Pc - Pa) @ Pm - Pm @ (Pc - Pa)) @ cur.T).T
                Pa = Pc
            coef = np.einsum("a,vA,A,aA->va", fe[m1], cur, sig, ext.frame[m1])
            frame[m1] = gs(coef @ ext.frame[m1])
        frames.append(frame)
    return frames[1], float(np.max(np.abs(frames[1] - frames[0]))) / 3.0


@pytest.fixture(scope="module")
def s3xs1_coarse_lift():
    item = _resolve_item({"item": "s3xs1", "grid": [3, 3, 3, 3]})
    model = build_cone_model(item.smooth_map.codomain_dim)
    return flat_lift(item.smooth_map, item.conformal, model)


def test_level_sweep_matches_sequential_transport(s3xs1_coarse_lift):
    # the 3^4 grid is too coarse for the default frame_tol gate
    grid = rb.build_lift_grid(s3xs1_coarse_lift, frame_tol=1.0)
    frame, residual = _sequential_transport(s3xs1_coarse_lift)
    assert np.max(np.abs(grid.frame - frame)) <= 1e-12
    assert abs(grid.parallel_residual - residual) <= 1e-12


@pytest.mark.parametrize("substeps", [1, 2])
def test_transport_makes_one_expm_per_substep(s3xs1_coarse_lift, monkeypatch,
                                              substeps):
    """Every edge's operator comes from batched exponentials: 3 * substeps
    expm calls per grid, each on the stack of all M - 1 edges."""
    stacks = []
    original = rb.expm

    def counting(a):
        stacks.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(rb, "expm", counting)
    grid = rb.build_lift_grid(s3xs1_coarse_lift, frame_tol=1.0,
                              substeps=substeps)
    assert len(stacks) == 3 * substeps
    assert all(s == (grid.M - 1, grid.A, grid.A) for s in stacks)


def test_frame_tolerance_gate_can_fail(s3xs1_lift):
    """The Richardson estimate on the default 5^4 grid (about 1.2e-2) fails
    a 1e-6 tolerance."""
    with pytest.raises(FrameError, match="transported frame not parallel"):
        rb.build_lift_grid(s3xs1_lift, frame_tol=1e-6)


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


def test_hessian_commutation_for_solutions(s3xs1_grid, rng):
    """Solutions of the condition have Hessians commuting with every shape
    operator; random scalars do not."""
    g = s3xs1_grid
    z = rng.standard_normal(g.A)
    data = rb.constant_vector_data(g, z)
    h2 = float(np.max(g.spacings)) ** 2
    assert rb.hessian_commutation_residual(g, data.phi) < 0.5 * h2
    phi_bad = np.sin(3.0 * g.points[:, 0]) * np.cos(2.0 * g.points[:, 2])
    assert rb.hessian_commutation_residual(g, phi_bad) > 0.1


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


@pytest.fixture(scope="module")
def s3xs1_refined_grid():
    item = _resolve_item({"item": "s3xs1", "grid": [5, 5, 5, 6]})
    model = build_cone_model(item.smooth_map.codomain_dim)
    lift = flat_lift(item.smooth_map, item.conformal, model)
    return rb.build_lift_grid(lift)


@pytest.mark.parametrize("grid_name", ["s3xs1_grid", "s3xs1_refined_grid"])
def test_block_nullspace_matches_dense_svd(grid_name, request):
    """The union of the block SVDs is the SVD of the whole operator: the
    same spectrum, threshold, dimension, null space and analytic
    projections as one dense SVD of the densified operator.  The dense null
    space is the orthogonal complement of the right singular vectors above
    the threshold (`above`), so for orthonormal bases of equal dimension
    ||B_ref - B_ref B^T B|| = ||above B^T||, and the projection of a unit
    vector onto it is sqrt(1 - ||above vec||^2); the thin SVD holds
    `above`."""
    g = request.getfixturevalue(grid_name)
    ns = rb.solve_condition_nullspace(g)
    dense = rb._condition_operator(g).toarray()
    _, svals, vt = np.linalg.svd(dense, full_matrices=False)
    smax = float(svals[0])
    cols = dense.shape[1]
    spectrum = np.concatenate([svals, np.zeros(cols - len(svals))])
    assert np.max(np.abs(ns.spectrum - spectrum)) <= 1e-12 * smax
    h = float(np.max(g.spacings))
    assert rb._nullspace_threshold(spectrum, h) == pytest.approx(
        ns.threshold, rel=1e-9)
    dimension = int(np.sum(spectrum < ns.threshold))
    assert ns.dimension == dimension
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
    model = build_cone_model(item.smooth_map.codomain_dim)
    lift = flat_lift(item.smooth_map, item.conformal, model)
    grid = rb.build_lift_grid(lift)
    with pytest.raises(DegenerateInputError):
        rb.solve_condition_nullspace(grid)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def _reflection_data(grid, seed=7):
    rng = np.random.default_rng(seed)
    while True:
        z = rng.standard_normal(grid.A)
        z /= np.linalg.norm(z)
        if abs(float(np.sum(grid.sig * z * z))) >= 0.3:
            return rb.constant_vector_data(grid, z, name="refl")


def test_constant_vector_data_sits_on_cone_slice(s3xs1_grid):
    """phi - <<F, beta>> = <<F, tangential part of z>> vanishes on the cone,
    so constant-vector data needs no shift."""
    data = _reflection_data(s3xs1_grid)
    assert abs(data.c) < 1e-10


def test_reflection_stays_on_cone(s3xs1_grid):
    data = _reflection_data(s3xs1_grid)
    result = rb.transform(s3xs1_grid, data)
    assert result.cone_defect < 1e-10


def test_reflection_preserves_metric(s3xs1_grid, s3xs1):
    data = _reflection_data(s3xs1_grid)
    result = rb.transform(s3xs1_grid, data)
    assert result.F_tilde_map is not None
    sig = s3xs1_grid.sig
    for pt in interior_points(s3xs1, 3):
        jF = s3xs1_grid.lift.F.jet(pt, order=1)
        jT = result.F_tilde_map.jet(pt, order=1)
        gF = np.einsum("iA,A,jA->ij", jF.d1, sig, jF.d1)
        gT = np.einsum("iA,A,jA->ij", jT.d1, sig, jT.d1)
        assert np.max(np.abs(gF - gT)) < 1e-9 * np.max(np.abs(gF))


def test_reflection_is_exactly_flat(s3xs1_grid):
    data = _reflection_data(s3xs1_grid)
    result = rb.transform(s3xs1_grid, data)
    assert rb.exact_flatness_residual(s3xs1_grid, result.F_tilde_map) < 1e-8


def test_cone_defect_identity(s3xs1_grid):
    """<<F~, F~>> equals 4 nu phi (phi - <<F, beta>>) algebraically, shifted
    datum or not."""
    data = _reflection_data(s3xs1_grid, seed=11)
    for cand in (data, rb.shift_data(s3xs1_grid, data, 1.3)):
        result = rb.transform(s3xs1_grid, cand)
        rep = rb.cone_preservation_check(s3xs1_grid, cand, result)
        assert rep.prediction_mismatch < 1e-8


def test_scaling_invariance(s3xs1_grid):
    data = _reflection_data(s3xs1_grid, seed=13)
    base = rb.transform(s3xs1_grid, data)
    t = 3.7
    scaled = rb.RibaucourData(t * data.phi, t * data.b, t * data.c,
                              data.condition_residual)
    again = rb.transform(s3xs1_grid, scaled)
    assert np.max(np.abs(again.F_tilde - base.F_tilde)) < 1e-12


def test_identity_datum_returns_lift(s3xs1_grid):
    g = s3xs1_grid
    data = rb.RibaucourData(np.zeros(g.M), np.tile(np.eye(g.p)[0], (g.M, 1)),
                            0.0, 0.0, name="identity")
    result = rb.transform(g, data)
    assert np.max(np.abs(result.F_tilde - g.F_vals)) < 1e-14
    assert result.F_tilde_map is g.lift.F


def test_null_direction_rejected(s3xs1_grid):
    g = s3xs1_grid
    w = g.lift.model.w
    data = rb.constant_vector_data(g, w, name="null-direction")
    with pytest.raises(SingularTransformError):
        rb.transform(g, data)


def test_flatness_filter(s3xs1_grid):
    """Flatness is decided through exact jets of a closed-form map only.  A
    reflection datum with its constant vector z is retained; every candidate
    without a map is refused with an error naming that: random combinations
    of the null-space basis, a datum whose light-cone constant varies, and
    the same exact reflection datum stripped of z."""
    g = s3xs1_grid
    ns = rb.solve_condition_nullspace(g)
    candidates = []
    for seed in range(8):
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(ns.dimension) @ ns.basis
        phi = vec[:g.M]
        b = vec[g.M:].reshape(g.p, g.M).T
        candidates.append(rb.RibaucourData(phi, b, 0.0, 0.0,
                                           name=f"combo-{seed}"))
    data = _reflection_data(g, seed=19)
    bump = float(np.max(np.abs(data.phi))) * g.points[:, 0]
    candidates.append(rb.RibaucourData(data.phi + bump, data.b, data.c, 0.0,
                                       name="varying-c"))
    candidates.append(rb.RibaucourData(data.phi, data.b, data.c, 0.0,
                                       name="stripped"))
    *refused, kept = rb.flatness_filter(g, candidates + [data])
    for rec in refused:
        assert rec.error.startswith("no closed-form map"), rec.data.name
        assert not rec.retained and rec.flat_residual is None, rec.data.name
    assert kept.error is None and kept.retained
    assert kept.flat_residual <= rb.FLAT_TOL


# ---------------------------------------------------------------------------
# the family pipeline
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def family(s3xs1):
    return rb.conformally_flat_family(s3xs1.smooth_map, s3xs1.conformal,
                                      s3xs1.ambient, count=2, seed=0)


def test_family_nullspace(family):
    N = family.grid.A - 2
    assert family.nullspace.dimension >= N + 3


def test_family_members_project_to_flat_immersions(family):
    retained = [m for m in family.members if m.retained]
    assert len(retained) >= 3    # identity plus both reflections
    for m in retained:
        assert m.cf_residual < 1e-6
        assert m.offdiag_residual < 1e-6
        assert m.cone_defect < 1e-10
        assert np.isfinite(m.samples).any()


def test_family_reflections_differ_from_original(family, s3xs1):
    """The new immersions are genuinely different from the input."""
    for m in family.members:
        if not m.retained or m.name == "identity":
            continue
        diff = 0.0
        for pt in interior_points(s3xs1, 3):
            diff = max(diff, float(np.max(np.abs(
                m.f_map.value(pt) - s3xs1.smooth_map.value(pt)))))
        assert diff > 1e-3


def test_grid_projectors_match_frame_projectors(s3xs1_grid):
    """The transport's normal projectors, built from (U^T G U)^{-1} without
    a frame, equal the projectors of the Gram-Schmidt normal frame at the
    grid points."""
    g = s3xs1_grid
    from_frame = np.einsum("ma,maA,B,maB->mAB", g.ext.frame_eps, g.ext.frame,
                           g.sig, g.ext.frame)
    direct = normal_projectors(g.lift.F, g.lift.ambient, g.points)
    assert np.max(np.abs(direct - from_frame)) <= 1e-12


def test_member_postcheck_errors_propagate(s3xs1, monkeypatch):
    """A programming error in a member's postchecks ends the run; it is not
    reported as a skipped member."""
    def broken(*args, **kwargs):
        raise TypeError("broken postcheck")

    monkeypatch.setattr(rb, "_member_postchecks", broken)
    with pytest.raises(TypeError, match="broken postcheck"):
        rb.conformally_flat_family(s3xs1.smooth_map, s3xs1.conformal,
                                   s3xs1.ambient, count=1, seed=0)


def test_member_postchecks_make_one_fundamental_forms_pass(
        s3xs1_grid, fundamental_forms_calls):
    """A retained member's quadruple test and holonomic gate share one
    batched pass of extrinsic data of its projection, and the exact
    flatness residual of a transform is one pass too."""
    g = s3xs1_grid
    data = _reflection_data(g)
    result = rb.transform(g, data)
    fundamental_forms_calls.clear()
    rec = rb.MemberReport(data.name, data.c, data.condition_residual)
    rb._member_postchecks(g, rec, g.lift.model, result.F_tilde_map)
    assert len(fundamental_forms_calls) == 1
    assert np.ndim(fundamental_forms_calls[0]) == 2
    assert rec.cf_residual < 1e-6 and rec.offdiag_residual < 1e-6
    fundamental_forms_calls.clear()
    assert rb.exact_flatness_residual(g, result.F_tilde_map) < 1e-8
    assert len(fundamental_forms_calls) == 1
