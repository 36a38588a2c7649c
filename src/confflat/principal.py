"""Principal normal structure of submanifolds with flat normal bundle:
simultaneous diagonalization of the shape operators, principal normals and
their eigendistributions, the properness census, curvature-net checks, and
the span / quasiumbilical / nullity structure built on top of them.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from .errors import (DegenerateInputError, NonProperError, NotApplicable,
                     QuasiumbilicError)
from .extrinsic import (ExtrinsicData, _project_out, _unit, _vdot, christoffels,
                        codazzi_tensor, intrinsic_curvatures, orthonormalize)
from .jets import Jet3

FLAT_NB_TOL = 1e-8
CLUSTER_TOL = 1e-6
JACOBI_TOL = 1e-13


# ---------------------------------------------------------------------------
# joint diagonalization
# ---------------------------------------------------------------------------

def _offdiag_energy(mats):
    """Summed squared off-diagonal entries of stacks of matrices (..., p, n,
    n), per stack."""
    d = np.diagonal(mats, axis1=-2, axis2=-1)
    return (np.sum(mats ** 2, axis=(-3, -2, -1)) - np.sum(d ** 2, axis=(-2, -1)))


def _jacobi_sweeps(work, V, thresh, max_sweeps):
    """Jacobi refinement of one point's rotated stack `work` (p, n, n) and
    basis V, until the off-diagonal energy is at most `thresh`."""
    n = V.shape[0]
    for _ in range(max_sweeps):
        if _offdiag_energy(work) <= thresh:
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                # closed-form rotation minimizing the summed (i, j) off-diagonals
                h = np.stack([work[:, i, i] - work[:, j, j], 2.0 * work[:, i, j]], 1)
                _, U = np.linalg.eigh(h.T @ h)
                x, y = U[:, -1]
                if x < 0:
                    x, y = -x, -y
                c = np.sqrt(0.5 * (1.0 + x))
                s = y / (2.0 * c) if c > 1e-12 else 0.0
                if abs(s) < 1e-16:
                    continue
                rot = np.eye(n)
                rot[i, i] = rot[j, j] = c
                rot[i, j], rot[j, i] = -s, s
                work = np.einsum("ki,akl,lj->aij", rot, work, rot)
                V = V @ rot
    return V


def _joint_bases(mats, seed, max_sweeps, tol, skip=None):
    """Orthogonal V (B, n, n) jointly diagonalizing each stack of commuting
    symmetric matrices in mats (B, p, n, n): one random combination (the
    same draw at every point) diagonalized by one stacked eigh, then Jacobi
    sweeps at the points whose off-diagonal energy exceeds its threshold
    (not at the points flagged in `skip`)."""
    B, p, n, _ = mats.shape
    scale = np.maximum(np.max(np.abs(mats), axis=(-3, -2, -1)), 1e-300)
    combo = np.einsum("a,baij->bij", np.random.default_rng(seed).standard_normal(p),
                      mats)
    _, V = np.linalg.eigh(0.5 * (combo + np.swapaxes(combo, -1, -2)))
    work = np.swapaxes(V, -1, -2)[:, None] @ mats @ V[:, None]
    thresh = tol * scale ** 2 * n
    rough = _offdiag_energy(work) > thresh
    if skip is not None:
        rough &= ~skip
    for m in np.flatnonzero(rough):
        V[m] = _jacobi_sweeps(work[m], V[m], thresh[m], max_sweeps)
    return V


def joint_diagonalize(mats, seed=0, max_sweeps=60, tol=JACOBI_TOL):
    """Orthogonal V (columns) jointly diagonalizing a stack of commuting
    symmetric matrices: random-combination eigendecomposition followed by
    Jacobi refinement sweeps.  Deterministic for a fixed seed."""
    return _joint_bases(np.array(mats, float)[None], seed, max_sweeps, tol)[0]


# ---------------------------------------------------------------------------
# principal decomposition over a point set
# ---------------------------------------------------------------------------

class _PointSet:
    """Batched extrinsic data shared by the decompositions of one point set,
    with its Levi-Civita and Codazzi tensors computed once for all points."""

    def __init__(self, ext):
        self.ext = ext

    @cached_property
    def christoffels(self):
        return christoffels(self.ext)

    @cached_property
    def codazzi(self):
        return codazzi_tensor(self.ext)

    @cached_property
    def defects(self):
        """(B, 2): offdiagonal_defects at each point."""
        return np.stack(offdiagonal_defects(self.ext), axis=-1)


@dataclass
class PrincipalDecomposition:
    """Common eigenstructure of the shape operators at one point.

    etas[i] is the i-th distinct principal normal (ambient vector); columns
    of bases[i] span its eigendistribution E_i in the orthonormal tangent
    basis of `ext`.  Entries are sorted by descending multiplicity, ties by
    the principal normal components.  `point_set` and `index` locate the
    point in the batched data it was decided with.
    """

    ext: ExtrinsicData
    etas: list            # k ambient vectors (A,)
    bases: list           # k arrays (n, m_i), ONB tangent coordinates
    eigen_onb: np.ndarray  # (n, n) the full joint eigenbasis
    kappa: np.ndarray     # (p, n) per-axis eigenvalues of each shape operator
    point_set: _PointSet = field(repr=False)
    index: int

    @property
    def k(self):
        return len(self.etas)

    @property
    def multiplicities(self):
        return tuple(b.shape[1] for b in self.bases)

    def chart_basis(self, i):
        """E_i basis pushed to chart coordinates."""
        return self.ext.onb @ self.bases[i]

    @cached_property
    def eta_derivatives(self):
        """(k, n, A): [c, i] is nabla-perp_{d_i} eta_c = (1/m_c) tr_{E_c}
        (nabla_{d_i} alpha), from the Codazzi tensor.  eta_c is the mean of
        alpha(e_s, e_s) over an orthonormal frame e_s of E_c, and the frame
        terms alpha(nabla e_s, e_s) = <nabla e_s, e_s> eta_c vanish."""
        return _eta_derivatives([self])[0]

    def reconstruction_residual(self, seed=0, trials=8):
        """max over random unit normals xi of |A_xi - sum_i <xi, eta_i> P_i|."""
        return float(_reconstruction_residuals([self], seed, trials)[0])


def _gathered(decs, get):
    """get(point set) (a batched array) at the points of the decompositions:
    one take when they share a point set, else stacked row by row."""
    sets = [d.point_set for d in decs]
    if all(ps is sets[0] for ps in sets):
        return get(sets[0])[[d.index for d in decs]]
    return np.array([get(ps)[d.index] for ps, d in zip(sets, decs)])


def _stacked(decs, name):
    """A field of the extrinsic data at the points of the decompositions."""
    return _gathered(decs, lambda ps: getattr(ps.ext, name))


def _reconstruction_residuals(decs, seed, trials):
    """Per decomposition (all with the same k): max over `trials` random
    unit normals xi (one draw for every point) of |A_xi - sum_i <xi, eta_i>
    P_i|, with A_xi = sum_a eps_a <xi, xi_a> S_a."""
    ext0 = decs[0].ext
    sig = ext0.ambient.signature
    frame = _stacked(decs, "frame")
    xi = np.random.default_rng(seed).standard_normal((trials, ext0.p)) @ frame
    nrm = np.sqrt(np.abs(np.einsum("btA,A,btA->bt", xi, sig, xi)))
    keep = nrm >= 1e-12
    xi = xi / np.where(keep, nrm, 1.0)[..., None]
    # one weighted sum over the frame vectors and the principal normals
    vecs = np.concatenate([frame, np.array([d.etas for d in decs])], axis=1)
    weights = np.concatenate([_stacked(decs, "frame_eps"),
                              -np.ones((len(decs), decs[0].k))], axis=1)
    mats = np.concatenate([_stacked(decs, "S"),
                           np.array([[B @ B.T for B in d.bases] for d in decs])], axis=1)
    coef = np.einsum("btA,A,bmA->btm", xi, sig, vecs) * weights[:, None, :]
    diff = np.abs(coef @ mats.reshape(mats.shape[:2] + (-1,)))
    return np.max(np.where(keep[..., None], diff, 0.0), axis=(-2, -1))


def _batch_of_one(ext):
    """Single-point extrinsic data as a point set of one point."""
    one = {f.name: getattr(ext, f.name) for f in fields(ext)}
    for name, val in one.items():
        if isinstance(val, np.ndarray):
            one[name] = val[None]
    if ext.lame is None:
        one["lame"] = np.full((1, ext.n), np.nan)
    jet = ext.jet
    one["jet"] = Jet3(*(None if x is None else x[None]
                        for x in (jet.value, jet.d1, jet.d2, jet.d3)), jet.order)
    return ExtrinsicData(**one)


def _cluster_columns(dist, gap):
    """Single-linkage clustering of m items with pairwise distances `dist`
    (m, m) at threshold `gap`.  Returns a list of index lists and the
    tightest inter-cluster distance."""
    m = len(dist)
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(m):
        for j in range(i + 1, m):
            if dist[i, j] <= gap:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    clusters = list(groups.values())
    inter = np.inf
    for a, b in combinations(range(len(clusters)), 2):
        inter = min(inter, float(np.min(dist[np.ix_(clusters[a], clusters[b])])))
    return clusters, inter


def _principal_pass(ext, cluster_tol, flat_tol, seed):
    """Decide every point of batched extrinsic data in one pass.  Returns
    (decs, failure): the decompositions of the points before the first one
    refused, and None or (that point's index, its DegenerateInputError)."""
    S = ext.S
    B, p, n, _ = S.shape
    scale = np.maximum(np.max(np.abs(S), axis=(-3, -2, -1)), 1e-300)
    SS = S[:, :, None] @ S[:, None]                          # (B, p, p, n, n)
    comm = np.max(np.abs(SS - np.swapaxes(SS, 1, 2)), axis=(-2, -1))
    upper = np.triu(np.ones((p, p), bool), 1)
    noncommuting = (comm > (flat_tol * scale ** 2 * n)[:, None, None]) & upper

    V = _joint_bases(S, seed, 60, JACOBI_TOL, skip=noncommuting.any(axis=(1, 2)))
    kappa = np.sum(V[:, None] * (S @ V[:, None]), axis=-2)    # diag(V^T S V)
    # eta_j = sum_a eps_a kappa_{a j} xi_a
    etas_cols = np.swapaxes(ext.frame_eps[..., None] * kappa, -1, -2) @ ext.frame
    dist = np.linalg.norm(etas_cols[:, :, None] - etas_cols[:, None], axis=-1)
    gaps = cluster_tol * np.maximum(scale, 1e-12)

    point_set = _PointSet(ext)
    decs = []
    for m in range(B):
        if noncommuting[m].any():
            a, b = np.argwhere(noncommuting[m])[0]
            return decs, (m, DegenerateInputError(
                f"shape operators do not commute: |[A_{a}, A_{b}]| = "
                f"{comm[m, a, b]:.3e} at {ext.point[m]}"))
        clusters, inter = _cluster_columns(dist[m], gaps[m])
        if inter < 2.0 * gaps[m]:
            return decs, (m, DegenerateInputError(
                f"principal normal gap {inter:.3e} too close to the clustering "
                f"threshold {gaps[m]:.3e} to resolve"))
        entries = []
        for idx in clusters:
            eta = etas_cols[m, idx].mean(axis=0)
            entries.append((len(idx), tuple(np.round(-eta, 9)), eta, V[m][:, idx]))
        entries.sort(key=lambda e: (-e[0], e[1]))
        decs.append(PrincipalDecomposition(
            ext.at(m), [e[2] for e in entries], [e[3] for e in entries],
            V[m], kappa[m], point_set, m))
    return decs, None


def _decide(ext, cluster_tol, flat_tol, seed):
    decs, failure = _principal_pass(ext, cluster_tol, flat_tol, seed)
    if failure is not None:
        raise failure[1]
    return decs


def principal_decompositions(ext: ExtrinsicData, cluster_tol=CLUSTER_TOL,
                             seed=0):
    """One decomposition per point of batched extrinsic data, decided in one
    pass: diagonalize all shape operators simultaneously and group the
    common eigendirections by their principal normal.  Raises
    DegenerateInputError naming the first point whose shape operators do not
    commute or whose principal normals are too close to resolve."""
    return _decide(ext, cluster_tol, FLAT_NB_TOL, seed)


def principal_decomposition(ext: ExtrinsicData, cluster_tol=CLUSTER_TOL,
                            flat_tol=FLAT_NB_TOL, seed=0) -> PrincipalDecomposition:
    """The decomposition at one point: the one-pass decision on a point set
    of one."""
    dec, = _decide(_batch_of_one(ext), cluster_tol, flat_tol, seed)
    dec.ext = ext
    return dec


# ---------------------------------------------------------------------------
# properness census over a sample set
# ---------------------------------------------------------------------------

@dataclass
class CensusReport:
    k: int
    multiplicities: tuple
    points: np.ndarray
    dupin_residuals: dict      # cluster index -> worst |nabla-perp eta| over E_i
    reconstruction_residual: float
    single_high_multiplicity: bool


def _eta_derivatives(decs):
    """(B, k, n, A): eta_derivatives of each decomposition (all with the
    same multiplicities), from the Codazzi tensor of their point sets; each
    decomposition keeps its own."""
    groups = {}
    for d in decs:
        if "eta_derivatives" not in d.__dict__:
            groups.setdefault(d.multiplicities, []).append(d)
    for mults, todo in groups.items():
        T = _gathered(todo, lambda ps: ps.codazzi)
        T = T.reshape(T.shape[:2] + (-1, T.shape[-1]))            # (B, n, n n, A)
        onb = _stacked(todo, "onb")
        D = []
        for i, m in enumerate(mults):
            C = onb @ np.array([d.bases[i] for d in todo])         # (B, n, m)
            proj = (C @ np.swapaxes(C, -1, -2)).reshape(len(todo), 1, 1, -1)
            D.append((proj @ T)[:, :, 0] / m)
        for d, Dd in zip(todo, np.stack(D, axis=1)):
            d.__dict__["eta_derivatives"] = Dd
    return np.array([d.eta_derivatives for d in decs])


def properness_and_census(decs, seed=0) -> CensusReport:
    """Check, over the decompositions at the sample points, that the number
    of distinct principal normals is constant, and that every multiplicity
    >= 2 principal normal is a Dupin one (covariantly constant along its own
    eigendistribution)."""
    points = np.array([d.ext.point for d in decs])
    ks = [d.k for d in decs]
    if len(set(ks)) > 1:
        strata = {}
        for pt, d in zip(points, decs):
            strata.setdefault(d.k, []).append(pt)
        raise NonProperError(f"number of principal normals varies: {sorted(set(ks))}",
                             strata=strata)
    mults = decs[0].multiplicities
    if any(d.multiplicities != mults for d in decs):
        raise NonProperError("multiplicity pattern varies across samples")

    rec = float(np.max(_reconstruction_residuals(decs, seed, 8)))
    # Dupin check: nabla-perp eta_i along the unit basis vectors of E_i
    dupin = {}
    high_idx = [i for i, m in enumerate(mults) if m >= 2]
    if high_idx:
        D = _eta_derivatives(decs)
        for i in high_idx:
            C = np.array([d.chart_basis(i) for d in decs])       # (B, n, m)
            along = np.swapaxes(C, -1, -2) @ D[:, i]
            dupin[i] = float(np.max(np.linalg.norm(along, axis=-1)))
    return CensusReport(ks[0], mults, points, dupin, rec, len(high_idx) <= 1)


# ---------------------------------------------------------------------------
# separation of principal normals
# ---------------------------------------------------------------------------

def separation_check(dec: PrincipalDecomposition):
    """Smallest singular value of [eta_j - eta_m, eta_j - eta_l] over all
    triples of distinct principal normals; positive means no principal
    normal lies on the segment through two others."""
    k = dec.k
    if k < 3:
        raise NotApplicable("separation needs at least three principal normals")
    worst = np.inf
    for j, m, l in permutations(range(k), 3):
        if m > l:
            continue
        M = np.column_stack([dec.etas[j] - dec.etas[m], dec.etas[j] - dec.etas[l]])
        worst = min(worst, float(np.linalg.svd(M, compute_uv=False)[-1]))
    return worst


# ---------------------------------------------------------------------------
# curvature-net (holonomicity) checks
# ---------------------------------------------------------------------------

@dataclass
class HolonomicityReport:
    net_offdiag: float        # metric orthogonality defect (relative)
    alpha_offdiag: float      # off-diagonal second fundamental form (relative)
    c1_residual: float        # conjugate-net derivation rule, X,Y in one distribution
    c2_residual: float        # mixed three-distribution compatibility rule
    points: np.ndarray


def offdiagonal_defects(ext: ExtrinsicData):
    """(net, alpha): how far the chart coordinates are from principal
    coordinates, at a point (floats) or at each point of a point set ((B,)
    arrays).  `net` is the largest off-diagonal metric entry over the
    largest diagonal one; `alpha` is the largest |alpha(d_i, d_j)|, i != j,
    over unit coordinate vectors, relative to the largest entry of the
    second fundamental form in an orthonormal basis."""
    g = ext.g
    n = ext.n
    d = np.sqrt(np.diagonal(g, axis1=-2, axis2=-1))
    off = g - np.diagonal(g, axis1=-2, axis2=-1)[..., None] * np.eye(n)
    net = np.max(np.abs(off), axis=(-2, -1)) / np.max(d, axis=-1) ** 2
    ascale = np.maximum(np.max(np.abs(ext.alpha_onb()), axis=(-3, -2, -1)), 1e-300)
    iu = np.triu_indices(n, 1)
    a = (np.linalg.norm(ext.alpha, axis=-1) / (d[..., :, None] * d[..., None, :]))
    alpha = np.max(a[..., iu[0], iu[1]], axis=-1, initial=0.0) / ascale
    if g.ndim == 2:
        return float(net), float(alpha)
    return net, alpha


def _padded(rows, width, fill):
    """Rows of different lengths as one array, padded with `fill`."""
    out = np.full((len(rows), width) + rows[0].shape[1:], fill)
    for r, x in enumerate(rows):
        out[r, :len(x)] = x
    return out


def holonomicity_check(decs, net_tol=1e-8) -> HolonomicityReport:
    """Verify, over the decompositions at the sample points, that the chart
    coordinates follow the curvature directions: the net must be orthogonal,
    the second fundamental form diagonal, and the principal normals must
    satisfy the two derivation rules that characterize a holonomic
    curvature net.  All points are checked in one pass; a refusal names the
    first point that fails."""
    points = _stacked(decs, "point")
    lames = [d.ext.lame for d in decs]
    net, alpha = _gathered(decs, lambda ps: ps.defects).T
    for m, dec in enumerate(decs):
        if net[m] > net_tol:
            raise DegenerateInputError(
                f"coordinate net not orthogonal: defect {net[m]:.3e} at {dec.ext.point}")
        if lames[m] is None:
            raise DegenerateInputError("no Lame functions: net not orthogonal")
    h = np.array(lames)                                       # (B, n)
    n = h.shape[1]
    kmax = max(d.k for d in decs)
    etas = _padded([np.array(d.etas) for d in decs], kmax, np.inf)   # (B, k, A)
    d_eta = _padded([d.eta_derivatives for d in decs], kmax, 0.0)    # (B, k, n, A)
    Gam = _gathered(decs, lambda ps: ps.christoffels)                # (B, n, n, n)
    alpha_f = _stacked(decs, "alpha")
    rows = np.arange(len(decs))[:, None]

    # cluster index of each coordinate direction, by its normal curvature
    idx = np.arange(n)
    eta_coord = alpha_f[:, idx, idx] / h[..., None] ** 2                # (B, n, A)
    assign = np.argmin(np.linalg.norm(eta_coord[:, :, None] - etas[:, None], axis=-1),
                       axis=-1)                                       # (B, n)
    E = etas[rows, assign]                                            # (B, n, A)
    eta_scale = np.maximum(np.max(np.linalg.norm(np.where(
        np.isinf(etas), 0.0, etas), axis=-1), axis=-1), 1e-300)[:, None, None]
    apart = assign[:, :, None] != assign[:, None, :]                  # (B, i, j)

    # <X_i, X_i> nabla-perp_{X_j} eta_i = <nabla_{X_i} X_i, X_j>(eta_i - eta_j)
    # with the unit vectors X = d / h
    hi, hj = h[:, :, None], h[:, None, :]
    coef = Gam[:, idx[None, :], idx[:, None], idx[:, None]] / (hi ** 2 * hj)
    D = d_eta[rows[..., None], assign[:, :, None], idx[None, None, :]]  # (B, i, j, A)
    res = D / hj[..., None] - coef[..., None] * (E[:, :, None] - E[:, None])
    c1 = np.max(np.where(apart, np.linalg.norm(res, axis=-1), 0.0) / eta_scale,
                initial=0.0)

    # Gam[j, i, l] (eta_j - eta_l) = Gam[j, l, i] (eta_j - eta_i) over h_i h_l h_j
    # for three distinct clusters
    Gt = np.transpose(Gam, (0, 2, 1, 3))                              # [i, j, l]
    hil = h[:, :, None, None] * h[:, None, None, :] * h[:, None, :, None]
    lhs = (Gt / hil)[..., None] * (E[:, None, :, None] - E[:, None, None, :])
    rhs = (np.transpose(Gam, (0, 3, 1, 2)) / hil)[..., None] * (
        E[:, None, :, None] - E[:, :, None, None])
    three = apart[:, :, :, None] & apart[:, :, None, :] & apart[:, None, :, :]
    c2 = np.max(np.where(three, np.linalg.norm(lhs - rhs, axis=-1), 0.0)
                / eta_scale[..., None], initial=0.0)
    return HolonomicityReport(float(np.max(net)), float(np.max(alpha)),
                              float(c1), float(c2), points)


# ---------------------------------------------------------------------------
# span structure of the principal normals
# ---------------------------------------------------------------------------

@dataclass
class SpanStructure:
    d: int                    # dim span{eta_1..eta_k}
    dim_S: int                # dim span{eta_i - eta_1}
    delta: np.ndarray | None  # unit vector in span{eta} orthogonal to S, if any
    umbilic_residual: float | None  # |A_delta - a I| when delta exists
    spectrum: np.ndarray


def _num_rank(M, rel=1e-8, gap=50.0):
    if M.size == 0:
        return 0, np.zeros(0)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] < 1e-300:
        return 0, sv
    keep = sv >= rel * sv[0]
    r = int(np.sum(keep))
    if 0 < r < len(sv) and sv[r - 1] < gap * sv[r]:
        raise DegenerateInputError(f"singular-value gap ambiguous: {sv}")
    return r, sv


def span_structure(dec: PrincipalDecomposition, rel=1e-8) -> SpanStructure:
    """Dimensions of the span of the principal normals and of the span of
    their mutual differences; when the two differ, the orthogonal direction
    delta and the umbilicity defect of its shape operator."""
    E = np.column_stack(dec.etas)                       # (A, k)
    D = np.column_stack([e - dec.etas[0] for e in dec.etas[1:]]) \
        if dec.k > 1 else np.zeros((E.shape[0], 0))
    d, sv = _num_rank(E, rel)
    dim_S, _ = _num_rank(D, rel)
    delta = None
    umb = None
    if d == dim_S + 1:
        U, s, _ = np.linalg.svd(E, full_matrices=False)
        span_basis = U[:, :d]
        if dim_S > 0:
            Us, ss, _ = np.linalg.svd(D, full_matrices=False)
            S_basis = Us[:, :dim_S]
            proj = span_basis - S_basis @ (S_basis.T @ span_basis)
            Up, sp, _ = np.linalg.svd(proj, full_matrices=False)
            delta = Up[:, 0]
        else:
            delta = span_basis[:, 0]
        # Euclidean-unit is fine here: delta lives in the normal space of a
        # Riemannian submanifold for every catalog input
        A = dec.ext.shape_operator(delta)
        a = float(np.trace(A)) / dec.ext.n
        umb = float(np.max(np.abs(A - a * np.eye(dec.ext.n))))
    return SpanStructure(d, dim_S, delta, umb, sv)


# ---------------------------------------------------------------------------
# quasiumbilical frame
# ---------------------------------------------------------------------------

@dataclass
class QuasiumbilicFrame:
    frame: np.ndarray         # (p, A) orthonormal normal directions
    eigen_multiplicities: list  # top eigenvalue multiplicity of each A_xi
    orthogonality_defect: float


def quasiumbilical_frame(dec: PrincipalDecomposition, tol=1e-8) -> QuasiumbilicFrame:
    """Orthonormal normal frame in which every shape operator has an
    eigenvalue of multiplicity >= n-1.  Exists exactly when one principal
    normal has multiplicity >= n - (number of the others), which is the
    conformally flat situation; directions are the normalized differences
    eta_1 - eta_i completed to a full normal frame."""
    ext = dec.ext
    n = ext.n
    if n < 4:
        raise NotApplicable("quasiumbilical frame characterization needs n >= 4")
    mults = dec.multiplicities
    if mults[0] < n - (dec.k - 1) or (dec.k > 1 and mults[1] >= 2):
        raise QuasiumbilicError(
            f"multiplicity pattern {mults} does not admit a quasiumbilical frame")
    dirs = []
    defect = 0.0
    amb = ext.ambient
    for i in range(1, dec.k):
        v = dec.etas[0] - dec.etas[i]
        v = v / np.sqrt(abs(amb.inner(v, v)))
        for u in dirs:
            defect = max(defect, abs(amb.inner(u, v)))
        dirs.append(v)
    if defect > tol * max(1.0, max((np.linalg.norm(d) for d in dirs), default=1.0)):
        raise QuasiumbilicError(f"frame directions not orthogonal: defect {defect:.3e}")

    # complete with normal-space Gram-Schmidt against the frame of ext
    sig = amb.signature.astype(float)
    span = list(ext.tangent)
    if amb.is_space_form:
        span.append(amb.position_normal(ext.jet.value))
    units, eps = map(list, orthonormalize(sig, np.array(span + dirs)))
    frame = units[len(span):]
    for cand in ext.frame:
        if len(frame) == ext.p:
            break
        r = _project_out(sig, units, eps, cand)
        q = _vdot(sig, r, r)
        if abs(q[0]) < 1e-10:
            continue
        u, e = _unit(sig, r, q)
        units.append(u)
        eps.append(e)
        frame.append(u)
    frame = np.array(frame)

    mult_list = []
    for xi in frame:
        A = dec.ext.shape_operator(xi)
        w = np.linalg.eigvalsh(A)
        scale = max(float(np.max(np.abs(w))), 1e-12)
        clusters, _ = _cluster_columns(np.abs(w[:, None] - w[None, :]), 1e-6 * scale)
        mult_list.append(max(len(c) for c in clusters))
    if any(m < n - 1 for m in mult_list):
        raise QuasiumbilicError(
            f"completed frame has eigenvalue multiplicities {mult_list}, "
            f"expected all >= {n - 1}")
    return QuasiumbilicFrame(frame, mult_list, defect)


# ---------------------------------------------------------------------------
# traceless-normal (Schouten-coupled) relations for conformally flat inputs
# ---------------------------------------------------------------------------

@dataclass
class TracelessRelationsReport:
    high_mult_norm_residual: float | None
    colinearity_residual: float | None
    pair_sum_residual: float | None


def traceless_relations(dec: PrincipalDecomposition,
                        curv=None) -> TracelessRelationsReport:
    """Identities tying the mean-curvature-centered principal normals
    eta_i - H to the scalar curvature, valid for conformally flat
    submanifolds (n >= 4) with flat normal bundle."""
    ext = dec.ext
    n = ext.n
    if n < 4:
        raise NotApplicable("relations need n >= 4")
    if curv is None:
        curv = intrinsic_curvatures(ext)
    amb = ext.ambient
    H = ext.H
    hats = [eta - H for eta in dec.etas]
    tau = curv.tau
    Hsq = amb.inner(H, H)
    mults = dec.multiplicities

    r_high = r_col = r_pair = None
    if mults[0] >= 2:
        r_high = abs(amb.inner(hats[0], hats[0]) - (Hsq - tau / (n * (n - 1.0))))
        vals = []
        for j in range(1, dec.k):
            v = 2.0 * hats[j] + (n - 2.0) * hats[0]
            vals.append(abs(np.sqrt(abs(amb.inner(v, v)))
                            - n * np.sqrt(abs(amb.inner(hats[0], hats[0])))))
        r_col = max(vals) if vals else None
    simple = [hats[i] for i in range(dec.k) if mults[i] == 1]
    vals = []
    for i, j in combinations(range(len(simple)), 2):
        a, b = simple[i], simple[j]
        vals.append(abs(amb.inner(a, a) + (n - 2.0) * amb.inner(a, b)
                        + amb.inner(b, b) - (n * Hsq - tau / (n - 1.0))))
    r_pair = max(vals) if vals else None
    return TracelessRelationsReport(r_high, r_col, r_pair)


# ---------------------------------------------------------------------------
# nullity structure and the leaf invariant lambda
# ---------------------------------------------------------------------------

@dataclass
class NullityReport:
    nullity_dim: int
    nullity_cluster: int
    lam: float | None              # common value <eta_i, eta_j>, i != j nonzero
    lam_spread: float | None       # max deviation among the defining pairs
    leaf_derivative: float | None  # |d lambda| along non-nullity directions
    ruling_derivative: float | None  # |d lambda| along nullity directions (not asserted)


def nullity_and_leaf_invariants(dec: PrincipalDecomposition) -> NullityReport:
    """Locate the relative nullity distribution (zero principal normal) and
    the invariant lambda = <eta_i, eta_j> shared by all pairs of distinct
    nonzero principal normals; lambda is constant along the leaves of the
    conullity distribution but varies along the rulings, so only the leaf
    derivative is a residual."""
    ext = dec.ext
    amb = ext.ambient
    scale = max(float(np.max(np.abs(ext.S))), 1e-12)
    nonzero = [i for i, eta in enumerate(dec.etas)
               if np.linalg.norm(eta) > 1e-6 * scale]
    null_idx = next((i for i in range(dec.k) if i not in nonzero), None)
    if null_idx is None:
        raise NotApplicable("no zero principal normal: nullity is trivial")
    nu = dec.multiplicities[null_idx]

    pairs = list(combinations(nonzero, 2)) + [
        (i, i) for i in nonzero if dec.multiplicities[i] >= 2]
    if not pairs:
        return NullityReport(nu, null_idx, None, None, None, None)
    etas = dec.etas
    vals = [amb.inner(etas[a], etas[b]) for a, b in pairs]
    # d_i <eta_a, eta_b> = <nabla-perp_{d_i} eta_a, eta_b> + <eta_a, nabla-perp_{d_i} eta_b>
    D = dec.eta_derivatives
    sig = amb.signature
    dlam = np.mean([D[a] @ (sig * etas[b]) + D[b] @ (sig * etas[a])
                    for a, b in pairs], axis=0)
    leaf_d = rule_d = 0.0
    for i in range(dec.k):
        d = float(np.max(np.abs(dec.chart_basis(i).T @ dlam)))
        if i == null_idx:
            rule_d = d
        else:
            leaf_d = max(leaf_d, d)
    return NullityReport(nu, null_idx, float(np.mean(vals)),
                         float(np.max(vals) - np.min(vals)), leaf_d, rule_d)
