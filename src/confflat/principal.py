"""Principal normal structure of submanifolds with flat normal bundle:
simultaneous diagonalization of the shape operators, principal normals and
their eigendistributions, the properness census, curvature-net checks, and
the span / quasiumbilical / nullity structure built on top of them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations

import numpy as np

from .errors import (DegenerateInputError, NonProperError, NotApplicable,
                     QuasiumbilicError)
from .extrinsic import (ExtrinsicData, _project_out, _unit, _vdot, christoffels,
                        codazzi_tensor, intrinsic_curvatures, orthonormalize)

FLAT_NB_TOL = 1e-8
CLUSTER_TOL = 1e-6
JACOBI_TOL = 1e-13


# ---------------------------------------------------------------------------
# joint diagonalization
# ---------------------------------------------------------------------------

def _offdiag_energy(mats):
    e = 0.0
    for m in mats:
        e += float(np.sum(m ** 2)) - float(np.sum(np.diag(m) ** 2))
    return e


def joint_diagonalize(mats, seed=0, max_sweeps=60, tol=JACOBI_TOL):
    """Orthogonal V (columns) jointly diagonalizing a stack of commuting
    symmetric matrices: random-combination eigendecomposition followed by
    Jacobi refinement sweeps.  Deterministic for a fixed seed."""
    mats = np.array(mats, float)
    p, n, _ = mats.shape
    scale = max(float(np.max(np.abs(mats))), 1e-300)
    rng = np.random.default_rng(seed)
    combo = np.einsum("a,aij->ij", rng.standard_normal(p), mats)
    _, V = np.linalg.eigh(0.5 * (combo + combo.T))
    work = np.einsum("ki,akl,lj->aij", V, mats, V)
    thresh = tol * scale ** 2 * n
    for _ in range(max_sweeps):
        if _offdiag_energy(work) <= thresh:
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                # closed-form rotation minimizing the summed (i, j) off-diagonals
                h = np.array([[m[i, i] - m[j, j], 2.0 * m[i, j]] for m in work])
                G = h.T @ h
                w, U = np.linalg.eigh(G)
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


# ---------------------------------------------------------------------------
# principal decomposition at a point
# ---------------------------------------------------------------------------

@dataclass
class PrincipalDecomposition:
    """Common eigenstructure of the shape operators at one point.

    etas[i] is the i-th distinct principal normal (ambient vector); columns
    of bases[i] span its eigendistribution E_i in the orthonormal tangent
    basis of `ext`.  Entries are sorted by descending multiplicity, ties by
    the principal normal components.
    """

    ext: ExtrinsicData
    etas: list            # k ambient vectors (A,)
    bases: list           # k arrays (n, m_i), ONB tangent coordinates
    eigen_onb: np.ndarray  # (n, n) the full joint eigenbasis
    kappa: np.ndarray     # (p, n) per-axis eigenvalues of each shape operator

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
        T = codazzi_tensor(self.ext)
        return np.array([np.einsum("js,ks,ijkA->iA", B, B, T) / B.shape[1]
                         for B in map(self.chart_basis, range(self.k))])

    def reconstruction_residual(self, seed=0, trials=8):
        """max over random unit normals xi of |A_xi - sum_i <xi, eta_i> P_i|."""
        ext = self.ext
        sig = ext.ambient.signature
        xi = np.random.default_rng(seed).standard_normal((trials, ext.p)) @ ext.frame
        nrm = np.sqrt(np.abs(np.einsum("tA,A,tA->t", xi, sig, xi)))
        xi = xi[nrm >= 1e-12] / nrm[nrm >= 1e-12, None]
        # A_xi - sum_i <xi, eta_i> P_i with A_xi = sum_a eps_a <xi, xi_a> S_a:
        # one weighted sum over the frame vectors and the principal normals
        vecs = np.concatenate([ext.frame, self.etas])
        weights = np.concatenate([ext.frame_eps, -np.ones(self.k)])
        mats = np.concatenate([ext.S, [B @ B.T for B in self.bases]])
        diff = np.einsum("tA,A,mA,m,mij->tij", xi, sig, vecs, weights, mats)
        return float(np.max(np.abs(diff), initial=0.0))


def _cluster_columns(vectors, gap):
    """Single-linkage clustering of a list of vectors at threshold `gap`.
    Returns a list of index lists and the tightest inter-cluster distance."""
    m = len(vectors)
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    dist = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            dist[i, j] = dist[j, i] = float(np.linalg.norm(vectors[i] - vectors[j]))
            if dist[i, j] <= gap:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    clusters = list(groups.values())
    inter = np.inf
    for a, b in combinations(range(len(clusters)), 2):
        for i in clusters[a]:
            for j in clusters[b]:
                inter = min(inter, dist[i, j])
    return clusters, inter


def principal_decomposition(ext: ExtrinsicData, cluster_tol=CLUSTER_TOL,
                            flat_tol=FLAT_NB_TOL, seed=0) -> PrincipalDecomposition:
    """Diagonalize all shape operators simultaneously and group the common
    eigendirections by their principal normal."""
    S = ext.S
    p, n = S.shape[0], ext.n
    scale = max(float(np.max(np.abs(S))), 1e-300)
    for a in range(p):
        for b in range(a + 1, p):
            comm = S[a] @ S[b] - S[b] @ S[a]
            if np.max(np.abs(comm)) > flat_tol * scale ** 2 * n:
                raise DegenerateInputError(
                    f"shape operators do not commute: |[A_{a}, A_{b}]| = "
                    f"{np.max(np.abs(comm)):.3e} at {ext.point}")

    V = joint_diagonalize(S, seed=seed)
    kappa = np.einsum("ij,aik,kj->aj", V, S, V)
    # eta_j = sum_a eps_a kappa_{a j} xi_a
    etas_cols = np.einsum("a,aj,aA->jA", ext.frame_eps.astype(float), kappa, ext.frame)

    gap = cluster_tol * max(scale, 1e-12)
    clusters, inter = _cluster_columns(list(etas_cols), gap)
    if inter < 2.0 * gap:
        raise DegenerateInputError(
            f"principal normal gap {inter:.3e} too close to the clustering "
            f"threshold {gap:.3e} to resolve")

    entries = []
    for idx in clusters:
        eta = etas_cols[idx].mean(axis=0)
        B = V[:, idx]
        entries.append((len(idx), tuple(np.round(-eta, 9)), eta, B))
    entries.sort(key=lambda e: (-e[0], e[1]))
    etas = [e[2] for e in entries]
    bases = [e[3] for e in entries]
    assert sum(b.shape[1] for b in bases) == n
    return PrincipalDecomposition(ext, etas, bases, V, kappa)


def principal_decompositions(ext: ExtrinsicData, cluster_tol=CLUSTER_TOL,
                             seed=0):
    """One decomposition per point of batched extrinsic data."""
    return [principal_decomposition(ext.at(m), cluster_tol=cluster_tol, seed=seed)
            for m in range(len(ext.point))]


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


def _match_eta(target, etas):
    d = [float(np.linalg.norm(target - e)) for e in etas]
    return int(np.argmin(d))


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

    # Dupin check: nabla-perp eta_i along the unit basis vectors of E_i
    dupin = {}
    rec = 0.0
    for dec in decs:
        rec = max(rec, dec.reconstruction_residual(seed=seed))
        for i, m in enumerate(dec.multiplicities):
            if m < 2:
                continue
            along = dec.chart_basis(i).T @ dec.eta_derivatives[i]
            dupin[i] = max(dupin.get(i, 0.0),
                           float(np.max(np.linalg.norm(along, axis=1))))
    high = sum(1 for m in mults if m >= 2)
    return CensusReport(ks[0], mults, points, dupin, rec, high <= 1)


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
    """(net, alpha): how far the chart coordinates at one point are from
    principal coordinates.  `net` is the largest off-diagonal metric entry
    over the largest diagonal one; `alpha` is the largest |alpha(d_i, d_j)|,
    i != j, over unit coordinate vectors, relative to the largest entry of
    the second fundamental form in an orthonormal basis."""
    g = ext.g
    d = np.sqrt(np.diag(g))
    off = g - np.diag(np.diag(g))
    net = float(np.max(np.abs(off))) / float(np.max(d) ** 2)
    ascale = max(float(np.max(np.abs(ext.alpha_onb()))), 1e-300)
    alpha = 0.0
    for i in range(ext.n):
        for j in range(i + 1, ext.n):
            a = float(np.linalg.norm(ext.alpha[i, j])) / (d[i] * d[j])
            alpha = max(alpha, a / ascale)
    return net, float(alpha)


def holonomicity_check(decs, net_tol=1e-8) -> HolonomicityReport:
    """Verify, over the decompositions at the sample points, that the chart
    coordinates follow the curvature directions: the net must be orthogonal,
    the second fundamental form diagonal, and the principal normals must
    satisfy the two derivation rules that characterize a holonomic
    curvature net."""
    net_off = alpha_off = c1 = c2 = 0.0
    for dec in decs:
        ext = dec.ext
        net, alpha = offdiagonal_defects(ext)
        if net > net_tol:
            raise DegenerateInputError(
                f"coordinate net not orthogonal: defect {net:.3e} at {ext.point}")
        if ext.lame is None:
            raise DegenerateInputError("no Lame functions: net not orthogonal")
        net_off = max(net_off, net)
        alpha_off = max(alpha_off, alpha)
        h = ext.lame
        n = ext.n

        # cluster index of each coordinate direction, by its normal curvature
        eta_coord = [ext.alpha[i, i] / h[i] ** 2 for i in range(n)]
        assign = [_match_eta(eta_coord[i], dec.etas) for i in range(n)]
        Gam = christoffels(ext)
        d_eta = dec.eta_derivatives

        eta_scale = max(max(float(np.linalg.norm(e)) for e in dec.etas), 1e-300)
        for i in range(n):
            for j in range(n):
                if assign[i] == assign[j]:
                    continue
                # <X_i, X_i> nabla-perp_{X_j} eta_i = <nabla_{X_i} X_i, X_j>(eta_i - eta_j)
                # with the unit vectors X = d / h
                coef = Gam[j, i, i] / (h[i] ** 2 * h[j])
                res = (d_eta[assign[i], j] / h[j]
                       - coef * (dec.etas[assign[i]] - dec.etas[assign[j]]))
                c1 = max(c1, float(np.linalg.norm(res)) / eta_scale)
                for l in range(n):
                    if assign[l] in (assign[i], assign[j]):
                        continue
                    lhs = (Gam[j, i, l] / (h[i] * h[l] * h[j])
                           * (dec.etas[assign[j]] - dec.etas[assign[l]]))
                    rhs = (Gam[j, l, i] / (h[i] * h[l] * h[j])
                           * (dec.etas[assign[j]] - dec.etas[assign[i]]))
                    c2 = max(c2, float(np.linalg.norm(lhs - rhs)) / eta_scale)
    return HolonomicityReport(net_off, alpha_off, c1, c2,
                              np.array([d.ext.point for d in decs]))


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
        clusters, _ = _cluster_columns([np.array([x]) for x in w], 1e-6 * scale)
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
