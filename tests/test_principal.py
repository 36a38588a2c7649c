"""Principal normal census, holonomicity, quasiumbilical frames and the
nullity/leaf invariants over the catalog."""
from dataclasses import replace
from itertools import permutations

import numpy as np
import pytest

from confflat.ambient import euclidean
from confflat.catalog import default_catalog
from confflat.errors import DegenerateInputError, NotApplicable, QuasiumbilicError
from confflat.extrinsic import christoffels, codazzi_tensor, fundamental_forms
from confflat.jets import ChartDomain, SmoothMap, evaluate_jet
from confflat.principal import (JACOBI_TOL, _joint_bases, holonomicity_check,
                                nullity_and_leaf_invariants,
                                offdiagonal_defects,
                                principal_decompositions, properness_and_census,
                                quasiumbilical_frame, separation_check,
                                span_structure, traceless_relations)
from conftest import (decomposition_at, decompositions, interior_points,
                      into_sphere)

CENSUS_ITEMS = ["s3xs1", "s2xpseudosphere", "s2xs2_control", "cone_t3",
                "cylinder_r1xs3", "flat_cylinder", "example2",
                "flat_inclusion", "sphere_stereographic"]


def test_joint_diagonalize_random_commuting(rng):
    """Simultaneously diagonalizable families come back diagonal."""
    n = 5
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mats = [q @ np.diag(rng.standard_normal(n)) @ q.T for _ in range(3)]
    v = _joint_bases(np.array(mats)[None], 0, 60, JACOBI_TOL)[0]
    for m in mats:
        d = v.T @ m @ v
        off = d - np.diag(np.diag(d))
        assert np.max(np.abs(off)) < 1e-9 * max(1.0, np.max(np.abs(d)))


@pytest.mark.parametrize("name", CENSUS_ITEMS)
def test_census_matches_expectation(catalog, name):
    item = catalog[name]
    pts = interior_points(item, 5)
    census = properness_and_census(decompositions(item, pts))
    assert census.k == item.expected["k"]
    assert tuple(sorted(census.multiplicities)) == \
        tuple(sorted(item.expected["multiplicities"]))
    assert census.reconstruction_residual < 1e-7


@pytest.mark.parametrize("name", ["s3xs1", "example2", "cone_t3"])
def test_holonomicity(catalog, name):
    item = catalog[name]
    pts = interior_points(item, 4)
    rep = holonomicity_check(decompositions(item, pts))
    assert rep.net_offdiag < 1e-7
    assert rep.alpha_offdiag < 1e-7
    assert rep.c1_residual <= 1e-10


def test_holonomicity_fills_eta_derivatives_in_one_pass(catalog, monkeypatch):
    """On cone_t3, whose census fills no eta derivatives, the holonomicity
    check's derivation rules, when read, fill those of all 6 points in one
    pass per multiplicity pattern (one stack of their tangent bases each),
    bitwise as one point at a time."""
    from confflat import principal
    item = catalog["cone_t3"]
    pts = interior_points(item, 6)
    decs = decompositions(item, pts)
    stacked, names = principal._stacked, []

    def recording(decs, name):
        names.append(name)
        return stacked(decs, name)

    monkeypatch.setattr(principal, "_stacked", recording)
    rep = holonomicity_check(decs)
    assert names.count("onb") == 0
    assert rep.c1_residual <= 1e-10
    assert names.count("onb") == len({d.multiplicities for d in decs}) == 1
    for d, one in zip(decs, decompositions(item, pts)):
        assert np.array_equal(d.__dict__["eta_derivatives"], one.eta_derivatives)


def test_derivation_rules_and_dupin_need_order_3_only_when_read(catalog):
    """On data from an order-2 jet the census and the holonomic check report
    what they read without third derivatives; the Dupin residuals and the
    derivation rules are computed when first read, and then refuse the data
    as codazzi_tensor does."""
    item = catalog["s3xs1"]
    pts = interior_points(item, 4)
    ext = fundamental_forms(item.smooth_map, item.ambient, pts,
                            jet=evaluate_jet(item.smooth_map, pts, 2))
    decs = principal_decompositions(ext)
    census = properness_and_census(decs)
    rep = holonomicity_check(decs)
    assert census.k == 2 and census.reconstruction_residual < 1e-7
    assert max(rep.net_offdiag, rep.alpha_offdiag) < 1e-7
    for read in (lambda: census.dupin_residuals, lambda: rep.c1_residual,
                 lambda: rep.c2_residual):
        with pytest.raises(ValueError, match="order 3"):
            read()


def _oracle_holonomic_refusal(ext, net_tol=1e-8):
    """The message of the first point that the holonomic check refuses,
    point by point: a net defect over `net_tol`, else no Lame functions."""
    for m in range(len(ext.point)):
        one = ext.at(m)
        net, _ = offdiagonal_defects(one)
        if net > net_tol:
            return f"coordinate net not orthogonal: defect {net:.3e} at {one.point}"
        if one.lame is None:
            return "no Lame functions: net not orthogonal"
    return None


def test_holonomicity_refuses_the_first_failing_point(catalog):
    """A point set whose metric is sheared at point 2 (its Lame row NaN), or
    whose Lame functions are missing at point 1, or both, is refused with
    the message of the first point that fails, as the per-point loop
    names it."""
    item = catalog["s3xs1"]
    ext = fundamental_forms(item.smooth_map, item.ambient, interior_points(item, 4))
    sheared = ext.g.copy()
    sheared[2, 0, 1] = sheared[2, 1, 0] = 1e-4 * sheared[2, 0, 0]
    lame_2, lame_1, lame_12 = ext.lame.copy(), ext.lame.copy(), ext.lame.copy()
    lame_2[2] = lame_1[1] = lame_12[1] = lame_12[2] = np.nan
    cases = [(replace(ext, g=sheared, lame=lame_2), "not orthogonal: defect"),
             (replace(ext, lame=lame_1), "no Lame functions"),
             (replace(ext, g=sheared, lame=lame_12), "no Lame functions")]
    for bad, kind in cases:
        want = _oracle_holonomic_refusal(bad)
        assert kind in want
        with pytest.raises(DegenerateInputError) as err:
            holonomicity_check(principal_decompositions(bad))
        assert str(err.value) == want
    assert str(ext.point[2]) in _oracle_holonomic_refusal(cases[0][0])


def _defects_in_r5(evaluator, pinned_axis=None):
    """offdiagonal_defects of a map of the chart (-1, 1)^4 into R^5 at four
    points, with one coordinate set to 0 when `pinned_axis` is given."""
    smooth_map = SmoothMap(ChartDomain(4, ((-1.0, 1.0),) * 4), 5, evaluator)
    pts = np.random.default_rng(0).uniform(-0.8, 0.8, size=(4, 4))
    if pinned_axis is not None:
        pts[:, pinned_axis] = 0.0
    return [offdiagonal_defects(fundamental_forms(smooth_map, euclidean(5), pt))
            for pt in pts]


def test_offdiagonal_defects_can_fail():
    """The holonomic defect vanishes on principal coordinates and reads
    large where the second fundamental form or the metric is not diagonal."""
    # u0 = 0: orthogonal net, but alpha(d0, d1) = d0 d1 (u0 u1) != 0
    mixed = _defects_in_r5(lambda u: [u[0], u[1], u[2], u[3], u[0] * u[1]], 0)
    assert all(net <= 1e-12 and alpha >= 0.1 for net, alpha in mixed)
    # u1 = 0: orthogonal net and diagonal second fundamental form
    saddle = _defects_in_r5(
        lambda u: [u[0], u[1], u[2], u[3], 0.5 * (u[0] * u[0] - u[1] * u[1])], 1)
    assert all(max(d) <= 1e-12 for d in saddle)
    # flat, but the net is sheared: <d0, d1> = 1e-6
    sheared = _defects_in_r5(
        lambda u: [u[0] + 1e-6 * u[1], u[1], u[2], u[3], 0.0 * u[0]])
    assert all(net > 1e-7 for net, _ in sheared)


def test_dupin_condition(catalog):
    """Principal normals with multiplicity >= 2 are parallel along their own
    eigendistribution."""
    item = catalog["example2"]
    pts = interior_points(item, 3)
    census = properness_and_census(decompositions(item, pts))
    for idx, worst in census.dupin_residuals.items():
        if census.multiplicities[idx] >= 2:
            assert worst < 1e-12


@pytest.mark.parametrize("name", ["s2xpseudosphere", "example2", "cone_t3"])
def test_separation_positive(catalog, name):
    item = catalog[name]
    pt = interior_points(item, 1)[0]
    dec = decomposition_at(item, pt)
    assert separation_check([dec]) > 1e-3


def _oracle_separation(dec):
    """Smallest singular value over the triples of one decomposition, one
    SVD per triple."""
    worst = np.inf
    for j, m, l in permutations(range(dec.k), 3):
        if m < l:
            M = np.column_stack([dec.etas[j] - dec.etas[m],
                                 dec.etas[j] - dec.etas[l]])
            worst = min(worst, float(np.linalg.svd(M, compute_uv=False)[-1]))
    return worst


@pytest.mark.parametrize("name", ["s2xpseudosphere", "example2", "cone_t3"])
def test_separation_is_the_minimum_over_the_points(catalog, name):
    """Over a point set, the separation is the per-point minimum over the
    triples of each point, taken over every point; a principal normal put
    on the segment through two others at one later point brings it to
    rounding level, while the first point alone stays separated."""
    item = catalog[name]
    decs = decompositions(item, interior_points(item, 6, seed=1))
    per_point = [_oracle_separation(d) for d in decs]
    assert separation_check(decs) == min(per_point)
    assert [separation_check([d]) for d in decs] == per_point
    d = decs[4]
    etas = list(d.etas)
    etas[2] = 0.25 * etas[0] + 0.75 * etas[1]
    bad = decs[:4] + [replace(d, etas=etas)] + decs[5:]
    scale = max(np.linalg.norm(e) for e in etas)
    assert separation_check(bad) <= 1e-14 * scale
    assert separation_check(bad[:1]) > 1e-3


@pytest.mark.parametrize("name", ["s3xs1", "s2xpseudosphere", "example2"])
def test_quasiumbilical_frame_exists(catalog, name):
    item = catalog[name]
    n = item.smooth_map.domain.dim
    for pt in interior_points(item, 3):
        dec = decomposition_at(item, pt)
        qf = quasiumbilical_frame(dec)
        assert all(m >= n - 1 for m in qf.eigen_multiplicities)
        assert qf.orthogonality_defect < 1e-8
        # codimension bound p >= n - m for the high multiplicity m
        m_high = max(dec.multiplicities)
        assert dec.ext.p >= n - m_high


def test_quasiumbilical_frame_negative_control(catalog):
    item = catalog["s2xs2_control"]
    pt = interior_points(item, 1)[0]
    dec = decomposition_at(item, pt)
    with pytest.raises(QuasiumbilicError):
        quasiumbilical_frame(dec)


def test_traceless_relations(catalog):
    for name in ("s3xs1", "s2xpseudosphere"):
        item = catalog[name]
        pt = interior_points(item, 1)[0]
        dec = decomposition_at(item, pt)
        rep = traceless_relations(dec)
        if rep.high_mult_norm_residual is not None:
            assert rep.high_mult_norm_residual < 1e-7
        if rep.colinearity_residual is not None:
            assert rep.colinearity_residual < 1e-7
        if rep.pair_sum_residual is not None:
            assert rep.pair_sum_residual < 1e-7


def test_span_structure_umbilic_direction(catalog):
    """For the cylinder over S^3 the principal normals span one more
    direction than their differences; the extra direction is umbilic."""
    item = catalog["cylinder_r1xs3"]
    pt = interior_points(item, 1)[0]
    dec = decomposition_at(item, pt)
    st = span_structure(dec)
    if st.delta is not None:
        assert st.umbilic_residual < 1e-7


def test_nullity_invariants_cone(catalog):
    item = catalog["cone_t3"]
    for pt in interior_points(item, 3):
        rep = nullity_and_leaf_invariants(decomposition_at(item, pt))
        assert rep.nullity_dim == item.expected["nullity"]
        assert rep.lam_spread < 1e-7
        assert rep.leaf_derivative < 1e-12


def test_nullity_trivial_when_absent(catalog):
    item = catalog["s3xs1"]
    pt = interior_points(item, 1)[0]
    with pytest.raises(NotApplicable):
        nullity_and_leaf_invariants(decomposition_at(item, pt))


def test_flat_cylinder_nullity(catalog):
    item = catalog["flat_cylinder"]
    pt = interior_points(item, 1)[0]
    rep = nullity_and_leaf_invariants(decomposition_at(item, pt))
    assert rep.nullity_dim == item.expected["nullity"]


def _central_eta_derivatives(item, dec, h=1e-5):
    """Oracle for eta_derivatives: central differences of the principal
    normals that the decision finds at the neighbouring points
    along each chart axis (matched to the nearest principal normal at the
    centre), projected to the normal space."""
    ext = dec.ext
    out = np.zeros_like(dec.eta_derivatives)
    for i in range(ext.n):
        step = np.zeros(ext.n)
        step[i] = h
        plus, minus = (decomposition_at(item, ext.point + s)
                       for s in (step, -step))
        for c, eta in enumerate(dec.etas):
            ep, em = (min(d.etas, key=lambda e: float(np.linalg.norm(e - eta)))
                      for d in (plus, minus))
            out[c, i] = ext.normal_project((ep - em) / (2.0 * h))
    return out


@pytest.mark.parametrize("name,in_sphere", [
    ("example2", False), ("cone_t3", False), ("s2xpseudosphere", False),
    ("example2", True)])
def test_eta_derivatives_match_central_differences(catalog, name, in_sphere):
    """The principal-normal derivatives taken from the Codazzi tensor of the
    order-3 jet agree with central differences of the decomposition, in
    Euclidean space and in a sphere."""
    item = into_sphere(catalog[name]) if in_sphere else catalog[name]
    for dec in decompositions(item, interior_points(item, 2)):
        exact = dec.eta_derivatives
        scale = float(np.max(np.abs(exact)))
        assert scale > 1e-3
        assert np.max(np.abs(exact - _central_eta_derivatives(item, dec))) \
            <= 1e-7 * scale


# ---------------------------------------------------------------------------
# the per-point principal layer the one-pass decision replaced, kept here as
# an oracle only: one decomposition per call, and the census and holonomic
# residuals by loops over points, clusters and coordinate directions
# ---------------------------------------------------------------------------

def _oracle_joint_diagonalize(mats, seed=0, max_sweeps=60, tol=1e-13):
    mats = np.array(mats, float)
    p, n, _ = mats.shape
    scale = max(float(np.max(np.abs(mats))), 1e-300)
    rng = np.random.default_rng(seed)
    combo = np.einsum("a,aij->ij", rng.standard_normal(p), mats)
    _, V = np.linalg.eigh(0.5 * (combo + combo.T))
    work = np.einsum("ki,akl,lj->aij", V, mats, V)
    thresh = tol * scale ** 2 * n
    for _ in range(max_sweeps):
        energy = sum(float(np.sum(m ** 2)) - float(np.sum(np.diag(m) ** 2))
                     for m in work)
        if energy <= thresh:
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                h = np.array([[m[i, i] - m[j, j], 2.0 * m[i, j]] for m in work])
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


def _oracle_decomposition(ext, cluster_tol=1e-6, flat_tol=1e-8, seed=0):
    """(etas, bases) at one point, as the per-point decomposition made them."""
    S = ext.S
    p, n = S.shape[0], ext.n
    scale = max(float(np.max(np.abs(S))), 1e-300)
    for a in range(p):
        for b in range(a + 1, p):
            comm = S[a] @ S[b] - S[b] @ S[a]
            assert np.max(np.abs(comm)) <= flat_tol * scale ** 2 * n
    V = _oracle_joint_diagonalize(S, seed=seed)
    kappa = np.einsum("ij,aik,kj->aj", V, S, V)
    cols = np.einsum("a,aj,aA->jA", ext.frame_eps.astype(float), kappa, ext.frame)
    gap = cluster_tol * max(scale, 1e-12)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if float(np.linalg.norm(cols[i] - cols[j])) <= gap:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    entries = sorted(((len(idx), tuple(np.round(-cols[idx].mean(axis=0), 9)),
                       cols[idx].mean(axis=0), V[:, idx])
                      for idx in groups.values()), key=lambda e: (-e[0], e[1]))
    return [e[2] for e in entries], [e[3] for e in entries]


def _oracle_census_residuals(decs, seed=0, trials=8):
    """(reconstruction, dupin) by one loop over the decompositions."""
    rec, dupin = 0.0, {}
    for dec in decs:
        ext = dec.ext
        sig = ext.ambient.signature
        xi = np.random.default_rng(seed).standard_normal((trials, ext.p)) @ ext.frame
        nrm = np.sqrt(np.abs(np.einsum("tA,A,tA->t", xi, sig, xi)))
        xi = xi[nrm >= 1e-12] / nrm[nrm >= 1e-12, None]
        vecs = np.concatenate([ext.frame, dec.etas])
        weights = np.concatenate([ext.frame_eps, -np.ones(dec.k)])
        mats = np.concatenate([ext.S, [B @ B.T for B in dec.bases]])
        diff = np.einsum("tA,A,mA,m,mij->tij", xi, sig, vecs, weights, mats)
        rec = max(rec, float(np.max(np.abs(diff), initial=0.0)))
        T = codazzi_tensor(ext)
        for i, m in enumerate(dec.multiplicities):
            if m < 2:
                continue
            C = dec.chart_basis(i)
            d_eta = np.einsum("js,ks,ijkA->iA", C, C, T) / m
            dupin[i] = max(dupin.get(i, 0.0),
                           float(np.max(np.linalg.norm(C.T @ d_eta, axis=1))))
    return rec, dupin


def _oracle_holonomic_residuals(decs):
    """(net, alpha, c1, c2) by loops over points and directions i, j, l."""
    net_off = alpha_off = c1 = c2 = 0.0
    for dec in decs:
        ext = dec.ext
        g, n = ext.g, ext.n
        d = np.sqrt(np.diag(g))
        net = float(np.max(np.abs(g - np.diag(np.diag(g))))) / float(np.max(d) ** 2)
        ascale = max(float(np.max(np.abs(ext.alpha_onb()))), 1e-300)
        for i in range(n):
            for j in range(i + 1, n):
                a = float(np.linalg.norm(ext.alpha[i, j])) / (d[i] * d[j])
                alpha_off = max(alpha_off, a / ascale)
        net_off = max(net_off, net)
        h = ext.lame
        assign = [int(np.argmin([np.linalg.norm(ext.alpha[i, i] / h[i] ** 2 - e)
                                 for e in dec.etas])) for i in range(n)]
        Gam = christoffels(ext)
        d_eta = np.array([np.einsum("js,ks,ijkA->iA", C, C, codazzi_tensor(ext))
                          / C.shape[1] for C in map(dec.chart_basis, range(dec.k))])
        E = dec.etas
        eta_scale = max(max(float(np.linalg.norm(e)) for e in E), 1e-300)
        for i in range(n):
            for j in range(n):
                if assign[i] == assign[j]:
                    continue
                coef = Gam[j, i, i] / (h[i] ** 2 * h[j])
                res = d_eta[assign[i], j] / h[j] - coef * (E[assign[i]] - E[assign[j]])
                c1 = max(c1, float(np.linalg.norm(res)) / eta_scale)
                for l in range(n):
                    if assign[l] in (assign[i], assign[j]):
                        continue
                    hh = h[i] * h[l] * h[j]
                    lhs = Gam[j, i, l] / hh * (E[assign[j]] - E[assign[l]])
                    rhs = Gam[j, l, i] / hh * (E[assign[j]] - E[assign[i]])
                    c2 = max(c2, float(np.linalg.norm(lhs - rhs)) / eta_scale)
    return net_off, alpha_off, c1, c2


@pytest.mark.parametrize("name", sorted(default_catalog()))
def test_one_pass_matches_the_per_point_oracle(catalog, name):
    """On every catalog item, the one-pass decision gives each point the
    per-point decomposition's k, multiplicities and cluster order, with
    principal normals and bases equal to 1e-14, and the census and holonomic
    residuals of the per-point loops to 1e-14."""
    item = catalog[name]
    pts = interior_points(item, 5)
    ext = fundamental_forms(item.smooth_map, item.ambient, pts)
    decs = principal_decompositions(ext)
    for m, dec in enumerate(decs):
        etas, bases = _oracle_decomposition(ext.at(m))
        assert dec.multiplicities == tuple(B.shape[1] for B in bases), (name, m)
        assert np.max(np.abs(np.array(dec.etas) - np.array(etas))) <= 1e-14
        for got, want in zip(dec.bases, bases):
            assert np.max(np.abs(got - want)) <= 1e-14, (name, m)
    if len({d.multiplicities for d in decs}) == 1:
        census = properness_and_census(decs)
        rec, dupin = _oracle_census_residuals(decs)
        assert abs(census.reconstruction_residual - rec) <= 1e-14
        assert census.dupin_residuals.keys() == dupin.keys()
        for i, worst in dupin.items():
            assert abs(census.dupin_residuals[i] - worst) <= 1e-14
    if all(d.ext.lame is not None for d in decs):
        rep = holonomicity_check(decs)
        got = (rep.net_offdiag, rep.alpha_offdiag, rep.c1_residual, rep.c2_residual)
        for a, b in zip(got, _oracle_holonomic_residuals(decs)):
            assert abs(a - b) <= 1e-14, name


def test_one_pass_names_the_first_noncommuting_point(catalog):
    """A point set in which one point's shape operators do not commute is
    refused, and the error names that point, not an earlier one."""
    item = catalog["s2xpseudosphere"]
    ext = fundamental_forms(item.smooth_map, item.ambient, interior_points(item, 4))
    S = ext.S.copy()
    S[2, 1] = S[2, 1] + np.triu(np.ones_like(S[2, 1]), 1) + np.tril(
        np.ones_like(S[2, 1]), -1)
    bad = replace(ext, S=S)
    with pytest.raises(DegenerateInputError, match="do not commute") as err:
        principal_decompositions(bad)
    assert str(bad.point[2]) in str(err.value)
    assert str(bad.point[0]) not in str(err.value)
    principal_decompositions(bad.at(np.arange(2)))


def _union_find_clusters(dist, gap):
    """Single-linkage clusters (index lists, in order of their smallest
    member) of items with pairwise distances `dist` at threshold `gap`, by
    union-find, and the tightest inter-cluster distance."""
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
    for a in range(len(clusters)):
        for b in range(a + 1, len(clusters)):
            inter = min(inter, float(np.min(dist[np.ix_(clusters[a], clusters[b])])))
    return clusters, inter


def test_whole_set_clustering_matches_union_find():
    """The boolean-closure clustering of a whole point set gives every
    point the union-find clusters and inter-cluster gap, on random
    distance matrices: integer points on a line with the gap an integer
    (ties exactly at the gap), and points in the plane."""
    from confflat.principal import _single_linkage
    rng = np.random.default_rng(3)
    ties = 0
    for m in (1, 2, 3, 4, 6, 8):
        line = rng.integers(0, 3 * m, size=(40, m, 1)).astype(float)
        plane = rng.uniform(0.0, 2.0, size=(40, m, 2))
        for pts, gaps in ((line, rng.integers(0, 4, size=40).astype(float)),
                          (plane, rng.uniform(0.05, 0.8, size=40))):
            dist = np.linalg.norm(pts[:, :, None] - pts[:, None], axis=-1)
            ties += int(np.sum(dist == gaps[:, None, None]))
            labels, inter = _single_linkage(dist, gaps)
            for b in range(len(dist)):
                clusters, gap_b = _union_find_clusters(dist[b], gaps[b])
                got = [list(np.flatnonzero(labels[b] == r))
                       for r in np.unique(labels[b])]
                assert got == clusters, (m, b)
                assert inter[b] == gap_b, (m, b)
    assert ties > 100


def _oracle_pass(ext, cluster_tol, flat_tol, seed=0):
    """((etas, bases) per point, failure) as the per-point loop over
    union-find clusters decided them: the shared joint bases, then at each
    point in turn the commutator check, the clusters, the gap check and the
    sorted entries, up to the first point refused (index, message)."""
    from confflat import principal
    S = ext.S
    B, p, n, _ = S.shape
    scale = np.maximum(np.max(np.abs(S), axis=(-3, -2, -1)), 1e-300)
    SS = S[:, :, None] @ S[:, None]
    comm = np.max(np.abs(SS - np.swapaxes(SS, 1, 2)), axis=(-2, -1))
    upper = np.triu(np.ones((p, p), bool), 1)
    noncommuting = (comm > (flat_tol * scale ** 2 * n)[:, None, None]) & upper
    V = principal._joint_bases(S, seed, 60, principal.JACOBI_TOL,
                               skip=noncommuting.any(axis=(1, 2)))
    kappa = np.sum(V[:, None] * (S @ V[:, None]), axis=-2)
    cols = np.swapaxes(ext.frame_eps[..., None] * kappa, -1, -2) @ ext.frame
    dist = np.linalg.norm(cols[:, :, None] - cols[:, None], axis=-1)
    gaps = cluster_tol * np.maximum(scale, 1e-12)
    out = []
    for m in range(B):
        if noncommuting[m].any():
            a, b = np.argwhere(noncommuting[m])[0]
            return out, (m, f"shape operators do not commute: |[A_{a}, A_{b}]| "
                            f"= {comm[m, a, b]:.3e} at {ext.point[m]}")
        clusters, inter = _union_find_clusters(dist[m], gaps[m])
        if inter < 2.0 * gaps[m]:
            return out, (m, f"principal normal gap {inter:.3e} too close to "
                            f"the clustering threshold {gaps[m]:.3e} to resolve")
        entries = sorted(((len(idx), tuple(np.round(-cols[m, idx].mean(axis=0), 9)),
                           cols[m, idx].mean(axis=0), V[m][:, idx])
                          for idx in clusters), key=lambda e: (-e[0], e[1]))
        out.append(([e[2] for e in entries], [e[3] for e in entries]))
    return out, None


@pytest.mark.parametrize("name", sorted(default_catalog()))
def test_whole_set_pass_matches_the_per_point_loop(catalog, name):
    """Over a sweep of clustering thresholds, the one-pass decision gives
    every point the per-point loop's principal normals and bases bitwise,
    and refuses the same first point with the same message.  The point
    sets: the item's own; the same with the shape operators of the last
    four points shifted by a multiple of the identity (same normals apart,
    a larger scale, so a gap check refuses them first); and the same with
    the shape operators of point 5 made not to commute."""
    from confflat.principal import _principal_pass
    item = catalog[name]
    ext = fundamental_forms(item.smooth_map, item.ambient,
                            interior_points(item, 8, seed=5))
    shifted = ext.S.copy()
    shifted[4:] += 3.0 * np.max(np.abs(ext.S)) * np.eye(ext.n)
    twisted = ext.S.copy()
    twisted[5, 0] += 0.1 * (np.ones((ext.n, ext.n)) - np.eye(ext.n))
    twisted[5, -1] += 0.1 * np.diag(np.arange(ext.n))
    later = set()
    for S in (ext.S, shifted, twisted):
        for cluster_tol in np.geomspace(1e-7, 2.0, 40):
            data = replace(ext, S=S)
            decs, failure = _principal_pass(data, cluster_tol, 1e-8, 0)
            want, want_failure = _oracle_pass(data, cluster_tol, 1e-8)
            assert len(decs) == len(want), (name, cluster_tol)
            for dec, (etas, bases) in zip(decs, want):
                assert len(dec.etas) == len(etas)
                assert all(np.array_equal(a, b) for a, b in zip(dec.etas, etas))
                assert all(np.array_equal(a, b) for a, b in zip(dec.bases, bases))
            if want_failure is None:
                assert failure is None, (name, cluster_tol)
                continue
            assert (failure[0], str(failure[1])) == want_failure, (name, cluster_tol)
            if failure[0] > 0:
                later.add(str(failure[1]).split(":")[0].split(" gap")[0])
    if ext.p >= 2:                   # one shape operator always commutes
        assert "shape operators do not commute" in later, name
    if principal_decompositions(ext)[0].k >= 2:    # else no gap to check
        assert "principal normal" in later, name


# principal decisions per pointwise suite: one pass per ExtrinsicData
_PASSES = {"extrinsic": 0, "principal": 1, "conformal": 1, "lightcone": 2}


@pytest.mark.parametrize("suite", sorted(_PASSES))
def test_pointwise_suites_decide_each_point_set_once(catalog, suite,
                                                     principal_passes):
    """Every pointwise suite decides the principal structure of each of its
    point sets in one pass over all sample points, never point by point and
    never twice for the same data."""
    from confflat import reports
    for name in sorted(catalog):
        principal_passes.clear()
        report = reports.run_scenario({"schema": 1, "item": name, "suite": suite,
                                       "seed": 0})
        skipped = {s["anchor"] for s in report.skipped}
        if {"conformal/q-suite", "lightcone/suite"} & skipped:
            assert principal_passes == [], (name, suite)
            continue
        assert len(principal_passes) == _PASSES[suite], (name, suite)
        assert len({id(e) for e in principal_passes}) == len(principal_passes)
        assert all(len(e.point) == 6 for e in principal_passes), (name, suite)
