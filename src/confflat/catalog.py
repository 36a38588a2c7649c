"""Closed-form example builders: spherical-curve normal-bundle submanifolds,
generalized cylinders and cones via extrinsic exponential maps, products
with explicit conformal exponents, and flat/spherical baselines with exactly
known invariants (including negative controls).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from . import ambient as amb_mod
from .ambient import AmbientSpace
from .conformal import ConformalStructure
from .errors import CurveError
from .extrinsic import complement_frame, fundamental_forms, intrinsic_curvatures, orthonormalize
from .jets import (ChartDomain, Jet, SmoothMap, cos, cosh,
                   evaluate_jet, exp, log, sin, sinh, sqrt, stack, unstack)
from .jets.core import _jet

TWO_PI = 2.0 * np.pi


@dataclass
class CatalogItem:
    """A concrete immersion with its ambient space, optional conformal
    structure, and the invariants it is expected to exhibit."""

    name: str
    smooth_map: SmoothMap
    ambient: AmbientSpace
    conformal: ConformalStructure | None = None
    expected: dict = field(default_factory=dict)
    description: str = ""

    @property
    def domain(self):
        return self.smooth_map.domain

    def sample_points(self, count, seed=0, margin_frac=0.1):
        rng = np.random.default_rng(seed)
        return self.domain.sample_points(count, rng, margin_frac)


# ---------------------------------------------------------------------------
# space-form exponential maps (extrinsic closed forms)
# ---------------------------------------------------------------------------

def space_form_exp(amb: AmbientSpace, p, v):
    """exp_p(v) of the ambient space form, jet-callable in p and v.

    Euclidean: p + v.  Sphere of radius r: great circle through p in the
    direction v.  Hyperboloid: the cosh/sinh analogue."""
    if not amb.is_space_form:
        return [a + b for a, b in zip(p, v)]
    r = amb.radius
    sig = amb.signature
    q = v[0] * v[0] * sig[0]
    for s, c in zip(sig[1:], v[1:]):
        q = q + s * (c * c)
    t = sqrt(q)                       # geodesic length of v
    if amb.kind == "sphere":
        a, b = cos(t / r), sin(t / r) * (r / t)
    else:
        a, b = cosh(t / r), sinh(t / r) * (r / t)
    return [a * pc + b * vc for pc, vc in zip(p, v)]


# ---------------------------------------------------------------------------
# unit-speed spherical curves (jet-callable value and derivative)
# ---------------------------------------------------------------------------

class SphericalCircle:
    """Latitude circle on the 2-sphere of radius `r` at colatitude `colat`,
    parametrized by arc length."""

    dim = 2

    def __init__(self, r, colat):
        if not 0.0 < colat < np.pi:
            raise CurveError("colatitude must lie in (0, pi)")
        self.r = r
        self.colat = colat
        self.rho = r * np.sin(colat)      # circle radius
        self.z = r * np.cos(colat)

    def value(self, u):
        s = u / self.rho
        return [self.rho * cos(s), self.rho * sin(s), self.z + 0.0 * u]

    def deriv(self, u):
        s = u / self.rho
        return [-sin(s), cos(s), 0.0 * u]


def validate_unit_speed(curve, box, samples=7, tol=1e-8, radius=None):
    """Numerically confirm |gamma'| = 1, that deriv matches the jet of
    value and, given a `radius`, that |gamma| = radius; raises CurveError
    otherwise."""
    for t0 in np.linspace(box[0] + 0.01, box[1] - 0.01, samples):
        s = Jet.variable(float(t0), 0, 1, 3)
        vals = curve.value(s)
        ders = curve.deriv(s)
        d1 = np.array([c.g[0] for c in vals])
        dv = np.array([float(c) for c in ders])
        if abs(np.linalg.norm(d1) - 1.0) > tol:
            raise CurveError(f"curve speed {np.linalg.norm(d1):.6f} != 1 at t={t0}")
        size = np.linalg.norm([float(c) for c in vals])
        if radius is not None and abs(size - radius) > tol:
            raise CurveError(f"curve leaves the sphere of radius {radius}: "
                             f"|gamma| = {size:.6f} at t={t0}")
        if np.max(np.abs(d1 - dv)) > tol:
            raise CurveError("curve deriv inconsistent with value jet")


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def _spherical(angles):
    """Unit-sphere point from hyperspherical angles, jet-callable."""
    out = []
    rest = 1.0
    for a in angles[:-1]:
        out.append(rest * cos(a))
        rest = rest * sin(a)
    a = angles[-1]
    out.append(rest * cos(a))
    out.append(rest * sin(a))
    return out


def build_baselines():
    items = {}

    dom = ChartDomain(4, tuple((-1.0, 1.0) for _ in range(4)), (5, 5, 5, 5))

    def flat4(x):
        return [x[0], x[1], x[2], x[3], 0.0, 0.0]

    def omega0(x):
        return [0.0 * x[0]]

    items["flat_inclusion"] = CatalogItem(
        "flat_inclusion", SmoothMap(dom, 6, flat4, "flat_inclusion"),
        amb_mod.euclidean(6),
        ConformalStructure(SmoothMap(dom, 1, omega0, "omega0")),
        {"conformally_flat": True, "k": 1, "multiplicities": (4,),
         "nullity": 4, "constant_curvature": 0.0},
        "totally geodesic R^4 in R^6")

    doms = ChartDomain(4, tuple((-0.9, 0.9) for _ in range(4)), (5, 5, 5, 5))

    def stereo(x):
        s = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3]
        d = 1.0 / (1.0 + s)
        return [2 * x[0] * d, 2 * x[1] * d, 2 * x[2] * d, 2 * x[3] * d,
                (s - 1.0) * d]

    def omega_stereo(x):
        s = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3]
        return [log(2.0 / (1.0 + s))]

    items["sphere_stereographic"] = CatalogItem(
        "sphere_stereographic", SmoothMap(doms, 5, stereo, "sphere_stereographic"),
        amb_mod.euclidean(5),
        ConformalStructure(SmoothMap(doms, 1, omega_stereo, "omega_stereo")),
        {"conformally_flat": True, "k": 1, "multiplicities": (4,),
         "nullity": 0, "constant_curvature": 1.0},
        "round S^4 in the stereographic chart")

    domm = ChartDomain(4, tuple((-0.5, 0.5) for _ in range(4)), (5, 5, 5, 5))

    def mobius_flat(x):
        y = [x[0], x[1], x[2], x[3], 0.0, 2.0]
        s = sum(c * c for c in y)
        return [c / s for c in y]

    def omega_mobius(x):
        # inversion scales the flat metric by |y|^-4 with |y|^2 = |x|^2 + 4
        s = x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3] + 4.0
        return [-log(s)]

    items["mobius_flat"] = CatalogItem(
        "mobius_flat", SmoothMap(domm, 6, mobius_flat, "mobius_flat"),
        amb_mod.euclidean(6),
        ConformalStructure(SmoothMap(domm, 1, omega_mobius, "omega_mobius")),
        {"conformally_flat": True, "k": 1, "multiplicities": (4,),
         "nullity": 0},
        "inversion image of an affine R^4 in R^6")
    return items


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def _tractroid(u, v):
    """Rotational surface of Gaussian curvature -1 in R^3 (unit pseudosphere)."""
    sech = 1.0 / cosh(u)
    return [sech * cos(v), sech * sin(v), u - sinh(u) / cosh(u)]


def build_products(r1=0.8, r2=0.6):
    if abs(r1 * r1 + r2 * r2 - 1.0) > 1e-12:
        raise ValueError("product radii must satisfy r1^2 + r2^2 = 1")
    items = {}

    # S^3(r1) x S^1(r2) in principal coordinates, with explicit conformal
    # exponent: the flat representative is R^4 \ {0} via x = e^t sigma(theta)
    dom = ChartDomain(4, ((-0.8, 0.8), (0.4, 2.7), (0.4, 2.7), (0.3, 2.6)),
                      (5, 5, 5, 5))

    def s3s1(x):
        t = x[0]
        sig = _spherical(x[1:])
        circ = (r1 / r2) * t
        return [r1 * c for c in sig] + [r2 * cos(circ), r2 * sin(circ)]

    def omega(x):
        return [np.log(r1) - x[0]]

    def flat_chart(x):
        e = exp(x[0])
        return [e * c for c in _spherical(x[1:])]

    items["s3xs1"] = CatalogItem(
        "s3xs1", SmoothMap(dom, 6, s3s1, "s3xs1"), amb_mod.euclidean(6),
        ConformalStructure(SmoothMap(dom, 1, omega, "omega_s3xs1"),
                           SmoothMap(dom, 4, flat_chart, "cone_coordinates")),
        {"conformally_flat": True, "k": 2, "multiplicities": (3, 1),
         "nullity": 0, "r1": r1, "r2": r2},
        "S^3(r1) x S^1(r2) in R^6, principal chart along the circle factor")

    # S^2(1) x pseudosphere patch in R^3 x R^3
    domp = ChartDomain(4, ((0.4, 2.7), (0.05, TWO_PI - 0.05), (0.6, 1.6),
                           (0.05, TWO_PI - 0.05)), (5, 5, 5, 5))

    def s2ps(x):
        a, b, u, v = x
        return [sin(a) * cos(b), sin(a) * sin(b), cos(a)] + _tractroid(u, v)

    item = CatalogItem(
        "s2xpseudosphere", SmoothMap(domp, 6, s2ps, "s2xpseudosphere"),
        amb_mod.euclidean(6), None,
        {"conformally_flat": True, "k": 3, "multiplicities": (2, 1, 1),
         "nullity": 0},
        "product of the unit sphere and a curvature -1 rotational patch")
    _check_tractroid_curvature(domp)
    items["s2xpseudosphere"] = item

    # negative control: S^2 x S^2 is not conformally flat
    domn = ChartDomain(4, ((0.4, 2.7), (0.05, TWO_PI - 0.05), (0.4, 2.7),
                           (0.05, TWO_PI - 0.05)), (5, 5, 5, 5))

    def s2s2(x):
        a, b, c, d = x
        return [sin(a) * cos(b), sin(a) * sin(b), cos(a),
                sin(c) * cos(d), sin(c) * sin(d), cos(c)]

    items["s2xs2_control"] = CatalogItem(
        "s2xs2_control", SmoothMap(domn, 6, s2s2, "s2xs2_control"),
        amb_mod.euclidean(6), None,
        {"conformally_flat": False, "k": 2, "multiplicities": (2, 2),
         "nullity": 0},
        "S^2 x S^2 negative control for the Weyl test")
    return items


def _check_tractroid_curvature(dom, tol=1e-9):
    d2 = ChartDomain(2, dom.box[2:], None)
    m = SmoothMap(d2, 3, lambda x: _tractroid(x[0], x[1]), "tractroid")
    u = np.linspace(d2.box[0][0] + 0.05, d2.box[0][1] - 0.05, 4)
    pts = np.stack([u, np.ones_like(u)], axis=1)
    pack = intrinsic_curvatures(fundamental_forms(m, amb_mod.euclidean(3), pts,
                                                  jet=evaluate_jet(m, pts, 2)))
    K = pack.riemann[:, 0, 1, 1, 0]
    bad = np.abs(K + 1.0) > tol
    if np.any(bad):
        raise ValueError(f"pseudosphere patch curvature {K[np.argmax(bad)]} != -1")


# ---------------------------------------------------------------------------
# generalized cylinders and cones
# ---------------------------------------------------------------------------

def build_generalized():
    items = {}

    # 1-generalized cylinder R x S^3(1) in R^5: base S^3 in R^4 x {0},
    # parallel flat rank-1 normal subbundle spanned by e_5
    dom = ChartDomain(4, ((-0.8, 0.8), (0.4, 2.7), (0.4, 2.7), (0.05, TWO_PI - 0.05)),
                      (5, 5, 5, 5))
    amb5 = amb_mod.euclidean(5)

    def cyl_r1s3(x):
        base = _spherical(x[1:]) + [0.0]
        ruling = [0.0, 0.0, 0.0, 0.0, x[0]]
        return space_form_exp(amb5, base, ruling)

    def omega_c(x):
        return [-x[0]]

    def flat_chart_c(x):
        e = exp(x[0])
        return [e * c for c in _spherical(x[1:])]

    items["cylinder_r1xs3"] = CatalogItem(
        "cylinder_r1xs3", SmoothMap(dom, 5, cyl_r1s3, "cylinder_r1xs3"), amb5,
        ConformalStructure(SmoothMap(dom, 1, omega_c, "omega_cyl"),
                           SmoothMap(dom, 4, flat_chart_c, "cone_coordinates")),
        {"conformally_flat": True, "k": 2, "multiplicities": (3, 1),
         "nullity": 1},
        "cylinder over S^3(1): nonconstant curvature, nullity index 1")

    # 3-generalized cylinder R^3 x S^1(1) in R^5: flat, nullity 3
    domf = ChartDomain(4, ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0),
                           (0.05, TWO_PI - 0.05)), (5, 5, 5, 5))

    def flat_cyl(x):
        base = [cos(x[3]), sin(x[3]), 0.0, 0.0, 0.0]
        ruling = [0.0, 0.0, x[0], x[1], x[2]]
        return space_form_exp(amb5, base, ruling)

    def omega_f(x):
        return [0.0 * x[0]]

    items["flat_cylinder"] = CatalogItem(
        "flat_cylinder", SmoothMap(domf, 5, flat_cyl, "flat_cylinder"), amb5,
        ConformalStructure(SmoothMap(domf, 1, omega_f, "omega_flat_cyl")),
        {"conformally_flat": True, "k": 2, "multiplicities": (3, 1),
         "nullity": 3, "constant_curvature": 0.0},
        "flat cylinder R^3 x S^1(1): constant-curvature nullity branch")

    # 1-generalized cone in R^6 over the torus S^1(a1) x S^1(a2) x S^1(a3)
    # inside S^5, rulings along the radial geodesics from the origin
    a = np.array([np.sqrt(0.5), np.sqrt(0.3), np.sqrt(0.2)])
    domc = ChartDomain(4, ((-0.4, 0.6),) + tuple((0.05, TWO_PI - 0.05) for _ in range(3)),
                       (5, 5, 5, 5))
    amb6 = amb_mod.euclidean(6)

    def cone_t3(x):
        s = x[0]
        g = [a[0] * cos(x[1]), a[0] * sin(x[1]),
             a[1] * cos(x[2]), a[1] * sin(x[2]),
             a[2] * cos(x[3]), a[2] * sin(x[3])]
        # exp_{g}(s g) along the position normal of S^5: (1+s) g
        return space_form_exp(amb6, g, [s * c for c in g])

    def omega_cone(x):
        return [log(1.0 + x[0])]

    def flat_chart_cone(x):
        return [log(1.0 + x[0]), a[0] * x[1], a[1] * x[2], a[2] * x[3]]

    items["cone_t3"] = CatalogItem(
        "cone_t3", SmoothMap(domc, 6, cone_t3, "cone_t3"), amb6,
        ConformalStructure(SmoothMap(domc, 1, omega_cone, "omega_cone"),
                           SmoothMap(domc, 4, flat_chart_cone, "cone_flat_chart")),
        {"conformally_flat": True, "k": 4, "multiplicities": (1, 1, 1, 1),
         "nullity": 1, "torus_radii": tuple(a)},
        "cone over a flat 3-torus in S^5: nullity along the rulings")
    return items


# ---------------------------------------------------------------------------
# spherical-curve normal-bundle construction
# ---------------------------------------------------------------------------

def _coefficients(fn, *xs):
    """fn, an array map over the axes after the first, applied to the Taylor
    coefficients (K, ...) of stacked jets of one order, or to arrays as one
    row of coefficients; returns a jet or an array like xs."""
    if not isinstance(xs[0], Jet):
        return fn(*(x[None] for x in xs))[0]
    return _jet(xs[0].n, xs[0].order, fn(*(x.c for x in xs)))


_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]


def _cross(a, b):
    """a x b along axis 1 of stacked (m, 3, ...) vectors, arrays or jets."""
    def turn(x, idx):
        return _coefficients(lambda y: y[:, :, idx], x)
    return turn(a, _NEXT) * turn(b, _AFTER) - turn(a, _AFTER) * turn(b, _NEXT)


def build_example2(curve1=None, curve2=None, r1=0.8, r2=0.6,
                   u_box=(-0.7, 0.7), v_box=(-0.7, 0.7), name="example2"):
    """Conformally flat submanifold of R^{n+2} built over the spherical
    surface h(u, v) = (gamma1(u), gamma2(v)), where the gamma_i are unit-speed
    curves on 2-spheres of radii r_i with r1^2 + r2^2 = 1.  The map is
    phi(w) = h + w with w ranging over the unit vectors normal to the surface
    in R^{n+2} that are orthogonal to the reflected position zeta = (g1, -g2).
    That fiber sphere, not the one tangent to S^{n+1}, is what makes the
    Weyl tensor vanish: with great circles the induced metric
    is (1 + (r2/r1) cos a)^2 du^2 + (1 + (r1/r2) cos a)^2 dv^2 + da^2
    + sin^2 a db^2, whose Weyl tensor vanishes identically, while the
    sphere-tangent fiber flips the second sign and leaves a Weyl residual of
    order 1.  Here n = 4 and the fiber is parametrized by two angles over
    a Darboux frame of the fiber space,

        (r2/r1 gamma1, r1/r2 gamma2), (gamma1 x gamma1' / r1, 0),
        (0, gamma2 x gamma2' / r2),

    which is orthonormal because |gamma_i| = r_i and |gamma_i x gamma_i'|
    = r_i, and parallel in the fiber space, so the chart is principal for
    any such curves.  It is turned by one constant rotation R0, which takes
    the Darboux frame at the chart center to the Gram-Schmidt frame of the
    span there (completed from the ambient axes with the largest
    residuals)."""
    if abs(r1 * r1 + r2 * r2 - 1.0) > 1e-10:
        raise CurveError("radii must satisfy r1^2 + r2^2 = 1")
    if curve1 is None:
        curve1 = SphericalCircle(r1, 0.9)
    if curve2 is None:
        curve2 = SphericalCircle(r2, 1.2)
    validate_unit_speed(curve1, u_box, radius=r1)
    validate_unit_speed(curve2, v_box, radius=r2)

    dom = ChartDomain(4, (u_box, v_box, (0.4, 2.7), (0.05, TWO_PI - 0.05)),
                      (5, 5, 5, 5))
    ratio = np.array([r2 / r1, r1 / r2])

    def curves(u, v):
        """gamma_i and gamma_i', stacked (2, 3, ...) each."""
        GT = stack([curve1.value(u), curve2.value(v),
                    curve1.deriv(u), curve2.deriv(v)])
        return (_coefficients(lambda y: y[:, :2], GT),
                _coefficients(lambda y: y[:, 2:], GT))

    # the Darboux frame and the span (zeta, h_u, h_v) at the chart center,
    # as (3 rows, 2 curves, 3) arrays
    c = dom.center()
    G0, T0 = curves(c[0], c[1])
    N0 = _cross(G0, T0)
    darboux0, span0 = np.zeros((2, 3, 2, 3))
    darboux0[0] = ratio[:, None] * G0
    darboux0[1, 0], darboux0[2, 1] = N0[0] / r1, N0[1] / r2
    span0[0] = G0 * [[1.0], [-1.0]]
    span0[1, 0], span0[2, 1] = T0[0], T0[1]
    darboux0, span0 = darboux0.reshape(3, 6), span0.reshape(3, 6)
    sig = np.ones(6)
    units, eps = orthonormalize(sig, span0)
    frame0, _, _ = complement_frame(sig, units, eps, 3)
    R0 = frame0 @ darboux0.T
    # the fiber point sum_a c_a (R0 D)_a is sum_b (R0^T c)_b D_b; `mix`
    # takes c to the coefficients of gamma_i and of gamma_i x gamma_i',
    # (2 kinds, 2 curves)
    mix = np.concatenate([ratio[:, None] * R0[:, 0], R0[:, 1:].T / [[r1], [r2]]])

    def mixed(y):
        """mix times the fiber coefficients y (K, 3, ...), term by term so
        that a point's coefficients do not depend on the batch around it;
        (K, 2 kinds, 2 curves, 1, ...)."""
        m = mix.reshape(mix.shape + (1,) * (y.ndim - 2))
        out = m[:, 0] * y[:, None, 0]
        for j in (1, 2):
            out += m[:, j] * y[:, None, j]
        return out.reshape(y.shape[:1] + (2, 2, 1) + y.shape[2:])

    def phi(x):
        u, v, p, q = x
        G, T = curves(u, v)
        sp = sin(p)
        coef = _coefficients(mixed, stack([cos(p), sp * cos(q), sp * sin(q)]))
        terms = _coefficients(lambda g, n: np.stack([g, n], axis=1),
                              G, _cross(G, T)) * coef
        out = G + _coefficients(lambda y: y[:, 0] + y[:, 1], terms)
        return unstack(_coefficients(
            lambda y: y.reshape(y.shape[:1] + (6,) + y.shape[3:]), out))

    return CatalogItem(
        name, SmoothMap(dom, 6, phi, name), amb_mod.euclidean(6), None,
        {"conformally_flat": True, "k": 3, "multiplicities": (2, 1, 1),
         "nullity": 0, "r1": r1, "r2": r2},
        "unit-normal-bundle submanifold over a product of spherical curves")


# ---------------------------------------------------------------------------
# full catalog
# ---------------------------------------------------------------------------

@cache
def default_catalog():
    """The catalog by name, built once per process (no caller mutates it)."""
    items = {}
    items.update(build_baselines())
    items.update(build_products())
    items.update(build_generalized())
    items["example2"] = build_example2()
    return items
