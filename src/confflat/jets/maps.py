"""Chart domains, smooth parametrized maps and their jets.

A SmoothMap wraps a pure evaluator written against confflat.jets.core;
evaluate_jet propagates jet scalars through it (exact derivatives), while
finite_difference_jet provides the independent central-difference oracle.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..errors import DomainError
from .core import Jet, _expansion, _jet, stack

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class ChartDomain:
    """Rectangular coordinate neighborhood with an optional uniform grid."""

    dim: int
    box: tuple  # ((lo, hi), ...) per axis
    grid_shape: tuple | None = None

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if len(self.box) != self.dim:
            raise ValueError("box must have one interval per axis")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError(f"degenerate interval ({lo}, {hi})")
        if self.grid_shape is not None:
            if len(self.grid_shape) != self.dim:
                raise ValueError("grid_shape must have one count per axis")
            if any(s < 3 for s in self.grid_shape):
                raise ValueError("grids used for discrete derivatives need >= 3 points per axis")

    def axes(self):
        if self.grid_shape is None:
            raise ValueError("domain carries no grid")
        return [np.linspace(lo, hi, s) for (lo, hi), s in zip(self.box, self.grid_shape)]

    def spacings(self):
        return np.array([(hi - lo) / (s - 1)
                         for (lo, hi), s in zip(self.box, self.grid_shape)])

    def grid_points(self):
        """All grid points, shape grid_shape + (dim,)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    def contains(self, point, margin=0.0):
        """Closed-box membership (up to rounding), shrunk by `margin`; one
        flag per point for a point set of shape (B, dim)."""
        point = np.asarray(point, float)
        box = np.asarray(self.box, float)
        lo, hi = box[:, 0], box[:, 1]
        slack = 1e-12 * (hi - lo)
        return np.all((lo + margin - slack <= point)
                      & (point <= hi - margin + slack), axis=-1)

    def center(self):
        return np.array([(lo + hi) / 2.0 for lo, hi in self.box])

    def sample_points(self, count, rng, margin_frac=0.1):
        """Deterministic interior samples, uniform in the shrunken box."""
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        m = margin_frac * (hi - lo)
        return rng.uniform(lo + m, hi - m, size=(count, self.dim))


@dataclass
class Jet3:
    """Value and partial derivatives to `order` of a map at a chart point,
    or at each point of a point set (then every field has a leading batch
    axis), in n chart variables.  Derivatives above `order` are None."""

    value: np.ndarray             # (..., N)
    d1: np.ndarray | None         # (..., n, N)
    d2: np.ndarray | None         # (..., n, n, N)
    d3: np.ndarray | None         # (..., n, n, n, N)
    order: int
    n: int

    @property
    def codim(self):
        return self.value.shape[-1]

    def at(self, m):
        """The jet at point m of a point set."""
        d1, d2, d3 = (None if d is None else d[m]
                      for d in (self.d1, self.d2, self.d3))
        return Jet3(self.value[m], d1, d2, d3, self.order, self.n)


@dataclass
class SmoothMap:
    """Parametrized map from a chart into R^codomain_dim, differentiable to
    order 3.  The evaluator takes a sequence of scalars (floats or jets) and
    returns a sequence of scalars."""

    domain: ChartDomain
    codomain_dim: int
    evaluator: object
    name: str = ""

    def value(self, point):
        out = self.evaluator(list(np.asarray(point, float)))
        return np.array([float(c) for c in out])

    def jet(self, point, order=3):
        return evaluate_jet(self, point, order)


def evaluate_jet(smooth_map: SmoothMap, points, order=3) -> Jet3:
    """Exact jets of the evaluator via truncated Taylor propagation, at one
    point (n,) or, in one batched pass, at a point set (B, n)."""
    points = np.asarray(points, float)
    return _jet3(_packed_jet(smooth_map, points, order), points)


def _packed_jet(smooth_map: SmoothMap, points, order) -> Jet:
    """The evaluator's outputs at a point (n,) or a point set (B, n) as one
    jet with the output axis first: coefficients (K, N, *batch), floats as
    constants.  The evaluator's own jets are released on return."""
    dom = smooth_map.domain
    n = dom.dim
    inside = dom.contains(points)
    if not np.all(inside):
        bad = points[np.argmin(inside)] if points.ndim > 1 else points
        raise DomainError(f"point {bad} outside chart box {dom.box}")
    coords = np.ascontiguousarray(points.T)
    xs = [Jet.variable(coords[i], i, n, order) for i in range(n)]
    out = list(smooth_map.evaluator(xs))
    # the first chart variable, stacked last, fixes the order and the batch
    del xs[1:]
    packed = stack(out + xs)
    return _jet(n, order, packed.c[:, :len(out)])


def _jet3(jet: Jet, points) -> Jet3:
    """Value and derivative tensors of a packed jet with the output axis
    first and a batch of at most one axis (the rows of `points`, or a
    single point); raises DomainError naming the first point whose jet is
    not finite."""
    n, order = jet.n, jet.order
    C = np.moveaxis(jet.c, (0, 1), (-2, -1))       # (*batch, K, N)
    batch = C.shape[:-2]
    value = np.ascontiguousarray(C[..., 0, :])
    derivs = [np.ascontiguousarray(C[..., 1:1 + n, :])][:order]
    for k in range(2, order + 1):
        rows, fac = _expansion(n, order, k)
        d = C[..., rows, :]
        d *= fac[..., None]
        derivs.append(d)
    finite = np.isfinite(value).all(axis=-1)
    for d in derivs:
        finite &= np.isfinite(d).reshape(batch + (-1,)).all(axis=-1)
    if not np.all(finite):
        bad = points[np.argmin(finite)] if batch else points
        raise DomainError(f"non-finite jet output at {bad}")
    derivs += [None] * (3 - order)
    return Jet3(value, *derivs, order, n)


def _repacked(jet: Jet3, order=2) -> Jet:
    """The packed jet (output axis first, then the batch) of a Jet3
    truncated to `order` (at most 2): the inverse of `_jet3`, bitwise,
    because the factorials it divides out again are 1 and 2."""
    order = min(order, jet.order)
    if order > 2:
        raise ValueError("repacking reads derivatives up to order 2 only")

    def last(x):
        return np.moveaxis(x, 0, -1) if jet.value.ndim == 2 else x

    tensors = (jet.value, jet.d1, jet.d2)[:order + 1]
    return Jet(jet.n, order, *(last(x) for x in tensors))


# second-order central stencils per derivative order, in units of h
_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def finite_difference_jet(smooth_map: SmoothMap, point, order=3, h=None) -> Jet3:
    """Central-difference oracle for evaluate_jet; error O(h^2) per order."""
    point = np.asarray(point, float)
    n = smooth_map.domain.dim
    if h is None:
        h = _EPS ** 0.25 * max(1.0, float(np.max(np.abs(point))))
    for (lo, hi), x in zip(smooth_map.domain.box, point):
        if x - 3 * h <= lo or x + 3 * h >= hi:
            raise DomainError(f"stencil of step {h} around {point} exits the chart box")

    cache = {}

    def f(offsets):
        key = tuple(offsets)
        if key not in cache:
            cache[key] = smooth_map.value(point + h * np.asarray(offsets, float))
        return cache[key]

    def deriv(counts):
        """Derivative for the per-axis multi-index `counts` (sum <= 3)."""
        axes = [i for i in range(n) if counts[i] > 0]
        total = np.zeros(smooth_map.codomain_dim)
        per_axis = [_STENCILS[counts[i]] for i in axes]
        for combo in itertools.product(*per_axis):
            offsets = [0] * n
            coeff = 1.0
            for ax, (off, c) in zip(axes, combo):
                offsets[ax] = off
                coeff *= c
            total = total + coeff * f(offsets)
        return total / h ** sum(counts)

    N = smooth_map.codomain_dim
    value = f([0] * n)
    d1 = np.zeros((n, N))
    d2 = np.zeros((n, n, N)) if order >= 2 else None
    d3 = np.zeros((n, n, n, N)) if order >= 3 else None
    if order >= 1:
        for i in range(n):
            c = [0] * n
            c[i] = 1
            d1[i] = deriv(c)
    if order >= 2:
        for i in range(n):
            for j in range(i, n):
                c = [0] * n
                c[i] += 1
                c[j] += 1
                val = deriv(c)
                d2[i, j] = d2[j, i] = val
    if order >= 3:
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    c = [0] * n
                    c[i] += 1
                    c[j] += 1
                    c[k] += 1
                    val = deriv(c)
                    for p, q, r in itertools.permutations((i, j, k)):
                        d3[p, q, r] = val
    return Jet3(value, d1, d2, d3, order, n)
