"""Ambient spaces: flat Euclidean / Lorentzian space and the constant
curvature space forms realized extrinsically (sphere in Euclidean space,
hyperboloid in Lorentzian space).

Signature convention: Lorentzian inner products are diag(-1, +1, ..., +1)
with the time axis at index 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

QUADRIC_TOL = 1e-10


@dataclass(frozen=True)
class AmbientSpace:
    kind: str              # euclidean | lorentz | sphere | hyperbolic
    manifold_dim: int      # dimension of the ambient manifold itself
    flat_dim: int          # dimension of the flat realization space
    signature: np.ndarray  # (flat_dim,) of +-1
    c: float = 0.0         # sectional curvature (0 for the flat kinds)

    def inner(self, u, v):
        u = np.asarray(u, float)
        v = np.asarray(v, float)
        return float(np.sum(self.signature * u * v))

    def metric(self):
        return np.diag(self.signature.astype(float))

    @property
    def is_space_form(self):
        return self.kind in ("sphere", "hyperbolic")

    @property
    def radius(self):
        if not self.is_space_form:
            raise ValueError("radius only defined for space forms")
        return 1.0 / np.sqrt(abs(self.c))

    def quadric_defect(self, point):
        """Distance of <p, p> from its model value (per point for a point
        set of shape (B, flat_dim)); 0 for flat kinds."""
        if not self.is_space_form:
            return 0.0
        point = np.asarray(point, float)
        target = 1.0 / self.c  # r^2 for sphere, -r^2 for hyperbolic
        return np.abs(np.sum(self.signature * point * point, axis=-1) - target)

    def position_normal(self, point):
        """Unit normal of the quadric at `point`, along the position vector."""
        if not self.is_space_form:
            raise ValueError("position normal only defined for space forms")
        return np.asarray(point, float) / self.radius


def euclidean(n: int) -> AmbientSpace:
    return AmbientSpace("euclidean", n, n, np.ones(n))


def lorentz(n: int) -> AmbientSpace:
    sig = np.ones(n)
    sig[0] = -1.0
    return AmbientSpace("lorentz", n, n, sig)


def sphere_form(n: int, c: float) -> AmbientSpace:
    """Q_c^n with c > 0, realized as the radius-1/sqrt(c) sphere in R^{n+1}."""
    if c <= 0:
        raise ValueError("sphere form needs c > 0")
    return AmbientSpace("sphere", n, n + 1, np.ones(n + 1), c)


def hyperbolic_form(n: int, c: float) -> AmbientSpace:
    """Q_c^n with c < 0, realized as the hyperboloid <p,p> = 1/c in L^{n+1}."""
    if c >= 0:
        raise ValueError("hyperbolic form needs c < 0")
    sig = np.ones(n + 1)
    sig[0] = -1.0
    return AmbientSpace("hyperbolic", n, n + 1, sig, c)
