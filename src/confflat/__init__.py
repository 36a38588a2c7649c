"""confflat: verification and construction tools for isometric immersions
whose normal bundle is flat and whose induced metric is conformal to a flat
chart metric.

The package computes exact jets of parametrized immersions (numpy kernels
batched over point sets), extracts extrinsic invariants, verifies the
structural properties such immersions must satisfy, lifts them to the light
cone of a Lorentzian space, and deforms the lifts through sphere-congruence
preserving transforms to produce families of new immersions with the same
conformal properties.
"""

from .ambient import (AmbientSpace, euclidean, hyperbolic_form, lorentz,
                      sphere_form)
from .jets import ChartDomain, Jet3, SmoothMap, evaluate_jet, finite_difference_jet
from .reports import Report, run_pipeline, run_scenario

__version__ = "0.1.0"

__all__ = [
    "AmbientSpace", "ChartDomain", "Jet3", "Report", "SmoothMap",
    "euclidean", "evaluate_jet", "finite_difference_jet", "hyperbolic_form",
    "lorentz", "run_pipeline", "run_scenario", "sphere_form", "__version__",
]
