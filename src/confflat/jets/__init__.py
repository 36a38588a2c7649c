from .core import (Jet, constant, cos, cosh, dot, exp, log, norm_sq, sin,
                   sinh, sqrt, stack, unstack, variable)
from .maps import ChartDomain, Jet3, SmoothMap, evaluate_jet, finite_difference_jet

# the one jet implementation: numpy kernels batched over points
BACKEND = "python"

__all__ = [
    "BACKEND",
    "Jet",
    "constant",
    "stack",
    "unstack",
    "variable",
    "sin",
    "cos",
    "exp",
    "log",
    "sqrt",
    "sinh",
    "cosh",
    "dot",
    "norm_sq",
    "ChartDomain",
    "Jet3",
    "SmoothMap",
    "evaluate_jet",
    "finite_difference_jet",
]
