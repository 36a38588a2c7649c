"""Order-3 truncated Taylor (jet) scalars and the math functions that
operate on them.

Evaluators of smooth maps are written against the functions in this module
(sin, cos, exp, ...), which accept plain floats and Jet instances alike, so
a single evaluator yields both values and exact derivatives.

A jet may stand for one point or for a batch of points.  Its components
carry the batch shape last: v (...), g (n, ...), h (n, n, ...) and
t (n, n, n, ...), so one kernel serves both; a single point is the empty
batch, with v a float.  Batched order-3 Taylor propagation follows Griewank
and Walther, *Evaluating Derivatives* (2nd ed., 2008), ch. 13.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "Jet",
    "variable",
    "constant",
    "apply_univariate",
    "sin",
    "cos",
    "exp",
    "log",
    "sqrt",
    "sinh",
    "cosh",
    "dot",
    "norm_sq",
]


def _scalar(x):
    """A float, or a batch of values as an array."""
    return x if isinstance(x, np.ndarray) else float(x)


def _times(x, s):
    return None if x is None else x * s


def _jet(n, order, v, g, h, t):
    """Jet from components already in shape, without checks."""
    j = object.__new__(Jet)
    j.n, j.order, j.v, j.g, j.h, j.t = n, order, v, g, h, t
    return j


class Jet:
    """Scalar, or batch of scalars, together with its partial derivatives up
    to `order` in n chart variables.  Components above `order` are None."""

    __slots__ = ("n", "order", "v", "g", "h", "t")
    # ndarray (op) Jet defers to the Jet's reflected method instead of
    # building an object array
    __array_ufunc__ = None

    def __init__(self, n, order, v, g=None, h=None, t=None):
        if isinstance(v, np.ndarray) and v.ndim:
            batch = v.shape
        else:
            v, batch = float(v), ()
        comps = [g, h, t]
        for k in range(3):
            if k >= order:
                comps[k] = None
            elif comps[k] is None:
                comps[k] = np.zeros((n,) * (k + 1) + batch)
        self.n, self.order, self.v = n, order, v
        self.g, self.h, self.t = comps

    # -- construction ---------------------------------------------------

    @staticmethod
    def variable(value, index, n, order=3):
        """The chart coordinate `index` at `value` (a float, or an array of
        values for a batch of points)."""
        g = None
        if order >= 1:
            g = np.zeros((n,) + np.shape(value))
            g[index] = 1.0
        return Jet(n, order, value, g)

    @staticmethod
    def constant(value, n, order=3):
        return Jet(n, order, value)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Jet):
            return _jet(self.n, self.order, self.v + _scalar(other),
                        self.g, self.h, self.t)
        order = min(self.order, other.order)
        return _jet(self.n, order, self.v + other.v,
                    self.g + other.g if order >= 1 else None,
                    self.h + other.h if order >= 2 else None,
                    self.t + other.t if order >= 3 else None)

    __radd__ = __add__

    def __neg__(self):
        return _jet(self.n, self.order, -self.v, _times(self.g, -1.0),
                    _times(self.h, -1.0), _times(self.t, -1.0))

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, Jet) else -_scalar(other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return _mul(self, other)
        s = _scalar(other)
        return _jet(self.n, self.order, self.v * s, _times(self.g, s),
                    _times(self.h, s), _times(self.t, s))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        return self * (1.0 / _scalar(other))

    def __rtruediv__(self, other):
        return self._reciprocal() * other

    def __pow__(self, p):
        p = float(p)
        u = self.v
        return self._compose(u ** p, p * u ** (p - 1.0),
                             p * (p - 1.0) * u ** (p - 2.0),
                             p * (p - 1.0) * (p - 2.0) * u ** (p - 3.0))

    def _compose(self, c0, c1, c2, c3):
        """Univariate chain rule: jet of f(self) from the Taylor
        coefficients c_k = f^(k)(self.v)."""
        order, g, h = self.order, self.g, self.h
        rg = rh = rt = None
        if order >= 1:
            rg = c1 * g
        if order >= 2:
            gg = g[:, None] * g[None, :]
            rh = c1 * h + c2 * gg
        if order >= 3:
            rt = c1 * self.t
            rt = rt + c2 * (g[:, None, None] * h[None, :, :]
                            + g[None, :, None] * h[:, None, :]
                            + g[None, None, :] * h[:, :, None])
            rt = rt + c3 * (gg[:, :, None] * g[None, None, :])
        return _jet(self.n, order, _scalar(c0), rg, rh, rt)

    def _reciprocal(self):
        u = self.v
        return self._compose(1.0 / u, -1.0 / u ** 2, 2.0 / u ** 3, -6.0 / u ** 4)

    def __float__(self):
        return self.v

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet(order={self.order}, v={self.v}, g={self.g})"


def _mul(a, b):
    """Product rule to the lower of the two orders."""
    order = min(a.order, b.order)
    v1, g1, h1 = a.v, a.g, a.h
    v2, g2, h2 = b.v, b.g, b.h
    g = h = t = None
    if order >= 1:
        g = g1 * v2 + v1 * g2
    if order >= 2:
        h = h1 * v2 + v1 * h2 + g1[:, None] * g2[None, :] + g2[:, None] * g1[None, :]
    if order >= 3:
        t = a.t * v2 + v1 * b.t
        t = t + h1[:, :, None] * g2[None, None, :]
        t = t + h1[:, None, :] * g2[None, :, None]
        t = t + h1[None, :, :] * g2[:, None, None]
        t = t + h2[:, :, None] * g1[None, None, :]
        t = t + h2[:, None, :] * g1[None, :, None]
        t = t + h2[None, :, :] * g1[:, None, None]
    return _jet(a.n, order, v1 * v2, g, h, t)


variable = Jet.variable
constant = Jet.constant


def apply_univariate(x, c0, c1, c2, c3):
    """Compose a jet (or float) with a univariate function given by its
    value and first three derivatives at x's value."""
    if isinstance(x, Jet):
        return x._compose(c0, c1, c2, c3)
    return c0


def sin(x):
    if not isinstance(x, Jet):
        return np.sin(x)
    s, c = np.sin(x.v), np.cos(x.v)
    return x._compose(s, c, -s, -c)


def cos(x):
    if not isinstance(x, Jet):
        return np.cos(x)
    s, c = np.sin(x.v), np.cos(x.v)
    return x._compose(c, -s, -c, s)


def exp(x):
    if not isinstance(x, Jet):
        return np.exp(x)
    e = np.exp(x.v)
    return x._compose(e, e, e, e)


def log(x):
    if not isinstance(x, Jet):
        return np.log(x)
    u = x.v
    return x._compose(np.log(u), 1.0 / u, -1.0 / u ** 2, 2.0 / u ** 3)


def sqrt(x):
    if not isinstance(x, Jet):
        return np.sqrt(x)
    u = x.v
    s = np.sqrt(u)
    return x._compose(s, 0.5 / s, -0.25 / (s * u), 0.375 / (s * u * u))


def sinh(x):
    if not isinstance(x, Jet):
        return np.sinh(x)
    s, c = np.sinh(x.v), np.cosh(x.v)
    return x._compose(s, c, s, c)


def cosh(x):
    if not isinstance(x, Jet):
        return np.cosh(x)
    s, c = np.sinh(x.v), np.cosh(x.v)
    return x._compose(c, s, c, s)


def dot(xs, ys):
    """Euclidean inner product of two sequences of scalars or jets."""
    acc = xs[0] * ys[0]
    for a, b in zip(xs[1:], ys[1:]):
        acc = acc + a * b
    return acc


def norm_sq(xs):
    return dot(xs, xs)
