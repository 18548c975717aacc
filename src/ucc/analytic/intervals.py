"""Outward-rounded interval arithmetic and a sound enclosure of f.

Arithmetic on :class:`Interval` nudges every computed endpoint one ulp
outward with ``math.nextafter``, so machine rounding can never shrink an
enclosure.  Library calls (log2, log1p) are not correctly rounded, so every
transcendental evaluation additionally widens by an absolute slack of
``TRANSCENDENTAL_SLACK`` = 4e-13, and so does the constant ``LOG2E``.  That
is about 40 times the largest error of g and G (about 1e-14) against a
50-digit reference on 5.7k points from just above 2^-54 to 1 - 2^-53, a
check kept in the tests, yet small against every margin we certify.

The enclosures are built from shape facts with elementary proofs, restated
here because the certifier's soundness rests on them:

*   g(x) = h(x)/x is strictly decreasing on (0, 1):
    g'(x) = log2(1-x)/x^2 < 0.
*   G(x) = log2(1-x)/x is strictly decreasing on (0, 1): its numerator in
    G'(x) = [-x/(1-x) - log(1-x)] / x^2 (natural log) expands to
    -sum_{k>=1} x^k (1 - 1/k) < 0.

So g and G on an interval are enclosed by their endpoint values.  The one
enclosure of f on a box X x Y is the mean-value form ``f_mean_value``:
f(c) +/- |df/dx|(X,Y) rx + |df/dy|(X,Y) ry around the center c, with f(c)
enclosed in the g form g(xy) / (g(x) + g(y)) and the gradient through
df/dx = (G(xy) (g(x)+g(y)) - g(xy) G(x)) / (x (g(x)+g(y))^2),
which follows from d/dx g(xy) = y g'(xy) = G(xy)/x and
d/dx g(x) = g'(x) = G(x)/x.  The gradient vanishes at (phi, phi), so this
form is sharpest exactly where f is closest to its minimum.
"""

from __future__ import annotations

import math

from .scalars import big_g_of, g_of

__all__ = [
    "TRANSCENDENTAL_SLACK",
    "Interval",
    "LOG2E",
    "g_enclosure",
    "big_g_enclosure",
    "f_point_enclosure",
    "f_gradient_enclosure",
    "f_mean_value",
]

TRANSCENDENTAL_SLACK = 4e-13

_INF = math.inf


def _dn(v: float) -> float:
    return math.nextafter(v, -_INF)


def _up(v: float) -> float:
    return math.nextafter(v, _INF)


class Interval:
    """Closed interval [lo, hi] with outward-rounded arithmetic.

    Treated as immutable: every operation returns a new one.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        if not lo <= hi:  # also false when either endpoint is NaN
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError("interval endpoints must not be NaN")
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    @classmethod
    def point(cls, v: float) -> "Interval":
        return cls(v, v)

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def mag(self) -> float:
        """Largest absolute value attained on the interval."""
        return max(abs(self.lo), abs(self.hi))

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(_dn(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(_dn(self.lo - other.hi), _up(self.hi - other.lo))

    def __mul__(self, other: "Interval") -> "Interval":
        p1 = self.lo * other.lo
        p2 = self.lo * other.hi
        p3 = self.hi * other.lo
        p4 = self.hi * other.hi
        return Interval(_dn(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4)))

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo > 0.0 or other.hi < 0.0:
            q1 = self.lo / other.lo
            q2 = self.lo / other.hi
            q3 = self.hi / other.lo
            q4 = self.hi / other.hi
            return Interval(_dn(min(q1, q2, q3, q4)), _up(max(q1, q2, q3, q4)))
        raise ZeroDivisionError("interval division by an interval containing 0")


#: log2 e = 1/ln 2, widened by the slack like a library log.
LOG2E = Interval(1.0 / math.log(2.0) - TRANSCENDENTAL_SLACK,
                 1.0 / math.log(2.0) + TRANSCENDENTAL_SLACK)


def g_enclosure(iv: Interval) -> Interval:
    """Range enclosure of g (strictly decreasing, positive) over ``iv``."""
    if not 0.0 < iv.lo <= iv.hi < 1.0:
        raise ValueError(f"g_enclosure needs iv within (0, 1), got {iv}")
    return Interval(max(0.0, g_of(iv.hi) - TRANSCENDENTAL_SLACK),
                    g_of(iv.lo) + TRANSCENDENTAL_SLACK)


def big_g_enclosure(iv: Interval) -> Interval:
    """Range enclosure of G (strictly decreasing, negative) over ``iv``."""
    if not 0.0 < iv.lo <= iv.hi < 1.0:
        raise ValueError(f"big_g_enclosure needs iv within (0, 1), got {iv}")
    return Interval(big_g_of(iv.hi) - TRANSCENDENTAL_SLACK,
                    big_g_of(iv.lo) + TRANSCENDENTAL_SLACK)


def f_point_enclosure(x: float, y: float) -> Interval:
    """Tight enclosure of f at one interior point (g form, outward)."""
    p = x * y
    pint = Interval(max(0.0, _dn(p)), _up(p))
    if not (0.0 < pint.lo and pint.hi < 1.0):
        raise ValueError("f_point_enclosure needs an interior point")
    num = g_enclosure(pint)
    den = g_enclosure(Interval.point(x)) + g_enclosure(Interval.point(y))
    return num / den


def f_gradient_enclosure(x: Interval, y: Interval) -> tuple[Interval, Interval] | None:
    """Enclosures of (df/dx, df/dy) on a box inside the open square."""
    # x*y for subintervals of [0, 1], clamped back to [0, 1]
    p = Interval(max(0.0, _dn(x.lo * y.lo)), min(1.0, _up(x.hi * y.hi)))
    if not (0.0 < p.lo and p.hi < 1.0 and x.lo > 0.0 and y.lo > 0.0):
        return None
    num = g_enclosure(p)
    den = g_enclosure(x) + g_enclosure(y)
    if den.lo <= 0.0:
        return None
    gp = big_g_enclosure(p)
    gx = big_g_enclosure(x)
    gy = big_g_enclosure(y)
    den2 = den * den
    dfx = (gp * den - num * gx) / (x * den2)
    dfy = (gp * den - num * gy) / (y * den2)
    return dfx, dfy


def f_mean_value(x: Interval, y: Interval) -> Interval | None:
    """Mean-value form enclosure of f around the box center."""
    grad = f_gradient_enclosure(x, y)
    if grad is None:
        return None
    dfx, dfy = grad
    cx, cy = x.mid, y.mid
    f0 = f_point_enclosure(cx, cy)
    rx = max(cx - x.lo, x.hi - cx)
    ry = max(cy - y.lo, y.hi - cy)
    spread = _up(_up(dfx.mag() * rx) + _up(dfy.mag() * ry))
    return Interval(_dn(f0.lo - spread), _up(f0.hi + spread))
