"""Traveling-wave taxonomy: smooth, peaked, and cusped periodic profiles.

A traveling profile phi(x - c t) of the underlying equation satisfies, after
two integrations,

    (c - phi)^2 (phi'' - phi) = a,
    (phi')^2 - phi^2 - 2a/(c - phi) = b,

with integration constants a, b.  The phase-plane potential
W(phi) = -phi^2 - 2a/(c - phi) has critical points where

    phi (c - phi)^2 + a = 0,   phi != c,

and the sign of a sorts the families:

  a = 0   one critical point at phi = 0; the peaked family
          phi(x) = m_phi cosh(pi - |x|), c = m_phi cosh(pi), b = -m_phi^2.
          m_phi = csch(pi) recovers the kernel profile with c = coth(pi).
  a > 0   one critical point phi_0 < 0; cusped profiles, whose crest behaves
          like c - const * x^(2/3) with unbounded one-sided slopes.  They are
          classified here but never time-evolved: their initial-value problem
          lacks continuous dependence on the data.
  a < 0   three critical points phi_1 < phi_2 < c < phi_3 (for
          -a < 4 c^3/27); smooth periodic orbits live inside the homoclinic
          loop around phi_2.

Each critical point is found by bisection on a bracket that follows from f
itself, f(p) = p (c - p)^2 + a.  Since f'(p) = (c - p)(c - 3p), f(0) = f(c) = a
and f(c/3) = f(4c/3) = 4c^3/27 + a, the three roots for a < 0 below the fold
sit one each in [0, c/3], [c/3, c] and [c, 4c/3].  For a > 0 the root lies in
[-min(a/c^2, a^(1/3)), 0], because (c - p)^2 >= max(c^2, p^2) for p < 0.  The
bisection halves until the float midpoint equals an endpoint: no iteration cap
and no absolute tolerance, so a tiny root keeps its relative accuracy.
Parameters within a relative 1e-6 of the fold, and roots that round onto the
singular level p = c, are reported rather than silently misclassified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .kernel import m, phi, phi_prime


class ClassificationError(RuntimeError):
    """The parameters sit at or beyond the fold, a root rounds onto phi = c, or they overflow."""


@dataclass(frozen=True)
class WaveFamily:
    """Classification record for one (a, c) parameter pair."""

    a: float
    c: float
    critical_points: tuple
    family: str  # "peaked" | "cusped" | "smooth_candidate"


class PeakedProfile:
    """Member of the peaked scaling family: m_phi * cosh(pi - |x|) = (m_phi/m) phi."""

    def __init__(self, m_phi: float):
        self.m_phi = m_phi

    def __call__(self, x):
        return (self.m_phi / m) * phi(x)

    def derivative(self, x):
        """Piecewise derivative; jump midpoint (0) at the crest."""
        return (self.m_phi / m) * phi_prime(x)


def _bisect(f, lo: float, hi: float) -> float:
    """Sign change of f in [lo, hi], halved until the midpoint is an endpoint."""
    rising = f(lo) < 0.0 or f(hi) > 0.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if (f(mid) < 0.0) == rising:
            lo = mid
        else:
            hi = mid
    return mid


def classify(a: float, c: float) -> WaveFamily:
    """Sort (a, c) into the peaked / cusped / smooth-candidate trichotomy.

    Critical points are the real roots of phi (c - phi)^2 + a = 0 away from
    the singular level phi = c.  Raises :class:`ClassificationError` when -a
    is at or beyond the fold 4c^3/27, a root rounds onto phi = c, or the roots
    or the fold overflow a float; never misclassifies silently.  Non-finite
    input raises :class:`ValueError`.
    """
    if not (math.isfinite(a) and math.isfinite(c)):
        raise ValueError(f"a and c must be finite, got a={a}, c={c}")
    if c <= 0:
        raise ValueError("wave speed c must be positive")
    if a == 0.0:
        return WaveFamily(a=0.0, c=c, critical_points=(0.0,), family="peaked")

    f = lambda p: p * (c - p) ** 2 + a
    try:  # below the fold, the bisections of a < 0 stay within |f| <= fold
        if a > 0:
            root = _bisect(f, -min(a / c / c, a ** (1.0 / 3.0)), 0.0)
            return WaveFamily(a=a, c=c, critical_points=(root,), family="cusped")
        fold = 4.0 * c ** 3 / 27.0
    except OverflowError:
        raise ClassificationError(
            f"the fold or a critical point overflows a float for a={a}, c={c}") from None
    if abs(-a - fold) <= 1e-6 * fold:
        raise ClassificationError(
            f"degenerate double root: -a is at the fold 4c^3/27 for a={a}, c={c}")
    if -a > fold:
        raise ClassificationError(
            f"expected critical points phi1 < phi2 < c < phi3 for a={a}, c={c} "
            f"(requires -a < 4c^3/27 = {fold})")
    pts = (_bisect(f, 0.0, c / 3.0), _bisect(f, c / 3.0, c), _bisect(f, c, 4.0 * c / 3.0))
    if c in pts:
        raise ClassificationError(
            f"a critical point rounds onto the singular level phi = c for a={a}, c={c}")
    return WaveFamily(a=a, c=c, critical_points=pts, family="smooth_candidate")


def peaked_member(m_phi: float):
    """Explicit peaked family member: (profile, wave speed, orbit constant).

    The profile is m_phi cosh(pi - |x|) with crest m_phi cosh(pi); the wave
    speed equals the crest height and the first-order orbit constant is
    b = -m_phi^2.  m_phi = csch(pi) reproduces the kernel profile.
    """
    if m_phi <= 0:
        raise ValueError("m_phi must be positive")
    profile = PeakedProfile(m_phi)
    c = m_phi * math.cosh(math.pi)
    b = -m_phi * m_phi
    return profile, c, b


def first_order_residual(profile, a: float, b: float, c: float, x: float) -> float:
    """Residual of (phi')^2 - phi^2 - 2a/(c - phi) - b at one position.

    phi' is the profile's analytic ``derivative``.  Evaluation at the
    singular level phi = c is refused.
    """
    p = float(profile(x))
    if abs(c - p) < 1e-12 * max(1.0, abs(c)):
        raise ValueError("profile value hits the singular level phi = c")
    dp = float(profile.derivative(x))
    return abs(dp * dp - p * p - 2.0 * a / (c - p) - b)
