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

Roots are located by a sign-change scan over [-max(10c, a/(121c^2)), c) and
(c, 10c] followed by bisection: robust, deterministic, and degenerate
(double-root) parameter choices are reported rather than silently misclassified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import m, phi, phi_prime


class ClassificationError(RuntimeError):
    """Root finding failed or the parameters sit on a degenerate fold."""


@dataclass(frozen=True)
class WaveFamily:
    """Classification record for one (a, c) parameter pair."""

    a: float
    b: float | None
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
    flo = f(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, abs(lo), abs(hi)):
            break
    return 0.5 * (lo + hi)


def _scan_roots(f, lo: float, hi: float):
    xs = np.linspace(lo, hi, 4096)
    vals = np.array([f(x) for x in xs])
    roots = []
    for i in range(len(xs) - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif (vals[i] < 0) != (vals[i + 1] < 0):
            roots.append(_bisect(f, xs[i], xs[i + 1]))
    if vals[-1] == 0.0:
        roots.append(xs[-1])
    return roots


def classify(a: float, c: float) -> WaveFamily:
    """Sort (a, c) into the peaked / cusped / smooth-candidate trichotomy.

    Critical points are the real roots of phi (c - phi)^2 + a = 0 away from
    the singular level phi = c.  Raises :class:`ClassificationError` when the
    expected root count is not found (-a at or beyond the fold 4c^3/27);
    never misclassifies silently.
    """
    if c <= 0:
        raise ValueError("wave speed c must be positive")
    if a == 0.0:
        return WaveFamily(a=0.0, b=None, c=c, critical_points=(0.0,), family="peaked")

    f = lambda p: p * (c - p) ** 2 + a
    margin = 1e-9 * c
    # for a > 0 the root r < 0 has |r| (c + |r|)^2 = a, so |r| <= max(10c, a/(121c^2))
    below = _scan_roots(f, -max(10.0 * c, a / (121.0 * c * c)), c - margin)
    above = _scan_roots(f, c + margin, 10.0 * c)

    if a > 0:
        roots = [r for r in below if r < 0.0]
        if len(roots) != 1 or above:
            raise ClassificationError(
                f"expected one negative critical point for a={a}, c={c}; "
                f"found {len(roots)} below and {len(above)} above the singular level")
        return WaveFamily(a=a, b=None, c=c, critical_points=(roots[0],), family="cusped")

    fold = 4.0 * c ** 3 / 27.0
    if len(below) != 2 or len(above) != 1:
        if abs(-a - fold) <= 1e-6 * fold:
            raise ClassificationError(
                f"degenerate double root: -a is at the fold 4c^3/27 for a={a}, c={c}")
        raise ClassificationError(
            f"expected critical points phi1 < phi2 < c < phi3 for a={a}, c={c} "
            f"(requires -a < 4c^3/27 = {fold}); found {len(below)}+{len(above)}")
    pts = tuple(sorted(below + above))
    return WaveFamily(a=a, b=None, c=c, critical_points=pts, family="smooth_candidate")


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
