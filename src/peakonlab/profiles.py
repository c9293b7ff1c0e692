"""Initial perturbation profiles: trigonometric polynomial plus a peak-corner bump.

A profile is

    v0(s) = constant + sum_k a_k cos(k s) + sum_k b_k sin(k s) + beta psi(s),

with the parabola bump psi(s) = s (2*pi - s) / (2*pi) on [0, 2*pi], extended
periodically.  psi is continuous with psi'(0+) = 1 and psi'(2*pi-) = -1, so
beta != 0 puts a genuine corner at the peak: the one-sided slopes there
differ by 2*beta.  That corner is how initial data with a prescribed
most-negative right slope at the peak are built.

Closed forms used throughout (no quadrature in the oracle chain):
antiderivative of cos(ks) is sin(ks)/k, of sin(ks) is (1-cos(ks))/k, of psi
is s^2/2 - s^3/(6*pi); the circle mean of psi is pi/3, of the trig terms 0.
The tail integral int_s^{2*pi} v0 has the same forms in d = 2*pi - s.

Methods evaluate the (0, 2*pi) branch, so at s = 0 and s = 2*pi the slope is
the inward one-sided limit -- exactly what characteristic endpoints carry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernel import TWO_PI
from .quadrature import integrate_samples

#: circle mean of the unit bump psi
BUMP_MEAN = math.pi / 3.0

#: squared L2 norms of psi and psi' over one period (exact)
BUMP_L2_SQ = 4.0 * math.pi ** 3 / 15.0
BUMP_SLOPE_L2_SQ = 2.0 * math.pi / 3.0


@dataclass(frozen=True)
class InitialCondition:
    """Periodic, piecewise-C^1 perturbation profile with corner at the peak."""

    cosine_coeffs: tuple = ()
    sine_coeffs: tuple = ()
    bump_amplitude: float = 0.0
    constant: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "cosine_coeffs", tuple(float(a) for a in self.cosine_coeffs))
        object.__setattr__(self, "sine_coeffs", tuple(float(b) for b in self.sine_coeffs))

    # -- closed-form evaluators (s on [0, 2*pi]) ---------------------------

    def value(self, s):
        s = np.asarray(s, dtype=float)
        theta = np.where(s == TWO_PI, 0.0, s)  # exact trig at the 2*pi end
        out = np.full_like(s, self.constant, dtype=float)
        for k, a in enumerate(self.cosine_coeffs, start=1):
            out += a * np.cos(k * theta)
        for k, b in enumerate(self.sine_coeffs, start=1):
            out += b * np.sin(k * theta)
        if self.bump_amplitude:
            out += self.bump_amplitude * s * (TWO_PI - s) / TWO_PI
        return out if out.ndim else float(out)

    def slope(self, s):
        """Derivative on the (0, 2*pi) branch; one-sided at the ends."""
        s = np.asarray(s, dtype=float)
        theta = np.where(s == TWO_PI, 0.0, s)  # exact trig at the 2*pi end
        out = np.zeros_like(s, dtype=float)
        for k, a in enumerate(self.cosine_coeffs, start=1):
            out += -k * a * np.sin(k * theta)
        for k, b in enumerate(self.sine_coeffs, start=1):
            out += k * b * np.cos(k * theta)
        if self.bump_amplitude:
            out += self.bump_amplitude * (1.0 - s / math.pi)
        return out if out.ndim else float(out)

    def second_derivative(self, s):
        s = np.asarray(s, dtype=float)
        theta = np.where(s == TWO_PI, 0.0, s)  # exact trig at the 2*pi end
        out = np.zeros_like(s, dtype=float)
        for k, a in enumerate(self.cosine_coeffs, start=1):
            out += -k * k * a * np.cos(k * theta)
        for k, b in enumerate(self.sine_coeffs, start=1):
            out += -k * k * b * np.sin(k * theta)
        if self.bump_amplitude:
            out += -self.bump_amplitude / math.pi
        return out if out.ndim else float(out)

    def antiderivative(self, s):
        """w0(s) = int_0^s v0, in closed form, s on [0, 2*pi]."""
        s = np.asarray(s, dtype=float)
        out = self.constant * s
        for k, a in enumerate(self.cosine_coeffs, start=1):
            out = out + a * np.sin(k * s) / k
        for k, b in enumerate(self.sine_coeffs, start=1):
            out = out + b * (1.0 - np.cos(k * s)) / k
        if self.bump_amplitude:
            out = out + self.bump_amplitude * (s * s / 2.0 - s ** 3 / (6.0 * math.pi))
        return out if out.ndim else float(out)

    def tail_integral(self, s):
        """int_s^{2*pi} v0, in closed form in d = 2*pi - s, so it is exactly 0 at 2*pi.

        w0(s) = 2*pi*vbar - tail_integral(s); near s = 2*pi this form keeps the
        O(eps) remainder of sin(2*pi k) and 1 - cos(2*pi k) out of w0.
        """
        d = TWO_PI - np.asarray(s, dtype=float)
        out = self.constant * d
        for k, a in enumerate(self.cosine_coeffs, start=1):
            out = out + a * np.sin(k * d) / k
        for k, b in enumerate(self.sine_coeffs, start=1):
            out = out - 2.0 * b * np.sin(0.5 * k * d) ** 2 / k
        if self.bump_amplitude:  # psi is symmetric about pi
            out = out + self.bump_amplitude * (d * d / 2.0 - d ** 3 / (6.0 * math.pi))
        return out if out.ndim else float(out)

    # -- derived peak data --------------------------------------------------

    @property
    def v0_at_0(self) -> float:
        return self.constant + math.fsum(self.cosine_coeffs)

    @property
    def v0_slope_right(self) -> float:
        return float(self.slope(0.0))

    @property
    def v0_slope_left(self) -> float:
        return float(self.slope(TWO_PI))

    @property
    def vbar(self) -> float:
        """Circle mean, exact: trig terms drop, the bump contributes pi/3."""
        return self.constant + self.bump_amplitude * BUMP_MEAN

    def h1_norm(self, nodes: int = 4096) -> float:
        """Sobolev H^1 norm over one period, by corrected quadrature."""
        s = np.linspace(0.0, TWO_PI, nodes + 1)
        f = self.value(s) ** 2 + self.slope(s) ** 2
        return math.sqrt(integrate_samples(s, f))


def sine(amplitude: float = 1.0, k: int = 1) -> InitialCondition:
    coeffs = [0.0] * k
    coeffs[k - 1] = amplitude
    return InitialCondition(sine_coeffs=tuple(coeffs))


def cosine(amplitude: float = 1.0, k: int = 1) -> InitialCondition:
    coeffs = [0.0] * k
    coeffs[k - 1] = amplitude
    return InitialCondition(cosine_coeffs=tuple(coeffs))


def bump(amplitude: float) -> InitialCondition:
    return InitialCondition(bump_amplitude=amplitude)


def steepest_budget_bump(budget: float) -> InitialCondition:
    """Pure bump whose right slope at the peak is the most negative allowed.

    Given the size budget ||v0||_{H^1} + ||v0'||_inf < budget, the pure bump
    with beta = -budget / (||psi||_{H^1} + 1) saturates it: |psi'| <= 1 so
    the sup-norm of the slope is |beta|, attained (with negative sign) just
    right of the peak.
    """
    psi_h1 = math.sqrt(BUMP_L2_SQ + BUMP_SLOPE_L2_SQ)
    return bump(-budget / (psi_h1 + 1.0))
