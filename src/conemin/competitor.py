"""Explicit sliding competitor for the plane section of a pyramid cone.

The vertical plane section {x1 = 0} of the cone {x3 >= max(a|x1|, b|x2|)}
can be beaten, near the apex, by sliding the part below height 1 to
{x1 = eps} and bridging back with the ruled graph x1 = eps*phi(x3) over
1 <= x3 <= 1+h.  The decay profile phi(t) = ((1+h)^alpha t^-alpha - 1) /
((1+h)^alpha - 1) makes the bridging cost a weighted Dirichlet energy with
a closed form; whenever that energy drops below a^2 the total area change
is negative for small eps.

The bridge excess (its area minus the flat trapezium) has no quadrature:
with u = eps^2 phi'(t)^2 = eps^2 K^2 t^(-2(alpha+1)), the binomial series
of sqrt(1+u) - 1 integrates term by term in closed form, and for u <= 1/2
its alternating partial sums bracket the excess.  Near t = 1, where u can
exceed 1/2, a fixed Gauss-Legendre rule in s = ln t takes the short piece.
One kernel evaluates a whole sweep of eps at once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

SERIES_TERMS = 60
GL_NODES = 40

# the binomial coefficients C(1/2, k) of the orders k = 1..SERIES_TERMS:
# C(1/2, 1) = 1/2 and C(1/2, k+1) = C(1/2, k)·(1/2 − k)/(k + 1)
_ORDERS = np.arange(1, SERIES_TERMS + 1)
_BINOM = np.cumprod(np.r_[0.5, (0.5 - _ORDERS[:-1]) / (_ORDERS[:-1] + 1.0)])


@dataclass(frozen=True)
class ConnectionProfile:
    """Decay profile parameters: bridge height h and exponent alpha."""
    h: float
    alpha: float

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("h must be > 0")
        if not self.alpha > 0:
            raise ValueError("alpha must be > 0")


def phi(profile: ConnectionProfile, t: float) -> float:
    """Profile value at one t in [1, 1+h]; phi(1) = 1 and phi(1+h) = 0."""
    if not 1.0 - 1e-12 <= t <= 1.0 + profile.h + 1e-12:
        raise ValueError("t must lie in [1, 1+h]")
    g = (1.0 + profile.h) ** profile.alpha
    return (g * float(np.power(t, -profile.alpha)) - 1.0) / (g - 1.0)


def phi_prime(profile: ConnectionProfile, t: float) -> float:
    """Derivative of phi at one t in [1, 1+h]; strictly negative there.
    The power is numpy's, whose last ulp can differ from libm's."""
    if not 1.0 - 1e-12 <= t <= 1.0 + profile.h + 1e-12:
        raise ValueError("t must lie in [1, 1+h]")
    alpha = profile.alpha
    g = (1.0 + profile.h) ** alpha
    return (-alpha * g) * float(np.power(t, -alpha - 1.0)) / (g - 1.0)


def weighted_energy(profile: ConnectionProfile) -> float:
    """Closed form of ∫₁^{1+h} t·phi'(t)² dt.

    Equals (alpha/2)·((1+h)^alpha + 1)/((1+h)^alpha − 1); decreases to
    alpha/2 as h grows.
    """
    g = (1.0 + profile.h) ** profile.alpha
    return 0.5 * profile.alpha * (g + 1.0) / (g - 1.0)


def feasible_params(a: float) -> ConnectionProfile:
    """The default profile of a: alpha = a² and h = 5^(1/alpha) − 1, so
    that (1+h)^alpha = 5 and the energy is (alpha/2)·6/4 = ¾·a² for every
    a; at a = 1 it is h = 4, alpha = 1 exactly.

    The domain is a > 0 with (1+h)^4 = 5^(4/a²) finite, a ≳ 0.0952: the
    competitor mesh's squared cross products grow like h^4, so a smaller a
    raises a ValueError rather than export an infinite area.
    """
    if not a > 0:
        raise ValueError("a must be > 0")
    alpha = a * a
    if not 4.0 * math.log(5.0) / alpha < math.log(np.finfo(float).max):
        raise ValueError(f"a = {a} is too small for the default profile: "
                         "(1+h)^4 = 5^(4/a^2) overflows")
    return ConnectionProfile(h=5.0 ** (1.0 / alpha) - 1.0, alpha=alpha)


def section_areas(a: float, b: float, epsilon: float):
    """(A0, A_eps): plane-section areas below height 1, before and after
    sliding the section to {x1 = epsilon}."""
    if not a > 0:
        raise ValueError("a must be > 0")
    if not b > 0:
        raise ValueError("b must be > 0")
    if not 0 <= epsilon < 1.0 / a:
        raise ValueError("epsilon must lie in [0, 1/a): the slid section degenerates")
    A0 = 1.0 / b
    return A0, A0 - a * a * epsilon * epsilon / b


def trapezium_area(b: float, h: float) -> float:
    """Area of the bridging region {1 <= x3 <= 1+h, |x2| <= x3/b}."""
    if not b > 0:
        raise ValueError("b must be > 0")
    if not h > 0:
        raise ValueError("h must be > 0")
    return h * (2.0 + h) / b


@dataclass(frozen=True)
class CompetitorSpec:
    a: float
    b: float
    profile: ConnectionProfile
    epsilon: float = 0.0

    def __post_init__(self):
        if not self.a > 0:
            raise ValueError("a must be > 0")
        if not self.b > 0:
            raise ValueError("b must be > 0")
        if not isinstance(self.profile, ConnectionProfile):
            raise TypeError("profile must be a ConnectionProfile")
        if not 0 <= self.epsilon < 1.0 / self.a:
            raise ValueError("epsilon must lie in [0, 1/a)")


@dataclass(frozen=True)
class DeficitReport:
    """Areas of the competitor at one eps.  bridge_excess, ruled_area −
    T_h_area, is the last partial sum of the bridge series, kept apart
    because at a large h it lies below an ulp of both areas; deficit comes
    from it, and deficit_lower and deficit_upper come from the last two
    partial sums, which bracket the true deficit."""
    A0: float
    A_eps: float
    T_h_area: float
    ruled_area: float
    bridge_excess: float
    deficit: float
    deficit_lower: float
    deficit_upper: float
    second_derivative: float
    support_radius: float


@functools.cache
def _gauss_legendre():
    """GL_NODES Gauss-Legendre nodes and weights on [0, 1], built on first
    use so that numpy.polynomial loads only when a sweep needs it."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(GL_NODES)
    return 0.5 * (x + 1.0), 0.5 * w


def _bridge_excess(b: float, profile: ConnectionProfile, eps: np.ndarray):
    """The last two partial sums of the bridge excess
    ∫₁^{1+h} (2t/b)(sqrt(1+u) − 1) dt at each eps of an array, where
    u = eps²K²t^(−2(alpha+1)) = eps²·phi'(t)² and K = alpha·g/(g − 1),
    g = (1+h)^alpha.

    In s = ln t, u = u_max·e^(−p·s) with p = 2·alpha + 2 and
    u_max = (eps·K)².  On [s0, L], L = ln(1+h), u stays <= 1/2, and the
    k-th binomial term C(1/2, k)·u^k integrates to
    (2/b)·e^(2·s0)·C(1/2, k)·u0^k·expm1(q_k·(L − s0))/q_k, q_k = 2 − k·p,
    u0 = u(s0).  Those terms alternate and shrink, so the last two partial
    sums bracket this part.  [0, s0], where u > 1/2 (empty when
    u_max <= 1/2), goes to a fixed Gauss-Legendre rule in s.  That piece
    is ln(2·u_max)/p long and its integrand's branch points (u = −1) lie
    π/p off the real axis, so the rule stays at rounding level until u_max
    is astronomically large: 2.5e-15 relative against 40-digit quadrature
    up to u_max = 1e6.
    """
    alpha = profile.alpha
    L = math.log1p(profile.h)
    K = -alpha / math.expm1(-alpha * L)
    p = 2.0 * alpha + 2.0
    u_max = (eps * K) ** 2
    s0 = np.minimum(np.log(np.maximum(2.0 * u_max, 1.0)) / p, L)
    q = 2.0 - p * _ORDERS
    terms = (_BINOM * np.minimum(u_max, 0.5)[:, None] ** _ORDERS
             * np.expm1(np.outer(L - s0, q)) / q)
    scale = (2.0 / b) * np.exp(2.0 * s0)
    sums = np.cumsum(terms, axis=1)
    prev, last = scale * sums[:, -2], scale * sums[:, -1]
    if s0.any():
        x, w = _gauss_legendre()
        s = np.outer(s0, x)
        u = u_max[:, None] * np.exp(-p * s)
        f = np.exp(2.0 * s) * u / (1.0 + np.sqrt(1.0 + u))
        piece = (2.0 / b) * s0 * (f * w).sum(axis=1)
        prev, last = prev + piece, last + piece
    return prev, last


def _deficit_reports(a: float, b: float, profile: ConnectionProfile, eps):
    """One DeficitReport per eps of a sequence, from one _bridge_excess
    call: deficit = (A_eps + ruled_area) − (A0 + trapezium)."""
    eps = np.asarray(eps, dtype=float)
    h = profile.h
    T = trapezium_area(b, h)
    curvature = (2.0 / b) * (weighted_energy(profile) - a * a)
    prev, last = _bridge_excess(b, profile, eps)
    reports = []
    for e, prev_sum, last_sum in zip(eps.tolist(), prev.tolist(),
                                     last.tolist()):
        A0, A_eps = section_areas(a, b, e)
        eps2 = e * e
        slide = a * a * eps2 / b
        reports.append(DeficitReport(
            A0=A0,
            A_eps=A_eps,
            T_h_area=T,
            ruled_area=T + last_sum,
            bridge_excess=last_sum,
            deficit=last_sum - slide,
            deficit_lower=min(prev_sum, last_sum) - slide,
            deficit_upper=max(prev_sum, last_sum) - slide,
            second_derivative=curvature,
            support_radius=math.sqrt((1.0 + h) ** 2 * (1.0 + 1.0 / (b * b))
                                     + eps2),
        ))
    return reports


def area_deficit(spec: CompetitorSpec) -> DeficitReport:
    """Total area change of the sliding competitor against the flat section,
    deficit = (A_eps + ruled_area) − (A0 + trapezium), at spec.epsilon.

    The one-eps case of deficit_sweep's kernel: the bridge excess
    ruled_area − trapezium comes from the closed-form binomial series of
    the module docstring, never from the two near-equal areas, so the
    deficit is accurate even when it is itself O(eps²).
    """
    return _deficit_reports(spec.a, spec.b, spec.profile, [spec.epsilon])[0]


def deficit_sweep(a: float, b: float, profile: ConnectionProfile,
                  grid: int):
    """List of (eps, report) at eps = (1/(2a))·i/grid for i = 1..grid, in
    increasing eps; one kernel call evaluates every eps, and each report
    equals area_deficit at its eps."""
    if int(grid) != grid or grid < 1:
        raise ValueError("grid must be a positive integer")
    grid = int(grid)
    eps = 0.5 / a * np.arange(1, grid + 1) / grid
    return list(zip(eps.tolist(), _deficit_reports(a, b, profile, eps)))


def epsilon_star(sweep):
    """The last (eps, report) of a sweep, in increasing eps, before the
    first report whose bracket reaches 0 (deficit_upper >= 0), so every
    deficit up to it is certified negative; None when the first one does."""
    star = None
    for eps, report in sweep:
        if report.deficit_upper >= 0:
            break
        star = eps, report
    return star


def export_competitor_mesh(spec: CompetitorSpec, resolution: int):
    """Triangulated competitor surface, clipped to {x3 <= 1+h}.

    Rows of vertices are horizontal; one row lies exactly at the crease
    x3 = 1 where the slid section meets the ruled bridge, so the mesh area
    converges to A_eps + ruled_area at second order.
    """
    from .mesh import TriMesh, VertexClass

    if int(resolution) != resolution or resolution < 2:
        raise ValueError("resolution must be an integer >= 2")
    resolution = int(resolution)
    a, b, eps = spec.a, spec.b, spec.epsilon
    h = spec.profile.h
    z_lo = a * eps
    span1, span2 = 1.0 - z_lo, h
    n1 = round(resolution * span1 / (span1 + span2))
    n1 = max(1, min(resolution - 1, n1))
    n2 = resolution - n1

    heights = np.concatenate([z_lo + span1 * np.arange(n1 + 1) / n1,
                              1.0 + h * np.arange(1, n2 + 1) / n2])
    heights[n1] = 1.0
    if z_lo == 0.0:
        heights = heights[1:]
    x1 = np.array([eps if z <= 1.0 else eps * phi(spec.profile, z)
                   for z in heights.tolist()])
    half = heights / b

    # one row of ncol vertices per height, after the apex when a fan closes
    # the bottom row onto it
    ncol = resolution + 1
    grid = np.empty((len(heights), ncol, 3))
    grid[:, :, 0] = x1[:, None]
    grid[:, :, 1] = (-half[:, None]
                     + (2.0 * half)[:, None] * np.arange(ncol) / (ncol - 1))
    grid[:, :, 2] = heights[:, None]
    verts = grid.reshape(-1, 3)
    apex = int(z_lo == 0.0)
    if apex:
        verts = np.vstack([np.zeros((1, 3)), verts])

    i = np.arange(ncol - 1)
    r0 = apex + ncol * np.arange(len(heights) - 1)[:, None] + i
    r1 = r0 + ncol
    tris = np.stack([r0, r1, r1 + 1, r0, r1 + 1, r0 + 1],
                    axis=-1).reshape(-1, 3)
    if apex:
        tris = np.vstack([np.stack([np.zeros_like(i), 1 + i, 2 + i],
                                   axis=1), tris])

    return TriMesh(verts, tris,
                   np.full(len(verts), VertexClass.INTERIOR, dtype=np.int64))
