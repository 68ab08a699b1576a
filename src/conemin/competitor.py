"""Explicit sliding competitor for the plane section of a pyramid cone.

The vertical plane section {x1 = 0} of the cone {x3 >= max(a|x1|, b|x2|)}
can be beaten, near the apex, by sliding the part below height 1 to
{x1 = eps} and bridging back with the ruled graph x1 = eps*phi(x3) over
1 <= x3 <= 1+h.  The decay profile phi(t) = ((1+h)^alpha t^-alpha - 1) /
((1+h)^alpha - 1) makes the bridging cost a weighted Dirichlet energy with
a closed form; whenever that energy drops below a^2 the total area change
is negative for small eps.

area_deficit is the one integral of the bridge.  It integrates the
difference of area elements directly (never the two near-equal areas), so
the reported deficit is accurate at the 1e-12 scale even when it is itself
O(eps^2); the bridge area it reports is the trapezium plus that excess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

QUAD_ERR_CAP = 1e-8
MAX_H_DOUBLINGS = 60


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
    """Profile with energy below a², found with alpha = a² and doubling h.

    Terminates because the energy tends to alpha/2 = a²/2 < a².
    """
    if not a > 0:
        raise ValueError("a must be > 0")
    alpha = a * a
    h = 1.0
    for _ in range(MAX_H_DOUBLINGS):
        profile = ConnectionProfile(h=h, alpha=alpha)
        if weighted_energy(profile) < a * a:
            return profile
        h *= 2.0
    raise RuntimeError("no feasible h found in the doubling sequence")


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
    A0: float
    A_eps: float
    T_h_area: float
    ruled_area: float
    deficit: float
    second_derivative: float
    support_radius: float


def area_deficit(spec: CompetitorSpec) -> DeficitReport:
    """Total area change of the sliding competitor against the flat section.

    deficit = (A_eps + ruled_area) − (A0 + trapezium).  The bridge excess
    ruled_area − trapezium is integrated as (2t/b)·(sqrt(1+u)−1) with the
    stable form u/(1+sqrt(1+u)), u = eps²·phi'², so no cancellation occurs.
    """
    from scipy.integrate import quad

    a, b, eps = spec.a, spec.b, spec.epsilon
    h = spec.profile.h
    A0, A_eps = section_areas(a, b, eps)
    T = trapezium_area(b, h)
    eps2 = eps * eps

    def g(t):
        d = phi_prime(spec.profile, t)
        u = eps2 * d * d
        return (2.0 * t / b) * u / (1.0 + math.sqrt(1.0 + u))

    excess, err = quad(g, 1.0, 1.0 + h, epsabs=1e-13, epsrel=1e-12, limit=200)
    if err > QUAD_ERR_CAP:
        raise RuntimeError(
            f"deficit quadrature did not converge: abserr {err:.3e}")
    return DeficitReport(
        A0=A0,
        A_eps=A_eps,
        T_h_area=T,
        ruled_area=T + excess,
        deficit=excess - a * a * eps2 / b,
        second_derivative=(2.0 / b) * (weighted_energy(spec.profile) - a * a),
        support_radius=math.sqrt((1.0 + h) ** 2 * (1.0 + 1.0 / (b * b)) + eps2),
    )


def deficit_sweep(a: float, b: float, profile: ConnectionProfile,
                  grid: int):
    """(eps, area_deficit report) at eps = (1/(2a))·i/grid for i = 1..grid,
    generated lazily in increasing eps."""
    if int(grid) != grid or grid < 1:
        raise ValueError("grid must be a positive integer")
    grid = int(grid)
    cap = 0.5 / a
    for i in range(1, grid + 1):
        eps = cap * i / grid
        yield eps, area_deficit(CompetitorSpec(a=a, b=b, profile=profile,
                                               epsilon=eps))


def epsilon_star(sweep):
    """The last (eps, report) of a sweep, in increasing eps, before its first
    non-negative deficit; None when the first deficit is non-negative.
    Reads a lazy sweep no further than that first non-negative deficit."""
    star = None
    for eps, report in sweep:
        if report.deficit >= 0:
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

    heights = [z_lo + span1 * j / n1 for j in range(n1 + 1)]
    heights += [1.0 + h * j / n2 for j in range(1, n2 + 1)]
    heights[n1] = 1.0

    def x1_of(z):
        return eps if z <= 1.0 else eps * phi(spec.profile, z)

    ncol = resolution + 1
    verts = []
    rows = []
    apex_fan = z_lo == 0.0
    if apex_fan:
        verts.append((0.0, 0.0, 0.0))
        heights = heights[1:]
    for z in heights:
        half = z / b
        start = len(verts)
        x1 = x1_of(z)
        for i in range(ncol):
            verts.append((x1, -half + 2.0 * half * i / (ncol - 1), z))
        rows.append(start)

    tris = []
    if apex_fan:
        for i in range(ncol - 1):
            tris.append((0, rows[0] + i, rows[0] + i + 1))
    for r0, r1 in zip(rows, rows[1:]):
        for i in range(ncol - 1):
            tris.append((r0 + i, r1 + i, r1 + i + 1))
            tris.append((r0 + i, r1 + i + 1, r0 + i + 1))

    n = len(verts)
    return TriMesh(
        np.array(verts, dtype=float),
        np.array(tris, dtype=np.int64),
        np.full(n, VertexClass.INTERIOR, dtype=np.int64),
    )
