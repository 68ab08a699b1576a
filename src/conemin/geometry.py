"""Polyhedral cone primitives in R^3.

Cones are finite intersections of homogeneous half-spaces {x : n . x <= 0}
with unit normals and apex at the origin.  Points and directions are plain
numpy arrays of shape (3,).  The module provides the constructions needed by
the rest of the toolkit: wedges, rectangular pyramids
C = {x3 >= max(a|x1|, b|x2|)}, the one parser of the JSON cone spec, and the
open-hemisphere linear program behind the cone interior test and the
spherical polygon check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

UNIT_TOL = 1e-12          # |normal| must be 1 within this
DEDUP_TOL = 1e-10         # normals with dot > 1 - DEDUP_TOL are duplicates
RANK_TOL = 1e-9           # relative SVD threshold for the vertex test


def as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


def unit(x) -> np.ndarray:
    """Normalize to unit length; error on (near-)zero input."""
    v = as_vec3(x)
    n = float(np.linalg.norm(v))
    if n <= 1e-14:
        raise ValueError("cannot normalize a zero vector")
    return v / n


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space {x : normal . x <= offset} with a unit normal."""

    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        n = as_vec3(self.normal)
        if abs(float(np.linalg.norm(n)) - 1.0) > UNIT_TOL:
            raise ValueError("half-space normal must be unit length within 1e-12")
        object.__setattr__(self, "normal", n)
        object.__setattr__(self, "offset", float(self.offset))

    @classmethod
    def from_raw(cls, normal, offset: float = 0.0) -> "HalfSpace":
        """Build from an unnormalized normal, rescaling the offset to match."""
        n = as_vec3(normal)
        length = float(np.linalg.norm(n))
        if length <= 1e-14:
            raise ValueError("half-space normal must be nonzero")
        return cls(n / length, float(offset) / length)

    def signed_distance(self, p) -> float:
        return float(self.normal @ as_vec3(p)) - self.offset

    def contains(self, p, tol: float = 1e-12) -> bool:
        return self.signed_distance(p) <= tol


def open_hemisphere_slack(points: np.ndarray) -> float:
    """Best margin t of {v_i . n >= t, |n|_inf <= 1} over the rows v_i of
    points; positive iff they fit in an open hemisphere.  A cone
    {n_i . x <= 0} has nonempty interior iff the -n_i do."""
    m = points.shape[0]
    c = np.array([0.0, 0.0, 0.0, -1.0])
    a_ub = np.hstack([-points, np.ones((m, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m),
                  bounds=[(-1, 1)] * 3 + [(0, 1)], method="highs")
    if not res.success:
        return -1.0
    return float(res.x[3])


class PolyhedralCone:
    """Intersection of one or more homogeneous half-spaces, apex at the
    origin.

    Half-spaces may be given as HalfSpace objects or as raw normals of any
    nonzero length.  Near-duplicate half-spaces (normal dot product within
    1e-10 of 1) are dropped at construction.  Errors about one half-space
    name its index in the input.
    """

    def __init__(self, halfspaces):
        kept: list[HalfSpace] = []
        for i, h in enumerate(halfspaces):
            try:
                h = h if isinstance(h, HalfSpace) else HalfSpace(unit(h))
            except ValueError as exc:
                raise ValueError(f"halfspace {i}: {exc}") from exc
            if abs(h.offset) > UNIT_TOL:
                raise ValueError(f"halfspace {i}: cone half-spaces must pass "
                                 "through the origin")
            if all(float(h.normal @ k.normal) < 1.0 - DEDUP_TOL for k in kept):
                kept.append(HalfSpace(h.normal, 0.0))
        if not kept:
            raise ValueError("a cone needs at least one half-space")
        self.halfspaces: tuple[HalfSpace, ...] = tuple(kept)
        if open_hemisphere_slack(-self.normals) <= 1e-9:
            raise ValueError("cone has empty interior")

    @property
    def normals(self) -> np.ndarray:
        return np.array([h.normal for h in self.halfspaces])

    def __repr__(self):
        return f"PolyhedralCone({len(self.halfspaces)} half-spaces)"


def contains(cone: PolyhedralCone, p, tol: float = 1e-12) -> bool:
    """Membership predicate; pure, never raises on geometric input."""
    return bool(np.all(cone.normals @ as_vec3(p) <= tol))


def is_vertex(cone: PolyhedralCone, tol: float = RANK_TOL) -> bool:
    """True iff the cone's normal matrix has full rank 3 (SVD, relative
    threshold), i.e. the apex is a genuine corner."""
    s = np.linalg.svd(cone.normals, compute_uv=False)
    return int(np.sum(s > tol * s[0])) == 3


@dataclass(frozen=True)
class Wedge:
    """Intersection of two half-spaces whose boundary planes meet along a
    line (the spine); basepoint lies on the spine."""

    h1: HalfSpace
    h2: HalfSpace
    basepoint: np.ndarray = (0.0, 0.0, 0.0)

    def __post_init__(self):
        p = as_vec3(self.basepoint)
        object.__setattr__(self, "basepoint", p)
        if float(np.linalg.norm(np.cross(self.h1.normal, self.h2.normal))) <= 1e-9:
            raise ValueError("wedge faces are parallel: no spine")
        for h in (self.h1, self.h2):
            if abs(h.signed_distance(p)) > 1e-9:
                raise ValueError("basepoint must lie on both wedge faces")

    def to_cone(self) -> PolyhedralCone:
        if float(np.linalg.norm(self.basepoint)) > UNIT_TOL:
            raise ValueError("only wedges based at the origin form cones here")
        return PolyhedralCone([self.h1, self.h2])


def wedge_above(slope: float, axis: int, basepoint=(0.0, 0.0, 0.0)) -> Wedge:
    """The wedge {x3 >= slope * |x_axis|} for axis in {0, 1}."""
    if slope <= 1e-12:
        raise ValueError("wedge slope must be > 0")
    e = np.zeros(3)
    e[axis] = 1.0
    e3 = np.array([0.0, 0.0, 1.0])
    h1 = HalfSpace.from_raw(slope * e - e3, 0.0)
    h2 = HalfSpace.from_raw(-slope * e - e3, 0.0)
    return Wedge(h1, h2, basepoint)


@dataclass(frozen=True)
class Pyramid:
    """Rectangular pyramid cone {x : x3 >= max(a|x1|, b|x2|)}."""

    a: float
    b: float

    def __post_init__(self):
        if self.a <= 1e-12 or self.b <= 1e-12:
            raise ValueError("pyramid slopes a, b must be > 0")

    def to_cone(self) -> PolyhedralCone:
        return pyramid_to_cone(self.a, self.b)


def pyramid_to_cone(a: float, b: float) -> PolyhedralCone:
    """Half-space form of the pyramid: normals, in order,
    (+a,0,-1), (-a,0,-1), (0,+b,-1), (0,-b,-1), each normalized."""
    p = Pyramid(a, b)
    return PolyhedralCone([
        HalfSpace.from_raw([p.a, 0.0, -1.0]),
        HalfSpace.from_raw([-p.a, 0.0, -1.0]),
        HalfSpace.from_raw([0.0, p.b, -1.0]),
        HalfSpace.from_raw([0.0, -p.b, -1.0]),
    ])


def as_number(x, name: str) -> float:
    """x as a float; ValueError naming the field unless x is a finite real
    number (JSON true/false are not numbers here)."""
    if (isinstance(x, bool) or not isinstance(x, (int, float))
            or not math.isfinite(x)):
        raise ValueError(f"field '{name}' must be a finite number")
    return float(x)


def cone_from_dict(spec) -> PolyhedralCone:
    """The one parser of a JSON cone spec: exactly one of
    {"pyramid": {"a": a, "b": b}} with slopes > 0, or
    {"halfspaces": [[nx, ny, nz], ...]} with outward normals of any nonzero
    length.  Raises ValueError naming the field or half-space at fault."""
    if not isinstance(spec, dict) or ("pyramid" in spec) == ("halfspaces" in spec):
        raise ValueError("field 'cone' must hold exactly one cone spec, "
                         "'pyramid' or 'halfspaces'")
    extra = set(spec) - {"pyramid", "halfspaces"}
    if extra:
        raise ValueError(f"unknown field '{sorted(extra)[0]}' in cone spec")
    if "pyramid" in spec:
        pyr = spec["pyramid"]
        if not isinstance(pyr, dict) or set(pyr) != {"a", "b"}:
            raise ValueError("field 'pyramid' must be an object with fields a, b")
        for key in ("a", "b"):
            if not as_number(pyr[key], key) > 0:
                raise ValueError(f"field '{key}' must be > 0")
        return pyramid_to_cone(float(pyr["a"]), float(pyr["b"]))
    hs = spec["halfspaces"]
    if (not isinstance(hs, list) or not hs
            or any(not isinstance(v, list) or len(v) != 3 for v in hs)):
        raise ValueError("field 'halfspaces' must be a nonempty list of 3-vectors")
    normals = [[as_number(x, f"halfspaces[{i}]") for x in v]
               for i, v in enumerate(hs)]
    try:
        return PolyhedralCone(normals)
    except ValueError as exc:
        raise ValueError(f"bad halfspaces: {exc}") from exc
