"""Polyhedral cone primitives in R^3.

A cone {x : n_i . x <= 0 for all i}, apex at the origin, is its array of
outward unit normals n_i.  Points and directions are plain numpy arrays of
shape (3,).  The module provides the constructions needed by the rest of
the toolkit: wedges, rectangular pyramids C = {x3 >= max(a|x1|, b|x2|)},
the one parser of the JSON cone spec, the exact open-hemisphere margin,
computed in closed form without a solver, behind the cone interior test and
the spherical polygon check, the nearest point of the cone's boundary and
its face behind every constraint projection, and the row-wise dot, norm,
cross-product and normalizing kernels that the mesh and spherical code run
on arrays of 3-vectors, with _split, which runs an elementwise kernel of a
large mesh on two cores.  A check over a batch of rows raises RowError for
the lowest row that fails it.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import os
import queue
import threading

import numpy as np

DEDUP_TOL = 1e-10         # normals with dot > 1 - DEDUP_TOL are duplicates
RANK_TOL = 1e-9           # relative SVD threshold for the vertex test
HEMISPHERE_TOL = 1e-9     # points fit in an open hemisphere iff slack > this
HEMISPHERE_BLOCK = 1 << 16  # dot products per block of the hemisphere test
CONTAIN_TOL = 1e-9        # x lies in the cone iff every n_i . x <= this
# triangles from which _split runs a kernel on two cores.  On a 2-core
# x86-64 VM one _geometry_into and _area_gradient took, split over inline,
# 2.0-3.0 times as long at 4,096-10,000 triangles, 1.03-1.09 at 25,600,
# 0.81-0.96 at 32,761, 0.80-0.93 at 36,100 and 0.59-0.61 at 65,536: each
# split costs about 0.3 ms in thread hand-offs
SPLIT_TRIANGLES = 36000


def as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


def as_points(x) -> np.ndarray:
    """x as a float 3-vector or a (k, 3) array of rows."""
    v = np.asarray(x, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != 3:
        raise ValueError(
            f"expected a 3-vector or (k, 3) rows, got shape {v.shape}")
    return v


class RowError(ValueError):
    """A failed check of a batch of rows: the message, and the index of the
    lowest row that fails it."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


def check_rows(bad: np.ndarray, message: str) -> None:
    """Raise RowError(message) for the lowest-indexed row that the boolean
    mask bad marks, if any."""
    if bad.any():
        raise RowError(message, int(np.argmax(bad)))


def unit(x) -> np.ndarray:
    """Normalize a 3-vector, or each row of a (k, 3) array, to unit length;
    error on a (near-)zero one.  The norm is row_norms'."""
    v = as_points(x)
    n = row_norms(v)
    check_rows(n <= 1e-14, "cannot normalize a zero vector")
    return v / n[..., None]


def row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of two arrays of 3-vectors, in
    coordinate order."""
    return _dots_into(x, y, None)


def _dots_into(x: np.ndarray, y: np.ndarray, out, scratch=None) -> np.ndarray:
    """row_dots(x, y) written into out (a new array if None); a given
    scratch, shaped like out, takes the products after the first, so
    nothing is allocated.  Returns out."""
    out = np.multiply(x[..., 0], y[..., 0], out=out)
    out += np.multiply(x[..., 1], y[..., 1], out=scratch)
    out += np.multiply(x[..., 2], y[..., 2], out=scratch)
    return out


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norms over the last axis of an array of 3-vectors, bit for
    bit those of np.linalg.norm(x, axis=-1) (the same sum order), at a third
    of its cost."""
    return np.sqrt(row_dots(x, x))


def row_cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """u x w over the last axis, u broadcast to the shape of w; bit for bit
    numpy's cross (the same products and differences), but faster.  Laid
    out like w: C-contiguous rows for rows, coordinate planes for views of
    planes."""
    return _cross_into(u, w, np.empty_like(w))


def _cross_into(u: np.ndarray, w: np.ndarray, out: np.ndarray,
                scratch=None) -> np.ndarray:
    """row_cross(u, w) written into out, an array of w's shape; a given
    scratch, shaped like one coordinate of out, takes the products that
    are subtracted.  Returns out."""
    for k, i, j in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        np.multiply(u[..., i], w[..., j], out=out[..., k])
        out[..., k] -= np.multiply(u[..., j], w[..., i], out=scratch)
    return out


def _thread_count() -> int:
    """Threads that _split runs a kernel of SPLIT_TRIANGLES or more
    triangles on: 2 when this process may run on more than one CPU, else 1."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return 2 if cpus > 1 else 1


def _serve(jobs: queue.SimpleQueue) -> None:
    """The worker thread: run each job's half in its caller's context, then
    put None, or the exception that the half raised, on the job's done."""
    while True:
        context, fn, lo, hi, done = jobs.get()
        try:
            context.run(fn, lo, hi)
            done.put(None)
        except BaseException as exc:  # handed to the caller, which raises it
            done.put(exc)
        # the job holds its kernel's arrays: hold none while waiting
        del context, fn, done


_worker = None  # (thread, jobs), started by the first split
_starting = threading.Lock()  # one caller at a time checks and starts it


def _split(fn, m: int) -> None:
    """Run fn(lo, hi), a kernel body that writes the rows [lo, hi) of its
    outputs, over the triangle range [0, m).

    From SPLIT_TRIANGLES triangles on, when _thread_count() is 2, one
    persistent daemon thread runs fn(0, m // 2) while the caller runs
    fn(m // 2, m); both halves' numpy loops release the interpreter lock.
    Otherwise fn(0, m) runs inline.  A kernel body is elementwise along the
    triangles, so the result does not depend on the split, bit for bit;
    reductions across triangles (np.bincount, sums) stay outside it, on
    the whole arrays.

    The caller puts the worker's half on the one job queue, with a copy of
    its context (numpy's error state included) and a fresh done queue,
    runs its own half and then, even if that raised, waits on done for the
    worker's None or exception; the worker's exception is raised here."""
    global _worker
    if m < SPLIT_TRIANGLES or _thread_count() == 1:
        fn(0, m)
        return
    with _starting:
        # a forked child keeps the object but not the thread: start anew
        if _worker is None or not _worker[0].is_alive():
            jobs = queue.SimpleQueue()
            thread = threading.Thread(target=_serve, args=(jobs,),
                                      name="conemin-split", daemon=True)
            thread.start()
            _worker = thread, jobs
        jobs = _worker[1]
    done = queue.SimpleQueue()
    jobs.put((contextvars.copy_context(), fn, 0, m // 2, done))
    try:
        fn(m // 2, m)
    finally:
        error = done.get()
    if error is not None:
        raise error


def _hemisphere_tables():
    """The 8 corners (+-1, +-1, +-1) of the cube, and the (3, 36) matrix W
    with w @ W the 12 products w x e with the normals e (one entry 0, two
    +-1) of the planes through the origin that hold the cube's edges: row j
    of W holds the e_j x e, since w x e is the sum of the w_j (e_j x e)."""
    signs = list(itertools.product((-1.0, 0.0, 1.0), repeat=3))
    corners = np.array([s for s in signs if 0.0 not in s])
    edges = np.array([s for s in signs if s.count(0.0) == 1])
    w = row_cross(np.eye(3)[:, None], np.broadcast_to(edges, (3, 12, 3)))
    return corners, w.reshape(3, -1)


_CUBE_CORNERS, _EDGE_CROSS = _hemisphere_tables()


def _index_block(tuples, count: int, k: int) -> np.ndarray:
    """The next up-to-count k-tuples of an iterator, as a (n, k) array."""
    flat = itertools.chain.from_iterable(itertools.islice(tuples, count))
    return np.fromiter(flat, dtype=np.intp).reshape(-1, k)


def _candidate_directions(v: np.ndarray):
    """Blocks of the directions at which open_hemisphere_slack's program
    can peak for each of the b sets of m points in the (b, m, 3) array v,
    each block holding at most HEMISPHERE_BLOCK dot products per set (one
    block for a few points)."""
    b, m = v.shape[:2]
    # each pair gives 12 directions, each triple 2, the first block adds 8
    count = max(1, (HEMISPHERE_BLOCK // m - 8) // 14)
    pairs = itertools.combinations(range(m), 2)
    triples = itertools.combinations(range(m), 3)
    corners = [_CUBE_CORNERS[None].repeat(b, axis=0)]  # first block only
    for _ in range(-(-max(1, math.comb(m, 2), math.comb(m, 3)) // count)):
        ab, abc = _index_block(pairs, count, 2), _index_block(triples, count, 3)
        d = row_cross(v[:, abc[:, 1]] - v[:, abc[:, 0]],
                      v[:, abc[:, 2]] - v[:, abc[:, 0]])
        edges = (v[:, ab[:, 1]] - v[:, ab[:, 0]]) @ _EDGE_CROSS
        yield np.concatenate(corners + [edges.reshape(b, -1, 3), d, -d],
                             axis=1)
        corners = []


def open_hemisphere_slack(points: np.ndarray):
    """Best margin t of {v_i . n >= t, |n|_inf <= 1, 0 <= t <= 1} over the
    rows v_i of points; positive iff they fit in an open hemisphere.  A cone
    {n_i . x <= 0} has nonempty interior iff the -n_i do.  For a (b, m, 3)
    stack of point sets, the (b,) array of their margins, each bit for bit
    that of its set alone.

    Exact, no solver: without the bounds on t this is a linear program in
    (n, t) whose optimum, when positive, sits at a vertex where k = 1, 2 or 3
    rows v_i . n = t and 4 - k faces |n_j| = 1 of the cube are active (k = 4
    gives the origin, t = 0).  Up to a positive factor n is then a cube
    corner (k = 1), the meet (v_a - v_b) x e of the plane of equal margins
    with a plane through a cube edge, edge normal e (k = 2), or
    +-(v_b - v_a) x (v_c - v_a) (k = 3).  For any direction d != 0,
    n = d / |d|_inf with t = min_i v_i . n is feasible, so the largest such
    t over these directions, clipped to [0, 1], is the optimum.
    """
    v = np.asarray(points, dtype=float)
    stacked = v.ndim == 3
    if not stacked:
        v = v.reshape(1, -1, 3)
    best = np.zeros(len(v))
    for d in _candidate_directions(v):
        scale = np.abs(d).max(axis=2)
        margins = np.divide((d @ v.transpose(0, 2, 1)).min(axis=2), scale,
                            out=np.zeros(scale.shape), where=scale > 0)
        best = np.fmax(best, margins.max(axis=1))  # a NaN margin never wins
    best = np.minimum(1.0, best)
    return best if stacked else float(best[0])


class PolyhedralCone:
    """Intersection of one or more homogeneous half-spaces {x : n . x <= 0},
    apex at the origin, kept as the read-only (k, 3) array `normals` of
    their outward unit normals.

    Normals may have any nonzero length.  Near-duplicates (unit normals
    with dot product within DEDUP_TOL of 1) are dropped at construction.
    Errors about one half-space name its index in the input.
    """

    def __init__(self, normals):
        kept: list[np.ndarray] = []
        for i, n in enumerate(normals):
            try:
                n = unit(as_vec3(n))
            except ValueError as exc:
                raise ValueError(f"halfspace {i}: {exc}") from exc
            if all(float(n @ k) < 1.0 - DEDUP_TOL for k in kept):
                kept.append(n)
        if not kept:
            raise ValueError("a cone needs at least one half-space")
        self.normals = np.array(kept)
        self.normals.flags.writeable = False
        if open_hemisphere_slack(-self.normals) <= HEMISPHERE_TOL:
            raise ValueError("cone has empty interior")

    @functools.cached_property
    def face_table(self):
        """The cone's faces as read-only arrays, computed once (the normals
        are read-only): the (e, 3) unit directions d of its edges, the lines
        n_i x n_j of facets i < j that the cone holds as the ray t * d,
        t >= 0, or as the whole line; the (e,) mask of the ray edges; the
        (k + e, 2) faces, (i, -1) for each facet i, then (i, j) for each
        edge; and the (k, k) row map, row[i, j] the face row of edge (i, j)
        for i < j, -1 where facets i and j meet in no edge and for i >= j."""
        normals = self.normals
        k = len(normals)
        row = np.full((k, k), -1, dtype=np.int64)
        lines, ray, faces = [], [], [(i, -1) for i in range(k)]
        for i, j in itertools.combinations(range(k), 2):
            s = row_cross(normals[i], normals[j])
            ns = float(np.linalg.norm(s))
            if ns <= 1e-9:
                continue
            s = s / ns
            ok_p = float(np.max(normals @ s)) <= 1e-9
            ok_m = float(np.max(normals @ -s)) <= 1e-9
            if ok_p or ok_m:
                row[i, j] = len(faces)
                faces.append((i, j))
                lines.append(s if ok_p else -s)
                ray.append(not (ok_p and ok_m))
        tables = (np.array(lines).reshape(-1, 3), np.array(ray, dtype=bool),
                  np.array(faces, dtype=np.int64), row)
        for table in tables:
            table.flags.writeable = False
        return tables

    def __repr__(self):
        return f"PolyhedralCone({len(self.normals)} half-spaces)"


def _edge_rows(cone: PolyhedralCone, f: np.ndarray, g: np.ndarray):
    """Face rows of the facet index pairs (f, g), arrays of one shape: the
    row map of cone.face_table, -1 where (f, g) is no edge, an index out of
    range included."""
    k = len(cone.normals)
    ok = (f >= 0) & (f < k) & (g >= 0) & (g < k)
    # the row map holds -1 at (0, 0), so a masked pair is no edge
    return cone.face_table[3][np.where(ok, f, 0), np.where(ok, g, 0)]


def is_vertex(cone: PolyhedralCone) -> bool:
    """True iff the cone's normal matrix has full rank 3 (SVD, relative
    threshold RANK_TOL), i.e. the apex is a genuine corner."""
    s = np.linalg.svd(cone.normals, compute_uv=False)
    return int(np.sum(s > RANK_TOL * s[0])) == 3


def nearest_point(x, cone: PolyhedralCone):
    """(p, face): for each row of the (m, 3) array x, the nearest point p of
    the cone's boundary and its face, a row of cone.face_table's faces:
    (i, -1) on facet i, (i, j) on the edge of facets i < j.  For a row
    outside the cone, p is also its nearest point of the cone.

    The nearest point lies inside some face, so it is the nearest point of
    that face's span.  The candidates are one point per facet plane and one
    per edge line, a ray edge's clamped at t >= 0 so that the apex is one
    too; the nearest candidate inside the cone, within CONTAIN_TOL, wins,
    the first in that order on a tie.
    """
    x = np.asarray(x, dtype=float).reshape(-1, 3)
    normals = cone.normals
    lines, ray, faces, _ = cone.face_table
    t = x @ lines.T
    t[:, ray] = np.maximum(t[:, ray], 0.0)
    # (m, candidate, coordinate)
    cand = np.concatenate([x[:, None] - (x @ normals.T)[..., None] * normals,
                           t[..., None] * lines], axis=1)
    dist = np.sum((cand - x[:, None]) ** 2, axis=2)
    dist[np.max(cand @ normals.T, axis=2) > CONTAIN_TOL] = np.inf
    best = np.argmin(dist, axis=1)
    return cand[np.arange(len(x)), best], faces[best]


def wedge_above(slope: float, axis: int) -> PolyhedralCone:
    """The wedge {x3 >= slope * |x_axis|} for axis in {0, 1}: normals, in
    order, slope * e_axis - e3 and -slope * e_axis - e3, each normalized."""
    if slope <= 1e-12:
        raise ValueError("wedge slope must be > 0")
    e = np.zeros(3)
    e[axis] = 1.0
    e3 = np.array([0.0, 0.0, 1.0])
    return PolyhedralCone([slope * e - e3, -slope * e - e3])


def pyramid_to_cone(a: float, b: float) -> PolyhedralCone:
    """The rectangular pyramid {x : x3 >= max(a|x1|, b|x2|)}: normals, in
    order, (+a,0,-1), (-a,0,-1), (0,+b,-1), (0,-b,-1), each normalized."""
    if a <= 1e-12 or b <= 1e-12:
        raise ValueError("pyramid slopes a, b must be > 0")
    return PolyhedralCone([[a, 0.0, -1.0], [-a, 0.0, -1.0],
                           [0.0, b, -1.0], [0.0, -b, -1.0]])


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
