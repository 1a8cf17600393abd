"""Triangulation substrate.

The paper's step 0 triangulates the input subdivision with the
parallel algorithm of Atallah, Cole & Goodrich.  Downstream only the
*result* matters, so the reproduction provides:

* :func:`delaunay_faces` — Delaunay triangulation of a point set; a
  pure-Python Bowyer–Watson implementation (exact in-circle predicate)
  for small inputs and as the reference implementation, with a
  `scipy.spatial.Delaunay` fast path for large inputs (cross-checked
  against the reference in the test-suite);
* :func:`grid_faces` — the regular triangulation of a height grid
  (what DEM-derived terrains use; no Delaunay needed);
* :func:`triangulate_monotone_polygon` — y-monotone polygon
  triangulation, the building block the ACG construction shares with
  classic profile handling (profiles are y-monotone).
"""

from __future__ import annotations

from typing import Literal, Sequence

from repro.errors import GeometryError
from repro.geometry.predicates import (
    incircle_exact,
    orient2d_adaptive,
    orient2d_exact,
)
from repro.geometry.primitives import Point2

__all__ = [
    "delaunay_faces",
    "bowyer_watson",
    "grid_faces",
    "triangulate_monotone_polygon",
]


def delaunay_faces(
    points: Sequence[Point2],
    *,
    method: Literal["auto", "pure", "scipy"] = "auto",
) -> list[tuple[int, int, int]]:
    """Delaunay triangles of ``points`` as index triples.

    ``method='auto'`` uses SciPy above 300 points when available and
    the pure-Python reference otherwise.
    """
    n = len(points)
    if n < 3:
        raise GeometryError(f"need at least 3 points, got {n}")
    if method == "pure":
        return bowyer_watson(points)
    if method == "scipy":
        return _scipy_delaunay(points)
    if n > 300:
        try:
            return _scipy_delaunay(points)
        except ImportError:  # pragma: no cover - scipy is installed
            pass
    return bowyer_watson(points)


def _scipy_delaunay(points: Sequence[Point2]) -> list[tuple[int, int, int]]:
    import numpy as np
    from scipy.spatial import Delaunay  # type: ignore[import-untyped]

    arr = np.array([(p.x, p.y) for p in points], dtype=np.float64)
    tri = Delaunay(arr)
    return [tuple(sorted(map(int, simplex))) for simplex in tri.simplices]


#: Super-triangle size in input spans on the first attempt, and the
#: factor it grows by on each retry of :func:`bowyer_watson`.
_SUPER_SCALE = 50.0
_SUPER_GROWTH = 1000.0
_SUPER_ATTEMPTS = 6


def bowyer_watson(points: Sequence[Point2]) -> list[tuple[int, int, int]]:
    """Randomised-order Bowyer–Watson with exact predicates.

    O(n^2) worst case (linear walk per insertion over bad triangles);
    intended for n up to a few thousand.  Collinear full inputs have
    no triangles.

    A finite super-triangle loses the hull triangles of near-collinear
    hull sites whose circumcircles reach a super vertex.  So the result
    must have the triangle count of a full triangulation
    (:func:`_full_triangle_count`); when it falls short, the insertion
    reruns with a super-triangle ``_SUPER_GROWTH`` times larger.
    """
    n = len(points)
    if n < 3:
        raise GeometryError("need at least 3 points")
    full = _full_triangle_count(points)
    scale = _SUPER_SCALE
    for _ in range(_SUPER_ATTEMPTS):
        faces = _insert_all(points, scale)
        if len(faces) == full:
            return faces
        scale *= _SUPER_GROWTH
    raise GeometryError(
        f"Delaunay triangulation covers {len(faces)} of {full} triangles"
    )


def _full_triangle_count(points: Sequence[Point2]) -> int:
    """Triangles in any triangulation of ``points``: ``2n - 2 - h`` with
    ``h`` sites on the convex-hull boundary (collinear ones included),
    or 0 when all sites are collinear."""
    pts = sorted(points, key=lambda p: (p.x, p.y))
    if all(orient2d_exact(pts[0], pts[-1], p) == 0 for p in pts):
        return 0

    def chain(seq: Sequence[Point2]) -> int:
        # Monotone-chain half hull keeping collinear boundary sites.
        out: list[Point2] = []
        for p in seq:
            while len(out) >= 2 and orient2d_exact(out[-2], out[-1], p) < 0:
                out.pop()
            out.append(p)
        return len(out)

    h = chain(pts) + chain(pts[::-1]) - 2
    return 2 * len(pts) - 2 - h


def _insert_all(
    points: Sequence[Point2], scale: float
) -> list[tuple[int, int, int]]:
    """The insertion loop inside a super-triangle ``scale`` input spans
    across; returns the triangles free of super vertices."""
    n = len(points)
    # Super-triangle comfortably containing everything.
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    cx = (min(xs) + max(xs)) / 2
    cy = (min(ys) + max(ys)) / 2
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    big = scale * span
    sup = [
        Point2(cx - 3 * big, cy - big),
        Point2(cx + 3 * big, cy - big),
        Point2(cx, cy + 3 * big),
    ]
    pts: list[Point2] = list(points) + sup
    s0, s1, s2 = n, n + 1, n + 2
    triangles: set[tuple[int, int, int]] = {tuple(sorted((s0, s1, s2)))}  # type: ignore[arg-type]

    def circum_contains(tri: tuple[int, int, int], pi: int) -> bool:
        a, b, c = (pts[tri[0]], pts[tri[1]], pts[tri[2]])
        return incircle_exact(a, b, c, pts[pi]) > 0

    for pi in range(n):
        bad = [t for t in triangles if circum_contains(t, pi)]
        if not bad:
            # Point on/outside current hull of inserted points — with a
            # super-triangle this means exactly on a circumcircle;
            # treat the nearest triangle as bad to keep progress.
            raise GeometryError(
                f"degenerate Delaunay insertion at point {pi}"
            )
        # Boundary of the cavity: edges belonging to exactly one bad
        # triangle.
        edge_count: dict[tuple[int, int], int] = {}
        for t in bad:
            for e in _tri_edges(t):
                edge_count[e] = edge_count.get(e, 0) + 1
        for t in bad:
            triangles.discard(t)
        for e, cnt in edge_count.items():
            if cnt == 1:
                tri = tuple(sorted((e[0], e[1], pi)))
                triangles.add(tri)  # type: ignore[arg-type]
    # Drop triangles touching the super-triangle.
    return sorted(
        t
        for t in triangles
        if t[0] < n and t[1] < n and t[2] < n
    )


def _tri_edges(
    t: tuple[int, int, int]
) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    a, b, c = t
    return (
        (a, b) if a < b else (b, a),
        (b, c) if b < c else (c, b),
        (a, c) if a < c else (c, a),
    )


def grid_faces(rows: int, cols: int) -> list[tuple[int, int, int]]:
    """Regular triangulation of a ``rows × cols`` vertex grid.

    Vertex ``(r, c)`` has index ``r*cols + c``; each cell is split
    along the ``(r,c)–(r+1,c+1)`` diagonal, alternating per cell parity
    to avoid global anisotropy.
    """
    if rows < 2 or cols < 2:
        raise GeometryError("grid must be at least 2x2")
    faces: list[tuple[int, int, int]] = []
    for r in range(rows - 1):
        for c in range(cols - 1):
            v00 = r * cols + c
            v01 = v00 + 1
            v10 = v00 + cols
            v11 = v10 + 1
            if (r + c) % 2 == 0:
                faces.append(tuple(sorted((v00, v01, v11))))  # type: ignore[arg-type]
                faces.append(tuple(sorted((v00, v11, v10))))  # type: ignore[arg-type]
            else:
                faces.append(tuple(sorted((v00, v01, v10))))  # type: ignore[arg-type]
                faces.append(tuple(sorted((v01, v11, v10))))  # type: ignore[arg-type]
    return faces


def triangulate_monotone_polygon(
    chain: Sequence[Point2],
) -> list[tuple[int, int, int]]:
    """Fan/stack triangulation of an x-monotone polygonal chain closed
    by its baseline — the classic linear-time monotone triangulation,
    restricted to the single-chain case profiles produce.

    ``chain`` must be strictly increasing in ``x``.  Returns triangles
    as index triples into ``chain``.
    """
    m = len(chain)
    if m < 3:
        return []
    for i in range(1, m):
        if chain[i].x <= chain[i - 1].x:
            raise GeometryError("chain is not strictly x-monotone")
    triangles: list[tuple[int, int, int]] = []
    stack = [0, 1]
    for i in range(2, m):
        while len(stack) >= 2 and (
            orient2d_adaptive(
                chain[stack[-2]], chain[stack[-1]], chain[i]
            )
            < 0
        ):
            triangles.append((stack[-2], stack[-1], i))
            stack.pop()
        stack.append(i)
    # The surviving stack is a left-turning chain, so the region it
    # bounds against the baseline is convex: fan it from the left end.
    for j in range(1, len(stack) - 1):
        triangles.append((stack[0], stack[j], stack[j + 1]))
    return triangles
