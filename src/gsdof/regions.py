"""Degrees-of-freedom regions as half-space intersections in the (d1, d2) plane.

Every region here is an intersection of a handful of half-spaces together
with the implicit nonnegativity of d1 and d2.  Vertex enumeration is done by
exact pairwise intersection (the constraint count never exceeds six), so the
whole module works with plain floats or with ``fractions.Fraction`` inputs
for exact rational evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "HalfSpace",
    "DofRegion",
    "wiretap_upper",
    "bc_outer",
    "yang_inner",
    "yang_corner_sum",
    "prop2_inner",
    "sym_alt_inner",
    "integer_sym_alt_inner",
    "gdof_fixed",
    "vertices",
    "contains",
    "is_subset",
    "sum_max",
    "axis_max",
    "time_share",
]

TOL = 1e-9


@dataclass(frozen=True)
class HalfSpace:
    """Constraint a1*d1 + a2*d2 <= b.  Coefficients may be negative."""

    a1: float
    a2: float
    b: float

    def violation(self, d1, d2):
        return self.a1 * d1 + self.a2 * d2 - self.b


# Implicit quadrant faces, used as constraint lines during enumeration.
_AXIS_D1 = HalfSpace(-1, 0, 0)  # d1 >= 0
_AXIS_D2 = HalfSpace(0, -1, 0)  # d2 >= 0


def _intersect(c1: HalfSpace, c2: HalfSpace, exact: bool = False):
    """Crossing point of the two constraint lines, or None if parallel.

    With ``exact``, an integer determinant divides as a ``Fraction``, so an
    integer-only line pair (such as the two axes) gives an exact point
    instead of true-division floats."""
    det = c1.a1 * c2.a2 - c1.a2 * c2.a1
    if det == 0 or abs(float(det)) <= 1e-15:
        return None
    n1 = c1.b * c2.a2 - c2.b * c1.a2
    n2 = c1.a1 * c2.b - c2.a1 * c1.b
    if exact and isinstance(det, int):
        return Fraction(n1, det), Fraction(n2, det)
    d1 = n1 / det
    d2 = n2 / det
    if isinstance(d1, float):
        d1 += 0.0  # normalize -0.0
    if isinstance(d2, float):
        d2 += 0.0
    return d1, d2


def _is_bounded(constraints) -> bool:
    """Recession-cone test: bounded iff no direction r >= 0, r != 0 satisfies
    a.r <= 0 for every constraint.  Candidate directions are the quadrant
    edges and each constraint line's directions, clamped to the quadrant."""
    cands = [(1.0, 0.0), (0.0, 1.0)]
    for c in constraints:
        a1, a2 = float(c.a1), float(c.a2)
        for r in ((-a2, a1), (a2, -a1)):
            norm = math.hypot(*r)
            if norm > 0 and r[0] >= -1e-12 * norm and r[1] >= -1e-12 * norm:
                cands.append((max(r[0], 0.0) / norm, max(r[1], 0.0) / norm))
    for r in cands:
        if all(float(c.a1) * r[0] + float(c.a2) * r[1] <= 1e-12 for c in constraints):
            return False
    return True


def _dedup(points, tol):
    out = []
    for p in points:
        if not any(
            abs(float(p[0] - q[0])) <= tol and abs(float(p[1] - q[1])) <= tol for q in out
        ):
            out.append(p)
    return out


def _sort_ccw(points):
    """Counterclockwise vertex order, starting from the largest-d1 vertex.

    Collinear sets (degenerate regions) are sorted along the common line.
    """
    if len(points) <= 2:
        return sorted(points, key=lambda p: (float(p[0]), float(p[1])))
    fx = [(float(p[0]), float(p[1])) for p in points]
    cx = sum(p[0] for p in fx) / len(fx)
    cy = sum(p[1] for p in fx) / len(fx)
    spread = max(abs(p[0] - cx) + abs(p[1] - cy) for p in fx)
    collinear = True
    for i in range(1, len(fx) - 1):
        cross = (fx[i][0] - fx[0][0]) * (fx[i + 1][1] - fx[0][1]) - (
            fx[i][1] - fx[0][1]
        ) * (fx[i + 1][0] - fx[0][0])
        if abs(cross) > 1e-12 * max(spread, 1.0) ** 2:
            collinear = False
            break
    if collinear:
        return sorted(points, key=lambda p: (float(p[0]), float(p[1])))
    order = sorted(
        range(len(points)),
        key=lambda i: math.atan2(fx[i][1] - cy, fx[i][0] - cx),
    )
    # Rotate so the vertex with maximum d1 (ties: minimum d2) comes first.
    start = min(order, key=lambda i: (-fx[i][0], fx[i][1]))
    k = order.index(start)
    return [points[i] for i in order[k:] + order[:k]]


@dataclass(frozen=True)
class DofRegion:
    """Bounded, nonempty intersection of half-spaces with d1, d2 >= 0.

    Boundedness and nonemptiness are checked at construction by running the
    vertex enumeration.
    """

    constraints: tuple[HalfSpace, ...]

    def __post_init__(self) -> None:
        # validates bounded and nonempty (frozen: write __dict__ directly)
        self.__dict__["_vertex_cache"] = self._enumerate()

    def _enumerate(self):
        cons = list(self.constraints)
        if not _is_bounded(cons):
            raise ValueError("region is unbounded: vertex enumeration impossible")
        exact = any(isinstance(x, Fraction) for c in cons for x in (c.a1, c.a2, c.b))
        lines = cons + [_AXIS_D1, _AXIS_D2]
        # Screen every crossing in floats; an exact region then redoes only
        # the surviving vertices in exact arithmetic.
        flines = lines
        if exact:
            flines = [HalfSpace(float(c.a1), float(c.a2), float(c.b)) for c in lines]
        pairs = {}
        for i in range(len(lines)):
            for j in range(i + 1, len(lines)):
                p = _intersect(flines[i], flines[j])
                if p is not None:
                    pairs.setdefault(p, (lines[i], lines[j]))
        feas = [
            p
            for p in pairs
            if p[0] >= -TOL
            and p[1] >= -TOL
            and all(c.violation(*p) <= TOL for c in flines[: len(cons)])
        ]
        if not feas:
            raise ValueError("region is empty: no feasible vertex")
        verts = _dedup(feas, TOL)
        if exact:
            verts = [_intersect(*pairs[p], exact=True) for p in verts]
        return tuple(_sort_ccw(verts))


def vertices(region: DofRegion) -> list[tuple[float, float]]:
    """All feasible pairwise constraint/axis intersections, deduplicated and
    sorted counterclockwise."""
    return list(region._vertex_cache)


def contains(region: DofRegion, point, tol: float = TOL) -> bool:
    d1, d2 = point
    if float(d1) < -tol or float(d2) < -tol:
        return False
    return all(float(c.violation(d1, d2)) <= tol for c in region.constraints)


def is_subset(inner: DofRegion, outer: DofRegion, tol: float = TOL) -> bool:
    """Vertex test: valid because both regions are convex."""
    return all(contains(outer, v, tol) for v in vertices(inner))


def sum_max(region: DofRegion):
    """Maximum of d1 + d2 over the region (attained at a vertex)."""
    return max(v[0] + v[1] for v in vertices(region))


def axis_max(region: DofRegion, axis: int):
    """Largest coordinate value on the given axis (0 -> d1, 1 -> d2) with the
    other coordinate zero."""
    best = None
    for v in vertices(region):
        if abs(float(v[1 - axis])) <= TOL:
            if best is None or float(v[axis]) > float(best):
                best = v[axis]
    if best is None:
        return 0.0
    return best


# ---------------------------------------------------------------------------
# Bound constructors.  ``alpha`` may be a float or a fractions.Fraction; all
# arithmetic below stays in the input's number type.
# ---------------------------------------------------------------------------


def _weighted_bound(profile, swap: bool = False):
    a = profile.alpha
    l11, l1a, la1, laa = profile.fractions()
    if swap:
        l1a, la1 = la1, l1a
    return (3 - a) * l1a + 2 * (l11 + a * laa) + (1 + a) * la1


def wiretap_upper(profile):
    """Upper bound on the single-confidential-message secure DoF."""
    return _weighted_bound(profile) / 3


def bc_outer(profile) -> DofRegion:
    """Outer bound on the secure DoF region for an alternating profile:
    3*d1 + d2 and d1 + 3*d2 are each capped by the profile-weighted budget."""
    return DofRegion(
        (
            HalfSpace(3, 1, _weighted_bound(profile)),
            HalfSpace(1, 3, _weighted_bound(profile, swap=True)),
        )
    )


def yang_inner(alpha) -> DofRegion:
    """Baseline inner bound from the four-slot noise-injection scheme on the
    fixed (strong, weak) topology.

    At alpha = 0 the two constraints degenerate to parallel lines; the region
    is then built directly as its limit, the segment d2 = 0, d1 <= 2/3.
    """
    if float(alpha) <= 0:
        two_thirds = Fraction(2, 3) if isinstance(alpha, Fraction) else 2.0 / 3.0
        return DofRegion((HalfSpace(0, 1, 0), HalfSpace(1, 0, two_thirds)))
    return DofRegion(
        (
            HalfSpace(3 * alpha, 1, 2 * alpha),
            HalfSpace(alpha, 3, 2 * alpha),
        )
    )


def yang_corner_sum(alpha):
    """Sum DoF of the baseline scheme at its balanced corner, (1 + alpha)/2.

    This is the quantity plotted on the sum-DoF comparison curves.  For
    alpha < 1/3 the region's geometric sum maximum is attained at the
    single-user corner (2/3, 0) instead, so this corner sum is tracked
    separately from :func:`sum_max`.
    """
    if float(alpha) <= 0:
        return 0.5
    corner = _intersect(
        HalfSpace(3 * alpha, 1, 2 * alpha), HalfSpace(alpha, 3, 2 * alpha)
    )
    return corner[0] + corner[1]


def prop2_inner(alpha) -> DofRegion:
    """Inner bound from the four-phase scheme with digitized side information
    and an extra low-power confidential layer, fixed (strong, weak) topology."""
    return DofRegion(
        (
            HalfSpace(3 * (1 + alpha), 2, 2 * (1 + alpha)),
            HalfSpace(alpha * (3 - alpha), 6, 4 * alpha),
        )
    )


def sym_alt_inner(alpha) -> DofRegion:
    """Inner bound for the symmetric alternating topology (Gaussian noise
    injection).  The second constraint has a negative d1 coefficient for
    alpha < 1/2."""
    return DofRegion(
        (
            HalfSpace(6, 1 + alpha, 2 * (1 + alpha)),
            HalfSpace(2 * (2 * alpha - 1), 3 * (1 + alpha), (1 + alpha) * (1 + alpha)),
        )
    )


def integer_sym_alt_inner(alpha) -> DofRegion:
    """Inner bound for integer channels on the symmetric alternating
    topology, achieved with structured (lattice) noise."""
    half = (3 + alpha) / 2
    return DofRegion((HalfSpace(3, alpha, half), HalfSpace(alpha, 3, half)))


def gdof_fixed(alpha) -> DofRegion:
    """DoF region without secrecy constraints, fixed (strong, weak) topology."""
    return DofRegion(
        (
            HalfSpace(1, 0, 1),
            HalfSpace(0, 1, alpha),
            HalfSpace(2, 1, 2),
            HalfSpace(1, 2, 1 + alpha),
        )
    )


# ---------------------------------------------------------------------------
# Time sharing.
# ---------------------------------------------------------------------------


def _hull(points):
    """Andrew's monotone chain on float projections; returns CCW hull."""
    pts = sorted(set((float(p[0]), float(p[1])) for p in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 1e-15:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 1e-15:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def time_share(regions) -> DofRegion:
    """Convex hull of the union of the regions' vertex sets, as half-spaces.

    Realizes the operating points reachable by splitting the block between
    strategies.
    """
    points = []
    for r in regions:
        points.extend(vertices(r))
    hull = _hull(points)
    if len(hull) == 1:
        (x, y) = hull[0]
        cons = [HalfSpace(1, 0, x), HalfSpace(-1, 0, -x), HalfSpace(0, 1, y), HalfSpace(0, -1, -y)]
        return DofRegion(tuple(cons))
    if len(hull) == 2:
        (x0, y0), (x1, y1) = hull
        nx, ny = y1 - y0, x0 - x1  # normal to the segment
        c = nx * x0 + ny * y0
        tx, ty = x1 - x0, y1 - y0  # direction along the segment
        lo = min(tx * x0 + ty * y0, tx * x1 + ty * y1)
        hi = max(tx * x0 + ty * y0, tx * x1 + ty * y1)
        cons = [
            HalfSpace(nx, ny, c),
            HalfSpace(-nx, -ny, -c),
            HalfSpace(tx, ty, hi),
            HalfSpace(-tx, -ty, -lo),
        ]
        return DofRegion(tuple(cons))
    cons = []
    m = len(hull)
    for i in range(m):
        px, py = hull[i]
        qx, qy = hull[(i + 1) % m]
        # Outward normal of a CCW edge.
        nx, ny = qy - py, px - qx
        if nx <= 1e-12 and ny <= 1e-12:
            continue  # implied by the quadrant faces
        cons.append(HalfSpace(nx, ny, nx * px + ny * py))
    return DofRegion(tuple(cons))
