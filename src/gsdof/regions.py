"""Degrees-of-freedom regions as half-space intersections in the (d1, d2) plane.

Every region here is an intersection of a handful of half-spaces together
with the implicit nonnegativity of d1 and d2.  Vertex candidates are the
origin, each constraint line's two axis intercepts and each pair of
constraint lines' crossing (the constraint count never exceeds six), and
the vertices are the feasible candidates.  Every region is exact: it is
enumerated in integer arithmetic with no tolerance, each coefficient taken
at its exact value (a float at its binary value), so a candidate that
violates a constraint by any amount is dropped and the vertex order is
decided exactly.  A region keeps what the enumeration works in: its
constraints as integer rows and its vertices as gcd-reduced integer triples
(n1, n2, det), unordered; the counterclockwise order is built on first
read.  The bound constructors form those rows straight from alpha's exact
ratio p/q (and a profile's time fractions) in int arithmetic, so a float
alpha counts at its binary value and builds the same region as
``Fraction(alpha)``.

The bound constructors' regions are interned: ``DofRegion._from_rows``
keeps the last ``_INTERNED`` (64) regions in one ``functools.lru_cache``
keyed by the integer rows and their scales, ``(rows, scales)`` as int
tuples, so equal exact inputs (a float alpha and its ``Fraction`` twin
among them) return the same region object and enumerate its vertices
once.  A region is immutable, so sharing it changes no output.  A region
built by ``DofRegion(constraints)`` is not interned: a float ``HalfSpace``
equals its ``Fraction`` twin, and a shared region would hand back the other
caller's coefficient types.  Figure 8 does not intern either: it reads one
number per bound and alpha, at alphas that are distinct, so
``sum_dof_ratios`` takes each bound's rows from the bound's row function
and their sum maximum from ``_exact_vertices`` and ``_sum_max_ratio``,
with no region.

``vertices`` gives ``Fraction`` vertices, built from the ordered triples on
first call; ``float_vertices`` rounds the triples for CSVs.  ``sum_max``,
``axis_max`` and ``wiretap_upper`` give ``Fraction``s, and ``contains`` and
``is_subset`` decide on the integer rows with no tolerance; none of these
orders the vertices.  The CSV writers (``gsdof.experiments``) read a
region's ``float_vertices``, ``sum_max`` and ``axis_max`` once while it
stays interned, for its whole text.  Time sharing (``time_share``) picks the
hull vertices among the input regions' vertices by exact orientation tests
and returns the exact hull.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key, lru_cache

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
    "float_vertices",
    "contains",
    "is_subset",
    "sum_max",
    "sum_dof_ratios",
    "axis_max",
    "time_share",
]


@dataclass(frozen=True)
class HalfSpace:
    """Constraint a1*d1 + a2*d2 <= b.  Coefficients may be negative."""

    a1: float
    a2: float
    b: float

    def violation(self, d1, d2):
        return self.a1 * d1 + self.a2 * d2 - self.b


def _orient(p, q, r):
    """Orientation of three crossings (n1, n2, det), each with det > 0: the
    determinant of the 3x3 matrix of the triples, a positive multiple of
    (q - p) x (r - p).  Positive iff p, q, r turn counterclockwise."""
    (p1, p2, p0), (q1, q2, q0), (r1, r2, r0) = p, q, r
    return p1 * (q2 * r0 - q0 * r2) - p2 * (q1 * r0 - q0 * r1) + p0 * (q1 * r2 - q2 * r1)


def _ccw_order(points):
    """The distinct crossings ``points``, triples (n1, n2, det) with det > 0,
    in counterclockwise order from the largest-d1 point (ties: smallest d2).

    A collinear set (a degenerate region) is ordered along the common line,
    by ascending (d1, d2).  Every comparison is exact.  Returns a tuple.
    """
    if all(_orient(points[0], points[1], r) == 0 for r in points[2:]):
        return tuple(sorted(points, key=lambda p: (Fraction(p[0], p[2]), Fraction(p[1], p[2]))))
    start = points[0]
    for p in points[1:]:
        gain = p[0] * start[2] - start[0] * p[2]
        if gain > 0 or (gain == 0 and p[1] * start[2] < start[1] * p[2]):
            start = p
    # Seen from the start, the other vertices of the convex polygon span less
    # than a half-turn, so the orientation sign is a total order on them.
    rest = [p for p in points if p is not start]
    rest.sort(key=cmp_to_key(lambda p, q: -_orient(start, p, q)))
    return (start, *rest)


def _ratio(x):
    """Exact (numerator, denominator) of an int, float, ``Fraction`` or numpy scalar."""
    try:
        return x.as_integer_ratio()
    except AttributeError:  # numpy integers have no as_integer_ratio
        return operator.index(x), 1


def _triple(point):
    """The point (d1, d2) at its exact value, as a gcd-reduced triple
    (n1, n2, det) with det > 0."""
    (n1, m1), (n2, m2) = (_ratio(x) for x in point)
    n1, n2, det = n1 * m2, n2 * m1, m1 * m2
    g = math.gcd(n1, n2, det)
    return n1 // g, n2 // g, det // g


def _int_row(c: HalfSpace):
    """The constraint scaled by the lcm of its denominators: an integer row
    (a1, a2, b) for the same half-plane."""
    try:
        ratios = [_ratio(x) for x in (c.a1, c.a2, c.b)]
    except (OverflowError, ValueError):  # inf and nan have no ratio
        raise ValueError(f"region constraint {c} has a non-finite coefficient") from None
    m = math.lcm(*(d for _, d in ratios))
    return tuple(n * (m // d) for n, d in ratios)


def _exact_vertices(rows):
    """Vertex enumeration in integer arithmetic over the integer ``rows``
    (a1, a2, b): the distinct feasible candidates as gcd-reduced triples
    (n1, n2, det) with det > 0, the points (n1/det, n2/det), unordered.

    The candidates are, in this order, the origin, each row's intercepts
    with the d1 axis, (b, 0, a1), and with the d2 axis, (0, b, a2), and its
    crossings with the later rows; the tuple keeps the order in which each
    distinct vertex is first found.  A candidate, its sign fixed so that
    det > 0, is feasible iff n1, n2 >= 0 and a.n <= b*det on every row; the
    test runs inline on each candidate, since a call per candidate costs
    more than the test on these two to six rows.  No tolerance enters.
    ``sum_max`` and ``sum_dof_ratios`` read the triples' sum maximum
    through ``_sum_max_ratio``.
    """
    # Bounded iff no direction r >= 0, r != 0 has a.r <= 0 on every row; the
    # candidates are the quadrant edges and each row's line directions.
    dirs = [(1, 0), (0, 1)]
    for a1, a2, _ in rows:
        if a1 or a2:
            if a1 >= 0 >= a2:
                dirs.append((-a2, a1))
            if a2 >= 0 >= a1:
                dirs.append((a2, -a1))
    for r1, r2 in dirs:
        for a1, a2, _ in rows:
            if a1 * r1 + a2 * r2 > 0:
                break
        else:
            raise ValueError("region is unbounded: vertex enumeration impossible")
    found = {}
    for _, _, b in rows:
        if b < 0:
            break
    else:
        found[0, 0, 1] = None
    for i, (p1, p2, pb) in enumerate(rows):
        # The d1 intercept (pb/p1, 0): a.n <= b*det reduces to a1*n <= b*det.
        if p1:
            n, det = (pb, p1) if p1 > 0 else (-pb, -p1)
            if n >= 0:
                for a1, _, b in rows:
                    if a1 * n > b * det:
                        break
                else:
                    g = math.gcd(n, det)
                    found[n // g, 0, det // g] = None
        # The d2 intercept (0, pb/p2).
        if p2:
            n, det = (pb, p2) if p2 > 0 else (-pb, -p2)
            if n >= 0:
                for _, a2, b in rows:
                    if a2 * n > b * det:
                        break
                else:
                    g = math.gcd(n, det)
                    found[0, n // g, det // g] = None
        for q1, q2, qb in rows[i + 1 :]:
            det = p1 * q2 - p2 * q1
            if det > 0:
                n1, n2 = pb * q2 - qb * p2, p1 * qb - q1 * pb
            elif det:
                n1, n2, det = qb * p2 - pb * q2, q1 * pb - p1 * qb, -det
            else:
                continue
            if n1 < 0 or n2 < 0:
                continue
            for a1, a2, b in rows:
                if a1 * n1 + a2 * n2 > b * det:
                    break
            else:
                g = math.gcd(n1, n2, det)
                found[n1 // g, n2 // g, det // g] = None
    if not found:
        raise ValueError("region is empty: no feasible vertex")
    return tuple(found)


class DofRegion:
    """Bounded, nonempty intersection of half-spaces with d1, d2 >= 0.

    Boundedness and nonemptiness are checked at construction by running the
    exact vertex enumeration; a non-finite coefficient is refused.
    Coefficients are ints, floats, ``Fraction``s or numpy scalars, and each
    enters at its exact value, a float as ``Fraction(x)``.  A region keeps
    its constraints' integer rows and its vertices as an unordered set of
    gcd-reduced integer triples (n1, n2, det), ``_crossings``, which
    ``sum_max``, ``axis_max``, ``contains`` and ``is_subset`` read; the
    counterclockwise order ``_triples``, read by ``vertices``,
    ``float_vertices`` and ``time_share``, is built on first read.

    The bound constructors build their regions from integer rows directly
    (``_from_rows``), with no constraints stored: ``constraints`` is derived
    from the rows on first read, in ``Fraction``s.  Regions compare and hash
    by ``constraints`` and are immutable, and every field is a tuple, so a
    region can be shared.  ``_from_rows`` interns its regions: an
    ``lru_cache`` of ``_INTERNED`` (64) entries keyed by ``(rows, scales)``
    as int tuples returns the same object for the same rows, so each
    distinct bound is enumerated and ordered once while it stays in the
    cache.  ``DofRegion(constraints)`` is not interned, so each such region
    keeps its caller's coefficient types in ``constraints``.
    """

    def __init__(self, constraints) -> None:
        constraints = tuple(constraints)
        rows = tuple(_int_row(c) for c in constraints)
        self.__dict__.update(constraints=constraints, _rows=rows, _crossings=_exact_vertices(rows))

    @classmethod
    def _from_rows(cls, rows, scales) -> "DofRegion":
        """The interned region of the integer ``rows`` (a1, a2, b), row i
        standing for the constraint (a1, a2, b) / ``scales[i]`` with
        ``scales[i]`` > 0."""
        return _interned(tuple(rows), tuple(scales))

    @cached_property
    def constraints(self) -> tuple[HalfSpace, ...]:
        return tuple(
            HalfSpace(Fraction(a1, s), Fraction(a2, s), Fraction(b, s))
            for (a1, a2, b), s in zip(self._rows, self._scales)
        )

    @cached_property
    def _triples(self) -> tuple[tuple[int, int, int], ...]:
        return _ccw_order(self._crossings)

    @cached_property
    def _vertices(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((Fraction(n1, det), Fraction(n2, det)) for n1, n2, det in self._triples)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a DofRegion")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.constraints == other.constraints

    def __hash__(self) -> int:
        return hash(self.constraints)

    def __repr__(self) -> str:
        return f"DofRegion(constraints={self.constraints!r})"


# Regions kept by _from_rows.  The two region CSVs and figures 3, 4, 6 and 7
# at one alpha read 21 regions, 7 of them distinct (figure 8 builds none),
# so 64 entries hold their repeats; the reuse is within such a call, and
# 1024 entries would add about 1 MB of peak memory.
_INTERNED = 64


@lru_cache(maxsize=_INTERNED)
def _interned(rows, scales) -> DofRegion:
    region = DofRegion.__new__(DofRegion)
    region.__dict__.update(_rows=rows, _scales=scales, _crossings=_exact_vertices(rows))
    return region


def vertices(region: DofRegion) -> list[tuple[Fraction, Fraction]]:
    """The region's vertices as ``Fraction`` pairs, distinct and in
    counterclockwise order from the largest-d1 vertex (ties: smallest d2);
    built from the ordered triples on first call."""
    return list(region._vertices)


def float_vertices(region: DofRegion) -> list[tuple[float, float]]:
    """``vertices`` as floats, in the same order, read straight off the
    triples (int true division is correctly rounded, so each equals
    ``float`` of the ``Fraction``, and an on-axis vertex has an exact 0.0).
    The CSV writers format these floats once per interned region."""
    return [(n1 / det, n2 / det) for n1, n2, det in region._triples]


def contains(region: DofRegion, point) -> bool:
    """Whether ``point`` lies in the region, decided on the region's integer
    rows at the point's exact value (a float at its binary value) with no
    tolerance; a non-finite point lies outside."""
    try:
        point = _triple(point)
    except (OverflowError, ValueError):  # inf and nan have no ratio
        return False
    return _inside(region._rows, point)


def _inside(rows, point) -> bool:
    """Whether the triple ``point`` (n1, n2, det) meets every integer row
    and both axes exactly."""
    n1, n2, det = point
    if n1 < 0 or n2 < 0:
        return False
    for a1, a2, b in rows:
        if a1 * n1 + a2 * n2 > b * det:
            return False
    return True


def is_subset(inner: DofRegion, outer: DofRegion) -> bool:
    """Vertex test, valid because both regions are convex: each vertex
    triple of ``inner`` is tested on the rows of ``outer``, exactly."""
    return all(_inside(outer._rows, t) for t in inner._crossings)


def sum_max(region: DofRegion) -> Fraction:
    """Maximum of d1 + d2 over the region (attained at a vertex), read off
    the unordered vertex triples by ``_sum_max_ratio``; one ``Fraction`` is
    built, for the result.  The CSV writers call it once per interned
    region, for its summary text; figure 8 reads ``sum_dof_ratios``, which
    takes the same maximum of its bounds' rows and calls it not at all."""
    return Fraction(*_sum_max_ratio(region._crossings))


def _sum_max_ratio(triples) -> tuple[int, int]:
    """(n, det) of the largest (n1 + n2)/det over the vertex triples, by
    integer cross-multiplication; n/det is the sum maximum, not reduced."""
    best, best_det = 0, 1  # every vertex has d1 + d2 >= 0
    for n1, n2, det in triples:
        if (n1 + n2) * best_det > best * det:
            best, best_det = n1 + n2, det
    return best, best_det


def axis_max(region: DofRegion, axis: int) -> Fraction:
    """Largest coordinate value on the given axis (0 -> d1, 1 -> d2) with the
    other coordinate zero; ``Fraction(0)`` if no vertex lies on that axis.
    Every vertex is an exact crossing, so an on-axis vertex has an exact
    zero.  Read off the vertex triples like ``sum_max``; the CSV writers
    format it once per interned region."""
    if axis not in (0, 1):
        raise ValueError(f"axis must be 0 (d1) or 1 (d2), got {axis!r}")
    best, best_det = 0, 1  # every vertex has nonnegative coordinates
    for t in region._crossings:
        if t[1 - axis] == 0 and t[axis] * best_det > best * t[2]:
            best, best_det = t[axis], t[2]
    return Fraction(best, best_det)


# ---------------------------------------------------------------------------
# Bound constructors.  Each takes alpha = p/q at its exact ratio, a float at
# its binary value, refuses it outside [0, 1] and forms its integer rows
# from p and q in int arithmetic: every coefficient is a polynomial in alpha
# of degree at most two, so a row is the constraint times q, q**2 or another
# positive int.  The bounds whose sum maxima figure 8 draws keep their
# formula in a row function (p, q) -> (rows, scales), as int tuples: the
# constructor interns the region of those rows, and ``sum_dof_ratios``
# enumerates the rows with no region.
# ---------------------------------------------------------------------------


def _inputs(*xs):
    """The exact (numerator, denominator) of each input, a float at its
    binary value."""
    try:
        return [_ratio(x) for x in xs]
    except (OverflowError, ValueError):  # inf and nan have no ratio
        raise ValueError(f"bound inputs {xs} include a non-finite value") from None


def _alpha_ratio(alpha):
    """alpha's exact (p, q), a float at its binary value, refused unless
    0 <= p/q <= 1 (nan and inf are refused too)."""
    try:
        p, q = _ratio(alpha)
        if 0 <= p <= q:
            return p, q
    except (OverflowError, ValueError):  # inf and nan have no ratio
        pass
    raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def _budgets(profile):
    """The profile-weighted budget of ``bc_outer``'s first row and of its
    second (the 1a and a1 weights swapped), as integers over one common
    denominator.

    budget = (3 - alpha)*l1a + 2*(l11 + alpha*laa) + (1 + alpha)*la1; with
    alpha = p/q and the four fractions over their lcm m, q*m*budget is an
    integer.
    """
    (p, q), *lams = _inputs(profile.alpha, *profile.fractions())
    m = math.lcm(*(d for _, d in lams))
    l11, l1a, la1, laa = (n * (m // d) for n, d in lams)
    common = 2 * (q * l11 + p * laa)
    first = (3 * q - p) * l1a + common + (q + p) * la1
    second = (3 * q - p) * la1 + common + (q + p) * l1a
    return first, second, q * m


def wiretap_upper(profile) -> Fraction:
    """Upper bound on the single-confidential-message secure DoF: a third of
    the profile-weighted budget of ``bc_outer``'s first row."""
    budget, _, den = _budgets(profile)
    return Fraction(budget, 3 * den)


def bc_outer(profile) -> DofRegion:
    """Outer bound on the secure DoF region for an alternating profile:
    3*d1 + d2 and d1 + 3*d2 are each capped by the profile-weighted budget."""
    first, second, den = _budgets(profile)
    return DofRegion._from_rows([(3 * den, den, first), (den, 3 * den, second)], (den, den))


def yang_inner(alpha) -> DofRegion:
    """Baseline inner bound from the four-slot noise-injection scheme on the
    fixed (strong, weak) topology: 3*alpha*d1 + d2 <= 2*alpha and
    alpha*d1 + 3*d2 <= 2*alpha.

    At alpha = 0 the two constraints degenerate to parallel lines; the region
    is then built directly as its limit, the segment d2 = 0, d1 <= 2/3.
    """
    p, q = _alpha_ratio(alpha)
    if not p:
        return DofRegion._from_rows([(0, 1, 0), (3, 0, 2)], (1, 3))
    return DofRegion._from_rows([(3 * p, q, 2 * p), (p, 3 * q, 2 * p)], (q, q))


def yang_corner_sum(alpha):
    """Sum DoF of the baseline scheme at its balanced corner, (1 + alpha)/2.

    This is the quantity plotted on the sum-DoF comparison curves.  For
    alpha < 1/3 the region's geometric sum maximum is attained at the
    single-user corner (2/3, 0) instead, so this corner sum is tracked
    separately from :func:`sum_max`.  The result keeps alpha's number type.
    """
    _alpha_ratio(alpha)
    return (1 + alpha) / 2


def prop2_inner(alpha) -> DofRegion:
    """Inner bound from the four-phase scheme with digitized side information
    and an extra low-power confidential layer, fixed (strong, weak) topology:
    3*(1 + alpha)*d1 + 2*d2 <= 2*(1 + alpha) and
    alpha*(3 - alpha)*d1 + 6*d2 <= 4*alpha."""
    return DofRegion._from_rows(*_prop2_rows(*_alpha_ratio(alpha)))


def _prop2_rows(p, q):
    rows = ((3 * (q + p), 2 * q, 2 * (q + p)), (p * (3 * q - p), 6 * q * q, 4 * p * q))
    return rows, (q, q * q)


def sym_alt_inner(alpha) -> DofRegion:
    """Inner bound for the symmetric alternating topology (Gaussian noise
    injection): 6*d1 + (1 + alpha)*d2 <= 2*(1 + alpha) and
    2*(2*alpha - 1)*d1 + 3*(1 + alpha)*d2 <= (1 + alpha)**2.  The second
    constraint has a negative d1 coefficient for alpha < 1/2."""
    return DofRegion._from_rows(*_sym_alt_rows(*_alpha_ratio(alpha)))


def _sym_alt_rows(p, q):
    rows = ((6 * q, q + p, 2 * (q + p)), (2 * (2 * p - q) * q, 3 * (q + p) * q, (q + p) ** 2))
    return rows, (q, q * q)


def integer_sym_alt_inner(alpha) -> DofRegion:
    """Inner bound for integer channels on the symmetric alternating
    topology, achieved with structured (lattice) noise: 3*d1 + alpha*d2 and
    alpha*d1 + 3*d2 are each capped by (3 + alpha)/2."""
    return DofRegion._from_rows(*_integer_sym_alt_rows(*_alpha_ratio(alpha)))


def _integer_sym_alt_rows(p, q):
    half = 3 * q + p
    return ((6 * q, 2 * p, half), (2 * p, 6 * q, half)), (2 * q, 2 * q)


def gdof_fixed(alpha) -> DofRegion:
    """DoF region without secrecy constraints, fixed (strong, weak) topology:
    d1 <= 1, d2 <= alpha, 2*d1 + d2 <= 2 and d1 + 2*d2 <= 1 + alpha."""
    return DofRegion._from_rows(*_gdof_rows(*_alpha_ratio(alpha)))


def _gdof_rows(p, q):
    return ((1, 0, 1), (0, q, p), (2, 1, 2), (q, 2 * q, q + p)), (1, q, 1, q)


# The figure-8 curves that are a bound's sum maximum, by the bound's row
# function.
_SUM_MAX_CURVES = (
    ("fixed-inner", _prop2_rows),
    ("sym-alt", _sym_alt_rows),
    ("int-sym-alt", _integer_sym_alt_rows),
    ("gdof", _gdof_rows),
)


def sum_dof_ratios(alpha):
    """The sum-DoF comparison curves at alpha, as ((name, n, d), ...) with
    each value n/d exact and not reduced: the yang corner sum (1 + alpha)/2
    of alpha's ratio p/q (``yang_corner_sum``), then the sum maximum of
    fixed-inner, sym-alt, int-sym-alt and gdof.  Each maximum is
    ``_sum_max_ratio`` of the ``_exact_vertices`` of the bound's rows, as
    ``sum_max`` reads it, with no region built or interned.  An alpha
    outside [0, 1] is refused."""
    p, q = _alpha_ratio(alpha)
    curves = [("yang", q + p, 2 * q)]
    for name, bound_rows in _SUM_MAX_CURVES:
        curves.append((name, *_sum_max_ratio(_exact_vertices(bound_rows(p, q)[0]))))
    return tuple(curves)


# ---------------------------------------------------------------------------
# Time sharing.
# ---------------------------------------------------------------------------


def time_share(regions) -> DofRegion:
    """Convex hull of the union of the regions' vertex sets, as ``Fraction``
    half-spaces.

    Realizes the operating points reachable by splitting the block between
    strategies.  The hull is not down-closed: the hull of (1, 0) and (0, 1)
    is the segment between them, without the origin.  The hull vertices are
    picked among the input vertices by the exact sign of ``_orient``, so the
    hull's vertices are input vertices.  Each face is the line through two
    consecutive hull vertices, a segment has one face each way, and a point
    or a segment is closed by its bounding box.
    """
    regions = list(regions)
    if not regions:
        raise ValueError("time_share needs at least one region")
    triples = {v: t for r in regions for v, t in zip(vertices(r), r._triples)}
    points = sorted(triples)

    def chain(seq):
        # Andrew's monotone chain with the exact turn test: keep only left turns.
        out = []
        for r in seq:
            while len(out) >= 2 and _orient(*(triples[v] for v in (out[-2], out[-1], r))) <= 0:
                out.pop()
            out.append(r)
        return out[:-1]

    hull = chain(points) + chain(points[::-1]) or points
    cons = []
    for (p1, p2), (q1, q2) in zip(hull, hull[1:] + hull[:1]):
        n1, n2 = q2 - p2, p1 - q1  # outward normal of the counterclockwise edge
        if n1 or n2:
            cons.append(HalfSpace(n1, n2, n1 * p1 + n2 * p2))
    if len(hull) < 3:
        for axis, (a1, a2) in enumerate(((1, 0), (0, 1))):
            lo, hi = min(p[axis] for p in hull), max(p[axis] for p in hull)
            cons += [HalfSpace(a1, a2, hi), HalfSpace(-a1, -a2, -lo)]
    return DofRegion(tuple(cons))
