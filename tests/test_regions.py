import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdof import regions
from gsdof.regions import (
    DofRegion,
    HalfSpace,
    axis_max,
    bc_outer,
    contains,
    gdof_fixed,
    integer_sym_alt_inner,
    is_subset,
    prop2_inner,
    sum_max,
    sym_alt_inner,
    time_share,
    vertices,
    wiretap_upper,
    yang_inner,
)
from gsdof.topology import TopologyProfile

ALPHA_GRID = [round(0.05 * k, 10) for k in range(21)]


def oracle_vertices(region):
    """Brute-force pairwise solve over all constraint/axis lines (numpy path,
    independent of the library's exact-arithmetic enumeration)."""
    rows = [(float(c.a1), float(c.a2), float(c.b)) for c in region.constraints]
    rows += [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
    pts = []
    for (a1, a2, b1), (c1, c2, b2) in itertools.combinations(rows, 2):
        m = np.array([[a1, a2], [c1, c2]])
        if abs(np.linalg.det(m)) < 1e-12:
            continue
        p = np.linalg.solve(m, np.array([b1, b2]))
        if p[0] < -1e-9 or p[1] < -1e-9:
            continue
        if all(a * p[0] + c * p[1] <= b + 1e-9 for a, c, b in rows):
            pts.append((float(p[0]), float(p[1])))
    out = []
    for p in pts:
        if not any(abs(p[0] - q[0]) < 1e-9 and abs(p[1] - q[1]) < 1e-9 for q in out):
            out.append(p)
    return out


def exact_oracle_vertices(region):
    return exact_oracle_points([(c.a1, c.a2, c.b) for c in region.constraints])


def exact_oracle_points(rows):
    """Brute-force exact enumeration over the rows (a1, a2, b): every pair
    of constraint/axis lines solved in ``Fraction`` arithmetic, kept when
    exactly feasible; the set dedups exactly."""
    rows = [tuple(Fraction(x) for x in row) for row in rows]
    rows += [(Fraction(-1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(-1), Fraction(0))]
    pts = set()
    for (a1, a2, b1), (c1, c2, b2) in itertools.combinations(rows, 2):
        det = a1 * c2 - a2 * c1
        if det == 0:
            continue
        p = ((b1 * c2 - b2 * a2) / det, (a1 * b2 - c1 * b1) / det)
        if all(x * p[0] + y * p[1] <= b for x, y, b in rows):
            pts.add(p)
    return pts


def assert_exact_vertices(region):
    verts = vertices(region)
    assert all(type(x) is Fraction for v in verts for x in v), verts
    assert len(set(verts)) == len(verts)
    assert set(verts) == exact_oracle_vertices(region)
    return verts


def same_point_sets(a, b):
    if len(a) != len(b):
        return False
    return all(
        any(abs(float(p[0]) - q[0]) <= 1e-9 and abs(float(p[1]) - q[1]) <= 1e-9 for q in b)
        for p in a
    )


def test_wiretap_upper_values():
    assert abs(wiretap_upper(TopologyProfile.fixed("1a", 0.5)) - (1 - 0.5 / 3)) < 1e-12
    assert abs(wiretap_upper(TopologyProfile.fixed("11", 0.3)) - 2 / 3) < 1e-12
    assert wiretap_upper(TopologyProfile.fixed("aa", 0.0)) == 0.0
    # Named profiles keep alpha's number type: exact for a Fraction.
    assert wiretap_upper(TopologyProfile.fixed("1a", Fraction(1, 4))) == Fraction(11, 12)
    assert wiretap_upper(TopologyProfile.named("sym", Fraction(1, 4))) == Fraction(2, 3)


def test_bc_outer_fixed_corner():
    # A float alpha counts at its binary value, so the corner is exact there.
    for a in ALPHA_GRID:
        reg = bc_outer(TopologyProfile.fixed("1a", a))
        corner = (1 - Fraction(a) / 2, Fraction(a) / 2)
        assert contains(reg, corner)
        assert corner in vertices(reg)


def test_bc_outer_symmetric():
    reg = bc_outer(TopologyProfile.symmetric_alternating(0.5))
    cons = {(c.a1, c.a2, c.b) for c in reg.constraints}
    assert cons == {(3, 1, 2.0), (1, 3, 2.0)}
    assert any(abs(v[0] - 0.5) < 1e-9 and abs(v[1] - 0.5) < 1e-9 for v in vertices(reg))


def test_bc_outer_no_topology_d1_face():
    reg = bc_outer(TopologyProfile.fixed("11", 0.7))
    assert abs(axis_max(reg, 0) - 2 / 3) < 1e-9


def test_yang_vertex_set():
    for a in [0.05, 0.25, 0.5, 0.75, 1.0]:
        expect = [(2 / 3, 0.0), (0.5, a / 2), (0.0, 2 * a / 3)]
        got = [v for v in vertices(yang_inner(a)) if max(abs(v[0]), abs(v[1])) > 1e-9]
        assert same_point_sets(got, expect)


ALPHA_BUILDERS = (
    yang_inner,
    prop2_inner,
    sym_alt_inner,
    integer_sym_alt_inner,
    gdof_fixed,
    regions.yang_corner_sum,
)


@pytest.mark.parametrize("build", ALPHA_BUILDERS, ids=lambda b: b.__name__)
@pytest.mark.parametrize(
    "alpha",
    [-1 / 3, Fraction(-1, 3), -0.5, 1.5, Fraction(3, 2), np.float64(1.5)]
    + [math.nan, math.inf, -math.inf],
    ids=repr,
)
def test_bound_constructors_refuse_alpha_outside_the_unit_interval(build, alpha):
    # Decided on alpha's exact ratio: no segment, region, "region is empty"
    # or corner sum for an alpha outside [0, 1]; nan and inf have no ratio.
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got "):
        build(alpha)


@pytest.mark.parametrize("build", ALPHA_BUILDERS, ids=lambda b: b.__name__)
def test_bound_constructors_build_at_both_ends_of_the_unit_interval(build):
    for alpha in (0, 1, 0.0, 1.0, Fraction(0), Fraction(1), np.float64(1.0), True):
        got = build(alpha)
        if build is regions.yang_corner_sum:
            assert got == (1 + alpha) / 2 and type(got) is type((1 + alpha) / 2)
        else:
            assert vertices(got)


def test_yang_alpha_zero_degenerates_to_segment():
    reg = yang_inner(0.0)
    assert contains(reg, (2 / 3, 0.0))
    assert contains(reg, (0.5, 0.0))
    assert not contains(reg, (2 / 3 + 1e-6, 0.0))
    assert not contains(reg, (0.1, 1e-6))


def test_yang_summax_oracle():
    # independent check: maximize d1+d2 over brute-force enumerated vertices
    for a in (0.4, 1.0):
        reg = yang_inner(a)
        oracle = max(p[0] + p[1] for p in oracle_vertices(reg))
        assert abs(sum_max(reg) - oracle) < 1e-9
    assert abs(sum_max(yang_inner(1.0)) - 1.0) < 1e-9


def test_prop2_vertices():
    for a in [0.05, 0.3, 0.5, 0.9]:
        reg = prop2_inner(a)
        corner = (2 / (3 + a), a * (1 + a) / (3 + a))
        assert any(
            abs(v[0] - corner[0]) < 1e-9 and abs(v[1] - corner[1]) < 1e-9
            for v in vertices(reg)
        )
        assert any(abs(v[0]) < 1e-9 and abs(v[1] - 2 * a / 3) < 1e-9 for v in vertices(reg))


def test_prop2_corner_matches_linear_solve_oracle():
    a = 0.5
    m = np.array([[3 * (1 + a), 2.0], [a * (3 - a), 6.0]])
    rhs = np.array([2 * (1 + a), 4 * a])
    expect = np.linalg.solve(m, rhs)
    assert abs(expect[0] - 4 / 7) < 1e-12 and abs(expect[1] - 3 / 14) < 1e-12
    got = vertices(prop2_inner(a))
    assert any(abs(v[0] - 4 / 7) < 1e-9 and abs(v[1] - 3 / 14) < 1e-9 for v in got)


def test_prop2_exact_fractions():
    reg = prop2_inner(Fraction(1, 2))
    verts = vertices(reg)
    assert (Fraction(4, 7), Fraction(3, 14)) in verts
    assert (Fraction(2, 3), Fraction(0, 1)) in verts


def test_fraction_regions_have_fraction_vertices():
    # The origin comes from the two integer axis lines; it must stay exact.
    a = Fraction(1, 2)
    for reg in (
        prop2_inner(a),
        yang_inner(a),
        sym_alt_inner(a),
        integer_sym_alt_inner(a),
        gdof_fixed(a),
        bc_outer(TopologyProfile(a, 0, 1, 0, 0)),
    ):
        verts = vertices(reg)
        assert (0, 0) in verts
        assert all(type(x) is Fraction for v in verts for x in v), verts
    assert vertices(prop2_inner(a))[-1] == (Fraction(0), Fraction(0))
    assert all(type(x) is Fraction for v in vertices(prop2_inner(0.5)) for x in v)
    assert all(type(x) is float for v in regions.float_vertices(prop2_inner(0.5)) for x in v)


def test_exact_vertices_match_exact_oracle_on_alpha_grid():
    for k in range(201):
        a = Fraction(k, 200)
        for reg in (
            bc_outer(TopologyProfile.named("1a", a)),
            bc_outer(TopologyProfile.named("sym", a)),
            yang_inner(a),
            prop2_inner(a),
            sym_alt_inner(a),
            integer_sym_alt_inner(a),
            gdof_fixed(a),
        ):
            assert_exact_vertices(reg)


def test_exact_sum_max_matches_exact_oracle_on_fine_grid():
    for j in range(1001):
        a = Fraction(j, 1000)
        for build in (prop2_inner, sym_alt_inner, integer_sym_alt_inner, gdof_fixed):
            reg = build(a)
            verts = assert_exact_vertices(reg)
            best = sum_max(reg)
            assert type(best) is Fraction
            assert best == max(x + y for x, y in verts)


def library_regions(a):
    """Every bound constructor at ``a``, the outer bound under each profile."""
    outers = (bc_outer(TopologyProfile.named(lab, a)) for lab in ("11", "1a", "a1", "aa", "sym"))
    builders = (yang_inner, prop2_inner, sym_alt_inner, integer_sym_alt_inner, gdof_fixed)
    return [*outers, *(build(a) for build in builders)]


def fraction_contains(region, point):
    """``contains`` in ``Fraction`` arithmetic on the constraints as given."""
    d1, d2 = map(Fraction, point)
    return d1 >= 0 and d2 >= 0 and all(c.violation(d1, d2) <= 0 for c in region.constraints)


def test_one_region_for_a_float_alpha_and_its_fraction_twin():
    # A float alpha counts at its binary value: every constructor builds the
    # region of Fraction(alpha), equal and with the same hash.
    for k in range(201):
        a = k / 200
        for reg, twin in zip(library_regions(a), library_regions(Fraction(a))):
            assert reg == twin and hash(reg) == hash(twin), (a, reg, twin)
            assert reg.constraints == twin.constraints
        for label in ("11", "1a", "a1", "aa", "sym"):
            got = wiretap_upper(TopologyProfile.named(label, a))
            assert type(got) is Fraction
            assert got == wiretap_upper(TopologyProfile.named(label, Fraction(a)))


def test_every_constructor_interns_a_float_alpha_with_its_fraction_twin():
    # The rows of a float alpha equal those of Fraction(alpha), so each
    # constructor hands back the one interned region for both.
    for k in range(201):
        a = k / 200
        for reg, twin in zip(library_regions(a), library_regions(Fraction(a))):
            assert reg is twin, (a, reg)


def test_a_region_holds_only_tuples():
    for reg in (*library_regions(Fraction(1, 3)), DofRegion([HalfSpace(1, 0, 1), HalfSpace(0, 1, 1)])):
        vertices(reg)
        assert type(reg._rows) is tuple and all(type(row) is tuple for row in reg._rows)
        assert type(reg._crossings) is tuple and type(reg._triples) is tuple
        assert type(reg.constraints) is tuple
    assert type(prop2_inner(Fraction(1, 3))._scales) is tuple


def test_mutating_a_returned_vertex_list_leaves_the_region_unchanged():
    a = Fraction(2, 7)
    reg = prop2_inner(a)
    exact, rounded = vertices(reg), regions.float_vertices(reg)
    for got in (vertices(reg), regions.float_vertices(reg)):
        got.reverse()
        got.append((5, 5))
        got[0] = (-1, -1)
    assert prop2_inner(a) is reg
    assert vertices(reg) == exact and regions.float_vertices(reg) == rounded


def test_constraint_regions_are_not_interned():
    # A float half-space equals its Fraction twin, so the two regions are
    # equal; each still keeps its own constraints and their number types.
    floats = (HalfSpace(1.0, 0.5, 1.0), HalfSpace(0.25, 1.0, 0.75))
    exact = tuple(HalfSpace(*map(Fraction, (c.a1, c.a2, c.b))) for c in floats)
    reg, twin = DofRegion(floats), DofRegion(exact)
    assert reg == twin and reg is not twin
    assert reg.constraints is not twin.constraints
    assert all(type(x) is float for c in reg.constraints for x in (c.a1, c.a2, c.b))
    assert all(type(x) is Fraction for c in twin.constraints for x in (c.a1, c.a2, c.b))


def test_a_region_csv_and_figures_enumerate_each_distinct_bound_once(monkeypatch):
    # Count vertex enumerations and vertex texts, not time.  At a = 37/200
    # the two region CSVs and figures 3, 4, 6 and 7 read seven distinct
    # bounds (six under the 1a profile, and the outer bound of sym), and
    # format each one's text once; figure 8 over j/1000, j = 185..189,
    # enumerates the rows of its four bounds per alpha once each, with no
    # interning and no text, and 185/1000 is 37/200, so its four bounds
    # there repeat rows of the region CSV.
    from gsdof import experiments
    from gsdof.cli import BOUND_NAMES

    runs = []
    enumerate_rows = regions._exact_vertices
    monkeypatch.setattr(regions, "_exact_vertices", lambda rows: runs.append(rows) or enumerate_rows(rows))
    regions._interned.cache_clear()
    texts = experiments._region_text
    texts.cache_clear()

    def geometry_csvs(a):
        experiments.region_csv(BOUND_NAMES, a, TopologyProfile.named("1a", a))
        experiments.region_csv(BOUND_NAMES, a, TopologyProfile.named("sym", a))
        for figure in (3, 4, 6, 7):
            experiments.figure_data(figure, alpha=a)

    a = Fraction(37, 200)
    geometry_csvs(a)
    assert len(runs) == 7
    assert texts.cache_info().misses == 7 and texts.cache_info().currsize == 7
    experiments.figure_data(8, alpha_grid=[Fraction(j, 1000) for j in range(185, 190)])
    assert len(runs) == 7 + 20
    assert len(set(runs)) == 7 + 20 - 4
    assert texts.cache_info().misses == 7
    # A float alpha and its Fraction twin share each region and its text.
    geometry_csvs(0.3)
    assert texts.cache_info().misses == 14
    geometry_csvs(Fraction(0.3))
    assert texts.cache_info().misses == 14 and len(runs) == 7 + 20 + 7
    # The text cache is bounded like the interning: 20 more alphas format
    # more than _INTERNED texts, and at most _INTERNED are held.
    for k in range(20):
        geometry_csvs(Fraction(k, 19))
    info = texts.cache_info()
    assert info.currsize == info.maxsize == regions._INTERNED < info.misses - 14


def test_exact_queries_match_the_fraction_formulas_on_alpha_grid():
    # The queries read the integer vertex triples and rows; the oracle is
    # the Fraction formulas on vertices().  A float alpha is one more input:
    # its regions are as exact as its Fraction twin's.
    step = Fraction(1, 10**9)
    grid = [Fraction(k, 200) for k in range(201)] + [Fraction(1, 3)]
    for a in grid + [float(x) for x in grid]:
        library = library_regions(a)
        for reg in library:
            verts = vertices(reg)
            assert all(type(x) is Fraction for v in verts for x in v), verts
            assert vertices(reg) == verts
            assert regions.float_vertices(reg) == [(float(x), float(y)) for x, y in verts]
            best = sum_max(reg)
            assert type(best) is Fraction and best == max(x + y for x, y in verts)
            for axis in (0, 1):
                on_axis = [v[axis] for v in verts if v[1 - axis] == 0]
                want = max(on_axis) if on_axis else Fraction(0)
                got = axis_max(reg, axis)
                assert type(got) is type(want) and got == want, (a, reg, axis)
            assert all(contains(reg, v) for v in verts)
            # Just beyond each face of the counterclockwise boundary: out.
            for p, q in zip(verts, verts[1:] + verts[:1]):
                mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
                out = (mid[0] + step * (q[1] - p[1]), mid[1] + step * (p[0] - q[0]))
                assert contains(reg, mid) and fraction_contains(reg, mid)
                assert contains(reg, out) == fraction_contains(reg, out)
                if len(verts) > 2:
                    assert not contains(reg, out)
        for inner in library:
            for outer in library:
                want = all(fraction_contains(outer, v) for v in vertices(inner))
                assert is_subset(inner, outer) == want


def test_exact_region_keeps_sub_tolerance_vertices_apart():
    # The two corners below lie 1e-12 apart: both are kept, and the
    # crossing (1, 1) that violates the third constraint is dropped.
    eps = Fraction(1, 10**12)
    reg = DofRegion((HalfSpace(1, 0, Fraction(1)), HalfSpace(0, 1, 1), HalfSpace(1, 1, 2 - eps)))
    verts = assert_exact_vertices(reg)
    assert verts == [(1, 0), (1, 1 - eps), (1 - eps, 1), (0, 1), (0, 0)]
    assert all(c.violation(*v) <= 0 for c in reg.constraints for v in verts)


def test_mixed_float_and_fraction_region_is_exact():
    # A float coefficient enters at its exact binary value, which is not the
    # decimal it prints as.
    reg = DofRegion((HalfSpace(1, 0, 0.1), HalfSpace(0, 1, Fraction(1, 3))))
    tenth = Fraction(0.1)
    assert tenth != Fraction(1, 10)
    verts = assert_exact_vertices(reg)
    assert set(verts) == {(0, 0), (tenth, 0), (tenth, Fraction(1, 3)), (0, Fraction(1, 3))}


def test_axis_max_counts_only_exact_on_axis_vertices():
    # (1, 1e-12) lies 1e-12 above the d1 axis, so it is not on the axis;
    # the largest on-axis d1 is the exact vertex (1/2, 0).
    e = 1e-12
    reg = DofRegion((HalfSpace(1, 0, Fraction(1)), HalfSpace(0, 1, 1), HalfSpace(2 * e, -1, e)))
    assert axis_max(reg, 0) == Fraction(1, 2)
    assert axis_max(reg, 1) == 1


def test_axis_max_without_on_axis_vertex_is_zero_of_the_region_type():
    # The square [1, 2]^2 has no vertex on either axis: its hull answers
    # Fraction(0), the type sum_max gives it.
    square = time_share([_point(Fraction(x), Fraction(y)) for x in (1, 2) for y in (1, 2)])
    for axis in (0, 1):
        got = axis_max(square, axis)
        assert type(got) is Fraction and got == 0


@pytest.mark.parametrize("axis", [2, -1])
def test_axis_max_refuses_an_axis_other_than_0_or_1(axis):
    with pytest.raises(ValueError, match=r"axis must be 0 \(d1\) or 1 \(d2\)"):
        axis_max(gdof_fixed(Fraction(1, 2)), axis)


def _oracle_outcome(rows):
    """The oracle's answer for the rows: "unbounded" when some direction
    r >= 0 with r1 + r2 = 1 has a.r <= 0 on every row (a vertex of that
    cone's slice, found by the same exact brute force), "empty" when no
    crossing is feasible, and the vertex set otherwise."""
    cone = exact_oracle_points([(a1, a2, 0) for a1, a2, _ in rows] + [(1, 1, 1)])
    if any(x + y == 1 for x, y in cone):
        return "unbounded"
    return exact_oracle_points(rows) or "empty"


_REFUSALS = {
    "unbounded": "^region is unbounded: vertex enumeration impossible$",
    "empty": "^region is empty: no feasible vertex$",
}


def _turn(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=1, max_size=6))
def test_enumeration_matches_all_pairs_oracle_on_random_rows(rows):
    want = _oracle_outcome(rows)
    cons = [HalfSpace(*row) for row in rows]
    if isinstance(want, str):
        with pytest.raises(ValueError, match=_REFUSALS[want]):
            DofRegion(cons)
        return
    reg = DofRegion(cons)
    crossings = {(Fraction(n1, det), Fraction(n2, det)) for n1, n2, det in reg._crossings}
    assert len(crossings) == len(reg._crossings)
    assert crossings == want
    # The integer max that sum_max and figure 8 share, on the bare rows.
    n, d = regions._sum_max_ratio(regions._exact_vertices(tuple(rows)))
    assert Fraction(n, d) == max(x + y for x, y in want)
    verts = vertices(reg)
    assert set(verts) == want and len(verts) == len(want)
    turns = [_turn(*(verts[(i + k) % len(verts)] for k in range(3))) for i in range(len(verts))]
    if len(verts) < 3 or not any(turns):
        assert verts == sorted(verts)
    else:
        assert all(t > 0 for t in turns)
        assert verts[0] == max(verts, key=lambda v: (v[0], -v[1]))


def test_queries_do_not_order_the_vertices(monkeypatch):
    calls = []
    ccw_order = regions._ccw_order
    monkeypatch.setattr(regions, "_ccw_order", lambda points: calls.append(1) or ccw_order(points))
    # An interned region may have been ordered by an earlier read: start cold.
    regions._interned.cache_clear()
    reg = prop2_inner(Fraction(1, 2))
    sum_max(reg)
    axis_max(reg, 0)
    axis_max(reg, 1)
    assert is_subset(reg, gdof_fixed(Fraction(1, 2)))
    assert contains(reg, (0, 0))
    assert calls == []
    first = vertices(reg)
    assert calls == [1]
    assert vertices(reg) == first
    regions.float_vertices(reg)
    assert calls == [1]


def test_exact_region_inclusion_has_no_tolerance():
    # (1, 0) violates the third constraint by 1e-12: the region refuses it.
    e = 1e-12
    cons = (HalfSpace(1, 0, Fraction(1)), HalfSpace(0, 1, 1), HalfSpace(2 * e, -1, e))
    reg = DofRegion(cons)
    assert not contains(reg, (1, 0))
    assert contains(reg, (Fraction(1, 2), 0)) and contains(reg, (1, e))
    assert not contains(reg, (0, Fraction(-1, 10**30)))
    assert not contains(reg, (float("nan"), 0)) and not contains(reg, (float("inf"), 0))
    # A vertex 1e-12 outside the exact outer region fails the inclusion.
    inner = DofRegion((HalfSpace(1, 0, Fraction(1)), HalfSpace(0, 1, 0)))
    assert not is_subset(inner, reg)
    assert is_subset(DofRegion((HalfSpace(1, 0, Fraction(1, 2)), HalfSpace(0, 1, 0))), reg)


def test_thin_exact_triangle_is_ordered_counterclockwise():
    # A triangle 1e-13 high is not a segment: it starts at its largest-d1 vertex.
    tiny = Fraction(1, 10**13)
    reg = DofRegion((HalfSpace(1, 0, Fraction(1)), HalfSpace(-tiny, 1, 0)))
    assert vertices(reg) == [(1, 0), (1, tiny), (0, 0)]


def test_float_region_starts_at_exact_largest_d1_vertex():
    # Two vertices share the exact d1 = 1/3; the on-axis one comes first,
    # whatever float rounding would have made of the other's d1.
    reg = DofRegion(
        (
            HalfSpace(-0.71, 4.62, 1.34),
            HalfSpace(1.34, -1.884940390686305, 1.7),
            HalfSpace(6, 0, 2),
            HalfSpace(5, 5, 6),
        )
    )
    assert vertices(reg)[0] == (Fraction(1, 3), 0)
    assert regions.float_vertices(reg)[0] == (1 / 3, 0.0)


def test_float_region_vertices_are_rounded_exact_crossings():
    verts = regions.float_vertices(DofRegion((HalfSpace(5, 2, 1), HalfSpace(1.4, 3.05, 0.28))))
    assert verts[0] == (0.2, 0.0)
    assert math.copysign(1, verts[0][1]) == 1 and verts[-1] == (0.0, 0.0)


def test_float_vertices_round_exact_vertices_on_alpha_grid():
    # The float vertices are the exact ones, rounded, in order.  A float
    # alpha counts at its binary value, so the exact twin is the same
    # constructor at Fraction(alpha).
    for k in range(201):
        a = k / 200
        for reg, twin in zip(library_regions(a), library_regions(Fraction(a))):
            exact = vertices(twin)
            assert vertices(reg) == exact
            assert regions.float_vertices(reg) == [(float(x), float(y)) for x, y in exact]
            assert regions.float_vertices(reg) == regions.float_vertices(twin)


@pytest.mark.parametrize("kind", [np.int64, np.float64, np.float32, bool])
def test_numpy_and_bool_coefficients_build(kind):
    reg = DofRegion((HalfSpace(kind(1), kind(0), kind(1)), HalfSpace(kind(0), kind(1), kind(1))))
    verts = vertices(reg)
    assert verts == [(1, 0), (1, 1), (0, 1), (0, 0)]
    assert all(type(x) is Fraction for v in verts for x in v)
    assert regions.float_vertices(reg) == [(1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
    # A float32 coefficient enters at its exact binary value.
    tenth = np.float32(0.1)
    reg = DofRegion((HalfSpace(1, 0, tenth), HalfSpace(0, 1, 1)))
    assert vertices(reg)[0] == (Fraction(float(tenth)), 0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_non_finite_coefficient_rejected(bad, where):
    for one in (1, Fraction(1)):
        coefs = [one, one, one]
        coefs[where] = bad
        bad_row = HalfSpace(*coefs)
        msg = f"^region constraint {re.escape(str(bad_row))} has a non-finite coefficient$"
        with pytest.raises(ValueError, match=msg):
            DofRegion((HalfSpace(one, 0, one), bad_row))


def test_sym_alt_vertices():
    for a in [0.0, 0.25, 0.5, 0.75, 1.0]:
        reg = sym_alt_inner(a)
        assert any(
            abs(v[0] - (1 + a) / 4) < 1e-9 and abs(v[1] - 0.5) < 1e-9 for v in vertices(reg)
        )
        assert any(
            abs(v[0] - (1 + a) / 3) < 1e-9 and abs(v[1]) < 1e-9 for v in vertices(reg)
        )
    assert any(
        abs(v[0] - 0.5) < 1e-9 and abs(v[1] - 0.5) < 1e-9 for v in vertices(sym_alt_inner(1.0))
    )


def test_integer_sym_alt_vertices():
    for a in [0.0, 0.5, 1.0]:
        reg = integer_sym_alt_inner(a)
        assert any(abs(v[0] - 0.5) < 1e-9 and abs(v[1] - 0.5) < 1e-9 for v in vertices(reg))
        assert any(
            abs(v[0] - (3 + a) / 6) < 1e-9 and abs(v[1]) < 1e-9 for v in vertices(reg)
        )
    oracle = max(p[0] + p[1] for p in oracle_vertices(integer_sym_alt_inner(1.0)))
    assert abs(oracle - 1.0) < 1e-9


def test_gdof_vertices():
    for a in [0.3, 0.5, 0.8]:
        got = [v for v in vertices(gdof_fixed(a)) if max(abs(v[0]), abs(v[1])) > 1e-9]
        expect = [(1.0, 0.0), (1 - a / 3, 2 * a / 3), (1 - a, a), (0.0, a)]
        assert same_point_sets(got, expect)
    assert abs(sum_max(gdof_fixed(1.0)) - 4 / 3) < 1e-9
    reg0 = gdof_fixed(0.0)
    assert contains(reg0, (1.0, 0.0)) and not contains(reg0, (0.5, 1e-6))


def test_vertices_match_oracle_across_constructors():
    for a in (0.2, 0.6, 1.0):
        for build in (prop2_inner, sym_alt_inner, integer_sym_alt_inner, gdof_fixed):
            reg = build(a)
            assert same_point_sets(vertices(reg), oracle_vertices(reg))


def test_unit_square_vertices():
    reg = DofRegion((HalfSpace(1, 0, 1), HalfSpace(0, 1, 1)))
    verts = vertices(reg)
    assert len(verts) == 4
    assert any(abs(v[0] - 1) < 1e-9 and abs(v[1] - 1) < 1e-9 for v in verts)


def test_unbounded_region_rejected():
    msg = "^region is unbounded: vertex enumeration impossible$"
    with pytest.raises(ValueError, match=msg):
        DofRegion(())
    for one in (1, Fraction(1)):
        with pytest.raises(ValueError, match=msg):
            DofRegion((HalfSpace(one, 0, one),))  # d2 unbounded
        with pytest.raises(ValueError, match=msg):
            DofRegion((HalfSpace(one, -1, 0),))  # d1 <= d2: the ray (1, 1)
        with pytest.raises(ValueError, match=msg):
            DofRegion((HalfSpace(0, 0, one), HalfSpace(0, one, one)))  # d1 unbounded


def test_empty_region_rejected():
    msg = "^region is empty: no feasible vertex$"
    for one in (1, Fraction(1)):
        with pytest.raises(ValueError, match=msg):
            DofRegion((HalfSpace(one, 0, -1), HalfSpace(0, 1, 1)))
        with pytest.raises(ValueError, match=msg):
            DofRegion((HalfSpace(one, 0, 1), HalfSpace(0, 1, 1), HalfSpace(0, 0, -one)))


def test_inclusions_on_alpha_grid():
    for a in ALPHA_GRID:
        outer = bc_outer(TopologyProfile.fixed("1a", a))
        assert is_subset(prop2_inner(a), outer)
        assert is_subset(yang_inner(a), outer)
        outer_sym = bc_outer(TopologyProfile.symmetric_alternating(a))
        assert is_subset(sym_alt_inner(a), outer_sym)
        assert is_subset(integer_sym_alt_inner(a), outer_sym)
        assert is_subset(prop2_inner(a), gdof_fixed(a))


def test_sum_max_formulas():
    for a in ALPHA_GRID:
        # geometric maximum: the single-user corner dominates below 1/3
        assert abs(sum_max(yang_inner(a)) - max(2 / 3, (1 + a) / 2)) < 1e-9
        assert abs(regions.yang_corner_sum(a) - (1 + a) / 2) < 1e-9
        expect = (2 + a * (1 + a)) / (3 + a)
        assert abs(sum_max(prop2_inner(a)) - expect) < 1e-9
        assert sum_max(prop2_inner(a)) >= (1 + a) / 2 - 1e-12
        gap = sum_max(prop2_inner(a)) - regions.yang_corner_sum(a)
        assert gap > 1e-12 if a < 1 - 1e-12 else abs(gap) < 1e-9


def test_time_share_idempotent():
    reg = prop2_inner(0.5)
    again = time_share([reg])
    assert same_point_sets(vertices(reg), vertices(again))


def test_time_share_of_points_gives_segment():
    a = 0.6
    p1 = DofRegion(
        (HalfSpace(1, 0, 2 / 3), HalfSpace(-1, 0, -2 / 3), HalfSpace(0, 1, 0.0))
    )
    p2 = DofRegion(
        (HalfSpace(0, 1, 2 * a / 3), HalfSpace(0, -1, -2 * a / 3), HalfSpace(1, 0, 0.0))
    )
    seg = time_share([p1, p2])
    assert contains(seg, (2 / 3, 0.0))
    assert contains(seg, (0.0, 2 * a / 3))
    assert contains(seg, (1 / 3, a / 3))  # midpoint
    assert not contains(seg, (0.0, 0.0))


def test_time_share_contains_inputs():
    a = 0.5
    mix = time_share([yang_inner(a), prop2_inner(a)])
    assert is_subset(yang_inner(a), mix)
    assert is_subset(prop2_inner(a), mix)


def _point(x, y):
    """The region holding only the point (x, y)."""
    return DofRegion(
        (HalfSpace(1, 0, x), HalfSpace(-1, 0, -x), HalfSpace(0, 1, y), HalfSpace(0, -1, -y))
    )


def test_time_share_of_an_exact_region_is_exact():
    hull = time_share([prop2_inner(Fraction(1, 2))])
    verts = vertices(hull)
    assert (Fraction(4, 7), Fraction(3, 14)) in verts
    assert all(type(x) is Fraction for v in verts for x in v)
    assert all(type(x) is Fraction for c in hull.constraints for x in (c.a1, c.a2, c.b))


def test_time_share_is_not_down_closed():
    # The face from (1, 0) to (0, 1) has outward normal (-1, -1); it must be
    # kept, so the hull does not reach the origin.
    for one in (1.0, Fraction(1)):
        hull = time_share([_point(one, 0 * one), _point(0 * one, one), _point(one, one)])
        assert not contains(hull, (0, 0))
        assert not contains(hull, (0.25, 0.25))
        assert contains(hull, (0.75, 0.75))
        assert len(vertices(hull)) == 3


def test_time_share_of_one_point_is_that_point():
    for x, y in ((0.5, 0.25), (Fraction(1, 3), Fraction(2, 7)), (0.0, 0.0)):
        assert vertices(time_share([_point(x, y)])) == [(x, y)]


def test_time_share_needs_a_region():
    with pytest.raises(ValueError, match="^time_share needs at least one region$"):
        time_share([])


def test_exact_time_share_keeps_input_vertices_and_inputs():
    builders = [yang_inner, prop2_inner, sym_alt_inner, integer_sym_alt_inner, gdof_fixed]
    for a in map(Fraction, ("0", "1/7", "1/3", "1/2", "5/6", "1")):
        library = [b(a) for b in builders]
        library.append(bc_outer(TopologyProfile.fixed("1a", a)))
        for pair in itertools.combinations(library, 2):
            hull = time_share(pair)
            inputs = {v for r in pair for v in vertices(r)}
            assert set(vertices(hull)) <= inputs
            assert all(is_subset(r, hull) for r in pair)


def test_float_time_share_keeps_a_vertex_just_off_a_hull_edge():
    # 3 * 0.1 != 0.3 in floats: (0.3, 0.1) lies about 1e-17 off the segment
    # from the origin to (3, 1).  The hull keeps the thin triangle, exactly
    # as the hull of the points' Fraction twins does.
    pts = [(0.0, 0.0), (3.0, 1.0), (0.3, 0.1)]
    hull = time_share([_point(x, y) for x, y in pts])
    exact = time_share([_point(Fraction(x), Fraction(y)) for x, y in pts])
    assert hull == exact and vertices(hull) == vertices(exact)
    assert set(vertices(hull)) == {tuple(map(Fraction, p)) for p in pts}
    assert sum_max(hull) == 4
    assert all(contains(hull, p) for p in pts)


def test_float_time_share_of_two_points_is_their_segment():
    # Float offsets of the line would differ by its two ends: from
    # (0.5, 0.45) it rounds to 0.1025, from (0.65, 0.79) to
    # 0.10250000000000001.  The exact faces meet at both ends.
    p, q = (0.5, 0.45), (0.65, 0.79)
    seg = time_share([_point(*p), _point(*q)])
    exact = time_share([_point(*map(Fraction, p)), _point(*map(Fraction, q))])
    assert seg == exact and vertices(seg) == vertices(exact)
    assert contains(seg, p) and contains(seg, q)
    assert set(vertices(seg)) == {tuple(map(Fraction, p)), tuple(map(Fraction, q))}


def test_float_time_share_is_near_the_exact_hull_of_its_vertices():
    builders = [yang_inner, prop2_inner, sym_alt_inner, integer_sym_alt_inner, gdof_fixed]
    for k in range(29):
        a = k / 28
        pairs = [
            itertools.combinations([b(x) for b in builders] + [bc_outer(TopologyProfile.fixed("1a", x))], 2)
            for x in (a, Fraction(a))
        ]
        for pair, twins in zip(*pairs):
            hull = time_share(pair)
            assert hull == time_share(twins)
            exact = time_share([_point(*v) for r in pair for v in vertices(r)])
            assert hull == exact and vertices(hull) == vertices(exact)


def test_region_rebuild_roundtrip():
    # Rebuilding a region from its vertex hull reproduces containment
    # decisions on a grid.
    reg = sym_alt_inner(0.35)
    rebuilt = time_share([reg])
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        # skip points within tolerance of either boundary
        margins = [abs(float(c.violation(*p))) for c in reg.constraints]
        if min(margins) < 1e-6:
            continue
        assert contains(reg, p) == contains(rebuilt, p)


def test_negative_coefficient_constraint_supported():
    # the symmetric-alternating bound has a negative d1 coefficient below 1/2
    reg = sym_alt_inner(0.25)
    assert any(float(c.a1) < 0 for c in reg.constraints)
    assert contains(reg, ((1 + 0.25) / 4, 0.5))


@pytest.mark.parametrize("name", list(regions.BOUNDS))
def test_bound_registry_entry_is_consistent(name):
    # An entry's profile is a TopologyProfile.named label, and a curve's
    # rows, which figure 8 reads, build the constructor's region.
    bound = regions.BOUNDS[name]
    assert (bound.curve is None) == (bound.rows is None)
    for a in [Fraction(k, 20) for k in range(21)] + [0.3, 1 / 3]:
        TopologyProfile.named(bound.profile, a)
        if bound.rows is not None:
            rows = bound.rows(*regions._alpha_ratio(a))
            assert bound.build(a) is regions.DofRegion._from_rows(*rows)
