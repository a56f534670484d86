import itertools
from fractions import Fraction

import numpy as np
import pytest

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
    """Brute-force exact enumeration: every pair of constraint/axis lines
    solved in ``Fraction`` arithmetic, kept when exactly feasible; the set
    dedups exactly."""
    rows = [tuple(Fraction(x) for x in (c.a1, c.a2, c.b)) for c in region.constraints]
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


def same_point_sets(a, b, tol=1e-9):
    if len(a) != len(b):
        return False
    return all(
        any(abs(float(p[0]) - q[0]) <= tol and abs(float(p[1]) - q[1]) <= tol for q in b)
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
    for a in ALPHA_GRID:
        reg = bc_outer(TopologyProfile.fixed("1a", a))
        corner = (1 - a / 2, a / 2)
        assert contains(reg, corner)
        assert any(
            abs(v[0] - corner[0]) < 1e-9 and abs(v[1] - corner[1]) < 1e-9
            for v in vertices(reg)
        )


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
    assert all(type(x) is float for v in vertices(prop2_inner(0.5)) for x in v)


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


def test_exact_region_keeps_sub_tolerance_vertices_apart():
    # The two corners below lie 1e-12 apart, inside TOL: the exact path keeps
    # both, and drops the crossing (1, 1) that violates the third constraint.
    eps = Fraction(1, 10**12)
    reg = DofRegion((HalfSpace(1, 0, Fraction(1)), HalfSpace(0, 1, 1), HalfSpace(1, 1, 2 - eps)))
    verts = assert_exact_vertices(reg)
    assert verts == [(1, 0), (1, 1 - eps), (1 - eps, 1), (0, 1), (0, 0)]
    assert all(c.violation(*v) <= 0 for c in reg.constraints for v in verts)


def test_mixed_float_and_fraction_region_is_exact():
    # One Fraction makes the whole region exact; a float coefficient enters
    # at its exact binary value, which is not the decimal it prints as.
    reg = DofRegion((HalfSpace(1, 0, 0.1), HalfSpace(0, 1, Fraction(1, 3))))
    tenth = Fraction(0.1)
    assert tenth != Fraction(1, 10)
    verts = assert_exact_vertices(reg)
    assert set(verts) == {(0, 0), (tenth, 0), (tenth, Fraction(1, 3)), (0, Fraction(1, 3))}


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
    for one in (1, Fraction(1)):  # float path, then exact path
        with pytest.raises(ValueError, match=msg):
            DofRegion((HalfSpace(one, 0, one),))  # d2 unbounded
        with pytest.raises(ValueError, match=msg):
            DofRegion((HalfSpace(one, -1, 0),))  # d1 <= d2: the ray (1, 1)
        with pytest.raises(ValueError, match=msg):
            DofRegion((HalfSpace(0, 0, one), HalfSpace(0, one, one)))  # d1 unbounded


def test_empty_region_rejected():
    msg = "^region is empty: no feasible vertex$"
    for one in (1, Fraction(1)):  # float path, then exact path
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
