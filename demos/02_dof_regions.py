"""
Degrees-of-freedom regions as half-space intersections
======================================================

Every bound is a polygon in the (d1, d2) plane.  Vertex enumeration is done
by exact pairwise intersection in integer arithmetic, so every region is
exact: a float weak-link exponent counts at its binary value, and a
``fractions.Fraction`` one at its rational value.  ``vertices`` gives
``Fraction`` vertices; ``float_vertices`` gives the same vertices rounded.
"""

from fractions import Fraction

from gsdof import regions
from gsdof.topology import TopologyProfile

alpha = 0.5

# The outer bound for the fixed topology where receiver 1 is the strong one,
# and the two inner bounds it dominates.
outer = regions.bc_outer(TopologyProfile.fixed("1a", alpha))
yang = regions.yang_inner(alpha)
improved = regions.prop2_inner(alpha)

print("outer vertices:   ", regions.float_vertices(outer))
print("baseline vertices:", regions.float_vertices(yang))
print("improved vertices:", regions.float_vertices(improved))
print("baseline inside improved-for-sum?",
      regions.sum_max(improved) >= regions.yang_corner_sum(alpha))
print("both inner bounds inside the outer bound:",
      regions.is_subset(yang, outer) and regions.is_subset(improved, outer))

# Exact rational evaluation: the improved bound's balanced corner at
# alpha = 1/2 is exactly (4/7, 3/14).
exact = regions.prop2_inner(Fraction(1, 2))
print("exact corner:", [v for v in regions.vertices(exact) if v[0] == Fraction(4, 7)])

# The symmetric alternating topology: the integer-channel inner bound meets
# the outer bound's sum DoF of 1 at the balanced point (1/2, 1/2).
outer_sym = regions.bc_outer(TopologyProfile.symmetric_alternating(alpha))
int_inner = regions.integer_sym_alt_inner(alpha)
print("sum DoF: inner", regions.sum_max(int_inner), "outer", regions.sum_max(outer_sym))

# Time sharing takes the convex hull of operating points.
mix = regions.time_share([yang, improved])
print("time-shared region contains both inputs:",
      regions.is_subset(yang, mix) and regions.is_subset(improved, mix))

# The single-message upper bound equals the outer bound's d1-intercept.
print("wiretap upper bound:",
      regions.wiretap_upper(TopologyProfile.fixed("1a", alpha)),
      "= d1 intercept:", regions.axis_max(outer, 0))
