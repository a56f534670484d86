"""Property test of the bound constructors against their coefficient formulas.

The constructors in ``gsdof.regions`` form integer rows from alpha's exact
ratio.  The oracle below is the same bounds written as coefficient formulas
and evaluated in ``Fraction`` arithmetic, then enumerated through the public
``DofRegion(constraints)`` path.  A float alpha counts at its binary value,
so its oracle is the formulas at ``Fraction(alpha)``.
"""

import math
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsdof import regions
from gsdof.regions import DofRegion, HalfSpace
from gsdof.topology import TopologyProfile

PROFILE_LABELS = ("11", "1a", "a1", "aa", "sym")


def oracle_budget(profile, swap=False):
    a = profile.alpha
    l11, l1a, la1, laa = profile.fractions()
    if swap:
        l1a, la1 = la1, l1a
    return (3 - a) * l1a + 2 * (l11 + a * laa) + (1 + a) * la1


def oracle_wiretap_upper(profile):
    return oracle_budget(profile) / 3


def oracle_bc_outer(profile):
    return [(3, 1, oracle_budget(profile)), (1, 3, oracle_budget(profile, swap=True))]


def oracle_yang(a):
    if a <= 0:
        return [(0, 1, 0), (1, 0, Fraction(2, 3))]
    return [(3 * a, 1, 2 * a), (a, 3, 2 * a)]


def oracle_prop2(a):
    return [(3 * (1 + a), 2, 2 * (1 + a)), (a * (3 - a), 6, 4 * a)]


def oracle_sym_alt(a):
    return [(6, 1 + a, 2 * (1 + a)), (2 * (2 * a - 1), 3 * (1 + a), (1 + a) * (1 + a))]


def oracle_int_sym_alt(a):
    half = (3 + a) / 2
    return [(3, a, half), (a, 3, half)]


def oracle_gdof(a):
    return [(1, 0, 1), (0, 1, a), (2, 1, 2), (1, 2, 1 + a)]


ALPHA_BOUNDS = [
    (regions.yang_inner, oracle_yang),
    (regions.prop2_inner, oracle_prop2),
    (regions.sym_alt_inner, oracle_sym_alt),
    (regions.integer_sym_alt_inner, oracle_int_sym_alt),
    (regions.gdof_fixed, oracle_gdof),
]


def primitive(row):
    """The row scaled to coprime integers, with the same sign."""
    row = [Fraction(x) for x in row]
    m = math.lcm(*(x.denominator for x in row))
    ints = [int(x * m) for x in row]
    g = math.gcd(*ints)
    return tuple(n // g for n in ints)


def check_region(region, coefs):
    """``region`` against the oracle coefficients ``coefs``."""
    oracle = DofRegion(tuple(HalfSpace(*map(Fraction, c)) for c in coefs))
    assert region._triples == oracle._triples
    assert [primitive(r) for r in region._rows] == [primitive(c) for c in coefs]
    want = regions.vertices(oracle)
    assert regions.vertices(region) == want
    assert regions.float_vertices(region) == [(float(x), float(y)) for x, y in want]
    assert region.constraints == tuple(HalfSpace(*c) for c in coefs)
    assert all(type(x) is Fraction for c in region.constraints for x in (c.a1, c.a2, c.b))


def profiles(alpha, lambdas):
    out = [TopologyProfile.named(label, alpha) for label in PROFILE_LABELS]
    return out + [TopologyProfile(alpha, *lambdas)]


def check_built(build, arg, coefs):
    """``build(arg)`` against ``coefs``, then a second build, which must be
    the cached region, read again: the oracle sees a miss and a hit."""
    region = build(arg)
    check_region(region, coefs)
    again = build(arg)
    assert again is region
    check_region(again, coefs)


def check_all(alpha, lambdas):
    regions._interned.cache_clear()
    exact_alpha = Fraction(alpha)
    for build, formulas in ALPHA_BOUNDS:
        check_built(build, alpha, formulas(exact_alpha))
    for profile, exact in zip(profiles(alpha, lambdas), profiles(exact_alpha, lambdas)):
        check_built(regions.bc_outer, profile, oracle_bc_outer(exact))
        got, want = regions.wiretap_upper(profile), oracle_wiretap_upper(exact)
        assert type(got) is Fraction and got == want


lambda_weights = st.lists(st.integers(0, 10**6), min_size=4, max_size=4).filter(any)


def as_lambdas(weights):
    return [Fraction(w, sum(weights)) for w in weights]


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.fractions(min_value=0, max_value=1, max_denominator=10**6),
    weights=lambda_weights,
)
@example(alpha=Fraction(0), weights=[1, 0, 0, 0])
@example(alpha=Fraction(1), weights=[0, 1, 1, 0])
@example(alpha=Fraction(1, 2), weights=[0, 0, 0, 1])
def test_constructors_match_fraction_formulas(alpha, weights):
    check_all(alpha, as_lambdas(weights))


def test_constructors_match_formulas_at_float_alpha_binary_value():
    lambdas = as_lambdas([1, 2, 3, 1])
    for k in range(201):
        check_all(k / 200, lambdas)
