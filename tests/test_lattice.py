import math

import numpy as np
import pytest

from gsdof.gaussian_mi import fit_slope
from gsdof.lattice import (
    CENTER,
    P,
    SCALE,
    build_int_sym_alt,
    build_wiretap_lattice,
    cf_encode,
    nearest_point,
)
from gsdof.schemes import (
    DecodeError,
    build_scheme,
    linear_decode,
    noiseless_decode_check,
    simulate_noiseless,
)
from gsdof.topology import STATE_1A, STATE_A1, draw_channels


def test_lattice_constants_are_a_prime_codebook_within_unit_power():
    # The codebook size is prime and the largest codeword amplitude,
    # (P - 1) / 2 * SCALE, is at most one.
    assert P == 31 and CENTER == 15
    assert all(P % d for d in range(2, math.isqrt(P) + 1))
    assert (P - 1) / 2 * SCALE <= 1.0 + 1e-12


def _combination(received, coeffs):
    """(combination mod p, residual) that ``nearest_point`` recovers from a
    noiseless or noisy sum of codewords with integer ``coeffs`` (along the
    last axis for arrays): the nearest lattice point's integer, shifted back
    by the encoder's centering, and the distance to that point in lattice
    spacings (0.5 is the failure boundary)."""
    point = nearest_point(received)
    ints = np.rint(point / SCALE).astype(int)
    shift = np.sum(coeffs, axis=-1) * CENTER
    return (ints + shift) % P, np.abs(received - point) / SCALE


def test_cf_noiseless_round_trip_500_trials():
    rng = np.random.default_rng(3)
    for _ in range(500):
        u = rng.integers(0, P, size=2)
        coeffs = rng.choice([-3, -2, -1, 1, 2, 3], size=2)
        received = float(coeffs @ cf_encode(u))
        got, residual = _combination(received, coeffs)
        assert residual < 1e-9
        assert got == int(coeffs @ u) % P


def test_cf_both_receivers_recover_keys():
    # On every trial each receiver decodes its own integer combination of
    # the same noise codewords exactly (the shared-key requirement).
    rng = np.random.default_rng(4)
    for _ in range(200):
        u = rng.integers(0, P, size=2)
        amp = cf_encode(u)
        h = rng.choice([-3, -2, -1, 1, 2, 3], size=2)
        g = rng.choice([-3, -2, -1, 1, 2, 3], size=2)
        key1, r1 = _combination(float(h @ amp), h)
        key2, r2 = _combination(float(g @ amp), g)
        assert key1 == int(h @ u) % P and r1 < 1e-9
        assert key2 == int(g @ u) % P and r2 < 1e-9


def test_cf_zero_symbols_zero_combination():
    amp = cf_encode(np.zeros(2, dtype=int))
    got, _ = _combination(float(np.array([2, -1]) @ amp), np.array([2, -1]))
    assert got == 0


def test_nearest_point_failure_probability_decreases():
    # One nearest_point call per SNR decodes all 10 000 noisy sums.
    rng = np.random.default_rng(5)
    failures = []
    coeffs = np.array([1, 1])
    for rho in (1e3, 1e6, 1e9):
        trials = 10_000
        u = rng.integers(0, P, size=(trials, 2))
        clean = cf_encode(u) @ coeffs
        noisy = clean + rng.standard_normal(trials) / math.sqrt(rho)
        got, _ = _combination(noisy, coeffs)
        failures.append(float(np.mean(got != (u @ coeffs) % P)))
    assert failures[0] >= failures[1] >= failures[2]
    assert failures[2] == 0.0


def test_nearest_point():
    assert nearest_point(5.02 * SCALE) == pytest.approx(5 * SCALE)
    assert nearest_point(-0.49 * SCALE) == pytest.approx(0.0)


def test_wiretap_lattice_ledger_meets_upper_bound():
    # the integer scheme's claimed total equals the converse value exactly
    from gsdof.regions import wiretap_upper
    from gsdof.topology import TopologyProfile

    for alpha in (0.25, 0.5, 0.75):
        sch = build_scheme("wiretap-lattice", alpha, seed=0)
        total = sum(sch.ledger.values()) / 3.0
        assert total == pytest.approx(1 - alpha / 3, abs=1e-12)
        assert total == pytest.approx(
            float(wiretap_upper(TopologyProfile.fixed("1a", alpha))), abs=1e-12
        )


@pytest.mark.parametrize(
    "build, states",
    [
        (build_wiretap_lattice, (STATE_1A,) * 3),
        (build_int_sym_alt, (STATE_1A, STATE_1A, STATE_A1, STATE_A1)),
    ],
    ids=["wiretap-lattice", "int-sym-alt"],
)
def test_lattice_margin_enforced_and_reported(build, states):
    real = draw_channels(states, seed=1, mode="integer")
    sch = build(real, alpha=0.25)
    # at rho = 1e4 the low-power layer exceeds half the lattice spacing
    symbols, y, z, side = simulate_noiseless(sch, rho=1e4, seed=0)
    with pytest.raises(DecodeError):
        linear_decode(sch, y, z, side, {}, 1e4)
    # at the builder-selected decode SNR the margin holds
    assert noiseless_decode_check(sch, seed=0)


def test_integer_scheme_decode_batch():
    for kind in ("wiretap-lattice", "int-sym-alt", "gdof"):
        for i in range(30):
            sch = build_scheme(kind, 0.5, seed=i)
            assert noiseless_decode_check(sch, seed=i), (kind, i)


def test_int_sym_alt_sum_meets_outer():
    from gsdof.regions import bc_outer, sum_max
    from gsdof.topology import TopologyProfile

    for alpha in (0.25, 0.5, 0.75):
        sch = build_scheme("int-sym-alt", alpha, seed=0)
        total = sum(sch.ledger.values()) / 4.0
        outer = sum_max(bc_outer(TopologyProfile.symmetric_alternating(alpha)))
        assert total == pytest.approx(1.0, abs=1e-12)
        assert float(outer) == pytest.approx(1.0, abs=1e-12)


def test_low_layer_mi_slope_is_one_minus_alpha():
    # I(v1 ; y1 | h1.u) grows like (1 - alpha) log2(rho): the confidential
    # layer hidden under the structured noise on the first slot.
    from gsdof.gaussian_mi import conditional_mi
    from gsdof.schemes import receiver_structure

    rhos = 10.0 ** np.arange(7, 12.1, 1.0)
    for alpha in (0.25, 0.5, 0.75):
        sums = np.zeros(len(rhos))
        for seed in range(4):
            sch = build_scheme("wiretap-lattice", alpha, seed=seed)
            st = receiver_structure(sch, 1)
            for i, rho in enumerate(rhos):
                a, k = st.scaled(float(rho))
                # restrict to the first observation row (slot-1 output)
                vals = conditional_mi(
                    a[:1], k, st.masks["v_low"], np.zeros(st.total, dtype=bool)
                )
                sums[i] += vals
        slope = fit_slope(np.log2(rhos), sums / 4)[0]
        assert abs(slope - (1 - alpha)) < 0.02, (alpha, slope)
