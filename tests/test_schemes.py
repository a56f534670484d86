import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from gsdof import gaussian_mi, lattice, regions, schemes
from gsdof.experiments import REGION_BUILDERS, SCHEME_TARGETS
from gsdof.gaussian_mi import fit_slope
from gsdof.schemes import (
    SCHEME_KINDS,
    SCHEMES,
    SECURE_SCHEMES,
    UniformQuantizer,
    accounting_bits,
    audit_causality,
    build_scheme,
    build_wiretap_gaussian,
    common_layer_bits,
    joint_leakage_bits,
    leakage_bits,
    max_slot_power,
    noiseless_decode_check,
    quantizer_for_power,
    receiver_structure,
    reliability_bits,
    scheme_block_length,
    simulate_noiseless,
    smallest_t1,
    xor_bits,
)
from gsdof.topology import (
    STATE_1A,
    STATE_A1,
    ChannelRealization,
    TopologyProfile,
    draw_channels,
    state_sequence,
)

RHOS = 10.0 ** np.arange(7, 12.1, 1.0)

GAUSSIAN_KINDS = ("wiretap-gaussian", "wiretap-gaussian-a1", "yang", "bc-fixed", "sym-alt")


def fitted_group_slopes(kind, alpha, seed=0, trials=4):
    sums = None
    n = None
    for trial in range(trials):
        sch = build_scheme(kind, alpha, seed=seed + 1000 * trial)
        n = scheme_block_length(sch)
        vals = {g: [] for g in sch.ledger}
        for rho in RHOS:
            rel = reliability_bits(sch, float(rho))
            for g in vals:
                vals[g].append(rel[g])
        if sums is None:
            sums = {g: np.zeros(len(RHOS)) for g in vals}
        for g in vals:
            sums[g] += np.array(vals[g])
    x = np.log2(RHOS)
    return {g: fit_slope(x, sums[g] / trials / n)[0] for g in sums}, n


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_ledger_vs_mi_agreement(kind):
    alpha = 0.5
    slopes, n = fitted_group_slopes(kind, alpha)
    sch = build_scheme(kind, alpha, seed=0)
    for g, claim in sch.ledger.items():
        assert abs(slopes[g] - claim / n) < 0.03, (g, slopes[g], claim / n)


def test_mirrored_wiretap_rate():
    for alpha in (0.25, 0.75):
        slopes, n = fitted_group_slopes("wiretap-gaussian-a1", alpha)
        assert abs(slopes["v"] - 2 * alpha / 3) < 0.03


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_noiseless_decode_all_schemes(kind):
    for i in range(20):
        sch = build_scheme(kind, 0.5, seed=i)
        assert noiseless_decode_check(sch, seed=i), f"{kind} trial {i}"


def test_decode_deterministic():
    sch = build_scheme("yang", 0.5, seed=3)
    assert noiseless_decode_check(sch, seed=5)
    assert noiseless_decode_check(sch, seed=5)


def test_decode_fails_on_engineered_rank_deficiency():
    real = draw_channels(3, (STATE_1A,) * 3, rho=1e8, seed=0)
    h = real.h.copy()
    g = real.g.copy()
    g[1] = h[1]  # duplicate a channel row: the 2x2 decode matrix is singular
    broken = ChannelRealization(n=3, h=h, g=g, states=real.states, rho=real.rho)
    sch = build_wiretap_gaussian(broken, 0.5)
    assert not noiseless_decode_check(sch, seed=1)


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_causality_audit(kind):
    assert audit_causality(kind, 0.5, seed=1)


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_power_budget(kind):
    for alpha in (0.25, 0.75):
        sch = build_scheme(kind, alpha, seed=2)
        assert max_slot_power(sch, rhos=(1e6, 1e12)) <= 1.0 + 1e-9


@pytest.mark.parametrize("kind", SECURE_SCHEMES)
def test_leakage_slopes_secure(kind):
    alpha = 0.5
    n = None
    sums = None
    for trial in range(4):
        sch = build_scheme(kind, alpha, seed=trial)
        n = scheme_block_length(sch)
        vals = []
        for rho in RHOS:
            total = 0.0
            for owner in (1, 2):
                if sch.decode_order.get(owner):
                    total += joint_leakage_bits(sch, float(rho), owner)
            vals.append(total)
        sums = np.array(vals) if sums is None else sums + np.array(vals)
    slope = fit_slope(np.log2(RHOS), sums / 4 / n)[0]
    assert slope <= 0.02, slope


def test_canary_leaks():
    sch = build_scheme("wiretap-nonoise", 0.75, seed=0)
    vals = [joint_leakage_bits(sch, float(r), 1) for r in RHOS]
    slope = fit_slope(np.log2(RHOS), np.array(vals))[0]
    assert slope > 0.5


def test_chain_rule_consistency_of_group_accounting():
    # Per-group reliability terms must sum to the joint mutual information.
    from gsdof.gaussian_mi import conditional_mi
    from gsdof.schemes import receiver_structure

    sch = build_scheme("bc-fixed", 0.5, seed=1)
    rho = 1e9
    rel = reliability_bits(sch, rho)
    st = receiver_structure(sch, 1)
    a, k = st.scaled(rho)
    given = st.owner_masks["rx2"] | st.owner_masks["common"]
    joint = conditional_mi(a, k, st.owner_masks["rx1"], given)
    assert abs(joint - rel["v"] - rel["v_low"]) < 1e-6


STACK_RHOS = 10.0 ** np.array([6.0, 8.5, 12.0])


def _doubled_keys(sch):
    # Every key row twice: the same knowledge as a rank-deficient key matrix.
    keys = {r: {g: np.vstack([m, m]) for g, m in km.items()} for r, km in sch.keys.items()}
    return dataclasses.replace(sch, keys=keys)


def _stacked_vs_scalar(batch):
    # Stacked (schemes x SNRs) accounting against per-scheme, per-rho calls;
    # owner 0 stands for reliability.  The per-receiver pass must give the
    # same arrays as the separate reliability and leakage calls.
    stacked = {0: reliability_bits(batch, STACK_RHOS)}
    for owner in (1, 2):
        stacked[owner] = leakage_bits(batch, STACK_RHOS, owner)
    rel, leak = accounting_bits(batch, STACK_RHOS)
    for got, want in ((rel, stacked[0]), (leak, {**stacked[1], **stacked[2]})):
        assert sorted(got) == sorted(want)
        for g, bits in want.items():
            assert np.array_equal(got[g], bits), g
    for t, sch in enumerate(batch):
        for j, rho in enumerate(STACK_RHOS):
            for owner, got in stacked.items():
                want = reliability_bits(sch, rho) if owner == 0 else leakage_bits(sch, rho, owner)
                assert list(got) == list(want)
                for g, bits in want.items():
                    assert got[g].shape == (len(batch), len(STACK_RHOS))
                    assert got[g][t, j] == bits, (owner, g, t, j)


@pytest.mark.parametrize("kind", [*SCHEME_TARGETS, "wiretap-nonoise"])
def test_stacked_accounting_equals_scalar_calls(kind):
    batch = [build_scheme(kind, 0.5, np.random.SeedSequence(i)) for i in range(3)]
    _stacked_vs_scalar(batch)
    if any(sch.keys for sch in batch):
        _stacked_vs_scalar([_doubled_keys(sch) for sch in batch])


def _distinct_conditioning_sets(sch):
    # Sets of conditioned-on groups over both chains at each receiver,
    # counted from the decode orders alone.
    owned = {o: {g.name for g in sch.groups if g.owner == o} for o in ("rx1", "rx2", "common")}
    total = 0
    for receiver, other in ((1, 2), (2, 1)):
        sets = set()
        for order, known in (
            (sch.decode_order.get(receiver, ()), f"rx{other}"),
            (sch.decode_order.get(other, ()), f"rx{receiver}"),
        ):
            given = owned[known] | owned["common"]
            for i in range(len(order) + 1 if order else 0):
                sets.add(frozenset(given | set(order[:i])))
        total += len(sets)
    return total


# Log-det evaluations per chunk of trials: one per distinct conditioning set.
LOGDETS_PER_CHUNK = {
    "wiretap-gaussian": 4,
    "wiretap-gaussian-a1": 4,
    "yang": 6,
    "bc-fixed": 8,
    "sym-alt": 8,
    "wiretap-lattice": 6,
    "int-sym-alt": 10,
    "gdof": 8,
    "wiretap-nonoise": 4,
}


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_accounting_evaluates_each_conditioning_set_once(kind, monkeypatch):
    calls = []
    entropy = gaussian_mi._entropy_given_keys

    def counted(a, k):
        calls.append(a.shape)
        return entropy(a, k)

    monkeypatch.setattr(gaussian_mi, "_entropy_given_keys", counted)
    batch = [build_scheme(kind, 0.5, np.random.SeedSequence(i)) for i in range(3)]
    accounting_bits(batch, STACK_RHOS)
    assert len(calls) == LOGDETS_PER_CHUNK[kind] == _distinct_conditioning_sets(batch[0])
    assert all(shape[:2] == (3, len(STACK_RHOS)) for shape in calls)


def test_logdets_per_chunk_total():
    assert sorted(LOGDETS_PER_CHUNK) == sorted(SCHEMES)
    assert sum(LOGDETS_PER_CHUNK.values()) == 58


def test_keys_carry_no_snr_axis():
    st = receiver_structure(build_scheme("bc-fixed", 0.5, seed=2), 1)
    rhos = 10.0 ** np.array([[6.0, 8.0, 10.0], [7.0, 9.0, 11.0]])
    a, k = st.scaled(rhos)
    assert a.shape == (2, 3, *st.coef.shape)
    assert k.shape == (1, 1, *st.key_coef.shape)
    assert np.array_equal(k[0, 0], st.key_coef)
    a1, k1 = st.scaled(1e9)
    assert a1.shape == st.coef.shape
    assert np.array_equal(k1, st.key_coef)


def test_receiver_structure_refuses_key_on_scaled_group():
    sch = build_scheme("bc-fixed", 0.5, seed=2)
    size = sch.group("v_low").size
    keys = {1: {"v_low": np.ones((1, size), dtype=np.complex128)}}
    sch = dataclasses.replace(sch, keys=keys)
    with pytest.raises(ValueError, match="'v_low'"):
        receiver_structure(sch, 1)


def _same_bytes(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _row_by_row_coef(sch, receiver):
    # Reference fill: each observation row (own slot outputs, then the
    # overheard outputs delivered to this receiver) times each slot map.
    real = sch.realization
    own, other = (real.h, real.g) if receiver == 1 else (real.g, real.h)
    rows = [(own[t], t) for t in range(real.n)]
    for ch in sch.side_channels:
        if ch.receiver == receiver:
            rows += [(other[t], t) for t in ch.slots]
    offsets = np.cumsum([0] + [g.size for g in sch.groups])
    cols = {g.name: offsets[i] for i, g in enumerate(sch.groups)}
    coef = np.zeros((len(rows), offsets[-1]), dtype=np.complex128)
    for i, (vec, t) in enumerate(rows):
        for name, m in sch.slot_maps[t].items():
            coef[i, cols[name] : cols[name] + m.shape[1]] = (vec @ m) / sch.slot_norms[t]
    return coef


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_chunk_structure_equals_one_scheme_structures(kind):
    # A chunk of B schemes gives exactly the coefficients, keys, exponents
    # and masks of B one-scheme structures, side-information rows included,
    # and the coefficients of a row-by-row fill.
    batch = [build_scheme(kind, 0.5, np.random.SeedSequence(i)) for i in range(8)]
    for receiver in (1, 2):
        chunk = receiver_structure(batch, receiver)
        assert chunk.coef.shape[0] == chunk.key_coef.shape[0] == len(batch)
        a, k = chunk.scaled(STACK_RHOS)
        for b, sch in enumerate(batch):
            one = receiver_structure(sch, receiver)
            assert chunk.total == one.total
            assert _same_bytes(chunk.coef[b], one.coef)
            assert _same_bytes(one.coef, _row_by_row_coef(sch, receiver))
            assert _same_bytes(chunk.key_coef[b], one.key_coef)
            assert _same_bytes(chunk.row_exp, one.row_exp)
            assert _same_bytes(chunk.col_exp, one.col_exp)
            for masks, ref in ((chunk.masks, one.masks), (chunk.owner_masks, one.owner_masks)):
                assert list(masks) == list(ref)
                assert all(_same_bytes(masks[name], ref[name]) for name in ref)
            a1, k1 = one.scaled(STACK_RHOS)
            assert _same_bytes(a[b], a1) and _same_bytes(k[b], k1)
        if any(ch.receiver == receiver for ch in batch[0].side_channels):
            assert chunk.coef.shape[1] > batch[0].realization.n


def _other_states(sch):
    real = sch.realization
    flipped = tuple(STATE_A1 if s == STATE_1A else STATE_1A for s in real.states)
    return dataclasses.replace(sch, realization=dataclasses.replace(real, states=flipped))


CHUNK_MISMATCHES = {
    "name": lambda sch: dataclasses.replace(sch, name="other"),
    "alpha": lambda sch: dataclasses.replace(sch, alpha=0.25),
    "states": _other_states,
    "groups": lambda sch: dataclasses.replace(sch, groups=sch.groups[::-1]),
    "side channels": lambda sch: dataclasses.replace(sch, side_channels=sch.side_channels[:1]),
    "key shapes": _doubled_keys,
}


@pytest.mark.parametrize("field", CHUNK_MISMATCHES)
def test_receiver_structure_refuses_mixed_chunks(field):
    # The chunk's layout and exponents come from its first scheme, so a
    # scheme that would need another layout is refused, not mis-scaled.
    batch = [build_scheme("sym-alt", 0.5, np.random.SeedSequence(i)) for i in range(3)]
    batch[2] = CHUNK_MISMATCHES[field](batch[2])
    for receiver in (1, 2):
        with pytest.raises(ValueError, match="^scheme 2 of the chunk differs from scheme 0"):
            receiver_structure(batch, receiver)


def test_common_layer_rate_certified():
    # The digitized common layer must itself be decodable at alpha bits per
    # symbol per log2(rho) at both receivers before it is granted.
    for kind in ("bc-fixed", "sym-alt", "int-sym-alt"):
        alpha = 0.5
        sch = build_scheme(kind, alpha, seed=0)
        c_size = sch.group("c").size
        for receiver in (1, 2):
            vals = [common_layer_bits(sch, float(r), receiver) for r in RHOS]
            slope = fit_slope(np.log2(RHOS), np.array(vals))[0]
            assert slope >= alpha * c_size - 0.03, (kind, receiver, slope)


def test_smallest_t1():
    assert smallest_t1(0.5) == 2
    assert smallest_t1(0.25) == 4
    assert smallest_t1(0.75) == 4
    assert smallest_t1(1.0) == 1
    with pytest.raises(ValueError):
        smallest_t1(0.123)


def test_bc_fixed_rejects_non_integral_t2():
    real = draw_channels(7, (STATE_1A,) * 7, rho=1e8, seed=0)
    with pytest.raises(ValueError):
        schemes.build_bc_fixed(2, real, 0.3)


def test_scheme_table_slot_counts():
    spec = SCHEMES["bc-fixed"]
    assert len(spec.states(0.5)) == 7 and spec.mode == "complex"
    spec = SCHEMES["int-sym-alt"]
    assert len(spec.states(0.5)) == 4 and spec.mode == "integer"
    with pytest.raises(KeyError):
        build_scheme("nope", 0.5, seed=0)


CROSS_ALPHAS = [Fraction(k, d) for k, d in ((1, 10), (1, 4), (1, 2), (3, 4), (9, 10), (1, 1))]


def _in_domain(spec, alpha) -> bool:
    try:
        spec.domain(alpha)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_scheme_target_meets_its_bounds(kind):
    # Exact rational check of the table: each target is a vertex of its
    # inner bound and secure targets lie in the outer bound of their profile.
    spec = SCHEMES[kind]
    alphas = [a for a in CROSS_ALPHAS if _in_domain(spec, a)]
    assert alphas
    for a in alphas:
        profile = TopologyProfile.named(spec.profile, a)
        states = spec.states(a)
        assert state_sequence(profile, len(states)) == states
        if spec.target is None:
            continue
        d1, d2 = spec.target(a)
        assert type(d1) is Fraction and type(d2) is Fraction
        assert all(type(x) is float for x in spec.target(float(a)))
        if spec.inner:
            assert (d1, d2) in regions.vertices(REGION_BUILDERS[spec.inner](a)), a
        outer = regions.bc_outer(profile)
        inside = min(d1, d2) >= 0 and all(c.violation(d1, d2) <= 0 for c in outer.constraints)
        if spec.secure:
            assert inside, a
        if kind == "gdof":
            assert not inside, a  # without secrecy it beats the secure outer bound
        if spec.secure and d2 == 0:
            upper = regions.wiretap_upper(profile)
            assert d1 == upper if kind == "wiretap-lattice" else d1 <= upper, a


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_observation_model_matches_simulation(kind):
    # The two views of a scheme agree: each receiver's observation rows,
    # applied to the simulated symbols, reproduce its noiseless outputs and
    # (with the side-channel gain divided out) its side information.
    rho = 1e8
    for seed in range(3):
        sch = build_scheme(kind, 0.5, seed=seed)
        symbols, y, z, side = simulate_noiseless(sch, rho, seed=seed)
        stripped = np.concatenate(
            [np.asarray(symbols[g.name], dtype=np.complex128) for g in sch.groups]
        )
        for receiver, outputs in ((1, y), (2, z)):
            a = receiver_structure(sch, receiver).scaled(rho)[0]
            model = a @ stripped
            expected = [outputs]
            pos = sch.realization.n
            for ch in sch.side_channels:
                if ch.receiver == receiver:
                    model[pos : pos + len(ch.slots)] /= rho ** (ch.gain_exponent / 2.0)
                    pos += len(ch.slots)
                    expected.append(side[ch.label])
            expected = np.concatenate(expected)
            assert model.shape == expected.shape  # every row accounted for
            err = np.max(np.abs(model - expected)) / np.max(np.abs(expected))
            assert err <= 1e-12, (kind, seed, receiver, err)


def test_builders_validate_realization():
    real = draw_channels(3, (STATE_1A,) * 3, rho=1e8, seed=0)
    with pytest.raises(ValueError):
        schemes.build_yang_baseline(real, 0.5)  # wrong slot count
    with pytest.raises(ValueError):
        schemes.build_gdof_no_secrecy(real, 0.5)  # complex, needs integer
    with pytest.raises(ValueError):
        lattice.build_wiretap_lattice(real, 0.5)  # complex, needs integer


def test_simulation_normalizes_power():
    sch = build_scheme("yang", 0.5, seed=4)
    rng_total = 0.0
    draws = 1000
    for i in range(draws):
        symbols, y, z, side = simulate_noiseless(sch, rho=1e8, seed=i)
        # reconstruct slot-2 input power
        phys = {
            g.name: np.asarray(symbols[g.name]) * (1e8) ** (g.exponent / 2.0)
            for g in sch.groups
        }
        x = np.zeros(2, dtype=complex)
        for name, m in sch.slot_maps[1].items():
            x += m @ phys[name]
        x /= sch.slot_norms[1]
        rng_total += float(np.real(np.vdot(x, x)))
    assert rng_total / draws <= 1.1  # unit budget up to sampling noise


def test_quantizer_round_trip_error_bounded():
    rng = np.random.default_rng(0)
    for rho in (1e6, 1e9, 1e12):
        alpha = 0.5
        bits = math.ceil(alpha * math.log2(rho))
        power = rho**alpha
        q = quantizer_for_power(power, bits)
        samples = (rng.standard_normal(2000) + 1j * rng.standard_normal(2000)) * math.sqrt(
            power / 2
        )
        sat = 0
        worst = 0.0
        for s in samples:
            idx, clipped = q.encode(complex(s))
            sat += int(clipped)
            worst = max(worst, abs(q.decode(idx) - s))
        if sat == 0:
            assert worst <= q.max_error + 1e-9
        # bounded distortion: the error does not grow with rho
        assert q.max_error < 40.0, (rho, q.max_error)
        assert sat / len(samples) < 1e-3


def test_quantizer_xor_digitization_round_trip():
    # XOR two equal-width index streams and invert with one operand known.
    rng = np.random.default_rng(1)
    bits = 10
    qa = quantizer_for_power(4.0, bits)
    qb = quantizer_for_power(9.0, bits)
    for _ in range(100):
        sa = complex(rng.normal(0, math.sqrt(2)), rng.normal(0, math.sqrt(2)))
        sb = complex(rng.normal(0, math.sqrt(4.5)), rng.normal(0, math.sqrt(4.5)))
        ia, _ = qa.encode(sa)
        ib, _ = qb.encode(sb)
        c = xor_bits(ia, ib)
        # receiver knowing sa recovers sb's index, and vice versa
        assert xor_bits(c, ia) == ib
        assert xor_bits(c, ib) == ia
        assert abs(qb.decode(xor_bits(c, ia)) - sb) <= qb.max_error + 1e-9


def test_quantizer_saturation_counted():
    q = UniformQuantizer(bits_per_complex=6, sigma=1.0)
    idx, sat = q.encode(complex(100.0, 0.0))
    assert sat
    idx, sat = q.encode(complex(0.1, -0.2))
    assert not sat


def test_digitized_side_info_roundtrip_bounded_over_rho():
    # the full quantize / XOR / multicast path: receiver-1 reconstruction of
    # the overheard receiver-2 stream stays within the quantizer error bound
    # and does not grow with rho
    from gsdof.schemes import digitized_side_info_roundtrip

    for kind in ("bc-fixed", "sym-alt"):
        errors = []
        for rho in (1e6, 1e9, 1e12):
            sch = build_scheme(kind, 0.5, seed=3)
            err, bound, sat_rate = digitized_side_info_roundtrip(sch, rho, seed=1)
            assert err <= bound + 1e-9, (kind, rho, err, bound)
            assert sat_rate < 1e-3
            errors.append(err)
        assert max(errors) < 20.0  # bounded distortion across three decades


def test_bc_fixed_accepts_mixing_matrix_overrides():
    # custom full-rank mixing matrices are accepted, validated, and leave
    # the scheme decodable with the same claimed ledger
    rng = np.random.default_rng(9)
    t1, alpha = 2, 0.5
    t2 = 1
    real = draw_channels(7, (STATE_1A,) * 7, rho=1e8, seed=4)
    theta1 = rng.standard_normal((2 * t1, t1)) + 1j * rng.standard_normal((2 * t1, t1))
    theta2 = rng.standard_normal((2 * t2, t1)) + 1j * rng.standard_normal((2 * t2, t1))
    psi1 = rng.standard_normal((t1, t2)) + 1j * rng.standard_normal((t1, t2))
    sch = schemes.build_bc_fixed(t1, real, alpha, theta1=theta1, theta2=theta2, psi1=psi1)
    assert noiseless_decode_check(sch, seed=2)
    rel1 = reliability_bits(sch, 1e9)
    rel2 = reliability_bits(sch, 1e12)
    for g, claim in sch.ledger.items():
        slope = (rel2[g] - rel1[g]) / (np.log2(1e12) - np.log2(1e9))
        assert abs(slope - claim) < 0.21  # per-block claim, coarse two-point fit
    with pytest.raises(ValueError):
        schemes.build_bc_fixed(t1, real, alpha, psi1=np.zeros((t1, t2)))
    with pytest.raises(ValueError):
        schemes.build_bc_fixed(t1, real, alpha, theta1=np.zeros((3, 3)))


def test_noise_key_conditioning_drives_weak_side_rate():
    # The weak-side receiver learns its slot-1 noise observation at level
    # rho**alpha but meets its content again at level rho, so without the
    # decoded key the cancellation is imperfect and the main group's slope
    # collapses from (1 + alpha) to 2*alpha.  With the key (exact by lattice
    # decoding in the integer variant) the claimed rate holds.
    from gsdof.gaussian_mi import conditional_mi
    from gsdof.schemes import receiver_structure

    alpha = 0.5
    rhos = 10.0 ** np.arange(8, 13.1, 1.0)
    with_keys = np.zeros(len(rhos))
    without = np.zeros(len(rhos))
    trials = 6
    for t in range(trials):
        sch = build_scheme("sym-alt", alpha, seed=t)
        st = receiver_structure(sch, 2)
        given = st.owner_masks["rx1"] | st.owner_masks["common"]
        no_keys = np.zeros((0, st.total), dtype=complex)
        for i, rho in enumerate(rhos):
            a, k = st.scaled(float(rho))
            with_keys[i] += conditional_mi(a, k, st.masks["w"], given)
            without[i] += conditional_mi(a, no_keys, st.masks["w"], given)
    x = np.log2(rhos)
    slope_keys = fit_slope(x, with_keys / trials)[0]
    slope_none = fit_slope(x, without / trials)[0]
    assert abs(slope_keys - (1 + alpha)) < 0.03
    assert abs(slope_none - 2 * alpha) < 0.03
