import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsdof import regions, topology
from gsdof.schemes import build_scheme, simulate_noiseless
from gsdof.topology import (
    STATE_11,
    STATE_1A,
    STATE_A1,
    STATE_AA,
    ChannelRealization,
    TopologyProfile,
    draw_channels,
    state_sequence,
    trial_seeds,
)


def test_profile_sum_invariant_enforced():
    with pytest.raises(ValueError):
        TopologyProfile(alpha=0.5, lambda_11=0.5, lambda_1a=0.6)
    with pytest.raises(ValueError):
        TopologyProfile(alpha=1.5, lambda_11=1.0)
    with pytest.raises(ValueError):
        TopologyProfile(alpha=0.5, lambda_11=1.2, lambda_1a=-0.2)


@pytest.mark.parametrize(
    "alpha",
    [Fraction(10**20 + 1, 10**20), Fraction(-1, 10**400), math.nan, math.inf, -math.inf],
    ids=repr,
)
def test_profile_refuses_the_alphas_the_region_constructors_refuse(alpha):
    # Decided on alpha's exact ratio, as yang_inner decides it: the two
    # Fractions round to 1.0 and -0.0 as floats but lie outside [0, 1], and
    # nan and inf have no ratio.
    message = f"^{re.escape(f'alpha must lie in [0, 1], got {alpha}')}$"
    with pytest.raises(ValueError, match=message):
        regions.yang_inner(alpha)
    with pytest.raises(ValueError, match=message):
        TopologyProfile.fixed("1a", alpha)


def assert_float_sum_rule(fracs):
    """The profile accepts ``fracs`` iff their float sum is within 1e-12 of
    one, and otherwise refuses them with that sum in the message."""
    total = float(sum(fracs))
    if abs(total - 1.0) <= 1e-12:
        assert TopologyProfile(0.5, *fracs).fractions() == tuple(fracs)
    else:
        message = f"state fractions must sum to 1, got {total!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TopologyProfile(0.5, *fracs)


@pytest.mark.parametrize(
    "fracs",
    [
        (0, 1, 0, 0),
        (0, Fraction(1, 2), Fraction(1, 2), 0),
        (0.1, 0.2, 0.7, 0),
        (0.1, 0.2, 0.3, 0.4),
        (1 / 3, 1 / 3, 1 / 3, 0),
        (0.5, 0.5 + 1e-13, 0, 0),
        (0.5, 0.5 + 2e-12, 0, 0),
        (Fraction(1, 3), Fraction(2, 3) + Fraction(1, 10**13), 0, 0),
        (Fraction(1, 3), Fraction(2, 3) + Fraction(1, 10**11), 0, 0),
        (Fraction(1, 3), 2 / 3, 0, 0),
        (0.6, 0.6, 0, 0),
        (0, math.inf, 0, 0),
        (np.float64(0.25),) * 4,
        (np.int64(1), 0, 0, 0),
        (np.float32(0.1), np.float32(0.9), 0, 0),
        (True, 0, 0, 0),
        (True, True, 0, 0),
    ],
    ids=repr,
)
def test_profile_sum_check_refuses_what_the_float_sum_refuses(fracs):
    # The exact integer-ratio test only lets through a sum that is exactly
    # one, which the float test passes too.
    assert_float_sum_rule(fracs)


_fraction = st.fractions(min_value=0, max_value=1, max_denominator=10**6)


@settings(max_examples=300, deadline=None)
@given(
    parts=st.lists(_fraction, min_size=3, max_size=3).filter(lambda p: sum(p) <= 1),
    as_float=st.lists(st.booleans(), min_size=4, max_size=4),
    nudge=st.sampled_from([0, Fraction(1, 10**13), -Fraction(1, 10**11)]),
)
def test_profile_sum_check_matches_the_float_sum(parts, as_float, nudge):
    # Four fractions summing to one exactly, each maybe rounded to a float,
    # the last nudged; a negative nudge that makes it negative is skipped.
    last = 1 - sum(parts) + nudge
    if last < 0:
        return
    fracs = [float(x) if f else x for x, f in zip([*parts, last], as_float)]
    assert_float_sum_rule(fracs)


@pytest.mark.parametrize("where", range(4))
def test_profile_refuses_nan_state_fractions(where):
    fracs = [0, 0, 1, 0] if where != 2 else [0, 1, 0, 0]
    fracs[where] = math.nan
    with pytest.raises(ValueError, match="^state fractions must be nonnegative numbers, got "):
        TopologyProfile(0.5, *fracs)


def test_named_profiles():
    assert TopologyProfile.named("sym", 0.5) == TopologyProfile.symmetric_alternating(0.5)
    assert TopologyProfile.named("a1", 0.5) == TopologyProfile.fixed("a1", 0.5)
    with pytest.raises(ValueError):
        TopologyProfile.named("xx", 0.5)


def test_state_sequence_single_state():
    prof = TopologyProfile.fixed("1a", alpha=0.3)
    assert state_sequence(prof, 3) == (STATE_1A, STATE_1A, STATE_1A)


def test_state_sequence_symmetric_block():
    prof = TopologyProfile.symmetric_alternating(0.5)
    assert state_sequence(prof, 4) == (STATE_1A, STATE_1A, STATE_A1, STATE_A1)


def test_state_sequence_exact_count_rounding():
    prof = TopologyProfile(alpha=0.2, lambda_11=0.3, lambda_aa=0.7)
    seq = state_sequence(prof, 10)
    assert seq.count(STATE_11) == 3
    assert seq.count(STATE_AA) == 7
    assert len(seq) == 10


def test_state_sequence_largest_remainder_sums_to_n():
    prof = TopologyProfile(alpha=0.4, lambda_11=0.26, lambda_1a=0.26, lambda_a1=0.26, lambda_aa=0.22)
    for n in (1, 3, 7, 13, 50):
        seq = state_sequence(prof, n)
        assert len(seq) == n


def test_state_sequence_pure_function():
    prof = TopologyProfile.symmetric_alternating(0.7)
    assert state_sequence(prof, 12) == state_sequence(prof, 12)
    with pytest.raises(ValueError):
        state_sequence(prof, 0)


def test_draw_channels_deterministic():
    states = (STATE_1A,) * 5
    r1 = draw_channels(states, seed=1234, mode="complex")
    r2 = draw_channels(states, seed=1234, mode="complex")
    assert np.array_equal(r1.h, r2.h)
    assert np.array_equal(r1.g, r2.g)


def _slot_loop_draw(n, seed, mode):
    # Reference: one slot at a time, each redrawn until its 2x2 channel
    # matrix has |det| > 1e-9.
    rng = np.random.default_rng(seed)
    h = np.zeros((n, 2), dtype=np.complex128)
    g = np.zeros((n, 2), dtype=np.complex128)
    for t in range(n):
        while True:
            if mode == "complex":
                raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                m = raw / np.sqrt(2.0)
            else:
                m = rng.choice(np.array([-3, -2, -1, 1, 2, 3]), size=(2, 2)).astype(np.complex128)
            if abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) > 1e-9:
                break
        h[t], g[t] = m[0], m[1]
    return h, g


@pytest.mark.parametrize("mode, seeds", [("complex", range(200)), ("integer", range(300))])
def test_draw_channels_equals_slot_loop(monkeypatch, mode, seeds):
    # One generator call for all slots, with the slot loop as the fallback
    # when a slot fails the rank test: bit for bit the slot loop's draws.
    slot_calls = []
    draw = topology._draw_slots

    def spy(rngs, mode, shape):
        if shape == ():
            slot_calls.append(1)
        return draw(rngs, mode, shape)

    monkeypatch.setattr(topology, "_draw_slots", spy)
    n = 12
    fallbacks = 0
    for seed in seeds:
        before = len(slot_calls)
        real = draw_channels((STATE_1A,) * n, seed=seed, mode=mode)
        fallbacks += len(slot_calls) > before
        h, g = _slot_loop_draw(n, seed, mode)
        assert real.h.tobytes() == h.tobytes() and real.g.tobytes() == g.tobytes(), seed
    if mode == "integer":
        # Integer slots are singular often enough that some seeds take the
        # fallback and some do not.
        assert 0 < fallbacks < len(seeds)
    else:
        assert fallbacks == 0


def test_draw_channels_tops_up_only_the_shortfall(monkeypatch):
    # Seed 92's one-call draw of 3 integer slots fails the rank test in two
    # of them; the shortfall takes three one-candidate draws (pass, fail,
    # pass) from the same generator, and the realization is still the slot
    # loop's.
    shapes = []
    draw = topology._draw_slots

    def spy(rngs, mode, shape):
        shapes.append(shape)
        return draw(rngs, mode, shape)

    monkeypatch.setattr(topology, "_draw_slots", spy)
    real = draw_channels((STATE_1A,) * 3, seed=92, mode="integer")
    assert shapes == [(3,), (), (), ()]
    h, g = _slot_loop_draw(3, 92, "integer")
    assert real.h.tobytes() == h.tobytes() and real.g.tobytes() == g.tobytes()


@pytest.mark.parametrize("mode, n", [("complex", 5), ("integer", 3)])
def test_batched_draw_equals_per_seed_draws(monkeypatch, mode, n):
    # A batch gives each trial its own generator and one-call draw; trial b
    # is the one-seed draw from seeds[b] bit for bit.  Integer seed 92 fails
    # the rank test in two of three slots, so only its trial is topped up.
    seeds = [90, 92, 91]
    singles = [draw_channels((STATE_1A,) * n, seed=s, mode=mode) for s in seeds]
    shapes = []
    draw = topology._draw_slots

    def spy(rngs, mode, shape):
        # One call draws every generator it is given, each in one call.
        shapes.extend([shape] * len(rngs))
        return draw(rngs, mode, shape)

    monkeypatch.setattr(topology, "_draw_slots", spy)
    for batch_seeds in (seeds, tuple(seeds)):
        shapes.clear()
        real = draw_channels((STATE_1A,) * n, seed=batch_seeds, mode=mode)
        top_up = [(), (), ()] if mode == "integer" else []
        assert shapes == [(n,)] * len(seeds) + top_up
        assert real.h.shape == real.g.shape == (len(seeds), n, 2)
        assert (real.n, real.mode) == (n, mode)
        for b, one in enumerate(singles):
            assert real.h[b].tobytes() == one.h.tobytes()
            assert real.g[b].tobytes() == one.g.tobytes()
    with pytest.raises(ValueError, match="at least one seed"):
        draw_channels((STATE_1A,) * n, seed=[], mode=mode)


@pytest.mark.parametrize(
    "mode, n, big", [("complex", 3, 15), ("integer", 3, 15), ("integer", 4, 5)]
)
def test_draw_channels_prefix_equals_the_shorter_draw(monkeypatch, mode, n, big):
    # A draw of n slots is the first n slots of a draw of more, bit for bit:
    # both are the first full-rank candidates of each trial's stream.  A
    # sweep group draws each chunk once per channel mode, at its largest
    # slot count, and each kind takes its first slots.  Integer candidates
    # are often singular, so some of the shorter draws' trials are topped
    # up, from the stream past the n slots that the longer draw took in one
    # call.
    top_ups = []
    top_up = topology._top_up

    def counting(rng, mode, m, ok):
        top_ups.append(len(m))
        return top_up(rng, mode, m, ok)

    monkeypatch.setattr(topology, "_top_up", counting)
    seeds = list(range(60))
    short = draw_channels((STATE_1A,) * n, seed=seeds, mode=mode)
    topped = len(top_ups)
    long = draw_channels((STATE_A1,) * big, seed=seeds, mode=mode)
    assert long.h[:, :n].tobytes() == short.h.tobytes()
    assert long.g[:, :n].tobytes() == short.g.tobytes()
    for s in seeds[:5]:
        one = draw_channels((STATE_1A,) * n, seed=s, mode=mode)
        longer = draw_channels((STATE_1A,) * big, seed=s, mode=mode)
        assert longer.h[:n].tobytes() == one.h.tobytes()
        assert longer.g[:n].tobytes() == one.g.tobytes()
    if mode == "integer":
        assert 0 < topped < len(seeds)
    else:
        assert topped == 0


def test_draw_channels_gives_up_after_max_redraws(monkeypatch):
    calls = []

    def singular(rngs, mode, shape):
        calls.extend([shape] * len(rngs))
        return np.zeros((len(rngs),) + shape + (2, 2), dtype=np.complex128)

    monkeypatch.setattr(topology, "_draw_slots", singular)
    with pytest.raises(RuntimeError, match="^slot 0: no full-rank draw in 1000 tries$"):
        draw_channels((STATE_1A,) * 2, seed=0)
    assert len(calls) == 1 + topology._MAX_REDRAWS
    # A batch draws every trial once, then gives up on the first one's top-up.
    calls.clear()
    with pytest.raises(RuntimeError, match="^slot 0: no full-rank draw in 1000 tries$"):
        draw_channels((STATE_1A,) * 2, seed=[0, 1])
    assert len(calls) == 2 + topology._MAX_REDRAWS


def test_realization_channel_shapes_are_checked():
    # One trial is (n, 2); a batch of trials is (trials, n, 2) in h and g alike.
    ok = np.ones((3, 2), dtype=np.complex128)
    states = (STATE_1A,) * 3
    stacked = np.ones((4, 3, 2), dtype=np.complex128)
    batch = ChannelRealization(h=stacked, g=stacked, states=states)
    slot = np.stack([batch.h[..., 1, :], batch.g[..., 1, :]], axis=-2)
    assert slot.shape == (4, 2, 2) and batch.min_abs_det() == 0.0
    for h, g in (
        (ok, np.ones((4, 3, 2))),  # one trial of h, a batch of g
        (np.ones((4, 3, 2)), np.ones((5, 3, 2))),  # batches of different sizes
        (np.ones((3, 3)), np.ones((3, 3))),  # three antennas
        (np.ones((2, 2)), np.ones((2, 2))),  # two slots for n = 3
        (np.ones(6), np.ones(6)),  # flat
    ):
        with pytest.raises(ValueError, match="^channel arrays must have equal shapes ending in"):
            ChannelRealization(h=h, g=g, states=states)


def test_draw_channels_integer_exhaustive_scan():
    states = (STATE_1A,) * 100
    real = draw_channels(states, seed=5, mode="integer")
    coeffs = np.concatenate([real.h.ravel(), real.g.ravel()])
    assert np.all(np.abs(np.imag(coeffs)) == 0)
    vals = np.real(coeffs).astype(int)
    assert np.all((vals >= -3) & (vals <= 3))
    for t in range(100):
        assert abs(np.linalg.det(np.stack([real.h[t], real.g[t]]))) >= 1.0 - 1e-9


def test_draw_channels_complex_moment():
    states = (STATE_11,) * 1000
    real = draw_channels(states, seed=9)
    assert abs(float(np.mean(np.abs(real.h[:, 0]) ** 2)) - 1.0) < 0.1


def test_draw_channels_rank_invariant():
    for seed in range(20):
        real = draw_channels((STATE_AA,) * 10, seed=seed)
        assert real.min_abs_det() > 1e-9


def _slot_input(scheme, symbols, rho, t, b=None):
    """Trial ``b``'s normalized input x_t in slot ``t``, in scalar
    arithmetic: each group's stripped symbols at amplitude
    sqrt(rho^(p + q*alpha)) through the slot's map, over the slot norm.  A
    batched scheme's maps and norms carry the trials axis or broadcast."""
    x = [0j, 0j]
    for g in scheme.groups:
        if g.name not in scheme.slot_maps[t]:
            continue
        m = np.asarray(scheme.slot_maps[t][g.name])
        s = np.asarray(symbols[g.name])
        m, s = (m[b] if m.ndim == 3 else m), (s if b is None else s[b])
        amp = math.sqrt(rho ** (g.exponent[0] + g.exponent[1] * scheme.alpha))
        for k in range(2):
            for j in range(g.size):
                x[k] += complex(m[k, j]) * complex(s[j]) * amp
    norm = np.asarray(scheme.slot_norms[t])
    norm = float(norm if norm.ndim == 0 else norm[b])
    return [v / norm for v in x]


def _received(scheme, rho, symbol_seed, trials=None):
    """``simulate_noiseless``'s outputs next to the scalar channel law:
    per (trial, slot), y_t and z_t, then sqrt(rho^A1) h_t.x_t and
    sqrt(rho^A2) g_t.x_t, and x_t (``trials`` None for a one-trial scheme)."""
    symbols, y, z, _ = simulate_noiseless(scheme, rho, symbol_seed)
    real, alpha = scheme.realization, scheme.alpha
    out = []
    for b in [None] if trials is None else range(trials):
        at = (lambda a: a) if b is None else (lambda a: a[b])
        h, g = at(real.h), at(real.g)
        for t, state in enumerate(real.states):
            x = _slot_input(scheme, symbols, rho, t, b)
            a1 = 1.0 if state.a1 == "strong" else alpha
            a2 = 1.0 if state.a2 == "strong" else alpha
            ey = math.sqrt(rho**a1) * (h[t, 0] * x[0] + h[t, 1] * x[1])
            ez = math.sqrt(rho**a2) * (g[t, 0] * x[0] + g[t, 1] * x[1])
            out.append((at(y)[t], at(z)[t], ey, ez, x))
    return out


def test_receive_orthogonal_channels():
    # With h_t = (1, 0) and g_t = (0, 1), each receiver hears only its own
    # antenna: y_t = 10 x_t[0] at rho = 100 in the (1, alpha) state, and
    # z_t = sqrt(10) x_t[1] at alpha = 0.5.
    base = build_scheme("wiretap-gaussian", 0.5, seed=0)
    rows = np.tile(np.eye(2, dtype=np.complex128), (3, 1, 1))
    real = ChannelRealization(h=rows[:, 0], g=rows[:, 1], states=base.realization.states)
    scheme = dataclasses.replace(base, realization=real)
    for y, z, _, _, x in _received(scheme, 100.0, 0):
        assert abs(y - 10.0 * x[0]) < 1e-12
        assert abs(z - math.sqrt(10.0) * x[1]) < 1e-12


def test_receive_matches_scalar_oracle():
    # Independent scalar re-evaluation of the channel law that
    # simulate_noiseless applies in every slot, for one trial and a batch
    # of 25: sym-alt's last two slots are in the (alpha, 1) state.  A
    # batched scheme takes one symbol seed per trial.
    rho, alpha = 250.0, 0.4
    for seed, trials in ((3, None), (list(range(25)), 25)):
        scheme = build_scheme("sym-alt", alpha, seed)
        assert STATE_A1 in scheme.realization.states
        symbol_seed = 0 if trials is None else list(range(100, 100 + trials))
        rows = _received(scheme, rho, symbol_seed, trials)
        assert len(rows) == 4 * (trials or 1)
        for y, z, ey, ez, _ in rows:
            assert abs(y - ey) < 1e-12
            assert abs(z - ez) < 1e-12


def test_average_received_snr():
    # Monte-Carlo check of the per-slot received power.  CSIT is delayed, so
    # wiretap-gaussian's slot-0 input is independent of h_0, and over CN(0, 1)
    # draws of h_0, |y_0|^2 / |x_0|^2 averages rho^A1 = rho in the (1, alpha)
    # state.
    rho, alpha, draws = 16.0, 0.5, 10_000
    scheme = build_scheme("wiretap-gaussian", alpha, trial_seeds(11, draws))
    symbols, y, _, _ = simulate_noiseless(scheme, rho, list(range(draws)))
    total = 0.0
    for b in range(draws):
        x = _slot_input(scheme, symbols, rho, 0, b)
        total += abs(y[b, 0]) ** 2 / (abs(x[0]) ** 2 + abs(x[1]) ** 2)
    assert abs(total / draws - rho) / rho < 0.03


def test_realization_validation():
    # A realization has one slot per state, and at least one.
    empty = np.zeros((0, 2), dtype=complex)
    with pytest.raises(ValueError, match="^slot count must be >= 1$"):
        ChannelRealization(h=empty, g=empty, states=())
    for mode in ("complex", "integer"):
        for seed in (0, [0, 1]):
            with pytest.raises(ValueError, match="^slot count must be >= 1$"):
                draw_channels((), seed=seed, mode=mode)


def test_realization_refuses_an_unknown_mode():
    # A realization's mode is one draw_channels can draw, with its message.
    h = g = np.ones((3, 2), dtype=complex)
    with pytest.raises(ValueError, match="^unknown channel mode 'bogus'$"):
        ChannelRealization(h, g, (STATE_1A,) * 3, mode="bogus")
    with pytest.raises(ValueError, match="^unknown channel mode 'bogus'$"):
        draw_channels((STATE_1A,) * 3, seed=0, mode="bogus")
    for mode in ("complex", "integer"):
        assert ChannelRealization(h, g, (STATE_1A,) * 3, mode=mode).mode == mode
