import math

import numpy as np
import pytest

from gsdof import topology
from gsdof.topology import (
    STATE_11,
    STATE_1A,
    STATE_A1,
    STATE_AA,
    ChannelRealization,
    TopologyProfile,
    draw_channels,
    realization_to_csv,
    receive,
    state_sequence,
)


def test_profile_sum_invariant_enforced():
    with pytest.raises(ValueError):
        TopologyProfile(alpha=0.5, lambda_11=0.5, lambda_1a=0.6)
    with pytest.raises(ValueError):
        TopologyProfile(alpha=1.5, lambda_11=1.0)
    with pytest.raises(ValueError):
        TopologyProfile(alpha=0.5, lambda_11=1.2, lambda_1a=-0.2)


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
    assert batch.state_matrix(1).shape == (4, 2, 2) and batch.min_abs_det() == 0.0
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
        assert abs(np.linalg.det(real.state_matrix(t))) >= 1.0 - 1e-9


def test_draw_channels_complex_moment():
    states = (STATE_11,) * 1000
    real = draw_channels(states, seed=9)
    assert abs(float(np.mean(np.abs(real.h[:, 0]) ** 2)) - 1.0) < 0.1


def test_draw_channels_rank_invariant():
    for seed in range(20):
        real = draw_channels((STATE_AA,) * 10, seed=seed)
        assert real.min_abs_det() > 1e-9


def test_receive_zero_input_returns_noise():
    noise = np.array([0.3 + 0.1j, -0.2j])
    y, z = receive(
        np.zeros(2), STATE_1A, np.array([1.0, 2.0]), np.array([3.0, 4.0]),
        rho=100.0, alpha=0.5, noise=noise,
    )
    assert y == noise[0] and z == noise[1]


def test_receive_orthogonal_channels():
    y, z = receive(
        np.array([1.0, 0.0]), STATE_1A,
        np.array([1.0, 0.0]), np.array([0.0, 1.0]),
        rho=100.0, alpha=0.5, noise=np.zeros(2),
    )
    assert abs(y - 10.0) < 1e-12
    assert abs(z) < 1e-12


def test_receive_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    rho, alpha = 250.0, 0.4
    for _ in range(25):
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = x / np.linalg.norm(x)
        noise = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        y, z = receive(x, STATE_A1, h, g, rho, alpha, noise)
        # Independent scalar re-evaluation of the channel law.
        ey = math.sqrt(rho**alpha) * (h[0] * x[0] + h[1] * x[1]) + noise[0]
        ez = math.sqrt(rho**1.0) * (g[0] * x[0] + g[1] * x[1]) + noise[1]
        assert abs(y - ey) < 1e-12
        assert abs(z - ez) < 1e-12


def test_receive_rejects_overpowered_input():
    with pytest.raises(ValueError):
        receive(
            np.array([1.0, 1.0]), STATE_11, np.ones(2), np.ones(2),
            rho=10.0, alpha=0.5, noise=np.zeros(2),
        )


def test_average_received_snr():
    # Monte-Carlo check of the per-slot received power with unit inputs.
    rng = np.random.default_rng(11)
    rho, alpha = 16.0, 0.5
    total = 0.0
    draws = 10_000
    for _ in range(draws):
        h = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / math.sqrt(2)
        x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = x / np.linalg.norm(x)
        y, _ = receive(x, STATE_1A, h, np.ones(2), rho, alpha, np.zeros(2))
        total += abs(y) ** 2
    assert abs(total / draws - rho) / rho < 0.03


def test_realization_csv_round_shape():
    real = draw_channels((STATE_1A, STATE_1A, STATE_A1, STATE_AA), seed=2)
    text = realization_to_csv(real, alpha=0.5)
    lines = text.strip().split("\n")
    assert lines[0].startswith("t,A1,A2,h1_re")
    assert len(lines) == 5
    # slot 2 is in the (alpha, 1) state
    fields = lines[3].split(",")
    assert float(fields[1]) == 0.5 and float(fields[2]) == 1.0


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
