"""The vectorized SeedSequence hash in ``gsdof.topology`` against numpy itself.

``trial_seeds`` and ``seed_generators`` copy numpy's SeedSequence hash onto
uint32 arrays.  The copy is right only while numpy's hash is unchanged, so
these tests compare it with numpy's own SeedSequence and default_rng, and
CI runs them on the oldest numpy the package allows as well.
"""

import numpy as np
import pytest

from gsdof.topology import STATE_1A, draw_channels, seed_generators, trial_seeds

# One to seven entropy words: below and at each 32-bit word boundary, at
# the 4-word pool size, and past it.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 - 1, 2**128, 2**200 + 5]


@pytest.mark.parametrize("seed", SEEDS)
def test_trial_seeds_equal_numpy_child_words(seed):
    # Spawned children pad the parent's words to the pool size before their
    # index.
    count = 40
    children = np.random.SeedSequence(seed).spawn(count)
    assert trial_seeds(seed, count) == [int(c.generate_state(1)[0]) for c in children]
    assert trial_seeds(seed, 0) == []


@pytest.mark.parametrize(
    "seeds", [[s] for s in SEEDS] + [SEEDS, SEEDS[::-1] + [7, 2**96, 2**160]]
)
def test_seed_generators_equal_default_rng(seeds):
    # One seed at a time and mixed word counts in one batch: each generator
    # has default_rng's PCG64 state and draws its first numbers.
    gens = seed_generators(seeds)
    assert len(gens) == len(seeds)
    for s, gen in zip(seeds, gens):
        ref = np.random.default_rng(s)
        assert gen.bit_generator.state == ref.bit_generator.state, s
        assert gen.standard_normal(16).tobytes() == ref.standard_normal(16).tobytes(), s
        assert (gen.integers(0, 2**63, 4) == ref.integers(0, 2**63, 4)).all(), s


@pytest.mark.parametrize("seed", SEEDS)
def test_one_seed_batches_equal_their_place_in_a_hashed_batch(seed):
    # A batch of one seed and a longer batch both hash.  They must give the
    # seed the same PCG64 state and first draws, and so must a one-seed
    # draw_channels and its row of a batched one.
    (one,) = seed_generators([seed])
    hashed = seed_generators([seed, 7])[0]
    assert one.bit_generator.state == hashed.bit_generator.state, seed
    assert one.standard_normal(16).tobytes() == hashed.standard_normal(16).tobytes(), seed
    assert (one.integers(0, 2**63, 4) == hashed.integers(0, 2**63, 4)).all(), seed
    alone = draw_channels((STATE_1A,) * 3, seed=seed)
    batch = draw_channels((STATE_1A,) * 3, seed=[seed, 7])
    assert alone.h.tobytes() == batch.h[0].tobytes(), seed
    assert alone.g.tobytes() == batch.g[0].tobytes(), seed


def test_seed_generators_take_numpy_ints_and_refuse_negative_seeds():
    (gen,) = seed_generators([np.uint32(5)])
    assert gen.bit_generator.state == np.random.default_rng(5).bit_generator.state
    assert seed_generators([]) == []
    with pytest.raises(ValueError, match="^seeds must be non-negative integers, got -1$"):
        seed_generators([3, -1])
    with pytest.raises(ValueError, match="^seeds must be non-negative integers, got -1$"):
        seed_generators([-1])
    for bad in ([1.5], [2, 1.5]):
        with pytest.raises(TypeError):
            seed_generators(bad)


def _reference_draw(n, seed, mode):
    # default_rng(seed), one slot at a time, each redrawn until its 2x2
    # channel matrix has |det| > 1e-9.
    rng = np.random.default_rng(seed)
    m = np.zeros((n, 2, 2), dtype=np.complex128)
    for t in range(n):
        while True:
            if mode == "complex":
                raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                slot = raw / np.sqrt(2.0)
            else:
                slot = rng.choice(np.array([-3, -2, -1, 1, 2, 3]), size=(2, 2))
                slot = slot.astype(np.complex128)
            if abs(slot[0, 0] * slot[1, 1] - slot[0, 1] * slot[1, 0]) > 1e-9:
                break
        m[t] = slot
    return m


@pytest.mark.parametrize("mode", ["complex", "integer"])
def test_draw_channels_equals_default_rng_reference(mode):
    n = 5
    batch = draw_channels((STATE_1A,) * n, seed=SEEDS, mode=mode)
    for b, s in enumerate(SEEDS):
        ref = _reference_draw(n, s, mode)
        one = draw_channels((STATE_1A,) * n, seed=s, mode=mode)
        for real in (one.h, batch.h[b]):
            assert real.tobytes() == ref[:, 0].tobytes(), s
        for real in (one.g, batch.g[b]):
            assert real.tobytes() == ref[:, 1].tobytes(), s

