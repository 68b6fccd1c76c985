"""The chunk seed kernel against numpy's own ``SeedSequence``.

Drop i of a campaign must draw from ``default_rng(SeedSequence(entropy=
master_seed, spawn_key=(0, i)))`` and report that sequence's first uint64
as its seed word; ``mmwchan.seeding`` computes those words for a whole
chunk at once and must agree bit for bit, for seeds of any width and for
indices with one or two 32-bit key words.
"""

import subprocess
import sys

import numpy as np
import pytest

from mmwchan.seeding import drop_streams, spawn_state_words

# 2**96 and 2**128 - 1 have exactly 4 words, where the entropy padding stops
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 7, 2**96, 2**128 - 1, 2**128 + 3, 2**200 + 12345]
INDICES = [*range(301), 63, 64, 65, 2**31, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1]


def _numpy_sequence(seed, index):
    return np.random.SeedSequence(entropy=seed, spawn_key=(0, index))


@pytest.mark.parametrize("seed", SEEDS)
def test_state_words_match_seed_sequence(seed):
    words = spawn_state_words(seed, INDICES)
    want = np.stack([_numpy_sequence(seed, i).generate_state(4, np.uint64) for i in INDICES])
    np.testing.assert_array_equal(words, want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("start,stop", [(0, 64), (60, 70), (2**32 - 3, 2**32 + 3)])
def test_streams_and_seed_words_match_default_rng(seed, start, stop):
    rngs, seed_words = drop_streams(seed, start, stop)
    assert len(rngs) == len(seed_words) == stop - start
    for i, rng, word in zip(range(start, stop), rngs, seed_words):
        ss = _numpy_sequence(seed, i)
        want = np.random.default_rng(ss)
        assert word == int(ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0])
        assert rng.integers(0, 2**40) == want.integers(0, 2**40)
        assert rng.random() == want.random()
        assert rng.standard_normal() == want.standard_normal()
        assert rng.exponential() == want.exponential()


def test_negative_master_seed_rejected():
    with pytest.raises(ValueError, match="master_seed"):
        spawn_state_words(-1, [0])


def test_cli_import_leaves_numpy_random_unloaded():
    code = "import sys, mmwchan.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
