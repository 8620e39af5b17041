import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risbeam import seeding
from risbeam.seeding import derive_rng, derive_seed, derive_seeds, stream_words, word_streams

TAG = st.one_of(st.integers(-2**70, 2**70), st.text(max_size=6),
                st.floats(allow_nan=False), st.tuples(st.integers(0, 1), st.integers(0, 1)))


# trial counts whose last trial has 1, 2, 3 and 4 digits, and none
COUNTS = (0, 1, 9, 10, 11, 100, 1001)
NAME = st.one_of(st.text(max_size=6), st.sampled_from(["it's", 'say "hi"', "back\\slash",
                                                       "\\'\"", "θ→φ", "光束", "\u00e9\n"]))
VALUE = st.one_of(st.floats(), st.sampled_from([-0.0, 1e-300, math.inf, -math.inf, math.nan]))
MASTER = st.one_of(st.integers(-2**70, -1), st.integers(0, 2**63), st.integers(2**63, 2**70))


@settings(max_examples=60, deadline=None)
@given(master_seed=MASTER, tags=st.one_of(st.tuples(NAME, NAME, VALUE), st.lists(TAG, max_size=3)),
       count=st.sampled_from(COUNTS))
@example(master_seed=-1, tags=("it's", "back\\slash", -0.0), count=1001)
@example(master_seed=2**64 + 5, tags=("光束", 'say "hi"', math.nan), count=11)
@example(master_seed=0, tags=(), count=10)
def test_derive_seeds_are_the_per_trial_seeds(master_seed, tags, count):
    # a family's seeds hash their shared repr prefix once; each must be the seed of
    # its own full tag tuple
    seeds = derive_seeds(master_seed, tags, count)
    assert seeds.dtype == np.uint64 and seeds.shape == (count,)
    assert seeds.tolist() == [derive_seed(master_seed, *tags, t) for t in range(count)]


def test_seeds_are_pinned():
    # the seed of every stream is a hash of a repr: a change to either moves every
    # stream of every sweep, and fails here first
    assert derive_seed(0, "channel", "snr_db", -10.0, 0) == 13030943708793471829
    assert derive_seeds(7, ("coded_decoupled_two_bit", "pilots", 100.0), 2000)[1999] \
        == 6800591992100473787
    assert derive_seeds(-3, ("hierarchical_adaptive", "snr_db", 0.0), 12)[11] \
        == 1795860880962545950


@settings(max_examples=60, deadline=None)
@given(master_seed=st.integers(0, 2**63), tags=st.lists(TAG, max_size=5))
def test_derive_rng_is_default_rng_of_the_derived_seed(master_seed, tags):
    # every stream of every sweep and design depends on this equality
    rng = derive_rng(master_seed, *tags)
    expected = np.random.default_rng(derive_seed(master_seed, *tags))
    assert rng.bit_generator.state == expected.bit_generator.state
    assert rng.random(6).tobytes() == expected.random(6).tobytes()
    assert rng.standard_normal(6).tobytes() == expected.standard_normal(6).tobytes()
    assert np.array_equal(rng.integers(0, 2**62, 6), expected.integers(0, 2**62, 6))


# a seed below 2**32 is a single SeedSequence entropy word, one above it two
EDGE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 - 1]


def _assert_same_draws(rng, expected):
    assert rng.integers(0, 7, 5).tobytes() == expected.integers(0, 7, 5).tobytes()
    assert rng.integers(0, 2**62, 5).tobytes() == expected.integers(0, 2**62, 5).tobytes()
    assert rng.uniform(-1.0, 2.0, 5).tobytes() == expected.uniform(-1.0, 2.0, 5).tobytes()
    assert rng.standard_normal(5).tobytes() == expected.standard_normal(5).tobytes()


@settings(max_examples=60, deadline=None)
@given(seeds=st.lists(st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, 2**64 - 1)),
                      min_size=1, max_size=12))
@example(seeds=EDGE_SEEDS)
def test_word_streams_are_pcg64_of_the_seed(seeds):
    # the sweep's vectorized SeedSequence must be numpy's: a numpy change to its
    # seeding fails here, not as moved golden bytes
    words = stream_words(np.array(seeds, dtype=np.uint64))
    assert words.shape == (len(seeds), 4) and words.dtype == np.uint64
    streams = word_streams(words)
    assert len(streams) == len(seeds)
    for rng, seed in zip(streams, seeds):
        assert rng.bit_generator.state == np.random.PCG64(seed).state
        _assert_same_draws(rng, np.random.Generator(np.random.PCG64(seed)))


@settings(max_examples=30, deadline=None)
@given(master_seed=st.integers(0, 2**63),
       rows=st.lists(st.lists(TAG, max_size=4).map(tuple), min_size=1, max_size=6))
def test_word_streams_draw_as_derive_rng(master_seed, rows):
    words = stream_words(np.array([derive_seed(master_seed, *tags) for tags in rows],
                                  dtype=np.uint64))
    # Fortran order, whose rows are strided, seeds the same streams
    for rng, tags in zip(word_streams(np.asfortranarray(words)), rows):
        _assert_same_draws(rng, derive_rng(master_seed, *tags))


@settings(max_examples=40, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**64 - 1), max_size=40), chunk=st.integers(1, 12))
@example(seeds=list(range(10)), chunk=4)  # two whole chunks and a partial one
def test_chunked_words_equal_one_call(seeds, chunk):
    seeds = np.array(seeds, dtype=np.uint64)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seeding, "_WORD_CHUNK", chunk)
        words = stream_words(seeds)
        patch.setattr(seeding, "_WORD_CHUNK", max(len(seeds), 1))
        whole = stream_words(seeds)
    assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
    assert words.tobytes() == whole.tobytes()
