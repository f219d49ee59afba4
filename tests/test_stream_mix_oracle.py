"""Differential oracle for the simulator's vectorised SeedSequence mix.

`_rng.mix` hashes many keys at once into the four uint64 words that
`np.random.SeedSequence(key).generate_state(4, np.uint64)` gives one key at
a time, and a generator built from those words must draw exactly what
`default_rng(SeedSequence(key))` draws. Seeds of one to five 32-bit words
are covered, because sweep cell seeds take two.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spdt.epidemic as epi
from spdt import _rng

WORD = st.integers(0, 2**32 - 1)
SEEDS = st.integers(0, 2**64 - 1) | st.integers(2**64, 2**128)


def _reference(key):
    return np.random.SeedSequence(key).generate_state(4, np.uint64)


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, run=WORD, stream=WORD, day=WORD)
@example(seed=0, run=0, stream=0, day=0)
@example(seed=2**32 - 1, run=2**32 - 1, stream=2**32 - 1, day=2**32 - 1)
@example(seed=2**32, run=0, stream=epi._STREAM_REMOVAL, day=0)
@example(seed=2**64 - 1, run=1, stream=epi._STREAM_TAU, day=31)
def test_mix_matches_seed_sequence(seed, run, stream, day):
    words = _rng.mix(seed, [run], [stream], [day])
    assert words.shape == (1, 4) and words.dtype == np.uint64
    assert np.array_equal(words[0], _reference((seed, run, stream, day)))
    # the 3-field keys of the initial-state stream
    assert np.array_equal(_rng.mix(seed, [run], stream)[0],
                          _reference((seed, run, stream)))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, runs=st.lists(WORD, min_size=1, max_size=5),
       days=st.lists(WORD, min_size=1, max_size=4))
@example(seed=2**32, runs=[0, 7, 2**32 - 1], days=[0, 13])
def test_block_seeds_match_seed_sequence(seed, runs, days):
    block = epi._stream_seeds(seed, runs, days)
    assert block.shape == (len(runs), len(days), 3, 4)
    for i, run in enumerate(runs):
        for j, day in enumerate(days):
            for s, stream in enumerate(epi._DAY_STREAMS):
                assert np.array_equal(block[i, j, s],
                                      _reference((seed, run, stream, day)))
    init = _rng.mix(seed, np.asarray(runs), epi._STREAM_INIT)
    for i, run in enumerate(runs):
        assert np.array_equal(init[i], _reference((seed, run, epi._STREAM_INIT)))


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, run=WORD, day=WORD, k=st.integers(0, 40),
       lo=st.integers(-5, 5), span=st.integers(0, 6),
       n=st.integers(1, 60), size=st.integers(0, 60))
@example(seed=2**64 - 1, run=3, day=0, k=1, lo=3, span=2, n=1, size=1)
def test_generator_from_mixed_words_draws_as_seed_sequence(
        seed, run, day, k, lo, span, n, size):
    size = min(size, n)
    key = (seed, run, epi._STREAM_REMOVAL, day)
    words = _rng.mix(seed, [run], [epi._STREAM_REMOVAL], [day])[0]
    for draw in (lambda rng: rng.random(k),
                 lambda rng: rng.random((2, k)),
                 lambda rng: rng.integers(lo, lo + span + 1, size=k, dtype=np.int64),
                 lambda rng: rng.choice(n, size=size, replace=False)):
        got = draw(_rng.generator(words))
        want = draw(np.random.default_rng(np.random.SeedSequence(key)))
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, k=st.integers(0, 30))
def test_coin_and_uniform_rows_equal_two_calls(seed, k):
    # PCG64 doubles are unbuffered: one (2, k) draw is two k draws in a row
    rng_a = np.random.default_rng(seed)
    rng_b = np.random.default_rng(seed)
    assert np.array_equal(rng_a.random((2, k)),
                          np.stack([rng_b.random(k), rng_b.random(k)]))


@pytest.mark.parametrize("field", [2**32, 2**32 + 5, 2**64 - 1, -1])
def test_field_outside_one_word_raises(field):
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _rng.mix(0, [field], [epi._STREAM_TAU], [0])
    with pytest.raises(ValueError, match="2\\*\\*32"):
        epi._stream_seeds(0, [0], [field])
    with pytest.raises(ValueError, match="2\\*\\*32"):
        epi._stream_seeds(0, [1, field], [0])
    with pytest.raises(ValueError, match="2\\*\\*32"):
        _rng.mix(0, np.asarray([field]), epi._STREAM_INIT)


@pytest.mark.parametrize("n_words, dtype", [
    (4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)])
def test_mixed_seed_holds_only_pcg64_words(n_words, dtype):
    seed = _rng.MixedSeed(_rng.mix(0, [0], [0], [0])[0])
    assert np.array_equal(seed.generate_state(4, np.uint64),
                          _reference((0, 0, 0, 0)))
    with pytest.raises(ValueError, match="4 uint64 words"):
        seed.generate_state(n_words, dtype)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       r_t=st.sampled_from([7.5, 10.0, 60.0, 299.0, 300.0]))
def test_sample_removal_rate_is_the_two_call_sampler(seed, r_t):
    lo, hi = b_range = (7.5, 300.0)
    rng = np.random.default_rng(seed)
    side = rng.random(1) < 0.5
    u = rng.random(1)
    b = np.where(side, lo + u * (r_t - lo), r_t + u * (hi - r_t))[0]
    assert epi.sample_removal_rate(r_t, b_range, np.random.default_rng(seed)) == 1.0 / b


def test_metrics_commands_do_not_load_numpy_random():
    # _rng, and with it numpy.random (about 2 MB resident), is imported only
    # once a simulation runs
    src = Path(__file__).parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, spdt.cli, spdt.metrics, spdt.sweep; "
            "sys.exit('numpy.random' in sys.modules or 'spdt._rng' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
