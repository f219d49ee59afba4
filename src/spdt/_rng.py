"""Seeding of PCG64 generators from many SeedSequence keys at once.

``mix`` computes what ``np.random.SeedSequence(key).generate_state(4,
np.uint64)`` gives, for a whole array of keys in one vectorised pass, and
``generator`` builds one from one key's words that draws exactly what
``np.random.default_rng(np.random.SeedSequence(key))`` draws. Importing this
module loads numpy.random (about 2 MB of resident memory), so the simulator
and the trace generator import it only when they run; the metrics commands
never load it.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence (NEP 19, after O'Neill's seed_seq_fe) on 32-bit words:
# a 4-word pool, its hash constants and the multipliers of its mix
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def mix(rng_seed: int, *fields) -> np.ndarray:
    """SeedSequence((rng_seed, *fields)).generate_state(4, np.uint64) for every
    key at once, of shape broadcast(fields) + (4,).

    Each field is an integer array of one 32-bit word per key; the fields
    broadcast against each other. The seed, a Python int, gives its own
    little-endian words. The arithmetic is uint64 on values below 2^32, so
    no product overflows and masking keeps the low word, as uint32 would.
    """
    cols = []
    for field in fields:
        col = np.atleast_1d(np.asarray(field))
        if col.size and (col.min() < 0 or col.max() > _MASK32):
            raise ValueError("a key field must be in [0, 2**32), got "
                             f"[{col.min()}, {col.max()}]")
        cols.append(col.astype(np.uint64))
    words = [rng_seed & _MASK32]  # little-endian; a zero seed is one word
    rest = rng_seed >> 32
    while rest:
        words.append(rest & _MASK32)
        rest >>= 32
    entropy = words + cols

    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value = value * h & _MASK32
        return value ^ value >> 16

    def combine(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = combine(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = combine(pool[dst], hashmix(word))

    h = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ h
        h = h * _MULT_B & _MASK32
        value = value * h & _MASK32
        state.append(value ^ value >> 16)
    out = np.empty(np.broadcast_shapes(*(col.shape for col in cols)) + (4,),
                   dtype=np.uint64)
    for j in range(4):  # little-endian pairs of 32-bit words
        out[..., j] = state[2 * j] | state[2 * j + 1] << 32
    return out


class MixedSeed(ISeedSequence):
    """A substream's PCG64 seed, mixed ahead of time by mix."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a mixed seed holds only the 4 uint64 words "
                             f"PCG64 asks for, not {n_words} {np.dtype(dtype)}")
        return self.words


def generator(words: np.ndarray) -> np.random.Generator:
    """The generator of the substream whose mix words are ``words``; equal,
    draw for draw, to default_rng(SeedSequence(key))."""
    return np.random.Generator(np.random.PCG64(MixedSeed(words)))
