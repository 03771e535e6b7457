"""Deterministic named RNG streams.

Every random draw in the pipeline comes from a stream derived from the run
seed plus a structural key (component tag, camera, frame, entity). Streams
are independent of iteration order, which is what makes single-process and
distributed runs bit-identical and lets privileged evaluation passes replay
the exact draws of the committed pass.

``substream`` builds a stream from its whole key: one numpy ``SeedSequence``
hash and one ``PCG64`` per call. It serves the scene, the policies and the
detector's false positives, one stream per run, camera or camera-frame.
``SeedStreams`` serves the detector's per-walker streams, many per
camera-frame whose keys share the (tag, camera, frame) prefix: it keeps the
seed's hashed pool, mixes the prefix in once per camera-frame and the
walker ids of the frame together, and re-seeds one reused ``PCG64`` per
walker. Its streams equal ``substream``'s draw for draw (tests/test_rng.py).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

# component tags
SCENE = 1
POLICY = 2
DETECT = 3
DETECT_FP = 4


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the (seed, key...) slot; same arguments, same stream."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _n_words(n: int) -> int:
    """How many 32-bit words SeedSequence takes from one integer."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    return max(1, -(-n.bit_length() // 32))


def _mix_words(pool: list[int], hc: int, key) -> tuple[list[int], int]:
    """A copy of the pool with the words of each key integer mixed in, and
    the hash constant after: SeedSequence's treatment of entropy words past
    its pool, mix(pool[i], hashmix(word)) for each word and pool word i."""
    pool = list(pool)
    for k in key:
        k = int(k)
        for j in range(_n_words(k)):
            word = k >> 32 * j & _MASK32
            for i in range(_POOL_SIZE):
                hashed = word ^ hc
                hc = hc * _MULT_A & _MASK32
                hashed = hashed * hc & _MASK32
                hashed ^= hashed >> 16
                mixed = (_MIX_L * pool[i] - _MIX_R * hashed) & _MASK32
                pool[i] = mixed ^ (mixed >> 16)
    return pool, hc


def _constants(init: int, mult: int, count: int) -> np.ndarray:
    """init, init * mult, init * mult**2, ... (mod 2**32): a (count, 1) uint32 column."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# generate_state hashes pool words 0, 1, 2, 3, 0, 1, 2, 3, the i-th xored
# with constant i of this sequence and multiplied by constant i + 1
_STATE_ROWS = np.arange(8) % _POOL_SIZE
_STATE_CONSTS = _constants(_INIT_B, _MULT_B, 9)


class SeedStreams:
    """``substream(seed, *key)`` for the many keys of one seed, cheaply.

    numpy's SeedSequence hashes the seed into a four-word pool, then mixes
    in the key words one by one, and PCG64 seeds from eight hashed pool
    words. This object keeps the seed's pool; ``each`` mixes in a shared
    key prefix once and the last key words of many entities at once, in
    uint32 arrays, then re-seeds one reused PCG64 per entity instead of
    building a SeedSequence and a PCG64 per key. Every key it serves
    holds at least the entity word, so SeedSequence pads the seed to the
    full pool as this object assumes.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._pool = [int(w) for w in np.random.SeedSequence(entropy=seed).pool]
        # hashmix calls so far: one per pool word, one per ordered pair of
        # pool words, then one per pool word for every seed word past the pool
        calls = _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * max(0, _n_words(seed) - _POOL_SIZE)
        self._hash_const = _INIT_A * pow(_MULT_A, calls, 1 << 32) & _MASK32
        self._bitgen = np.random.PCG64(0)  # re-seeded before every use
        self._gen = np.random.Generator(self._bitgen)

    def each(self, prefix: tuple[int, ...], entities: list[int]) -> Iterator[np.random.Generator]:
        """The generator of ``substream(seed, *prefix, entity)`` for each
        entity in turn, on the shared PCG64: take one entity's draws before
        asking for the next."""
        if not entities:
            return
        pool, hc = _mix_words(self._pool, self._hash_const, prefix)
        ints = [int(e) for e in entities]
        counts = [_n_words(e) for e in ints]
        consts = _constants(hc, _MULT_A, 4 * max(counts) + 1)
        pool = np.array(pool, dtype=np.uint32)[:, None]
        for k in range(max(counts)):
            # _mix_words on the k-th word of every entity at once
            word = np.array([e >> 32 * k & _MASK32 for e in ints], dtype=np.uint32)
            hashed = (word ^ consts[4 * k : 4 * k + 4]) * consts[4 * k + 1 : 4 * k + 5]
            hashed ^= hashed >> 16
            mixed = _MIX_L * pool - _MIX_R * hashed
            mixed ^= mixed >> 16
            # every entity has a word 0, only the larger ids more
            pool = mixed if k == 0 else np.where(np.array(counts) > k, mixed, pool)
        # generate_state(4, uint64): eight hashed pool words, paired
        # little-endian into PCG64's seed and increment halves
        words = (pool[_STATE_ROWS] ^ _STATE_CONSTS[:8]) * _STATE_CONSTS[1:]
        words ^= words >> 16
        pairs = np.ascontiguousarray(words.T, dtype="<u4").view("<u8").tolist()
        for seed_hi, seed_lo, inc_hi, inc_lo in pairs:
            # PCG64's seeding: inc = 2 * initseq + 1, then two LCG steps
            # around adding the initial state
            inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
            state = ((seed_hi << 64 | seed_lo) + inc) * _PCG_MULT + inc & _MASK128
            self._bitgen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield self._gen
