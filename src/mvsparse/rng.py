"""Deterministic keyed random draws.

Every random draw in the pipeline is keyed by the run seed plus a
structural key (component tag, camera, frame, entity). Draws do not depend
on iteration order, which is what makes single-process and distributed runs
bit-identical and lets privileged evaluation passes replay the exact draws
of the committed pass.

``substream`` builds a ``Stream`` from its whole key. It serves the scene,
the policies and the detector's false positives, which need uniform,
integer and Poisson draws from one stream per run, camera or camera-frame.
A ``Stream`` is an exact pure-Python port of what numpy's
``Generator(PCG64(SeedSequence(seed, spawn_key=key)))`` does for these
calls: the seed-sequence hash (O'Neill's ``seed_seq`` design), PCG64's
XSL-RR output (O'Neill, "PCG: A Family of Simple Fast Space-Efficient
Statistically Good Algorithms for Random Number Generation", 2014), and
numpy's ``uniform``, ``random``, ``integers`` up to 2**32 (Lemire, "Fast
Random Integer Generation in an Interval", 2019) and ``poisson`` (the
multiplication method below 10, and from 10 on Hörmann's transformed
rejection, "The transformed rejection method for generating Poisson
random variables", 1993). The draws equal numpy's bit for bit, so reports
keep their bytes, and they no longer depend on the installed numpy:
NEP 19 lets ``Generator`` change its algorithms between releases.

``uniforms`` serves the detector's per-walker noise, a few doubles for each
of many entity ids under one key. It is counter-based (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11): the seed and key
fold into one 64-bit word, and every (id, column) pair is hashed with the
SplitMix64 finalizer (Steele, Lea and Flood, "Fast splittable pseudorandom
number generators", OOPSLA'14). An id's row is thus a function of (seed,
key, id) alone, whatever other ids are asked for. ``normals`` turns pairs
of uniform columns into standard normals by Box-Muller.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

# component tags
SCENE = 1
POLICY = 2
DETECT = 3
DETECT_FP = 4


def substream(seed: int, *key: int) -> Stream:
    """Stream for the (seed, key...) slot; same arguments, same stream."""
    return Stream(seed, key)


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants and pool size (4 words of 32 bits)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier
# numpy's bound on lam: int64's maximum less ten of its square roots
_LAM_MAX = (2**63 - 1) - math.sqrt(2**63 - 1) * 10
# Stirling-series coefficients of numpy's random_loggam
_LOGGAM = (
    8.333333333333333e-02, -2.777777777777778e-03, 7.936507936507937e-04,
    -5.952380952380952e-04, 8.417508417508418e-04, -1.917526917526918e-03,
    6.410256410256410e-03, -2.955065359477124e-02, 1.796443723688307e-01,
    -1.39243221690590e00,
)


def _words32(n: int) -> list[int]:
    """SeedSequence's reading of one integer: its 32-bit words, low first."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_words(seed: int, key: Sequence[int]) -> list[int]:
    """``SeedSequence(seed, spawn_key=key).generate_state(8)``: the entropy
    words, zero-padded to the pool size when there is a key, are hashed into
    the pool, and eight 32-bit words are hashed out of it."""
    entropy = _words32(int(seed))
    spawn = [w for k in key for w in _words32(int(k))]
    if spawn:
        entropy += [0] * (_POOL - len(entropy))
    entropy += spawn
    mult = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * _MULT_A & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        x = _MIX_L * x - _MIX_R * y & _MASK32
        return x ^ x >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    out, mult = [], _INIT_B
    for i in range(8):
        value = pool[i % _POOL] ^ mult
        mult = mult * _MULT_B & _MASK32
        value = value * mult & _MASK32
        out.append(value ^ value >> 16)
    return out


def _loggam(x: float) -> float:
    """log Gamma(x) for x > 0, numpy's ``random_loggam`` operation for
    operation."""
    if x == 1.0 or x == 2.0:
        return 0.0
    n = int(7 - x) if x < 7.0 else 0
    x0 = x + n
    x2 = (1.0 / x0) * (1.0 / x0)
    gl0 = _LOGGAM[9]
    for c in reversed(_LOGGAM[:9]):
        gl0 *= x2
        gl0 += c
    gl = gl0 / x0 + 0.5 * 1.8378770664093453 + (x0 - 0.5) * math.log(x0) - x0
    for _ in range(n):
        gl -= math.log(x0 - 1.0)
        x0 -= 1.0
    return gl


class Stream:
    """numpy's ``Generator(PCG64(SeedSequence(seed, spawn_key=key)))``,
    draw for draw, for the four calls the program makes."""

    def __init__(self, seed: int, key: Sequence[int]):
        # PCG64 reads the words as four little-endian 64-bit words: the first
        # two are the initial state (high, low), the last two the stream
        w = _seed_words(seed, key)
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        initseq = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        self._inc = (initseq << 1 | 1) & _MASK128
        self._state = (self._inc + initstate) * _PCG_MULT + self._inc & _MASK128
        self._half: int | None = None  # high half of a 64-bit draw, for next_uint32

    def _next64(self, count: int) -> list[int]:
        """The next ``count`` 64-bit outputs: step the LCG, then XSL-RR."""
        s, inc, out = self._state, self._inc, []
        for _ in range(count):
            s = s * _PCG_MULT + inc & _MASK128
            x, rot = (s >> 64 ^ s) & _MASK64, s >> 122
            out.append((x >> rot | x << 64 - rot) & _MASK64)
        self._state = s
        return out

    def _doubles(self, count: int) -> list[float]:
        return [(x >> 11) * 2.0**-53 for x in self._next64(count)]

    def _next32(self) -> int:
        """PCG64's ``next_uint32``: the low half of a fresh 64-bit draw, and
        the high half kept for the next call."""
        if self._half is not None:
            half, self._half = self._half, None
            return half
        x = self._next64(1)[0]
        self._half = x >> 32
        return x & _MASK32

    def uniform(self, low: float, high: float) -> float:
        """A double in [low, high), with numpy's checks on the range."""
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        if math.copysign(1.0, span) < 0:
            raise ValueError("high - low < 0")
        return low + span * self._doubles(1)[0]

    def random(self, shape: tuple[int, ...]) -> np.ndarray:
        """An array of doubles in [0, 1), filled in C order."""
        return np.array(self._doubles(math.prod(shape)), dtype=float).reshape(shape)

    def integers(self, n: int) -> int:
        """An int in [0, n) for n <= 2**32: none drawn for n = 1, else
        Lemire's multiply-and-reject on ``next_uint32``."""
        if n < 1:
            raise ValueError("high <= 0")
        if n > 2**32:
            raise ValueError(f"n must be at most 2**32, got {n}")
        if n == 1:
            return 0
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = 2**32 % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return m >> 32

    def poisson(self, lam: float) -> int:
        """A Poisson draw of mean lam, with numpy's checks on lam."""
        lam = float(lam)
        if not lam >= 0:
            raise ValueError("lam < 0 or lam is NaN")
        if not lam <= _LAM_MAX:
            raise ValueError("lam value too large")
        if lam >= 10:
            return self._poisson_ptrs(lam)
        if lam == 0:
            return 0
        # multiplication method: count uniforms until their product falls to exp(-lam)
        k, prod, enlam = 0, self._doubles(1)[0], math.exp(-lam)
        while prod > enlam:
            k += 1
            prod *= self._doubles(1)[0]
        return k

    def _poisson_ptrs(self, lam: float) -> int:
        """Hörmann's PTRS, as numpy's ``random_poisson_ptrs`` for lam >= 10."""
        slam, loglam = math.sqrt(lam), math.log(lam)
        b = 0.931 + 2.53 * slam
        a = -0.059 + 0.02483 * b
        invalpha = 1.1239 + 1.1328 / (b - 3.4)
        vr = 0.9277 - 3.6224 / (b - 2)
        while True:
            u, v = self._doubles(2)
            u -= 0.5
            us = 0.5 - abs(u)
            z = (2 * a / us + b) * u + lam + 0.43 if us > 0 else -math.inf
            # numpy casts floor(z) to int64; x86-64 turns an out-of-range double into -2**63
            k = math.floor(z) if abs(z) < 2**63 else -(2**63)
            if us >= 0.07 and v <= vr:
                return k
            if k < 0 or (us < 0.013 and v > us):
                continue
            log_v = math.log(v) if v > 0 else -math.inf
            if log_v + math.log(invalpha) - math.log(a / (us * us) + b) <= (
                -lam + k * loglam - _loggam(float(k + 1))
            ):
                return k


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment: 2**64 over the golden ratio


def _mix(x):
    """SplitMix64's finalizer of a Python int below 2**64 or a uint64 array."""
    x = (x ^ x >> 30) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ x >> 27) * 0x94D049BB133111EB & _MASK64
    return x ^ x >> 31


def _fold(seed: int, key: Sequence[int]) -> int:
    """One 64-bit word from the seed and key integers of any size: each
    integer's 64-bit word count, then its words, low first."""
    h = 0
    for k in (seed, *key):
        k = int(k)
        if k < 0:
            raise ValueError(f"expected a non-negative integer, got {k}")
        n = max(1, -(-k.bit_length() // 64))
        for w in (n, *(k >> 64 * j & _MASK64 for j in range(n))):
            h = _mix((h ^ w) + _GAMMA & _MASK64)
    return h


def uniforms(seed: int, key: Sequence[int], ids: Sequence[int], n: int) -> np.ndarray:
    """(len(ids), n) doubles in [0, 1); row i depends on (seed, *key, ids[i])
    alone. Ids are Python ints in [0, 2**64). Row i holds the top 53 bits of
    the first n outputs of a SplitMix64 sequence seeded with the hashed id
    and key word."""
    try:
        ids = np.array(ids, dtype=np.uint64)
    except OverflowError as exc:
        raise ValueError(f"entity ids must lie in [0, 2**64): {exc}") from exc
    rows = _mix(ids ^ _fold(seed, key))
    bits = _mix(rows[:, None] + np.arange(1, n + 1, dtype=np.uint64) * _GAMMA)
    return (bits >> 11) * 2.0**-53


def normals(u: np.ndarray) -> np.ndarray:
    """Box-Muller: standard normals from an (m, 2k) array of uniforms in
    [0, 1), each column pair (radius, angle) giving two normals in place."""
    r = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    theta = 2.0 * np.pi * u[:, 1::2]
    return np.stack((r * np.cos(theta), r * np.sin(theta)), axis=2).reshape(u.shape)
