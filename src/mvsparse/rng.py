"""Deterministic keyed random draws.

Every random draw in the pipeline is keyed by the run seed plus a
structural key (component tag, camera, frame) and an entity id. Draws do
not depend on iteration order or on what was drawn before, which is what
makes single-process and distributed runs bit-identical and lets
privileged evaluation passes replay the exact draws of the committed pass.

There is one draw family. ``uniforms`` is counter-based (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC'11): the seed and key
fold into one 64-bit word, and every (id, column) pair is hashed with the
SplitMix64 finalizer (Steele, Lea and Flood, "Fast splittable pseudorandom
number generators", OOPSLA'14). An id's row is thus a function of (seed,
key, id) alone, whatever other ids are asked for. The scene keys its draws
by frame and walker id, the policy by camera and frame with block ids, and
the detector by camera and frame with walker ids for the noise and with
false-positive ranks for the false positives. ``normals`` turns pairs of
uniform columns into standard normals by Box-Muller, and
``poisson_quantile`` turns one uniform into a Poisson count by inversion.
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

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's increment: 2**64 over the golden ratio
# the largest Poisson mean whose exp(-lam) is a normal double
POISSON_MAX = 708.0


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


def poisson_quantile(u: float, lam: float) -> int:
    """The Poisson(lam) count of the uniform u in [0, 1): the least k whose
    CDF exceeds u, walking the pmf recurrence p(k) = p(k - 1)·lam/k. The
    walk stops where the rounded CDF stops growing, which ends it for every
    u even when the rounded CDF never passes u. lam lies in [0,
    POISSON_MAX], where exp(-lam) is a normal double."""
    if not 0.0 <= lam <= POISSON_MAX:
        raise ValueError(f"Poisson mean must lie in [0, {POISSON_MAX}], got {lam}")
    k, p = 0, math.exp(-lam)
    cdf = p
    while cdf <= u:
        k += 1
        p = p * lam / k
        if cdf + p == cdf:
            break
        cdf += p
    return k
