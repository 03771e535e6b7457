"""The program's random draws: the counter-based ``rng.uniforms``, the
Box-Muller ``rng.normals`` and the Poisson inverse CDF
``rng.poisson_quantile``.

``reference_uniforms`` is a scalar restatement of ``uniforms`` in Python
ints; the properties pin the array code to it bit for bit, with seeds and
key words of one and several 64-bit words and ids up to 2**64 - 1, and
check that an id's row does not depend on the other ids of the call.
``poisson_quantile`` is pinned to scipy's ``poisson.ppf``.
"""

import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mvsparse import rng

GAMMA = 0x9E3779B97F4A7C15


def splitmix64_finalizer(x):
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB % 2**64
    return x ^ (x >> 31)


def reference_uniforms(seed, key, pid, n):
    """Row ``pid`` of ``rng.uniforms(seed, key, [pid], n)``, one Python int
    at a time: fold every key integer's 64-bit word count and words into
    one word, seed a SplitMix64 sequence with it and the id, and keep the
    top 53 bits of its first n outputs."""
    h = 0
    for k in (seed, *key):
        words = []
        while True:
            k, word = divmod(k, 2**64)
            words.append(word)
            if k == 0:
                break
        for word in (len(words), *words):
            h = splitmix64_finalizer(((h ^ word) + GAMMA) % 2**64)
    state = splitmix64_finalizer(pid ^ h)
    out = []
    for _ in range(n):
        state = (state + GAMMA) % 2**64
        out.append((splitmix64_finalizer(state) >> 11) / 2**53)
    return out


# one-word values, the 2**64 boundary, and several-word values
word_int = st.one_of(
    st.integers(0, 2**64 - 1),
    st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**128 + 7]),
    st.integers(0, 2**140),
)
entity_id = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from([0, 1, 2**63, 2**64 - 1]))


@settings(max_examples=400, deadline=None)
@given(word_int, st.lists(word_int, max_size=4), st.lists(entity_id, max_size=6), st.integers(0, 6))
def test_uniforms_equal_the_scalar_reference(seed, key, ids, n):
    got = rng.uniforms(seed, key, ids, n)
    assert got.shape == (len(ids), n)
    assert got.tolist() == [reference_uniforms(seed, key, pid, n) for pid in ids]


@settings(max_examples=200, deadline=None)
@given(word_int, st.lists(entity_id, min_size=1, max_size=8, unique=True), st.randoms())
def test_a_row_does_not_depend_on_the_other_ids(seed, ids, random):
    key = (rng.DETECT, 2, 40)
    shuffled = random.sample(ids, len(ids))
    u, v = rng.uniforms(seed, key, ids, 4), rng.uniforms(seed, key, shuffled, 4)
    z, w = rng.normals(u), rng.normals(v)
    for i, pid in enumerate(ids):
        alone = rng.uniforms(seed, key, [pid], 4)
        j = shuffled.index(pid)
        assert u[i].tolist() == v[j].tolist() == alone[0].tolist()
        assert z[i].tolist() == w[j].tolist() == rng.normals(alone)[0].tolist()


def test_draw_statistics():
    u = rng.uniforms(11, (rng.DETECT, 0, 0), list(range(200_000)), 5)
    assert np.all((u >= 0.0) & (u < 1.0))
    assert np.all(np.abs(u.mean(axis=0) - 0.5) < 0.005)
    z = rng.normals(u[:, 1:])
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert stats.kstest(u[:, 0], "uniform").pvalue > 0.001
    assert stats.kstest(z.ravel(), "norm").pvalue > 0.001


def test_rejects_negative_key_words():
    with pytest.raises(ValueError):
        rng.uniforms(11, (rng.DETECT, -1), [3], 5)
    with pytest.raises(ValueError):
        rng.uniforms(11, (rng.DETECT,), [-1], 5)
    with pytest.raises(ValueError):
        rng.uniforms(11, (rng.DETECT,), [2**64], 5)


def _near_a_step(u, lam, k, want):
    """u lies within 1e-12 of the Poisson CDF at some count from
    min(k, want) - 1 to max(k, want), -1 (CDF 0) included."""
    counts = np.arange(min(k, want) - 1, max(k, want) + 1)
    return bool(np.min(np.abs(stats.poisson.cdf(counts, lam) - u)) < 1e-12)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from([0.0, 0.5, 1 - 2**-53])),
    st.one_of(st.floats(0.0, rng.POISSON_MAX), st.sampled_from([0.0, 0.1, 3.0, rng.POISSON_MAX])),
)
def test_poisson_quantile_equals_scipy(u, lam):
    k = rng.poisson_quantile(u, lam)
    want = int(stats.poisson.ppf(u, lam))
    assert k == want or _near_a_step(u, lam, k, want)


@pytest.mark.parametrize("lam", [0.0, 1e-300, 0.1, 0.246, 3.0, 10.0, 50.0, rng.POISSON_MAX])
def test_poisson_quantile_ends_below_one(lam):
    # the rounded CDF of rate 0.1 stops short of 1 - 2**-53; the walk must
    # still end, at a count in the far tail
    u = 1 - 2**-53

    def timeout(signum, frame):
        raise AssertionError(f"the walk at rate {lam} did not end within 10 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        k = rng.poisson_quantile(u, lam)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    want = int(stats.poisson.ppf(u, lam))
    assert k == want or _near_a_step(u, lam, k, want)


@pytest.mark.parametrize("lam", [-1.0, -1e-300, math.nan, math.inf, rng.POISSON_MAX + 1e-9, 1e6])
def test_poisson_quantile_rejects_means_out_of_range(lam):
    with pytest.raises(ValueError):
        rng.poisson_quantile(0.5, lam)


@pytest.mark.parametrize("lam", [0.1, 3.0])
def test_poisson_count_statistics(lam):
    # the detector's false-positive count: column 0 of 200,000 ids of one
    # key, as test_draw_statistics draws the uniforms
    u = rng.uniforms(11, (rng.DETECT_FP, 0, 0), list(range(200_000)), 1)[:, 0].tolist()
    k = np.array([rng.poisson_quantile(x, lam) for x in u])
    # the mean and variance of 200,000 draws have standard errors of
    # sqrt(lam / n) and about sqrt(2 lam**2 / n + lam / n)
    assert abs(k.mean() - lam) < 5 * math.sqrt(lam / len(k))
    assert abs(k.var() - lam) < 5 * math.sqrt((2 * lam**2 + lam) / len(k))
