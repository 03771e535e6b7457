"""The program's random draws: ``rng.substream`` and the detector's
counter-based ``rng.uniforms`` and ``rng.normals``.

``substream`` is pinned to numpy, its reference: a ``Stream`` must equal
``Generator(PCG64(SeedSequence(seed, spawn_key=key)))`` draw for draw, and
raise where numpy raises.

``reference_uniforms`` is a scalar restatement of ``uniforms`` in Python
ints; the properties pin the array code to it bit for bit, with seeds and
key words of one and several 64-bit words and ids up to 2**64 - 1, and
check that an id's row does not depend on the other ids of the call.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from mvsparse import rng


def numpy_stream(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


# 0, 1, the 32- and 64-bit boundaries, one-word values and values of more than 128 bits
seed_word = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**128 + 5]),
    st.integers(0, 2**32 - 1),
    st.integers(2**128, 2**200),
)
# (method, arguments); uniform's are its low end and width
call = st.one_of(
    st.tuples(st.just("uniform"), st.floats(-1e6, 1e6), st.floats(0.0, 1e6)),
    st.tuples(st.just("random"), st.tuples(st.integers(0, 5), st.integers(0, 9))),
    st.tuples(
        st.just("integers"),
        st.one_of(st.sampled_from([1, 2, 255 * 255, 2**31 + 1, 2**32]), st.integers(1, 255 * 255)),
    ),
    st.tuples(
        st.just("poisson"),
        st.one_of(st.just(0.0), st.floats(0.0, 10.0, exclude_max=True), st.floats(10.0, 5000.0)),
    ),
)


def _draw(stream, name, args):
    if name == "uniform":
        low, width = args
        return stream.uniform(low, low + width)
    return np.asarray(getattr(stream, name)(*args)).tolist()


@settings(max_examples=300, deadline=None)
@given(seed_word, st.lists(seed_word, max_size=3), st.lists(call, max_size=30))
def test_stream_equals_numpy_draw_for_draw(seed, key, calls):
    # integers takes 32-bit halves and keeps the other half across the
    # 64-bit draws between its calls; the trailing calls check that state
    got, ref = rng.substream(seed, *key), numpy_stream(seed, key)
    for name, *args in [*calls, ("integers", 10), ("integers", 10), ("random", (3,))]:
        assert _draw(got, name, args) == _draw(ref, name, args)


@pytest.mark.parametrize("seed", [0, 12, 2**64 + 3])
def test_poisson_from_ten_on_equals_numpy(seed):
    lams = np.linspace(10.0, 5000.0, 4000).tolist() + [10.0, 11.5, 1e6, 1e12, 9e18]
    got, ref = rng.substream(seed, rng.DETECT_FP), numpy_stream(seed, (rng.DETECT_FP,))
    assert [got.poisson(lam) for lam in lams] == [ref.poisson(lam) for lam in lams]


def test_integers_of_one_takes_no_draw():
    stream, fresh = rng.substream(11, 4), rng.substream(11, 4)
    assert [stream.integers(1) for _ in range(5)] == [0] * 5
    assert stream.integers(7) == fresh.integers(7)
    assert stream.random((4,)).tolist() == fresh.random((4,)).tolist()


def test_integers_refuse_ranges_above_32_bits():
    with pytest.raises(ValueError, match="at most 2"):
        rng.substream(3).integers(2**32 + 1)


def _raised(fn, *args):
    try:
        fn(*args)
    except (ValueError, OverflowError) as exc:
        return exc
    pytest.fail(f"{fn} accepted {args}")


@pytest.mark.parametrize(
    "seed, key", [(-1, ()), (5, (-1,)), (5, (3, -(2**70))), (-(2**64), (1,))]
)
def test_negative_seed_words_raise_as_numpy_does(seed, key):
    theirs = _raised(lambda: np.random.SeedSequence(seed, spawn_key=key))
    with pytest.raises(type(theirs), match=re.escape(str(theirs))):
        rng.substream(seed, *key)


@pytest.mark.parametrize(
    "name, args",
    [
        ("poisson", (-1.0,)),
        ("poisson", (-1e-300,)),
        ("poisson", (math.nan,)),
        ("poisson", (math.inf,)),
        ("poisson", (1e19,)),
        ("integers", (0,)),
        ("integers", (-3,)),
        ("uniform", (1.0, 0.0)),
        ("uniform", (0.0, -0.0)),
        ("uniform", (0.0, math.nan)),
        ("uniform", (-1e308, 1e308)),
    ],
)
def test_invalid_arguments_raise_as_numpy_does(name, args):
    theirs = _raised(getattr(numpy_stream(3, ()), name), *args)
    with pytest.raises(type(theirs), match=re.escape(str(theirs))):
        getattr(rng.substream(3), name)(*args)


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
