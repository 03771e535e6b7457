"""Per-entity detector streams from a shared key prefix against ``substream``.

``SeedStreams`` finishes numpy's SeedSequence hash by hand; these
properties pin its streams to ``substream`` of the full key draw for draw,
with seeds, prefix words and entity ids that take one or several 32-bit
words.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsparse import rng

# one-word values, the 2**32 boundary, and several-word values
word_int = st.one_of(
    st.integers(0, 2**32 - 1),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**128 + 7]),
    st.integers(0, 2**140),
)


def _draws(gen):
    return [gen.uniform(), *gen.normal(0.0, 1.0, size=4), gen.random(), gen.poisson(3.0), gen.integers(1000)]


@settings(max_examples=400, deadline=None)
@given(word_int, st.lists(word_int, max_size=3), st.lists(word_int, max_size=5))
def test_seed_streams_equal_substream(seed, prefix, entities):
    streams = rng.SeedStreams(seed)
    got = [_draws(gen) for gen in streams.each(tuple(prefix), entities)]
    assert got == [_draws(rng.substream(seed, *prefix, e)) for e in entities]


def test_streams_of_one_prefix_do_not_depend_on_the_entity_list():
    streams = rng.SeedStreams(11)
    alone = [_draws(gen) for gen in streams.each((rng.DETECT, 2, 40), [7])]
    among = [_draws(gen) for gen in streams.each((rng.DETECT, 2, 40), [3, 7, 2**40])]
    assert among[1] == alone[0]


def test_rejects_negative_key_words():
    streams = rng.SeedStreams(11)
    with pytest.raises(ValueError):
        list(streams.each((rng.DETECT, -1), [3]))
    with pytest.raises(ValueError):
        list(streams.each((rng.DETECT,), [-1]))
