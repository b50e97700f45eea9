"""`marginal._randbelow` against `random.Random.randrange`.

Every sampler draws its bounded ints through `_randbelow`, which calls
`getrandbits` of the span's bit length and draws again while the value is
out of range, as CPython's `_randbelow` does for `randrange`.  For the
samplers' output bytes to stay those of the `randint`/`randrange` calls they
replace, it must give the same values and leave the generator in the same
state, on every span: small ones, where a span of 1 still takes bits, and
spans on each side of a power of two, where the share of redraws jumps.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tropmarg.marginal import _randbelow

EDGES = sorted({s for k in range(1, 71) for s in (2**k - 1, 2**k, 2**k + 1)})


def assert_same_stream(seed, spans):
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    got = _randbelow(got_rng, spans)
    want = [want_rng.randrange(span) for span in spans]
    assert got == want
    assert got_rng.getstate() == want_rng.getstate()


def test_small_spans():
    for span in range(1, 301):
        assert_same_stream(f"small/{span}", [span] * 40)


def test_spans_around_powers_of_two():
    for span in EDGES:
        assert_same_stream(f"edge/{span}", [span] * 20)


def test_mixed_spans_in_one_call():
    rng = random.Random("mixed")
    spans = [rng.choice(EDGES + list(range(1, 40))) for _ in range(500)]
    assert_same_stream("mixed", spans)


def test_span_one_takes_bits():
    rng = random.Random(3)
    before = rng.getstate()
    assert _randbelow(rng, [1, 1, 1]) == [0, 0, 0]
    assert rng.getstate() != before


def test_no_spans_take_nothing():
    rng = random.Random(4)
    before = rng.getstate()
    assert _randbelow(rng, []) == []
    assert rng.getstate() == before


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(0, 2**64),
    st.lists(st.one_of(st.integers(1, 300), st.sampled_from(EDGES)), max_size=60),
)
def test_hypothesis_seeds_and_spans(seed, spans):
    assert_same_stream(seed, spans)
