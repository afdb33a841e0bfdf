"""Seed derivation: ``derived_rngs`` against ``derived_rng``, and the seed-word port.

``derived_rngs`` builds its generators from a vectorized port of numpy's
``SeedSequence`` arithmetic, so every test here compares it with numpy's own
scalar path under ``==``: equal draws, not close ones.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pitcal.rng as rngmod

ROOTS = st.integers(-2**127, 2**127 - 1)
LABELS = st.lists(st.one_of(st.text(max_size=6), st.integers(-2**127, 2**127 - 1)), max_size=3)


def frozen_derive_seed(root_seed, *labels):
    """The path encoding as first written, before the label encoder was shared."""
    h = hashlib.sha256()
    h.update(int(root_seed).to_bytes(16, "little", signed=True))
    for label in labels:
        if isinstance(label, (int, np.integer)):
            h.update(b"i" + int(label).to_bytes(16, "little", signed=True))
        else:
            enc = str(label).encode("utf-8")
            h.update(b"s" + len(enc).to_bytes(4, "little") + enc)
    return int.from_bytes(h.digest()[:8], "little")


def reads(rng):
    """One read of each kind the package makes, in a fixed order."""
    return (rng.random(5), rng.standard_normal(4), rng.integers(-3, 1000, size=6),
            rng.permutation(9))


@settings(max_examples=40, deadline=None)
@given(root=ROOTS, labels=LABELS, count=st.sampled_from([0, 1, 2, 200]))
@example(root=0, labels=[], count=200)
@example(root=-1, labels=["null-pits"], count=2)
@example(root=2**63, labels=["coverage", 3], count=1)
@example(root=2**64 - 1, labels=[-7, "s", 2**100], count=0)
def test_derived_rngs_equal_derived_rng(root, labels, count):
    batch = rngmod.derived_rngs(root, *labels, count=count)
    assert len(batch) == count
    for i, rng in enumerate(batch):
        for got, want in zip(reads(rng), reads(rngmod.derived_rng(root, *labels, i))):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_seed_words_equal_seed_sequence_at_the_word_edges(seed):
    got = rngmod._pcg64_words(np.array([seed], dtype=np.uint64))
    assert got.shape == (1, 4)
    assert np.array_equal(got[0], np.random.SeedSequence(seed).generate_state(4, np.uint64))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
def test_seed_words_equal_seed_sequence(seeds):
    got = rngmod._pcg64_words(np.array(seeds, dtype=np.uint64))
    want = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]
    assert np.array_equal(got, np.stack(want))


@settings(max_examples=100, deadline=None)
@given(root=ROOTS, labels=LABELS)
@example(root=-2**127, labels=[2**127 - 1])
def test_derive_seed_keeps_its_encoding(root, labels):
    assert rngmod.derive_seed(root, *labels) == frozen_derive_seed(root, *labels)


@pytest.mark.parametrize("root,labels", [(2**127, ()), (-2**127 - 1, ()), (0, ("a", 2**127)),
                                         (0, (-2**127 - 1,))])
def test_integers_beyond_sixteen_bytes_raise_value_error(root, labels):
    with pytest.raises(ValueError, match=r"outside \[-2\*\*127, 2\*\*127\)"):
        rngmod.derive_seed(root, *labels)
    with pytest.raises(ValueError):
        rngmod.derived_rngs(root, *labels, count=1)


def test_each_index_gets_its_own_generator():
    batch = rngmod.derived_rngs(4, "score", count=3)
    assert len({id(rng) for rng in batch}) == 3
    assert len({id(rng.bit_generator) for rng in batch}) == 3
