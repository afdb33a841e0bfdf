"""Seed derivation utilities.

All randomness in the package flows from a single root seed through named
derivation: each component asks for a child seed keyed by string labels (and
optionally integer indices), so adding a new component never perturbs the
streams of existing ones, and per-unit work (rows, storms, MC replicates) can
be parallelized without changing results.
"""

from __future__ import annotations

import functools
import hashlib
import itertools

import numpy as np

__all__ = ["derive_seed", "derived_rng", "derived_rngs", "row_uniforms"]

_MASK64 = (1 << 64) - 1


def _encode(label, int_tag=b"i") -> bytes:
    """One path element: a tagged 16-byte signed integer or a length-prefixed string."""
    if isinstance(label, (int, np.integer)):
        if not -2**127 <= int(label) < 2**127:
            raise ValueError(f"seed or integer label {label} is outside [-2**127, 2**127)")
        return int_tag + int(label).to_bytes(16, "little", signed=True)
    enc = str(label).encode("utf-8")
    return b"s" + len(enc).to_bytes(4, "little") + enc


def _path_hash(root_seed: int, labels):
    """SHA-256 state after the root seed and the label path."""
    return hashlib.sha256(b"".join([_encode(int(root_seed), int_tag=b""), *map(_encode, labels)]))


def derive_seed(root_seed: int, *labels) -> int:
    """Derive a 64-bit child seed from a root seed and a label path.

    Labels may be strings or integers; integers outside [-2**127, 2**127) raise
    :class:`ValueError`. Stable across runs and platforms (SHA-256 of the path).
    """
    return int.from_bytes(_path_hash(root_seed, labels).digest()[:8], "little")


def derived_rng(root_seed: int, *labels) -> np.random.Generator:
    """Generator seeded by :func:`derive_seed` of the given path."""
    return np.random.default_rng(derive_seed(root_seed, *labels))


def _pcg64_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 ``s``, as (n, 4) rows."""
    const = [0x43B0D7E5, 0x931E8875]  # numpy's INIT_A and MULT_A; the same for every seed

    def hashmix(value):
        old, const[0] = const[0], const[0] * const[1] & 0xFFFFFFFF
        value = (value ^ np.uint32(old)) * np.uint32(const[0])
        return value ^ (value >> np.uint32(16))

    # numpy's pool of 4 uint32 words starts as (low, high, 0, 0) for any seed below 2**64
    pool = [hashmix(w) for w in np.pad(seeds.view("<u4").reshape(-1, 2), ((0, 0), (0, 2))).T]
    for src, dst in itertools.permutations(range(4), 2):
        mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hashmix(pool[src])
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    const[:] = 0x8B51F9DD, 0x58F38DED  # INIT_B and MULT_B
    return np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1).view("<u8")


@functools.cache
def _words_type():
    """PCG64's seed source for precomputed words, defined on first use: it loads numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class _Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return _Words


def derived_rngs(root_seed: int, *labels, count: int) -> list:
    """``count`` generators; entry i draws what ``derived_rng(root_seed, *labels, i)`` draws,
    bit for bit, but its seed source is precomputed words, so it neither pickles nor spawns."""
    from numpy.random import PCG64, Generator

    path, seeds = _path_hash(root_seed, labels), []
    for i in range(count):
        h = path.copy()
        h.update(b"i" + i.to_bytes(16, "little"))  # _encode(i): i is never negative
        seeds.append(h.digest()[:8])
    words = _pcg64_words(np.frombuffer(b"".join(seeds), dtype="<u8"))
    words_type = _words_type()
    return [Generator(PCG64(words_type(row))) for row in words]


# Philox4x64 round multipliers and Weyl key increments (Salmon et al., 2011)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(a: int, b: np.ndarray):
    """Low and high 64-bit words of the 128-bit products ``a * b``."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LO32, b >> _SHIFT32
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = ((a_lo * b_lo) >> _SHIFT32) + (lh & _LO32) + (hl & _LO32)
    hi = a_hi * b_hi + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (mid >> _SHIFT32)
    return b * np.uint64(a), hi


def row_uniforms(seed: int, n_rows: int, size: int) -> np.ndarray:
    """Uniform doubles in [0, 1), shape (n_rows, size), from a stream keyed on (seed, row).

    Row ``i`` depends only on ``(seed, i)``, never on how many other rows
    exist. It equals ``.random(size)`` of a numpy ``Generator(Philox(key=k))``
    with ``k`` the uint64 pair (seed mod 2**64, i): all rows run one
    Philox4x64-10 pass over the counter blocks 1, 2, ... that numpy's Philox
    would visit, and each 64-bit word becomes ``(word >> 11) * 2**-53``,
    numpy's double conversion.
    """
    n_blocks = -(-size // 4)
    k0 = seed & _MASK64
    k1 = np.arange(n_rows, dtype=np.uint64)[:, None]
    c0 = np.broadcast_to(np.arange(1, n_blocks + 1, dtype=np.uint64), (n_rows, n_blocks))
    c1 = c2 = c3 = np.zeros((n_rows, n_blocks), dtype=np.uint64)
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
            k1 = k1 + np.uint64(_PHILOX_W[1])
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=2).reshape(n_rows, 4 * n_blocks)[:, :size]
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)
