"""Seed derivation utilities.

All randomness in the package flows from a single root seed through named
derivation: each component asks for a child seed keyed by string labels (and
optionally integer indices), so adding a new component never perturbs the
streams of existing ones, and per-unit work (rows, storms, MC replicates) can
be parallelized without changing results.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "derived_rng", "row_uniforms"]

_MASK64 = (1 << 64) - 1


def derive_seed(root_seed: int, *labels) -> int:
    """Derive a 64-bit child seed from a root seed and a label path.

    Labels may be strings or integers; the mapping is stable across runs and
    platforms (SHA-256 over the encoded path).
    """
    h = hashlib.sha256()
    h.update(int(root_seed).to_bytes(16, "little", signed=True))
    for label in labels:
        if isinstance(label, (int, np.integer)):
            h.update(b"i" + int(label).to_bytes(16, "little", signed=True))
        else:
            enc = str(label).encode("utf-8")
            h.update(b"s" + len(enc).to_bytes(4, "little") + enc)
    return int.from_bytes(h.digest()[:8], "little") & _MASK64


def derived_rng(root_seed: int, *labels) -> np.random.Generator:
    """Generator seeded by :func:`derive_seed` of the given path."""
    return np.random.default_rng(derive_seed(root_seed, *labels))


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
