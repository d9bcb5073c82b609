"""Deterministic synthetic element content (the paper's film file).

The authors "encoded a film file and stored 17 GB data on each data
disk" — the content itself only matters for the post-reconstruction
correctness check ("we also compared the original data on the virtual
failed disk and the recovered data").  We substitute a deterministic
pseudo-random payload: every data element's bytes are a pure function
of ``(stripe, data disk, row)``, so any recovered element can be
checked against regeneration without storing 17 GB.

The payload of ``(stripe, i, j)`` is numpy's
``default_rng(SeedSequence([seed, stripe, i, j])).integers(0, 256,
payload_bytes, dtype=uint8)``: the first ``payload_bytes`` bytes of
that PCG64 stream's raw 64-bit words, little-endian.  Spinning up one
``Generator`` per element costs tens of microseconds, so
:func:`_film_payloads` computes the same bytes for whole coordinate
arrays at once — SeedSequence's hash pool, PCG64 seeding and its
128-bit LCG in plain uint64 arithmetic — and a controller's whole film
is a handful of numpy operations.

Payloads are deliberately small (default 64 bytes per element): the
*timing* of a 4 MB element is the simulator's business; the *value*
only needs enough entropy to make silent corruption vanishingly
unlikely.
"""

from __future__ import annotations

import operator

import numpy as np

__all__ = [
    "FilmSource",
    "DEFAULT_PAYLOAD_BYTES",
    "build_film_block",
    "register_shared_film",
    "unregister_shared_film",
    "attach_shared_film",
]

DEFAULT_PAYLOAD_BYTES = 64

_MASK32 = np.uint64(0xFFFFFFFF)
_U16 = np.uint64(16)
_U32 = np.uint64(32)

# numpy.random.SeedSequence: pool size and hash constants
_POOL = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint64(0xCA01F9DD)
_MIX_MULT_R = np.uint64(0x4973F715)

#: PCG64's 128-bit LCG multiplier, as four 32-bit limbs (low first)
_PCG_MULT = tuple(
    np.uint64((0x2360ED051FC65DA4_4385DF649FCCF645 >> (32 * k)) & 0xFFFFFFFF)
    for k in range(4)
)


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 entropy words of one non-negative integer."""
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _hashmix(
    value: np.ndarray, hash_const: int, mult: int = _MULT_A
) -> tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix``; returns the value and the next constant."""
    value = value ^ np.uint64(hash_const)
    hash_const = (hash_const * mult) & 0xFFFFFFFF
    value = (value * np.uint64(hash_const)) & _MASK32
    return value ^ (value >> _U16), hash_const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _U16)


def _seed_pools(words: np.ndarray, lengths: np.ndarray) -> list[np.ndarray]:
    """SeedSequence's mixed 4-word pool for each row of entropy ``words``.

    ``words`` is ``(N, W)`` with ``lengths[r] >= 4`` valid words in row
    ``r``; words past the pool go through the extra mixing loop only in
    the rows that have them.
    """
    hash_const = _INIT_A
    pool = []
    for k in range(_POOL):
        value, hash_const = _hashmix(words[:, k], hash_const)
        pool.append(value)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for k in range(_POOL, int(lengths.max(initial=_POOL))):
        extra = lengths > k
        for dst in range(_POOL):
            value, hash_const = _hashmix(words[:, k], hash_const)
            pool[dst] = np.where(extra, _mix(pool[dst], value), pool[dst])
    return pool


def _generate_state(pool: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence.generate_state(4, uint64)`` as eight uint32 words."""
    hash_const = _INIT_B
    out = []
    for k in range(8):
        value, hash_const = _hashmix(pool[k % _POOL], hash_const, _MULT_B)
        out.append(value)
    return out


def _carry(cols: list[np.ndarray]) -> list[np.ndarray]:
    """Propagate carries through 32-bit limb sums (low first), mod 2**128."""
    out = []
    carry = np.uint64(0)
    for col in cols:
        col = col + carry
        out.append(col & _MASK32)
        carry = col >> _U32
    return out


def _lcg_step(state: list[np.ndarray], inc: list[np.ndarray]) -> list[np.ndarray]:
    """``state * MULT + inc`` mod 2**128, in 32-bit limbs (low first)."""
    cols = list(inc)
    for a in range(4):
        for b in range(4 - a):
            product = state[a] * _PCG_MULT[b]
            cols[a + b] = cols[a + b] + (product & _MASK32)
            if a + b < 3:
                cols[a + b + 1] = cols[a + b + 1] + (product >> _U32)
    return _carry(cols)


def _film_payloads(seed: int, payload_bytes: int, stripes, i, j) -> np.ndarray:
    """Film payloads of broadcast coordinate arrays, ``(..., payload_bytes)``.

    Byte-identical to numpy's per-element generator (see the module
    docstring) for any non-negative seed and coordinates below 2**64;
    negative ones raise :class:`ValueError`, as
    :class:`numpy.random.SeedSequence` does.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"film seed must be non-negative, got {seed}")
    coords = np.broadcast_arrays(*(np.asarray(c) for c in (stripes, i, j)))
    shape = coords[0].shape
    flat = []
    for c in coords:
        if c.dtype.kind not in "iu":
            raise TypeError(f"film coordinates must be integers, got {c.dtype}")
        if c.size and c.min() < 0:
            raise ValueError("film coordinates must be non-negative")
        flat.append(c.reshape(-1).astype(np.uint64))
    n = flat[0].size

    # entropy words: the seed's, then each coordinate's low word and,
    # when non-zero, its high word
    seed_words = _words(seed)
    width = len(seed_words) + 2 * len(flat)
    words = np.zeros((n, width), dtype=np.uint64)
    words[:, : len(seed_words)] = seed_words
    rows = np.arange(n)
    col = np.full(n, len(seed_words))
    for c in flat:
        high = c >> _U32
        words[rows, col] = c & _MASK32
        col = col + 1
        words[rows, col] = high
        col = col + (high > 0)

    w = _generate_state(_seed_pools(words, col))
    # PCG64 set_seed: initstate = (s0 << 64) | s1, initseq = (s2 << 64) | s3
    # for the uint64 state words s_k = w[2k] | w[2k + 1] << 32
    initstate = [w[2], w[3], w[0], w[1]]
    initseq = [w[6], w[7], w[4], w[5]]
    inc = [((initseq[0] << np.uint64(1)) | np.uint64(1)) & _MASK32]
    inc += [
        ((initseq[k] << np.uint64(1)) | (initseq[k - 1] >> np.uint64(31))) & _MASK32
        for k in range(1, 4)
    ]
    # PCG64 srandom: state = 0, step, add initstate, step
    state = _lcg_step(_carry([a + b for a, b in zip(inc, initstate)]), inc)

    n_words = -(-payload_bytes // 8)
    raw = np.empty((n, n_words), dtype=np.uint64)
    for k in range(n_words):
        state = _lcg_step(state, inc)
        # XSL-RR: fold the halves, rotate right by the top six bits
        x = ((state[3] << _U32) | state[2]) ^ ((state[1] << _U32) | state[0])
        rot = state[3] >> np.uint64(26)
        raw[:, k] = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    payload = raw.astype("<u8", copy=False).view(np.uint8)[:, :payload_bytes]
    return payload.reshape(*shape, payload_bytes)


def build_film_block(
    seed: int,
    payload_bytes: int,
    n_stripes: int,
    n_i: int,
    n_j: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Materialise a whole film into one ``(stripes, i, j, payload)`` array.

    Every cell is byte-identical to :meth:`FilmSource.element` at the
    same coordinates.  ``out`` (for example a shared-memory buffer)
    receives the block when given.
    """
    block = _film_payloads(
        seed,
        payload_bytes,
        np.arange(n_stripes)[:, None, None],
        np.arange(n_i)[None, :, None],
        np.arange(n_j)[None, None, :],
    )
    if out is None:
        return np.ascontiguousarray(block)
    out[...] = block
    return out


#: the film store: one read-only ``(stripes, i, j, payload)`` block per
#: ``(seed, payload_bytes)``, grown on demand by :meth:`FilmSource.block`
#: or installed by :func:`register_shared_film` (a pool worker maps its
#: parent's block from shared memory)
_films: dict[tuple[int, int], np.ndarray] = {}
#: films kept at once; the least recently stored is dropped first
_MAX_FILMS = 8
#: worker-side SharedMemory handles, kept alive for the process lifetime
_shared_handles: list = []


def register_shared_film(seed: int, payload_bytes: int, block: np.ndarray) -> None:
    """Install ``block`` as the film store of ``(seed, payload_bytes)``.

    A later request beyond the block's extent regenerates a larger one,
    so a block sized for one campaign never limits a larger one.
    """
    block.setflags(write=False)
    _films.pop((seed, payload_bytes), None)
    _films[(seed, payload_bytes)] = block
    while len(_films) > _MAX_FILMS:
        del _films[next(iter(_films))]


def unregister_shared_film(seed: int, payload_bytes: int) -> None:
    """Drop a stored block (before its backing memory is released)."""
    _films.pop((seed, payload_bytes), None)


def attach_shared_film(
    seed: int, payload_bytes: int, shm_name: str, shape: tuple
) -> None:
    """Worker-side: map an existing shared-memory film block read-only.

    Runs in the pool initializer — the handle is kept alive for the
    process lifetime, so the mapping outlives this call.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=shm_name)
    _shared_handles.append(shm)
    block = np.ndarray(shape, dtype=np.uint8, buffer=shm.buf)
    register_shared_film(seed, payload_bytes, block)


class FilmSource:
    """Deterministic content generator for data elements.

    Parameters
    ----------
    payload_bytes:
        Bytes of verifiable content per element.
    seed:
        Base seed; two sources with equal seeds generate identical
        "films".
    """

    def __init__(self, payload_bytes: int = DEFAULT_PAYLOAD_BYTES, seed: int = 2012) -> None:
        if payload_bytes < 1:
            raise ValueError(f"payload must be >= 1 byte, got {payload_bytes}")
        self.payload_bytes = payload_bytes
        self.seed = seed

    def block(self, n_stripes: int, n_i: int, n_j: int) -> np.ndarray:
        """The ``(n_stripes, n_i, n_j, payload)`` film of the first stripes.

        A read-only view of the film store; a request beyond the stored
        block regenerates it at the larger extent first.
        """
        extent = (n_stripes, n_i, n_j)
        if min(extent) < 0:
            raise ValueError(f"film block extent must be non-negative, got {extent}")
        key = (self.seed, self.payload_bytes)
        block = _films.get(key)
        if block is None or any(e > b for e, b in zip(extent, block.shape)):
            grown = extent if block is None else np.maximum(extent, block.shape[:3])
            block = build_film_block(self.seed, self.payload_bytes, *map(int, grown))
            register_shared_film(self.seed, self.payload_bytes, block)
        return block[:n_stripes, :n_i, :n_j]

    def element(self, stripe: int, i: int, j: int) -> np.ndarray:
        """The payload of data element ``a[i, j]`` of ``stripe``.

        Computed for this one coordinate; the film store is neither read
        nor grown.  The returned array is read-only; copy before
        mutating (ndarray assignment into a content store copies).
        """
        payload = _film_payloads(self.seed, self.payload_bytes, stripe, i, j)
        payload.setflags(write=False)
        return payload

    def fresh(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        """``count`` new payloads for overwriting user writes, one per row.

        One draw of ``ceil(payload_bytes / 4)`` full-range uint32 words
        per payload, read as little-endian bytes and cut to
        ``payload_bytes``: byte-identical to ``count`` successive
        ``rng.integers(0, 256, payload_bytes, dtype=uint8)`` calls, and
        the generator ends in the same state.  A full-range uint8 fill
        takes one 32-bit draw per four bytes from a buffer that restarts
        with each call, a full-range uint32 fill one 32-bit draw per
        word, and the bit generator's spare 32-bit half carries across
        both alike.
        """
        n_words = -(-self.payload_bytes // 4)
        words = rng.integers(0, 2**32, (count, n_words), dtype=np.uint32)
        return words.astype("<u4", copy=False).view(np.uint8)[:, : self.payload_bytes]
