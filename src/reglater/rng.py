"""Counter-based random substreams.

Every stream is a Philox generator keyed by a hash of ``(seed, *path)``, so
any draw is a pure function of its key and never depends on execution order
or worker count.  Bulk sampling splits the index range ``[0, n)`` into fixed
blocks of ``BLOCK_SIZE`` draws; block ``j`` uses the substream keyed
``(seed, *path, j)``.  Generator streams are prefix-consistent (drawing in
chunks yields the one-shot sequence; Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), so each block requests only what it
needs and draw ``i`` still depends only on ``(parts, i // BLOCK_SIZE)``:
results are bit-identical under any parallel schedule and stable under
growing ``n``.

The same property lets a long draw be produced one block at a time: the
samplers take a keyword ``first_block``, and block ``j`` of an ``n``-draw is
the call with ``min(BLOCK_SIZE, n - j * BLOCK_SIZE)`` draws and
``first_block=j``, bit-identical to the slice of the one-shot call.  This is
how a repetition streams through sampling and fitting in O(``BLOCK_SIZE``)
memory.

Rejection sampling reads each block's candidate sequence in rounds sized
from the acceptance rate the caller states (the feature sampler states its
law's truncation mass): enough proposals for the rest of the block's quota
with three binomial standard deviations to spare, and at most a block.  The
rate only decides where the sequence is cut, so no sample depends on it.
"""
from __future__ import annotations

import bisect
import math

import numpy as np

BLOCK_SIZE = 1 << 16
KEY_INT_BITS = 128  # an integer key part is hashed as this many bits, signed


def philox_key(*parts) -> np.ndarray:
    """Derive a 128-bit Philox key from integers (each within the signed
    ``KEY_INT_BITS``-bit range) and/or short strings."""
    import hashlib  # here: it loads OpenSSL, and validating a config draws nothing

    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        if isinstance(p, (bool, np.bool_)):
            p = int(p)
        if isinstance(p, (int, np.integer)):
            h.update(b"i")
            h.update(int(p).to_bytes(KEY_INT_BITS // 8, "little", signed=True))
        elif isinstance(p, str):
            raw = p.encode("utf-8")
            h.update(b"s" + len(raw).to_bytes(4, "little"))
            h.update(raw)
        else:
            raise TypeError(f"key part must be int or str, got {type(p)!r}")
    return np.frombuffer(h.digest(), dtype=np.uint64).copy()


def substream(*parts) -> np.random.Generator:
    """Independent generator for the given key path."""
    return np.random.Generator(np.random.Philox(key=philox_key(*parts)))


def derive_seed(*parts) -> int:
    """Collapse a key path to a 63-bit integer seed for nested samplers."""
    return int(philox_key(*parts)[0] >> np.uint64(1))


def block_map(n: int, draw_block, *parts, first_block: int = 0) -> np.ndarray:
    """Fill ``n`` draws block by block.

    ``draw_block(gen, size)`` must return exactly ``size`` values using only
    ``gen``, and be prefix-consistent: the values of a short request are the
    leading values of a longer one.  Block ``j`` draws ``min(BLOCK_SIZE,
    n - j * BLOCK_SIZE)`` values from substream ``(*parts, first_block + j)``,
    so draw ``i`` depends only on ``(parts, first_block + i // BLOCK_SIZE)``.
    A draw of one block is returned as ``draw_block`` gave it, not copied.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    pieces = []
    done = 0
    block = first_block
    while done < n:
        take = min(BLOCK_SIZE, n - done)
        pieces.append(np.asarray(draw_block(substream(*parts, block), take), dtype=np.float64))
        done += take
        block += 1
    if not pieces:
        return np.empty(0, dtype=np.float64)
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def block_standard_normal(n: int, *parts, first_block: int = 0) -> np.ndarray:
    return block_map(n, lambda gen, m: gen.standard_normal(m), *parts, first_block=first_block)


def _round_size(need: int, rate: float) -> int:
    """Proposals for the next rejection round of a block: enough for ``need``
    more hits at acceptance ``rate``, with three binomial standard deviations
    to spare, and at most a block."""
    m = (need + 3.0 * math.sqrt(need * (1.0 - rate))) / rate
    return min(BLOCK_SIZE, math.ceil(m))


def _round(gen: np.random.Generator, m: int, need: int, propose, accept
           ) -> tuple[np.ndarray, int]:
    """One rejection round of ``m`` proposals: its first ``need`` hits or all
    of them if fewer, and the proposals examined, up to and including the
    ``need``-th hit when there is one.  That count is ``need`` plus the misses
    before the ``need``-th hit, and a miss comes before it exactly when fewer
    than ``need`` hits come before the miss."""
    cand = np.asarray(propose(gen, m), dtype=np.float64)
    ok = accept(cand)
    hits = cand[ok]
    if hits.size < need:
        return hits, cand.size
    misses = np.flatnonzero(~ok)  # miss j has misses[j] - j hits before it
    return hits[:need], need + bisect.bisect_left(range(misses.size), need,
                                                  key=lambda j: misses[j] - j)


def block_rejection(n: int, propose, accept, *parts, rate: float,
                    first_block: int = 0) -> tuple[np.ndarray, int]:
    """Rejection-sample ``n`` values with per-block substreams.

    ``propose(gen, m)`` draws ``m`` candidates and must be prefix-consistent
    like ``block_map``'s ``draw_block``; ``accept(values)`` returns a boolean
    mask, true for a share ``rate`` in (0, 1] of the candidates.  Block ``j``
    (quota ``min(BLOCK_SIZE, n - j * BLOCK_SIZE)``) reads one candidate
    sequence from substream ``(*parts, first_block + j)`` in rounds sized
    from ``rate`` to the remaining quota, and keeps its first ``quota``
    accepted candidates.  The round sizes only decide where that sequence is
    cut, so sample ``i`` depends only on ``(parts, first_block + i //
    BLOCK_SIZE)``, and the samples are the same for any ``rate``.  Returns
    ``(samples, proposals_used)``, counting the candidates examined: each
    block's sequence up to and including its last kept candidate.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must lie in (0, 1], got {rate!r}")
    out = []
    proposals = 0
    done = 0
    block = first_block
    while done < n:
        quota = min(BLOCK_SIZE, n - done)
        gen = substream(*parts, block)
        got = []
        have = 0
        while have < quota:
            need = quota - have
            hits, examined = _round(gen, _round_size(need, rate), need, propose, accept)
            got.append(hits)
            have += hits.size
            proposals += examined
        out.append(got[0] if len(got) == 1 else np.concatenate(got))
        done += quota
        block += 1
    if not out:
        return np.empty(0, dtype=np.float64), 0
    return (out[0] if len(out) == 1 else np.concatenate(out)), proposals
