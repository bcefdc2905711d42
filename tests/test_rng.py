import numpy as np
import pytest
from scipy.special import ndtri

from reglater import model, rng
from reglater.model import FeatureSpec, ProcessSpec


def test_substream_is_reproducible():
    a = rng.substream(7, "x", 3).standard_normal(16)
    b = rng.substream(7, "x", 3).standard_normal(16)
    assert np.array_equal(a, b)


def test_substreams_differ_across_paths():
    a = rng.substream(7, "x", 3).standard_normal(16)
    b = rng.substream(7, "x", 4).standard_normal(16)
    c = rng.substream(8, "x", 3).standard_normal(16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_block_draws_are_prefix_stable():
    # draw i depends only on (key, i // BLOCK_SIZE): growing n keeps a prefix
    small = rng.block_standard_normal(1000, 42)
    big = rng.block_standard_normal(rng.BLOCK_SIZE + 5000, 42)
    assert np.array_equal(small, big[:1000])


def test_derive_seed_stable_and_distinct():
    assert rng.derive_seed(1, "a", 2) == rng.derive_seed(1, "a", 2)
    assert rng.derive_seed(1, "a", 2) != rng.derive_seed(1, "a", 3)
    assert 0 <= rng.derive_seed(123) < 2**63


def test_key_rejects_unhashable_types():
    with pytest.raises(TypeError):
        rng.philox_key(1.5)


def test_block_rejection_deterministic_and_within_bounds():
    propose = lambda gen, m: gen.standard_normal(m)
    accept = lambda v: (v >= -1.0) & (v <= 1.0)
    vals1, used1 = rng.block_rejection(5000, propose, accept, 9, "rej")
    vals2, used2 = rng.block_rejection(5000, propose, accept, 9, "rej")
    assert np.array_equal(vals1, vals2)
    assert used1 == used2
    assert vals1.size == 5000
    assert np.all((vals1 >= -1.0) & (vals1 <= 1.0))
    # acceptance fraction should be near P(|Z|<1) ~ 0.6827
    assert abs(5000 / used1 - 0.6827) < 0.03


# ---------------------------------------------------------------------------
# prefix consistency: the property that lets a block be drawn in rounds of
# any size without changing a single value
# ---------------------------------------------------------------------------

CHUNKS = (1, 63, 64, 1000, 7, 4096, 3)

DRAWERS = {
    "brownian-terminal": (ProcessSpec("brownian", horizon=10.0),
                          FeatureSpec("terminal", eval_time=10.0)),
    "gbm-terminal": (ProcessSpec("gbm", horizon=2.0, volatility=0.3),
                     FeatureSpec("terminal", eval_time=2.0)),
    "path-integral": (ProcessSpec("brownian", horizon=1.0),
                      FeatureSpec("path_integral", eval_time=1.0)),
    "basket-sum": (ProcessSpec("basket_tree", horizon=2.0),
                   FeatureSpec("basket_sum", eval_time=2.0)),
}


def _chunked(draw, chunks, *parts):
    gen = rng.substream(*parts)
    return np.concatenate([np.asarray(draw(gen, m), dtype=np.float64) for m in chunks])


@pytest.mark.parametrize("name", sorted(DRAWERS))
def test_terminal_drawers_are_prefix_consistent(name):
    draw = model._terminal_drawer(*DRAWERS[name])
    one_shot = np.asarray(draw(rng.substream(3, name), sum(CHUNKS)), dtype=np.float64)
    assert np.array_equal(_chunked(draw, CHUNKS, 3, name), one_shot)


def test_standard_normal_is_prefix_consistent():
    draw = lambda gen, m: gen.standard_normal(m)
    one_shot = rng.substream(3, "normal").standard_normal(sum(CHUNKS))
    assert np.array_equal(_chunked(draw, CHUNKS, 3, "normal"), one_shot)


# ---------------------------------------------------------------------------
# the right-sized samplers against the full-block ones they replaced
# ---------------------------------------------------------------------------

def _full_block_map(n, draw_block, *parts):
    """Reference: every block requests BLOCK_SIZE draws, the tail truncated."""
    pieces, done, block = [], 0, 0
    while done < n:
        vals = np.asarray(draw_block(rng.substream(*parts, block), rng.BLOCK_SIZE),
                          dtype=np.float64)
        take = min(rng.BLOCK_SIZE, n - done)
        pieces.append(vals[:take])
        done += take
        block += 1
    return np.concatenate(pieces) if pieces else np.empty(0)


def _full_block_rejection(n, propose, accept, *parts):
    """Reference: every proposal round requests BLOCK_SIZE candidates."""
    out, proposals, done, block = [], 0, 0, 0
    while done < n:
        quota = min(rng.BLOCK_SIZE, n - done)
        gen = rng.substream(*parts, block)
        got, have = [], 0
        while have < quota:
            cand = np.asarray(propose(gen, rng.BLOCK_SIZE), dtype=np.float64)
            hits = np.nonzero(accept(cand))[0]
            if have + hits.size >= quota:
                need = quota - have
                proposals += int(hits[need - 1]) + 1
                got.append(cand[hits[:need]])
                have = quota
            else:
                proposals += cand.size
                got.append(cand[hits])
                have += hits.size
        out.append(np.concatenate(got))
        done += quota
        block += 1
    return (np.concatenate(out), proposals) if out else (np.empty(0), 0)


class _Counted:
    """Normal proposals that count their rounds."""

    def __init__(self):
        self.rounds = 0

    def __call__(self, gen, m):
        self.rounds += 1
        return gen.standard_normal(m)


SIZES = (1, 63, rng.BLOCK_SIZE, rng.BLOCK_SIZE + 1, 150_000)
ACCEPTANCE = (0.01, 0.1, 0.5, 0.9, 0.9999, 1.0)


@pytest.mark.parametrize("n", SIZES)
def test_block_map_matches_full_block_reference(n):
    draw = lambda gen, m: gen.standard_normal(m)
    assert np.array_equal(rng.block_map(n, draw, 5, "map"), _full_block_map(n, draw, 5, "map"))


@pytest.mark.parametrize("n,p", [(n, p) for n in SIZES for p in ACCEPTANCE]
                         + [(2, model.MIN_CONDITIONAL_MASS)])
def test_block_rejection_matches_full_block_reference(n, p):
    cut = ndtri(p) if p < 1 else np.inf
    accept = lambda v: v <= cut
    new, old = _Counted(), _Counted()
    vals, used = rng.block_rejection(n, new, accept, 5, "rej", str(p))
    ref_vals, ref_used = _full_block_rejection(n, old, accept, 5, "rej", str(p))
    assert np.array_equal(vals, ref_vals)
    assert used == ref_used
    # right-sizing may split a block's last full round, never much more
    assert new.rounds <= old.rounds + 2


# ---------------------------------------------------------------------------
# block offsets: a long draw produced one block at a time
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", (1, rng.BLOCK_SIZE, rng.BLOCK_SIZE + 1, 150_000))
def test_first_block_calls_concatenate_to_the_one_shot_draw(n):
    size = rng.BLOCK_SIZE
    draw = lambda gen, m: gen.standard_normal(m)
    accept = lambda v: v <= 0.3
    starts = range(0, n, size)

    pieces = [rng.block_map(min(size, n - lo), draw, 5, "map", first_block=lo // size)
              for lo in starts]
    one_shot = rng.block_map(n, draw, 5, "map")
    assert np.array_equal(np.concatenate(pieces), one_shot)

    parts = [rng.block_rejection(min(size, n - lo), draw, accept, 5, "rej", first_block=lo // size)
             for lo in starts]
    vals, used = rng.block_rejection(n, draw, accept, 5, "rej")
    assert np.array_equal(np.concatenate([v for v, _ in parts]), vals)
    assert sum(p for _, p in parts) == used

    if n > size:  # an offset call spanning several blocks continues the draw
        assert np.array_equal(rng.block_map(n - size, draw, 5, "map", first_block=1),
                              one_shot[size:])
        tail, tail_used = rng.block_rejection(n - size, draw, accept, 5, "rej", first_block=1)
        assert np.array_equal(tail, vals[size:])
        assert tail_used == used - parts[0][1]
