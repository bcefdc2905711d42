import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri

from reglater import model, rng
from reglater.model import FeatureSpec
from reference import block_rejection_by_index, terminal_drawer


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
    rate = ndtr(1.0) - ndtr(-1.0)
    vals1, used1 = rng.block_rejection(5000, propose, accept, 9, "rej", rate=rate)
    vals2, used2 = rng.block_rejection(5000, propose, accept, 9, "rej", rate=rate)
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

DRAWERS = {"brownian-terminal": FeatureSpec("terminal", eval_time=10.0)}


def _chunked(draw, chunks, *parts):
    gen = rng.substream(*parts)
    return np.concatenate([np.asarray(draw(gen, m), dtype=np.float64) for m in chunks])


@pytest.mark.parametrize("name", sorted(DRAWERS))
def test_terminal_drawers_are_prefix_consistent(name):
    draw = terminal_drawer(DRAWERS[name])
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
    old = _Counted()
    ref_vals, ref_used = _full_block_rejection(n, old, accept, 5, "rej", str(p))
    # the stated rate only decides where the candidate sequence is cut: the
    # true p, p / 4 and min(1, 4 p) all give the reference's samples and count
    for rate in (p, p / 4.0, min(1.0, 4.0 * p)):
        new = _Counted()
        vals, used = rng.block_rejection(n, new, accept, 5, "rej", str(p), rate=rate)
        assert np.array_equal(vals, ref_vals)
        assert used == ref_used
        if rate == p:  # right-sizing may split a block's last full round, never much more
            assert new.rounds <= old.rounds + 2


# expected proposals per case, n / p, at most this: n is cut to it at low rates
REJECTION_PROPOSALS = 1_000_000


@st.composite
def rejection_cases(draw):
    """A uniform proposal accepted on a window of true rate p in [1e-3, 1],
    a stated rate from p / 2 to 2 p (at most 1), so that blocks take several
    rounds, from 1 draw to three blocks, and a first block from 0 to 2."""
    p = 10.0 ** draw(st.floats(-3.0, 0.0))
    lo = draw(st.floats(0.0, 1.0)) * (1.0 - p)
    stated = min(1.0, p * draw(st.floats(0.5, 2.0)))
    n = draw(st.integers(1, min(3 * rng.BLOCK_SIZE, max(1, int(REJECTION_PROPOSALS * p)))))
    return lo, p, stated, n, draw(st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(rejection_cases(), st.integers(0, 2**32))
def test_block_rejection_keeps_the_index_array_samples_and_count(case, seed):
    lo, p, stated, n, first_block = case
    propose = lambda gen, m: gen.random(m)
    accept = lambda v: (v >= lo) & (v < lo + p)
    vals, used = rng.block_rejection(n, propose, accept, seed, "rej", rate=stated,
                                     first_block=first_block)
    ref_vals, ref_used = block_rejection_by_index(n, propose, accept, seed, "rej", rate=stated,
                                                  first_block=first_block)
    assert np.array_equal(vals, ref_vals)
    assert used == ref_used


@pytest.mark.parametrize("rate", (0.0, -0.5, 1.5, float("nan")))
def test_block_rejection_refuses_a_rate_outside_0_1(rate):
    with pytest.raises(ValueError, match="rate"):
        rng.block_rejection(10, _Counted(), lambda v: v <= 0.0, 5, "rej", rate=rate)


def test_conditional_partial_block_takes_one_round(monkeypatch):
    # rounds sized from the law's mass (1 - 1e-4) draw a 20,000-sample block in
    # one proposal call.  Sized from the hits seen so far, the first round asked
    # for exactly 20,000 candidates, and at seed 0 some of those are rejected,
    # so a second call followed.
    law = model.truncated_feature_law(FeatureSpec("terminal", 10.0), 1e-4)
    real, calls = rng.block_rejection, []

    def counted(n, propose, *args, **kwargs):
        def propose_counted(gen, m):
            calls.append(m)
            return propose(gen, m)
        return real(n, propose_counted, *args, **kwargs)

    monkeypatch.setattr(rng, "block_rejection", counted)
    s = model.simulate_conditional(law, 20_000, seed=0)
    assert s.n == 20_000 and len(calls) == 1


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

    rate = ndtr(0.3)
    parts = [rng.block_rejection(min(size, n - lo), draw, accept, 5, "rej", rate=rate,
                                 first_block=lo // size)
             for lo in starts]
    vals, used = rng.block_rejection(n, draw, accept, 5, "rej", rate=rate)
    assert np.array_equal(np.concatenate([v for v, _ in parts]), vals)
    assert sum(p for _, p in parts) == used

    if n > size:  # an offset call spanning several blocks continues the draw
        assert np.array_equal(rng.block_map(n - size, draw, 5, "map", first_block=1),
                              one_shot[size:])
        tail, tail_used = rng.block_rejection(n - size, draw, accept, 5, "rej", rate=rate,
                                              first_block=1)
        assert np.array_equal(tail, vals[size:])
        assert tail_used == used - parts[0][1]
