"""The batched walk's draws count a row chunk at a time, bit for bit.

``_count_below`` replaces one ``(rows, domain)`` comparison block with
per-chunk blocks; the draws built on it must return exactly what the
one-block formulas below give, for fp32 kernels and float64 references.
"""

import numpy as np
import pytest

from repro.core.progressive import _count_below, _draw_interval, _draw_set, _draw_tilted
from repro.nn.compiled import CHUNK_ROWS

ROW_COUNTS = (1, CHUNK_ROWS, CHUNK_ROWS + 1)


def one_block_count(cum, inv, target):
    spread = cum if inv is None else cum[inv]
    return (spread < target[:, None]).sum(axis=1)


def conditionals(rng, n, dom, dtype):
    """Rows of a distribution with exact zeros, and one all-zero row."""
    probs = rng.random((n, dom))
    probs[rng.random((n, dom)) < 0.35] = 0.0
    probs[0] = 0.0
    return (probs / np.maximum(probs.sum(axis=1, keepdims=True), 1e-300)).astype(dtype)


def prefixes(rng, n_rows, indexed):
    """``(n_prefixes, inv)``: each row its own prefix, or rows sharing fewer."""
    if not indexed:
        return n_rows, None
    n = max(1, n_rows // 3)
    return n, rng.integers(0, n, n_rows)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("indexed", [False, True])
@pytest.mark.parametrize("n_rows", ROW_COUNTS)
def test_count_below_equals_the_one_block_count(n_rows, indexed, dtype):
    rng = np.random.default_rng(n_rows * 2 + indexed)
    dom = 23
    n, inv = prefixes(rng, n_rows, indexed)
    cum = np.cumsum(conditionals(rng, n, dom, dtype), axis=1)
    own = cum if inv is None else cum[inv]
    # Targets inside the range, equal to one of the row's entries (ties
    # included), zero, and past the last entry.
    kind = rng.integers(0, 4, n_rows)
    target = rng.random(n_rows).astype(dtype) * own[:, -1]
    picked = own[np.arange(n_rows), rng.integers(0, dom, n_rows)]
    target = np.where(kind == 1, picked, target)
    target = np.where(kind == 2, 0, target)
    target = np.where(kind == 3, own[:, -1] + 1, target).astype(dtype)

    got = _count_below(cum, inv, target)
    assert got.dtype == np.int64 and got.shape == (n_rows,)
    np.testing.assert_array_equal(got, one_block_count(cum, inv, target))
    assert (got[kind == 2] == 0).all() and (got[kind == 3] == dom).all()


# The draws as one block over every row: the formulas the chunked draws
# must reproduce bit for bit.
def one_block_interval(probs, inv, lo, hi, u):
    cum = np.cumsum(probs, axis=1)
    rows, spread = (np.arange(len(probs)), cum) if inv is None else (inv, cum[inv])
    upper = cum[rows, hi]
    lower = np.where(lo > 0, cum[rows, np.maximum(lo - 1, 0)], 0.0)
    mass = np.maximum(upper - lower, 0.0)
    target = (lower + u * mass).astype(probs.dtype, copy=False)
    drawn = (spread < target[:, None]).sum(axis=1)
    return mass, np.minimum(np.maximum(drawn, lo), hi)


def one_block_set(probs, inv, codes, u):
    sub = probs[:, codes] if inv is None else probs[inv[:, None], codes]
    cums = np.cumsum(sub, axis=1)
    mass = cums[:, -1]
    target = (u * mass).astype(cums.dtype, copy=False)
    idx = (cums < target[:, None]).sum(axis=1)
    return mass, codes[np.minimum(idx, len(codes) - 1)]


def one_block_tilted(probs, inv, tilt, u):
    q = probs * tilt[None, :]
    mass = q.sum(axis=1)
    cums = np.cumsum(q, axis=1)
    if inv is not None:
        mass, cums = mass[inv], cums[inv]
    target = (u * mass).astype(cums.dtype, copy=False)
    idx = (cums < target[:, None]).sum(axis=1)
    return mass, np.minimum(idx, probs.shape[1] - 1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("indexed", [False, True])
@pytest.mark.parametrize("n_rows", ROW_COUNTS)
def test_draws_equal_their_one_block_formulas(n_rows, indexed, dtype):
    rng = np.random.default_rng(100 + n_rows * 2 + indexed)
    dom = 31
    n, inv = prefixes(rng, n_rows, indexed)
    probs = conditionals(rng, n, dom, dtype)
    u = rng.random(n_rows)
    lo = rng.integers(0, dom, n_rows)
    hi = np.minimum(lo + rng.integers(0, 8, n_rows), dom - 1)
    codes = np.array([0, 3, 4, 11, 12, 30])
    tilt = 1.0 / (1.0 + np.arange(dom))
    cases = [
        (_draw_interval, one_block_interval, (lo, hi)),
        (_draw_interval, one_block_interval, (np.int64(2), np.int64(9))),
        (_draw_set, one_block_set, (codes,)),
        (_draw_tilted, one_block_tilted, (tilt,)),
    ]
    for draw, reference, args in cases:
        mass, drawn = draw(probs, inv, *args, u)
        want_mass, want_drawn = reference(probs, inv, *args, u)
        np.testing.assert_array_equal(mass, want_mass, err_msg=draw.__name__)
        np.testing.assert_array_equal(drawn, want_drawn, err_msg=draw.__name__)
