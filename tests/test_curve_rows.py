"""The ``--curves`` rows that are dropped carry nothing.

:func:`coordest.analysis.curve_block` evaluates its columns at every row
seed, then drops each row other than the first and the last whose
``lower_bound``, ``j_estimate`` and ``v_optimal`` equal the same columns at
the row before it and at the row after it.  The lower bound and the optimal
column do not increase with the seed, so they are constant across a run of
dropped rows, the dyadic column is a step between rows, and the hull
column (the integral of the constant optimal column) is linear through
them.  Against the full rows of ``scalar_reference.scalar_full_curve_columns``
the kept rows must be a subsequence with the same bits, keep both ends,
leave out only rows equal to the kept rows around them, and keep both rows
of every jump of the curve.
"""

from __future__ import annotations

import numpy as np
import pytest

from coordest.analysis import curve_table
from coordest.estimators import DEPTH
from coordest.functions import lb_function

from scalar_reference import scalar_full_curve_columns
from test_curve_corners import TRIPLES
from test_curve_step import FUNCTIONS, SCHEMES, _rows, split_block

# the columns that decide whether a row is dropped
FLAT = (1, 3, 4)


def _bits(xs) -> list[int]:
    return np.asarray(xs, dtype=float).view(np.int64).tolist()


def _check(v, f, scheme, got) -> int:
    """Check the kept columns ``got`` of data ``v`` against its full rows;
    the number of rows dropped."""
    full = np.array(scalar_full_curve_columns(v, f, scheme, DEPTH))
    got = np.array(got)
    us = full[0]
    # a subsequence of the full rows, bit for bit, with both ends
    assert np.isin(got[0], us).all(), (v, f)
    at = np.searchsorted(us, got[0])
    assert _bits(full[:, at]) == _bits(got), (v, f)
    assert at[0] == 0 and at[-1] == len(us) - 1, (v, f)
    # each dropped row equals the kept rows on both sides of it
    dropped = np.setdiff1d(np.arange(len(us)), at)
    k = np.searchsorted(at, dropped)
    for c in FLAT:
        assert (full[c, dropped] == full[c, at[k - 1]]).all(), (v, f, c)
        assert (full[c, dropped] == full[c, at[k]]).all(), (v, f, c)
    # both rows of every jump of the curve are kept
    lbf = lb_function(f, v, scheme)
    bps = np.array(lbf.breakpoints)
    bps = bps[bps < 1.0]
    after = np.nextafter(bps, np.inf)
    jumps = lbf.value(bps) != lbf.value(after)
    assert np.isin(bps[jumps], got[0]).all() and np.isin(after[jumps], got[0]).all(), (v, f)
    return len(dropped)


def test_dropped_rows_carry_nothing():
    dropped = sum(_check(v, f, scheme, np.array(curve_table(v, f, scheme)).T) for v, f, scheme in TRIPLES)
    assert dropped > 0


@pytest.mark.parametrize("scheme", SCHEMES, ids=["common", "per-instance"])
def test_dropped_rows_carry_nothing_on_tiny_data(scheme):
    rows = _rows(61)
    dropped = 0
    for f in FUNCTIONS:
        for v, got in zip(rows.tolist(), split_block(rows, f, scheme)):
            dropped += _check(v, f, scheme, got)
    assert dropped > 0
