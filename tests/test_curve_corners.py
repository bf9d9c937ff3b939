"""The ``--curves`` rows sit at the corners of their columns.

:func:`coordest.analysis.curve_table` takes its rows from every breakpoint
of the lower bound and one float right of it, the ends of every hull and
dyadic piece, and ``CURVE_SEEDS`` interior seeds of each piece of a curve
that is neither constant nor linear there, and then drops each row but the
first and the last whose lower bound, dyadic and optimal values equal both
neighbours' (``test_curve_rows`` checks that those carry nothing).  A
kept row sits where some column changes.  Between adjacent rows the
dyadic and optimal columns and the lower bound of ``max``, ``min`` and
``or`` are constant, and the hull column and the lower bound of the
``p = 1`` range kinds are linear, except where the hull of a ``p > 1``
curve follows one of its arcs: there the optimal and hull columns are
curved as well.  So every such column is rebuilt from the rows at any seed
between the first row and 1, and checked against its direct evaluation
there; a curved one is bracketed by the rows around the seed.  The hull
column also stays under the lower bound on every row and between rows.
"""

from __future__ import annotations

import math

import numpy as np

from coordest.analysis import curve_table
from coordest.estimators import DEPTH, v_optimal_estimates
from coordest.functions import evaluate, lb_function

from conftest import builtin_functions
from scalar_reference import j_estimate_fn, ref_value_at, row_pieces
from test_corner_hulls import SCHEMES, analysis_vectors
from test_head_piece import LOWS, _scheme, _vector

FUNCTIONS = builtin_functions(3)

# Linear columns read by interpolation between the two rows around a seed,
# against the direct evaluation there, relative to f(v).  Each side rounds:
# the hull column is an ordered sum over the hull's pieces, the lower bound
# one subtraction of a map's value, and the interpolation adds a few
# roundings of its own.  Over the inputs below the error was at most
# 4.4e-16 * f(v) for the hull column and 1.2e-15 * f(v) for the lower bound
# (6.8e-16 * f(v) on all 120 vectors of the benchmark's seed-401 input);
# the tolerance is about 8 times the larger.
LINEAR_TOL = 1e-14

# The hull column against the lower bound on every row, relative to f(v).
# A hull from the curve's corners lies on or below a curve with concave
# pieces everywhere; over the inputs below it lay above it on a row by at
# most 2.2e-16 * f(v), from rounding.  The tolerance is about 5 times that.
UNDER_TOL = 1e-15


# Where a bridge of the hull meets an arc, its slope (a quotient of the
# drop over the gap) equals the arc's slope (its closed form) up to
# rounding: the optimal column there was off by at most 2.1e-15 relative
# over the inputs below.  The tolerance is about 50 times that.
TANGENT_TOL = 1e-13

# The hull against the lower bound at seeds between the rows, relative to
# the larger of f(v) and the largest entry to the power p: over the inputs
# below the excess was at most 1.2e-16 of that; the tolerance is about 8
# times that.
DENSE_TOL = 1e-15


def _triples():
    """(vector, function, scheme): the 7 built-ins on the first 40 vectors
    of the benchmark's seed-401 ``analysis`` input under ``pps:tau=4`` and
    its scheme file, and on 60 random vectors under random schemes of pps
    and 3-joint piecewise-linear maps, half of them with a nonzero domain
    low."""
    for name in sorted(SCHEMES):
        for v in analysis_vectors(401)[:40]:
            for f in FUNCTIONS:
                yield v, f, SCHEMES[name]
    rng = np.random.default_rng(18)
    for k in range(60):
        lows = LOWS if k % 2 else (0.0,) * 3
        v, scheme = _vector(rng, lows), _scheme(rng, ("pps", "pwl", "mixed")[k % 3], lows)
        for f in FUNCTIONS:
            yield v, f, scheme


TRIPLES = list(_triples())


def _probes(us: np.ndarray, rng) -> np.ndarray:
    """Seeds in (the first row, 1]: uniform, log-uniform, and one float
    either side of every row."""
    lo = us[0]
    near = np.concatenate([np.nextafter(us, 0.0), np.nextafter(us, 2.0)])
    seeds = np.concatenate([
        rng.uniform(lo, 1.0, 64),
        np.exp(rng.uniform(math.log(lo), 0.0, 64)),
        near,
    ])
    return seeds[(seeds > lo) & (seeds <= 1.0)]


def _rows(v, f, scheme):
    return np.array(curve_table(v, f, scheme)).T


def test_rows_are_lossless():
    rng = np.random.default_rng(7)
    for v, f, scheme in TRIPLES:
        fv = evaluate(f, v)
        lbf = lb_function(f, v, scheme)
        opt = v_optimal_estimates(lbf)
        j_fn = j_estimate_fn(v, f, scheme, depth=DEPTH)
        us, lb, hull, j, vopt = _rows(v, f, scheme)
        seeds = _probes(us, rng)
        # the next row at or above each seed
        up = np.searchsorted(us, seeds, side="left")
        # step columns: the value at that row, bit for bit
        assert (j[up] == ref_value_at(j_fn, seeds)).all(), (v, f, scheme)
        on_arc = _on_arcs(row_pieces(opt), seeds)
        assert (vopt[up] == opt.value_at(0, seeds))[~on_arc].all(), (v, f, scheme)
        want_lb = lbf.value(seeds)
        if lbf.exponent is None:
            assert (lb[up] == want_lb).all(), (v, f, scheme)
        elif lbf.exponent == 1.0:
            err = np.abs(np.interp(seeds, us, lb) - want_lb).max(initial=0.0)
            assert err <= LINEAR_TOL * fv, (v, f, scheme, err)
        else:
            # a curved piece: only bracketed by the rows around the seed
            assert (lb[up] <= want_lb).all() and (want_lb <= lb[up - 1]).all()
        want_hull = opt.integral(0, seeds)
        err = np.abs(np.interp(seeds, us, hull) - want_hull)[~on_arc].max(initial=0.0)
        assert err <= LINEAR_TOL * fv, (v, f, scheme, err)
        # an arc of the hull: both columns fall across it, the optimal one
        # by its closed form (0 at the anchor row, where the hull starts),
        # and the hull one, each up to rounding
        got = opt.value_at(0, seeds)[on_arc]
        above = np.where(us[up - 1] > opt.edges[0, 0], vopt[up - 1], np.inf)[on_arc]
        assert (vopt[up][on_arc] <= got * (1.0 + TANGENT_TOL)).all()
        assert (got <= above * (1.0 + TANGENT_TOL)).all()
        slack = UNDER_TOL * fv
        got = want_hull[on_arc]
        assert (hull[up][on_arc] <= got + slack).all() and (got <= hull[up - 1][on_arc] + slack).all()


def _on_arcs(opt, seeds: np.ndarray) -> np.ndarray:
    """Whether each seed lies inside an arc piece of the hull ``opt``."""
    if opt.arcs is None:
        return np.zeros(seeds.shape, dtype=bool)
    k = np.minimum(np.searchsorted(opt.his, seeds), len(opt.his) - 1)
    return (opt.arcs[k, 1] < 0.0) & (seeds > opt.los[k]) & (seeds < opt.his[k])


def test_hull_stays_under_the_lower_bound_on_every_row():
    # on the rows, for every function: the hull of a p > 1 curve follows
    # its arcs, and bridges them below
    for v, f, scheme in TRIPLES:
        fv = evaluate(f, v)
        _, lb, hull, _, _ = _rows(v, f, scheme)
        excess = (hull - lb).max()
        assert excess <= UNDER_TOL * fv, (v, f, scheme, excess)


def test_hull_stays_under_the_lower_bound_between_rows():
    # on 4,096 seeds log-uniform from the anchor: the lower bound rounds
    # its subtraction of a map's value from an entry, so the slack is
    # DENSE_TOL of the largest entry to the power p, or of f(v)
    rng = np.random.default_rng(8)
    for v, f, scheme in TRIPLES:
        lbf = lb_function(f, v, scheme)
        opt = v_optimal_estimates(lbf)
        seeds = np.exp(rng.uniform(math.log(opt.edges[0, 0]), 0.0, 4096))
        excess = (opt.integral(0, seeds) - lbf.value(seeds)).max()
        scale = max(evaluate(f, v), max(v) ** (f.p or 1.0))
        assert excess <= DENSE_TOL * scale, (v, f, scheme, excess)
