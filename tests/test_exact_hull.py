"""The hull of a curve of convex arcs, taken in closed form.

For ``rg`` and one-sided ``rg`` with ``p > 1`` every piece of the lower
bound is the convex arc ``max(c + d*u, 0)^p`` (``LowerBoundFn.pieces``),
and ``v_optimal_estimates`` follows the arcs and bridges them with common
support lines.  Checked here:

* the pieces reproduce ``lb.value`` on every piece, under PPS and
  piecewise-linear maps and a domain with a nonzero low;
* the L* estimator of Cohen ("Estimation for monotone sampling:
  competitiveness and customization", PODC 2014), unbiased, nonnegative
  and 4-competitive, sits between the optimum and four times it, and its
  mean is f(v);
* the optimum is the limit of grid hulls: a 2^18-seed grid hull reads it
  within its O(grid_n^-2) error;
* the hull starts at the anchor, on the head arc, and keeps all the mass
  above it.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from coordest.analysis import check_bounded
from coordest.cli import console_main, parse_scheme_file
from coordest.estimators import HULL_LEFT_ANCHOR, v_optimal_estimates
from coordest.functions import evaluate, lb_function, one_sided_rg_fn, parse_function, rg_fn
from coordest.hull import arc_hull, integrate_square, lower_hull

from test_corner_hulls import SCHEMES, analysis_vectors
from test_head_piece import LINEAR_ULPS, _power_slack, _triples
from scalar_reference import grid_points, hull_estimate_fn, ref_integrate_square

# ---------------------------------------------------------------------------
# the pieces


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pieces_match_the_curve(seed):
    # the same rounding argument as for the head piece (test_head_piece):
    # lb.value takes top - (a + slope*u) with the map's own interpolation,
    # the form (top - a) + d*u; the two linear values differ by at most
    # LINEAR_ULPS ulps of the largest term, which the power carries on
    rng = np.random.default_rng(200 + seed)
    curved = 0
    for v, f, scheme in _triples(seed, 300):
        lbf = lb_function(f, v, scheme)
        assert len(lbf.pieces) == len(lbf.breakpoints)
        edges = np.concatenate(([0.0], lbf.breakpoints))
        for (c, d), lo, hi in zip(lbf.pieces, edges[:-1], edges[1:]):
            us = np.append(lo + (hi - lo) * rng.random(8), hi)
            us = us[us > lo]
            got = lbf.value(us)
            assert c >= 0.0 and d <= 0.0
            if lbf.exponent is None:
                assert d == 0.0 and (got == c).all(), (v, f, scheme)
                continue
            curved += d < 0.0 and c + d * hi > 0.0
            want = np.maximum(c + d * us, 0.0) ** lbf.exponent
            delta = LINEAR_ULPS * np.spacing(np.maximum(max(max(v), c), -d * us))
            bound = _power_slack(np.maximum(c + d * us, 0.0), delta, lbf.exponent)
            bound += np.spacing(np.maximum(got, want)) * 2.0
            assert (np.abs(got - want) <= bound).all(), (v, f, scheme, lo, hi)
    assert curved > 500


# ---------------------------------------------------------------------------
# the L* estimator


def _binomial_terms(c: float, d: float, p: int) -> list[float]:
    """The coefficients of u^k, k = 0..p, of (c + d*u)^p."""
    return [math.comb(p, k) * c ** (p - k) * d**k for k in range(p + 1)]


def _lstar(lbf, rho: np.ndarray, j: int, pieces) -> np.ndarray:
    """The L* estimate at seeds ``rho`` inside piece ``j``, in the form
    lb(rho) + int_rho^1 (lb(rho) - lb(u)) / u^2 du, which adds only
    nonnegative terms, each integral in closed form on a polynomial
    piece."""
    p = int(lbf.exponent)
    _, b, c, d = pieces[j]
    coef = _binomial_terms(c, d, p)
    at = sum(coef[k] * rho**k for k in range(p + 1))
    # int_rho^b (g(rho) - g(u)) / u^2 du, term by term
    own = coef[1] * ((1.0 - rho / b) - np.log(b / rho))
    own += sum(coef[k] * (rho ** (k - 1) - rho**k / b - (b ** (k - 1) - rho ** (k - 1)) / (k - 1))
               for k in range(2, p + 1))
    total = at + own
    for lo, hi, c2, d2 in pieces[j + 1:]:
        coef2 = _binomial_terms(c2, d2, p)
        later = (at - coef2[0]) * (hi - lo) / (lo * hi) - coef2[1] * math.log(hi / lo)
        later -= sum(coef2[k] * (hi ** (k - 1) - lo ** (k - 1)) / (k - 1) for k in range(2, p + 1))
        total = total + later
    return total


# Gauss-Legendre nodes of the quadratures below; f_hat is smooth on each
# dyadic block of the head piece (where it grows like log(1/rho)) and on
# each quarter of every other piece
NODES, WEIGHTS = np.polynomial.legendre.leggauss(24)


def _lstar_moments(lbf) -> tuple[float, float]:
    """The mean and the mean square of L* over a uniform seed."""
    edges = [0.0, *lbf.breakpoints]
    pieces = []
    for lo, hi, (c, d) in zip(edges, edges[1:], lbf.pieces):
        # a piece where c + d*u is not positive is 0: its polynomial is not
        if c + d * lo <= 0.0:
            c, d = 0.0, 0.0
        pieces.append((lo, hi, c, d))
    mean = square = 0.0
    for j, (lo, hi, _, _) in enumerate(pieces):
        if lo == 0.0:
            # dyadic blocks down to hi * 2^-90, below which the log term
            # leaves less than 1e-25 of the mass
            cuts = hi * 2.0 ** -np.arange(91.0)
            blocks = list(zip(cuts[1:], cuts[:-1]))
        else:
            cuts = np.linspace(lo, hi, 5)
            blocks = list(zip(cuts[:-1], cuts[1:]))
        for a, b in blocks:
            rho = 0.5 * (a + b) + 0.5 * (b - a) * NODES
            fh = _lstar(lbf, rho, j, pieces)
            assert (fh >= -1e-9 * abs(fh).max(initial=1.0)).all()
            mean += 0.5 * (b - a) * float(WEIGHTS @ fh)
            square += 0.5 * (b - a) * float(WEIGHTS @ (fh * fh))
    return mean, square


LSTAR_FUNCTIONS = (rg_fn(2.0, 3), rg_fn(3.0, 3), one_sided_rg_fn(2.0, 2, 0, 3))

# The L* moments come from a quadrature of 24 nodes on each block; against
# 48 nodes they moved by at most 5.5e-12 relative on these inputs, and the
# mean was within 1.1e-11 of f(v).  The tolerance, 1e-9 of f(v) and of the
# optimum, is about 100 times that.  (L* read between 1.0 and 2.6 times
# the optimum here; where the hull is the curve itself the two coincide.)
LSTAR_TOL = 1e-9


def _lstar_inputs():
    rng = np.random.default_rng(23)
    vectors = analysis_vectors(403)[:30] + [tuple(rng.uniform(0.0, 3.0, 3) * (rng.random(3) > 0.2))
                                            for _ in range(20)]
    for name in sorted(SCHEMES):
        for f in LSTAR_FUNCTIONS:
            yield name, f, vectors


@pytest.mark.parametrize("name, f, vectors", list(_lstar_inputs()),
                         ids=lambda x: x if isinstance(x, str) else getattr(x, "describe", lambda: "v")())
def test_lstar_is_unbiased_and_within_4_of_the_optimum(name, f, vectors):
    scheme = SCHEMES[name]
    for v in vectors:
        lbf, fv = lb_function(f, v, scheme), evaluate(f, v)
        if fv == 0.0:
            continue
        mean, sq_lstar = _lstar_moments(lbf)
        assert abs(mean - fv) <= LSTAR_TOL * fv, (v, f.describe(), mean, fv)
        opt = v_optimal_estimates(lbf)
        sq_opt = integrate_square(opt)
        # below the anchor the optimum is not summed: at most anchor * slope^2
        slope = check_bounded(v, f, scheme).value
        missing = opt.edges[0, 0] * slope * slope
        assert sq_opt * (1.0 - LSTAR_TOL) <= sq_lstar, (v, f.describe(), sq_opt, sq_lstar)
        assert sq_lstar <= 4.0 * (sq_opt + missing) * (1.0 + LSTAR_TOL), (v, f.describe(), sq_opt, sq_lstar)


# ---------------------------------------------------------------------------
# convergence of grid hulls


def _grid_square(lbf, grid_n: int) -> float:
    """The square integral of the reference grid hull (``grid_hull``) of
    ``lbf``, its lower hull taken from qhull's vertices: the Python chain
    of the reference is too slow for 2^19 points."""
    from scipy.spatial import ConvexHull

    xs, ys = grid_points(lbf, grid_n)
    order = np.lexsort((ys, xs))
    xs, ys = xs[order], ys[order]
    first = np.ones(len(xs), dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    xs, ys = xs[first], ys[first]
    top = ys.max()
    if top == 0.0:
        return 0.0
    vertices = np.sort(ConvexHull(np.column_stack((xs, ys / top))).vertices)
    return ref_integrate_square(hull_estimate_fn(lower_hull(np.column_stack((xs[vertices], ys[vertices])))))


# A grid hull is the hull of some of the curve's points: it lies on or
# above the exact hull, with the same ends, and its square integral read
# at or below the exact one on all 720 curves of the 120 vectors, both
# schemes and the three exponents.  The gap shrinks like grid_n^-2 on
# smooth arcs (at most 5.4e-9 at 2^18 seeds for p = 2 and 3.2e-9 for
# p = 3), and like grid_n^-1.5 near the zero of an arc of p = 1.5, whose
# curvature grows like s^(-1/2) there (at most 5.9e-8).  The tolerances
# are about 10 times those; the exact side may read low by rounding only.
GRID_TOL = {1.5: 6e-7, 2.0: 6e-8, 3.0: 4e-8}

# every 20th of the 120 vectors: each 2^18 grid hull takes 0.2-0.5 s, and
# COORDEST_FULL_CONVERGENCE=1 runs all of them
CONVERGENCE_STEP = 1 if os.environ.get("COORDEST_FULL_CONVERGENCE") else 20


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_exact_optimum_is_the_limit_of_grid_hulls(name, p):
    rows = np.array(analysis_vectors(401)[::CONVERGENCE_STEP])
    f = rg_fn(p, 3)
    for v in rows.tolist():
        lbf = lb_function(f, v, SCHEMES[name])
        exact = integrate_square(v_optimal_estimates(lbf))
        grid = _grid_square(lbf, 2**18)
        assert -1e-13 * grid <= exact - grid <= GRID_TOL[p] * grid, (v, p, exact, grid)


# ---------------------------------------------------------------------------
# the anchor


@pytest.mark.parametrize("spec", ["rg:p=1.5", "rg:p=2", "rg:p=3", "one_sided_rg:p=2,hi=3,lo=1"])
def test_hull_starts_at_the_anchor_on_the_head_arc(spec):
    # the hull runs from (anchor, lb(anchor)) to (1, 0), so its mass is
    # lb(anchor); the head arc is convex and falls from f(v), so
    # f(v) - lb(anchor) lies between anchor times its slope at the anchor
    # and anchor times its slope at 0+ (the bounded slope)
    for name in sorted(SCHEMES):
        scheme = SCHEMES[name]
        f = parse_function(spec, 3)
        rows = np.array(analysis_vectors(405)[:40])
        for v in rows.tolist():
            lbf, fv = lb_function(f, v, scheme), evaluate(f, v)
            if fv == 0.0:
                continue
            est = v_optimal_estimates(lbf)
            anchor = max(min(HULL_LEFT_ANCHOR, 1e-3 * lbf.head), math.ulp(0.0))
            assert est.edges[0, 0] == anchor
            c, d = lbf.head_piece
            p = lbf.exponent
            at_anchor = p * -d * (c + d * anchor) ** (p - 1.0)
            at_zero = check_bounded(v, f, scheme).value
            lost = fv - est.integral(0)
            noise = 8.0 * np.spacing(fv)
            assert anchor * at_anchor * (1.0 - 1e-9) - noise <= lost <= anchor * at_zero * (1.0 + 1e-9) + noise, (
                v, spec, lost, anchor * at_anchor)


# ---------------------------------------------------------------------------
# extremes


def test_a_curve_past_the_largest_float_names_the_item(tmp_path, capsys):
    # 9.5^600 is past the largest float; its arcs would overflow the hull
    path = tmp_path / "big.csv"
    path.write_text("item,v1,v2\na,10.0,0.5\n")
    assert console_main(["analyze", "--input", str(path), "--function", "rg:p=600"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "coordest: error: item 'a': the lower bound near seed 0 passes the largest float (exponent 600)\n"


def test_exponents_near_1_approach_the_hull_of_p_1():
    # near p = 1 the powers of the slopes in the common tangent pass the
    # largest float (slopes below 1), and the tangents from the arcs' ends
    # find the line; the optimum moves on into that of p = 1 (f(v)^p moves
    # by about 1e-7 * log f(v) relative)
    scheme = parse_scheme_file("tau.1 = pwl:0:0,0.5:0.2,1:0.9\ntau.2 = pps:0.3\n", 2)
    for v in ((10.0, 0.5), (1.0, 2.0), (0.3, 0.05), (0.0, 0.25)):
        linear = integrate_square(v_optimal_estimates(lb_function(rg_fn(1.0, 2), v, scheme)))
        near = integrate_square(v_optimal_estimates(lb_function(rg_fn(1.0 + 1e-7, 2), v, scheme)))
        assert near == pytest.approx(linear, rel=1e-5), v


def test_a_line_to_the_zero_of_an_arc_near_p_1_is_a_bridge():
    # at p = 1.0001 the slope p |d| s^(p-1) of an arc falls to 0 at its zero
    # only below the smallest float: the line from the anchor to the zero
    # of the third arc is the hull, whose slope at the zero reads 0 by the
    # closed form; the tangent from the anchor keeps the arc above the line
    p = 1.0001
    bps = (0.23178381021672323, 0.3100889856983924, 0.36045297074078353, 1.0)
    pieces = ((0.12368261422474923, -0.09769086191333574), (0.23182839161960805, -0.5718694489126439),
              (0.2286648128199505, -0.6343818233763225), (0.0, 0.0))
    los, his, values, _, _ = np.array(arc_hull(bps, pieces, p, 1e-12)).T
    assert los.tolist() == [1e-12, bps[2]] and his.tolist() == [bps[2], 1.0]
    assert values[1] == 0.0
    assert values[0] == pytest.approx(0.12368261422474923**p / (bps[2] - 1e-12), rel=1e-12)
