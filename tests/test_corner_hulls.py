"""Hull corners read exactly, and hulls from corners alone.

* Crossings: each crossing of a level that a threshold map returns is the
  last seed at which the map is still at most the level, so an entry whose
  value is the level is hidden one float above it, where
  :func:`~coordest.estimators.v_optimal_estimates` reads the right limit of
  the lower-bound curve.
* Feasibility: the cumulative hull estimate ``opt.integral(lo=u)`` never
  exceeds the lower bound ``lb(u)`` at the seeds the hull was built from,
  nor just right of a breakpoint; an "optimum" above the curve there is not
  an estimator, and its square integral is too low.
* Corners alone: the hull of a curve with concave pieces, taken from its
  corners, is the hull of the same curve sampled on a grid as well.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coordest.analysis import competitiveness_ratio
from coordest.cli import parse_scheme_file
from coordest.estimators import v_optimal_estimates
from coordest.functions import evaluate, lb_function, max_fn, parse_function
from coordest.hull import integrate_square
from coordest.model import PiecewiseLinearMap, TauScheme

from conftest import builtin_functions, random_vector
from scalar_reference import GRID_N, grid_hull, grid_seeds, ref_integral, ref_integrate_square

# the scheme file of the benchmark's analysis workload
SCHEME_TEXT = """\
tau.1 = pps:4
tau.2 = pwl:0:0,0.25:1,0.6:2.5,1:5
tau.3 = pwl:0:0,0.5:3,1:4
"""
SCHEMES = {"pps:tau=4": TauScheme.pps(4.0, r=3), "pwl+pps": parse_scheme_file(SCHEME_TEXT, 3)}

FEASIBILITY_FUNCTIONS = ("max", "min", "rg:p=1", "rg:p=1.5", "rg:p=2", "rg:p=3",
                         "one_sided_rg:p=1,hi=3,lo=1", "one_sided_rg:p=2,hi=3,lo=1")

# Feasibility slack, relative to f(v).  A hull from the curve's corners lies
# on or below a curve with concave pieces everywhere, and the hull of a
# curve of convex arcs follows the arcs and bridges them below, both up to
# rounding: over the vectors below, at the grid seeds and just right of the
# breakpoints, the hull lay above the curve by at most 3.6e-16 * f.  2e-15
# * f is about 5 times that, and a skipped corner lifts the hull by up to
# 6.4e-2 * f.
FEASIBILITY_TOL = 2e-15

# Corners-only against grid hulls: on linear pieces (rg:p=1 and one-sided
# rg:p=1) the grid hull keeps or drops grid seeds on a chord by rounding,
# which moved the square integral by at most 3.3e-16 relative and the
# cumulative estimate by at most 4.4e-16 * f(v) over 7,560 curves of
# generated and random vectors under both schemes; the tolerance is 30
# times that.
CORNER_TOL = 1e-14


def analysis_vectors(seed: int, n: int = 120, r: int = 3) -> list[tuple[float, ...]]:
    """The vectors of the benchmark's ``analysis`` input of ``seed``:
    correlated lognormal across instances, about a quarter exactly 0."""
    rng = np.random.default_rng([seed, zlib.crc32(b"analysis")])
    shared = rng.standard_normal((n, 1))
    z = 0.8 * shared + math.sqrt(1.0 - 0.8 * 0.8) * rng.standard_normal((n, r))
    v = np.exp(z)
    v[rng.random((n, r)) < 0.25] = 0.0
    return [tuple(row) for row in v.tolist()]


def random_vectors(seed: int, n: int) -> list[tuple[float, ...]]:
    rng = np.random.default_rng(seed)
    return [random_vector(rng, r=3, scale=6.0) for _ in range(n)]


VECTORS = analysis_vectors(401) + random_vectors(11, 60)


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _from_bits(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]


def last_seed_at_or_below(m, level: float) -> float:
    """max{u in [0, 1]: m.value(u) <= level}, bisected on the float bits."""
    a, b = _bits(0.0), _bits(1.0)
    if m.value(1.0) <= level:
        return 1.0
    while b - a > 1:
        mid = (a + b) // 2
        if m.value(_from_bits(mid)) <= level:
            a = mid
        else:
            b = mid
    return _from_bits(a)


def infeasible_vectors(spec: str, scheme: TauScheme, vectors) -> list[tuple[tuple[float, ...], float]]:
    """Each vector whose cumulative hull estimate exceeds its lower bound
    by more than ``FEASIBILITY_TOL * f(v)`` at a hull seed or at
    ``b * (1 + 1e-9)`` right of a breakpoint ``b``, with the excess over f(v)."""
    f = parse_function(spec, 3)
    bad = []
    for v in vectors:
        fv = evaluate(f, v)
        if fv == 0.0:
            continue
        lbf = lb_function(f, v, scheme)
        opt = v_optimal_estimates(lbf)
        bps = np.array(lbf.breakpoints)
        us = np.concatenate([grid_seeds(lbf)[1], bps[bps < 1.0] * (1.0 + 1e-9)])
        excess = float(np.max(opt.integral(0, us) - lbf.value(us))) / fv
        if excess > FEASIBILITY_TOL:
            bad.append((v, excess))
    return bad


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
@pytest.mark.parametrize("spec", FEASIBILITY_FUNCTIONS)
def test_hull_optimum_stays_under_the_lower_bound(scheme_name, spec):
    bad = infeasible_vectors(spec, SCHEMES[scheme_name], VECTORS)
    assert not bad, f"{len(bad)} of {len(VECTORS)} vectors infeasible, worst {max(bad, key=lambda t: t[1])}"


# ---------------------------------------------------------------------------
# crossings


def check_crossings(m, level: float) -> None:
    joints = set(m.joints())
    got = np.unique(m.crossing_seeds([level])[1]).tolist()
    assert list(got) == sorted(set(got))
    for b in got:
        assert 0.0 < b < 1.0
        assert m.value(b) <= level
        # only a joint (the ends of a flat segment at the level) may be
        # followed by a seed at which the map still reads the level
        assert b in joints or level < m.value(math.nextafter(b, math.inf))
    # the seed past which the entry is hidden is a crossing or a joint,
    # unless the level is the map's infimum, which is crossed at seed 0
    s = last_seed_at_or_below(m, level)
    if level > m.infimum() and 0.0 < s < 1.0:
        assert s in got or s in joints


# values and seeds far enough from 0 that the interpolated crossing does
# not underflow; steps of 1e-12 to 1e-9 make segments so flat that many
# seeds share one value
joint_values = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))


@st.composite
def pwl_maps(draw) -> PiecewiseLinearMap:
    us = sorted(set(draw(st.lists(st.floats(1e-6, 1.0 - 1e-6), max_size=5))))
    steps = draw(st.lists(st.one_of(joint_values, st.floats(1e-12, 1e-9)),
                          min_size=len(us) + 1, max_size=len(us) + 1))
    ts = np.cumsum([draw(joint_values)] + steps).tolist()
    return PiecewiseLinearMap(tuple(zip([0.0, *us, 1.0], ts)))


@given(pwl_maps(), st.data())
@example(PiecewiseLinearMap(((0.0, 1.0), (0.5, 1.0000001), (1.0, 5.0))), None)
@example(PiecewiseLinearMap(((0.0, 0.0), (0.3, 2.0), (0.6, 2.0), (1.0, 4.0))), None)
# one float below the top joint value, the interpolated crossing rounds to 1
# while the map is at or below the level at 0.9999999999999999
@example(PiecewiseLinearMap(((0.0, 0.0), (0.75, 0.0), (1.0, 1.120208535626552))), None)
# np.interp reads 7.125000000000001 one float left of the joint (0.875,
# 7.125); uncapped, the entry 7.125 was hidden there and revealed at 0.875
@example(PiecewiseLinearMap(((0.0, 0.0), (0.1955335378696645, 0.0), (0.875, 7.125), (1.0, 8.125))), None)
@settings(max_examples=300, deadline=None)
def test_pwl_crossings_are_the_last_revealing_seeds(m, data):
    ts = [t for _, t in m.points]
    levels = [m.infimum(), *ts, *(math.nextafter(t, 0.0) for t in ts), 0.5 * (ts[0] + ts[-1]), 1.00000005, 2.0]
    if data is not None:
        levels.append(data.draw(st.floats(ts[0], ts[-1], allow_subnormal=False)))
    for level in levels:
        check_crossings(m, level)


@given(st.floats(0.01, 100.0), st.lists(st.floats(0.0, 200.0, allow_subnormal=False), max_size=6))
@settings(max_examples=300, deadline=None)
def test_pps_crossings_are_the_last_revealing_seeds(tau, levels):
    m = PiecewiseLinearMap.pps(tau)
    for level in [0.0, math.nextafter(tau, 0.0), *levels]:
        check_crossings(m, level)


def test_a_level_crossed_at_seed_0_has_no_crossing():
    # rounding keeps these maps at the level over the first floats above 0
    # (up to 5e-324 and 1.4e-17); a breakpoint there would be the curve's
    # head, and the limit probes below it would underflow to 0
    assert PiecewiseLinearMap.pps(0.5).crossing_seeds([0.0])[1].size == 0
    assert PiecewiseLinearMap(((0.0, 0.5), (1.0, 4.5))).crossing_seeds([0.5])[1].size == 0
    assert lb_function(max_fn(2), (1.0, 0.0), TauScheme.pps(0.5, r=2)).breakpoints == (1.0,)


def test_item30_entry_is_hidden_just_past_its_crossing():
    # item30 of the benchmark's seed-401 analysis input: the interpolated
    # crossing of instance 3 is 0.6993563028580607, and the entry stays
    # revealed for two more floats
    v = (0.370771521690376, 1.0368779339407947, 3.3987126057161214)
    assert v == analysis_vectors(401)[30]
    scheme = SCHEMES["pwl+pps"]
    (b,) = np.unique(scheme.maps[2].crossing_seeds([v[2]])[1]).tolist()
    assert b == math.nextafter(0.6993563028580607, 1.0)
    lbf = lb_function(max_fn(3), v, scheme)
    assert b in lbf.breakpoints
    # max reads v3 up to b and 0 once it is hidden (v1 and v2 are by then)
    assert lbf.value(b) == v[2] and lbf.value(math.nextafter(b, 1.0)) == 0.0
    # so the corner (b, 0) is a vertex of the hull, which is 0 from there on
    opt = v_optimal_estimates(lbf)
    assert b in opt.edges[0, 1:].tolist() and opt.integral(0, b) == 0.0


# ---------------------------------------------------------------------------
# corners-only hulls


def corner_functions():
    fns = [f for f in builtin_functions(3) if f.p is None or f.p <= 1.0]
    return fns + [parse_function("rg:p=0.5", 3), parse_function("one_sided_rg:p=0.7,hi=1,lo=2", 3)]


# Values from 1e-100: below about 1e-290 the grid hull itself goes wrong
# (test_tiny_data_keeps_its_optimum), so it is no reference there.
@given(st.sampled_from(sorted(SCHEMES)), st.integers(0, len(corner_functions()) - 1),
       st.lists(st.one_of(st.just(0.0), st.floats(1e-100, 10.0)), min_size=3, max_size=3))
@settings(max_examples=200, deadline=None)
def test_corners_only_hull_is_the_grid_hull(scheme_name, k, v):
    f = corner_functions()[k]
    lbf = lb_function(f, v, SCHEMES[scheme_name])
    assert concave_pieces(lbf)
    assert_corner_hull_is_grid_hull(lbf, evaluate(f, v))


def concave_pieces(lbf) -> bool:
    """Whether every piece of the curve is concave (a constant, or a power
    ``p <= 1`` of a linear function), so that its hull is that of its
    corners."""
    return lbf.exponent is None or lbf.exponent <= 1.0


def assert_corner_hull_is_grid_hull(lbf, fv: float) -> None:
    corners = v_optimal_estimates(lbf)
    grid = grid_hull(lbf, GRID_N)
    sq_c, sq_g = integrate_square(corners), ref_integrate_square(grid)
    assert abs(sq_c - sq_g) <= CORNER_TOL * sq_g
    us = np.concatenate([corners.edges[0, :-1], grid.los, [1.0]])
    assert np.all(np.abs(corners.integral(0, us) - ref_integral(grid, lo=us)) <= CORNER_TOL * fv)


@pytest.mark.parametrize("scheme_name", sorted(SCHEMES))
def test_corners_only_hull_is_the_grid_hull_on_generated_vectors(scheme_name):
    for f in corner_functions():
        for v in VECTORS:
            assert_corner_hull_is_grid_hull(lb_function(f, v, SCHEMES[scheme_name]), evaluate(f, v))


def test_only_range_curves_with_p_above_1_have_convex_arcs():
    v = (1.0, 2.0, 0.5)
    marks = {spec: concave_pieces(lb_function(parse_function(spec, 3), v, SCHEMES["pps:tau=4"]))
             for spec in ("max", "min", "or", "rg:p=0.5", "rg:p=1", "rg:p=2",
                          "one_sided_rg:p=1,hi=1,lo=2", "one_sided_rg:p=1.5,hi=1,lo=2")}
    assert marks == {"max": True, "min": True, "or": True, "rg:p=0.5": True, "rg:p=1": True,
                     "rg:p=2": False, "one_sided_rg:p=1,hi=1,lo=2": True,
                     "one_sided_rg:p=1.5,hi=1,lo=2": False}


def test_tiny_data_keeps_its_optimum():
    # Revealed only below b = c / 4, rg:p=0.5 of (0, 0, c) has its optimum
    # f(v) / b on (0, b], whose square integral is f(v)^2 / b = 4.  On the
    # grid the hull's cross products (seed steps near 1e-295 times values
    # near 1e-148) underflowed to 0 and dropped its vertices: the square
    # integral read 1.6e-118 and the ratio 3.3e118.
    v = (0.0, 0.0, 5.003000492107472e-295)
    report = competitiveness_ratio(v, parse_function("rg:p=0.5", 3), SCHEMES["pps:tau=4"])
    assert report.square_integral_opt == pytest.approx(4.0, rel=1e-12)
    assert report.competitive_ok
