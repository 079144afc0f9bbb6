"""Site graphs: metric axioms, balls, locality function, config round trips."""

import gc
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glsim import SiteGraph, chain, general, grid
from glsim.lattice import run_sites

from small_graphs import small_graphs


# =====================================================================
# distances
# =====================================================================


def test_open_chain_distance():
    assert chain(8).distance(0, 3) == 3


def test_grid_distance_is_l1():
    g = grid([4, 4])
    i = g.coords_site((0, 0))
    j = g.coords_site((3, 2))
    assert g.distance(i, j) == 5


def test_general_graph_direct_bond():
    g = general(3, [(0, 1), (1, 2), (0, 2)])
    assert g.distance(0, 2) == 1


@pytest.mark.parametrize("make", [
    lambda: chain(17),
    lambda: chain(12, "periodic"),
    lambda: grid([4, 5]),
    lambda: grid([3, 3], "periodic"),
    lambda: general(8, [(i, (i * 3 + 1) % 8) for i in range(8)]),
])
def test_metric_axioms_on_random_triples(make):
    g = make()
    rng = np.random.default_rng(7)
    for _ in range(40):
        i, j, k = (int(x) for x in rng.integers(0, g.n_sites, size=3))
        assert g.distance(i, i) == 0
        assert g.distance(i, j) == g.distance(j, i)
        assert g.distance(i, k) <= g.distance(i, j) + g.distance(j, k)


@pytest.mark.parametrize("make", [
    lambda: chain(9),
    lambda: chain(8, "periodic"),
    lambda: grid([2, 3, 4]),
    lambda: grid([4, 5], "periodic"),
    lambda: general(6, [(0, 1), (1, 2), (3, 4)]),
])
def test_array_distances_match_pairwise_distance(make):
    g = make()
    i, j = np.divmod(np.arange(g.n_sites ** 2), g.n_sites)
    assert g.distances(i, j).tolist() == [g.distance(a, b)
                                          for a, b in zip(i.tolist(), j.tolist())]
    with pytest.raises(ValueError):
        g.distances([0, g.n_sites], [0, 0])


# =====================================================================
# balls
# =====================================================================


def test_zero_radius_ball_is_singleton():
    for g in (chain(5), grid([3, 3]), general(4, [(0, 1), (2, 3)])):
        for i in range(g.n_sites):
            assert set(g.ball(i, 0)) == {i}


def test_open_chain_ball_truncates_at_boundary():
    assert set(chain(8).ball(0, 2)) == {0, 1, 2}


def test_periodic_chain_ball_wraps():
    assert set(chain(8, "periodic").ball(0, 2)) == {6, 7, 0, 1, 2}


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_chain_is_a_one_axis_grid_with_the_closed_form_balls(boundary):
    for n in range(1, 10):
        g = chain(n, boundary)
        assert g.dims == (n,)
        for i in range(n):
            for r in range(n + 2):
                if boundary == "open":
                    expected = tuple(range(max(0, i - r), min(n - 1, i + r) + 1))
                elif 2 * r + 1 >= n:
                    expected = tuple(range(n))
                else:
                    expected = tuple(sorted((i + o) % n for o in range(-r, r + 1)))
                assert g.ball(i, r) == expected


def _brute_balls(g) -> np.ndarray:
    """The L1/BFS distance table d[i, j] of a small graph, from distances()."""
    i, j = np.divmod(np.arange(g.n_sites ** 2), g.n_sites)
    return g.distances(i, j).reshape(g.n_sites, g.n_sites)


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
@given(g=small_graphs())
def test_runs_and_ball_are_the_brute_force_ball(g):
    """At every site and radius up to past the diameter: runs() are int64, sorted,
    disjoint, nonempty and cover exactly {j : d(i, j) <= r}; ball() and
    ball_sites() are that set as a sorted tuple of ints and an int64 array,
    ball_size() its size."""
    dist = _brute_balls(g)
    top = int(dist[dist <= g.n_sites].max()) + 2
    for r in range(top):
        for i in range(g.n_sites):
            expected = np.flatnonzero(dist[i] <= r).tolist()
            starts, lengths = g.runs(i, r)
            assert starts.dtype == lengths.dtype == np.int64
            assert np.all(lengths > 0)
            assert np.all(starts[1:] > starts[:-1] + lengths[:-1] - 1)
            assert run_sites(starts, lengths).tolist() == expected
            ball = g.ball(i, r)
            assert ball == tuple(expected) and all(type(j) is int for j in ball)
            sites = g.ball_sites(i, r)
            assert sites.dtype == np.int64 and sites.tolist() == expected
            assert g.ball_size(i, r) == len(expected)


def test_a_wrapped_run_splits_and_a_whole_axis_run_stays_one():
    """Periodic 2 x 5 grid: from site 0 at r = 1 the last axis wraps, so the site's
    row holds two runs, (0, 1) and (4); from site 1 at r = 2 the row's run covers
    the whole axis and stays one run, (0..4), beside the other row's (5..7)."""
    g = grid([2, 5], "periodic")
    assert [x.tolist() for x in g.runs(0, 1)] == [[0, 4, 5], [2, 1, 1]]
    assert [x.tolist() for x in g.runs(1, 2)] == [[0, 5], [5, 3]]


def test_runs_need_no_per_site_cache():
    """A 2^40-site grid answers runs and ball_size at r = 10 with no per-site ball
    cache: an interior site shifts the radius table's runs, whose lengths array
    is shared and read-only."""
    g = grid([2 ** 20, 2 ** 20])
    centre = (2 ** 19) * 2 ** 20 + 2 ** 19
    starts, lengths = g.runs(centre, 10)
    assert starts.size == 21 and lengths.sum() == 221 == g.ball_size(centre + 7, 10)
    assert starts[10] == centre - 10 and lengths[10] == 21
    assert g.ball_size(0, 10) == 66
    assert g._cached_ball.cache_info().currsize == 0
    with pytest.raises(ValueError):
        lengths[0] = 5


def test_balls_nest_with_radius():
    g = grid([5, 4], "periodic")
    for i in range(g.n_sites):
        prev: set = set()
        for r in range(5):
            cur = set(g.ball(i, r))
            assert prev <= cur
            prev = cur


# =====================================================================
# locality function
# =====================================================================


@pytest.mark.parametrize("r,expected", [(1, 3), (2, 5), (5, 11)])
def test_periodic_chain_locality_function(r, expected):
    assert chain(1024, "periodic").locality_function(r) == expected


def test_grid_locality_center_plus_four_neighbors():
    assert grid([32, 32]).locality_function(1) == 5


def test_general_locality_function_is_kept_per_radius(monkeypatch):
    g = general(6, [(0, 1), (1, 2), (3, 4)])
    assert g.locality_function(1) == 3
    bfs = []
    real = g._bfs_distances
    monkeypatch.setattr(g, "_bfs_distances", lambda *args, **kw: bfs.append(args) or real(*args, **kw))
    assert g.locality_function(1.5) == 3
    assert bfs == []
    assert g.locality_function(2) == 3
    assert len(bfs) == g.n_sites


@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(dims=st.lists(st.integers(1, 5), min_size=1, max_size=3),
       boundary=st.sampled_from(["open", "periodic"]))
def test_locality_function_is_the_largest_ball(dims, boundary):
    """On chains (one axis) and grids N(r) is the largest ball, also for r past the diameter."""
    g = chain(dims[0], boundary) if len(dims) == 1 else grid(dims, boundary)
    i, j = np.divmod(np.arange(g.n_sites ** 2), g.n_sites)
    diameter = int(g.distances(i, j).max())
    for r in range(diameter + 3):
        assert g.locality_function(r) == max(len(g.ball(k, r)) for k in range(g.n_sites))


@pytest.mark.parametrize("boundary", ["open", "periodic"])
def test_chain_locality_function_is_closed_form_at_any_length(boundary):
    """A 2^62-site chain at r = 10^9 answers without arrays, as 2r + 1 capped at N."""
    g = chain(2 ** 62, boundary)
    t0 = time.perf_counter()
    assert g.locality_function(10 ** 9) == 2 * 10 ** 9 + 1
    assert time.perf_counter() - t0 < 0.01
    assert g.locality_function(2 ** 62) == 2 ** 62
    for n in (1, 2, 7, 8):
        small = chain(n, boundary)
        assert [small.locality_function(r) for r in range(10)] == \
            [min(2 * r + 1, n) for r in range(10)]


def test_locality_function_nondecreasing():
    for g in (chain(9), grid([4, 4]), general(6, [(0, 1), (1, 2), (3, 4)])):
        vals = [g.locality_function(r) for r in range(6)]
        assert vals == sorted(vals)
        assert all(v == max(len(g.ball(i, r)) for i in range(g.n_sites))
                   for r, v in enumerate(vals))


# =====================================================================
# config round trip
# =====================================================================


@pytest.mark.parametrize("make", [
    lambda: ({"kind": "chain", "n_sites": 9, "boundary": "periodic"}, chain(9, "periodic")),
    lambda: ({"kind": "grid", "dims": [3, 4]}, grid([3, 4])),
    lambda: ({"kind": "general", "n_sites": 5, "bonds": [[0, 4], [1, 2]]},
             general(5, [(0, 4), (1, 2)])),
])
def test_config_round_trip_preserves_geometry(make):
    cfg, g = make()
    h = SiteGraph.from_config(cfg)
    assert h.n_sites == g.n_sites
    for i in range(g.n_sites):
        assert set(g.ball(i, 2)) == set(h.ball(i, 2))
        for j in range(g.n_sites):
            assert g.distance(i, j) == h.distance(i, j)


# =====================================================================
# cache lifetime
# =====================================================================


@pytest.mark.parametrize("make, fill", [
    (lambda: grid([64, 64]), lambda g: [g.ball(i, 5) for i in range(0, 4096, 97)]),
    (lambda: general(32, [(i, (i + 1) % 32) for i in range(32)]),
     lambda g: [g.distance(i, 0) for i in range(32)]),
])
def test_dropped_graph_is_freed_without_cyclic_gc(make, fill):
    gc.disable()
    try:
        g = make()
        fill(g)
        alive = weakref.ref(g)
        del g
        assert alive() is None
    finally:
        gc.enable()
