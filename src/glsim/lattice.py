"""Site geometries: metrics, balls, and locality functions.

A matrix A over sites {0..N-1} is (r0, N(r))-geometrically local when
A_ij = 0 whenever d(i, j) > r0 and the metric's growth function
N(r) = max_i |{j : d(i, j) <= r}| stays polynomial in r.  Everything the
light-cone engine knows about geometry flows through SiteGraph: the
distance d(i, j), the closed ball ball(i, r), and N(r).

Three kinds are supported.  "grid" (L1 metric, row-major index order)
has a closed-form metric and stays lazy, so N may be as large as 2**62
without ever materializing sites; a "chain" is a grid with one axis,
dims = (N,).  "general" carries an explicit bond list and uses BFS
distances; it is meant for desk-scale instances such as clock-register
graphs.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_SITES = 2 ** 62
BALL_CACHE_SIZE = 65536  # (site, radius) balls kept per graph


@dataclass
class SiteGraph:
    """Site set with a metric.

    kind: "chain", "grid", or "general".
    boundary: "open" or "periodic" (chain/grid only).
    dims: per-axis lengths (row-major site order); (n_sites,) for a chain.
    bonds: undirected edge list for general graphs.
    """

    kind: str
    n_sites: int
    boundary: str = "open"
    dims: tuple[int, ...] | None = None
    bonds: tuple[tuple[int, int], ...] | None = None
    _adj: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("chain", "grid", "general"):
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if not (1 <= self.n_sites <= MAX_SITES):
            raise ValueError(f"n_sites {self.n_sites} out of range")
        if self.kind == "chain":
            self.dims = (self.n_sites,)
        if self.kind == "grid":
            if not self.dims:
                raise ValueError("grid graphs need dims")
            self.dims = tuple(int(d) for d in self.dims)
            if any(d < 1 for d in self.dims):
                raise ValueError("grid dims must be positive")
            prod = 1
            for d in self.dims:
                prod *= d
            if prod != self.n_sites:
                raise ValueError(f"dims product {prod} != n_sites {self.n_sites}")
        if self.kind == "general":
            if self.bonds is None:
                raise ValueError("general graphs need a bond list")
            adj: dict[int, list[int]] = {}
            for (a, b) in self.bonds:
                a, b = int(a), int(b)
                if not (0 <= a < self.n_sites and 0 <= b < self.n_sites):
                    raise ValueError(f"bond ({a},{b}) out of range")
                if a == b:
                    continue
                adj.setdefault(a, []).append(b)
                adj.setdefault(b, []).append(a)
            for k in adj:
                adj[k] = sorted(set(adj[k]))
            self._adj = adj
        # the caches reach the graph through a weak reference, so a dropped
        # graph is freed at once instead of at the next cyclic gc pass
        ref = weakref.ref(self)
        self._cached_ball = lru_cache(BALL_CACHE_SIZE)(lambda i, R: ref()._ball(i, R))
        self._all_distances = lru_cache(1024)(lambda src: ref()._bfs_distances(src))
        self._general_locality = lru_cache(1024)(lambda R: ref()._max_bfs_ball(R))

    # ---- config ------------------------------------------------------------

    @classmethod
    def from_config(cls, cfg: dict) -> "SiteGraph":
        kind = cfg.get("kind")
        needs = {"chain": ("n_sites",), "grid": ("dims",),
                 "general": ("n_sites", "bonds")}
        missing = [key for key in needs.get(kind, ()) if key not in cfg]
        if missing:
            raise ValueError(f"{kind} graph needs {', '.join(missing)}")
        if kind == "chain":
            return cls(kind="chain", n_sites=int(cfg["n_sites"]),
                       boundary=cfg.get("boundary", "open"))
        if kind == "grid":
            dims = tuple(int(d) for d in cfg["dims"])
            n = 1
            for d in dims:
                n *= d
            if "n_sites" in cfg and int(cfg["n_sites"]) != n:
                raise ValueError(f"grid n_sites {cfg['n_sites']} != dims product {n}")
            return cls(kind="grid", n_sites=n, dims=dims,
                       boundary=cfg.get("boundary", "open"))
        if kind == "general":
            bonds = tuple((int(a), int(b)) for a, b in cfg["bonds"])
            return cls(kind="general", n_sites=int(cfg["n_sites"]), bonds=bonds)
        raise ValueError(f"unknown graph kind {kind!r}")

    # ---- coordinates (chain, grid) ------------------------------------------

    def site_coords(self, i: int) -> tuple[int, ...]:
        if self.dims is None:
            raise ValueError("site_coords needs a chain or grid")
        coords = []
        for d in reversed(self.dims):
            i, c = divmod(i, d)
            coords.append(c)
        return tuple(reversed(coords))

    def coords_site(self, coords) -> int:
        if self.dims is None:
            raise ValueError("coords_site needs a chain or grid")
        i = 0
        for c, d in zip(coords, self.dims):
            i = i * d + (c % d)
        return i

    # ---- metric -------------------------------------------------------------

    def _check_site(self, i: int):
        if not (0 <= i < self.n_sites):
            raise ValueError(f"site {i} out of range [0, {self.n_sites})")

    def distance(self, i: int, j: int) -> int:
        return int(self.distances([i], [j])[0])

    def distances(self, i, j) -> np.ndarray:
        """d(i, j) elementwise over two index arrays of one length."""
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        for sites in (i, j):
            outside = (sites < 0) | (sites >= self.n_sites)
            if outside.any():
                self._check_site(int(sites[outside][0]))
        if self.kind == "general":
            return np.array([self._all_distances(a).get(b, self.n_sites + 1)
                             for a, b in zip(i.tolist(), j.tolist())], dtype=np.int64)
        # peel axes off the row-major index
        total = np.zeros(i.shape, dtype=np.int64)
        for L in reversed(self.dims):
            (i, a), (j, b) = np.divmod(i, L), np.divmod(j, L)
            d = np.abs(a - b)
            total += np.minimum(d, L - d) if self.boundary == "periodic" else d
        return total

    def _bfs_distances(self, src: int, radius: int | None = None) -> dict[int, int]:
        dist = {src: 0}
        q = deque([src])
        while q:
            a = q.popleft()
            if radius is not None and dist[a] >= radius:
                continue
            for b in self._adj.get(a, ()):
                if b not in dist:
                    dist[b] = dist[a] + 1
                    q.append(b)
        return dist

    # ---- balls ---------------------------------------------------------------

    def ball(self, i: int, r: float) -> tuple[int, ...]:
        """Closed ball {j : d(i,j) <= r}, sorted. r is floored to the metric's integer scale."""
        self._check_site(i)
        if r < 0:
            raise ValueError("radius must be nonnegative")
        return self._cached_ball(i, int(r))

    def _ball(self, i: int, R: int) -> tuple[int, ...]:
        if self.kind == "general":
            return tuple(sorted(self._bfs_distances(i, radius=R).keys()))
        return self._grid_ball(i, R)

    def _grid_ball(self, i: int, R: int) -> tuple[int, ...]:
        # axis by axis: (row-major index of the coordinates so far, budget left);
        # no recursive closure, which would tie the graph into a reference cycle
        partial = [(0, R)]
        for c, L in zip(self.site_coords(i), self.dims):
            if self.boundary == "periodic":
                reach = min(R, L - 1)
                axis = {(c + o) % L: min(abs(o), L - abs(o)) for o in range(-reach, reach + 1)}
            else:
                axis = {pos: abs(pos - c) for pos in range(max(0, c - R), min(L - 1, c + R) + 1)}
            partial = [(base * L + pos, budget - d) for base, budget in partial
                       for pos, d in axis.items() if d <= budget]
        return tuple(sorted(base for base, _ in partial))

    # ---- locality function -----------------------------------------------------

    def locality_function(self, r: float) -> int:
        """N(r) = max_i |ball(i, r)|.

        chain and grid: the convolution over axes of the counts of positions at
        each axis distance from the most central position (which attains the max
        for L1 balls in a box), with r capped at the diameter; on one axis of
        length L that count is closed-form, 1 + min(r, c) + min(r, L - 1 - c)
        with c = (L - 1) // 2 (periodic: two positions at each distance below
        L/2, one at L/2).  general: exact max over BFS balls, kept per radius.
        """
        if r < 0:
            raise ValueError("radius must be nonnegative")
        if self.kind == "general":
            return self._general_locality(int(r))
        periodic = self.boundary == "periodic"
        if len(self.dims) == 1:
            (L,), r = self.dims, int(r)
            if periodic:
                return 1 + 2 * min(r, (L - 1) // 2) + (1 if L % 2 == 0 and r >= L // 2 else 0)
            c = (L - 1) // 2
            return 1 + min(r, c) + min(r, L - 1 - c)
        R = min(int(r), sum(L // 2 if periodic else L - 1 for L in self.dims))
        m = np.arange(R + 1)
        counts = np.ones(1, dtype=np.int64)
        for L in self.dims:
            if periodic:   # two positions at each distance below L/2, one at L/2
                axis = np.where(2 * m < L, 2, 2 * m == L)
            else:
                c = (L - 1) // 2
                axis = (m <= c).astype(np.int64) + (m <= L - 1 - c)
            axis[0] = 1
            counts = np.convolve(counts, axis)[:R + 1]
        return int(counts.sum())

    def _max_bfs_ball(self, R: int) -> int:
        return max(len(self._bfs_distances(i, radius=R)) for i in range(self.n_sites))

def chain(n_sites: int, boundary: str = "open") -> SiteGraph:
    return SiteGraph(kind="chain", n_sites=n_sites, boundary=boundary)


def grid(dims, boundary: str = "open") -> SiteGraph:
    dims = tuple(int(d) for d in dims)
    n = 1
    for d in dims:
        n *= d
    return SiteGraph(kind="grid", n_sites=n, dims=dims, boundary=boundary)


def general(n_sites: int, bonds) -> SiteGraph:
    return SiteGraph(kind="general", n_sites=n_sites,
                     bonds=tuple((int(a), int(b)) for a, b in bonds))
