"""Site geometries: metrics, balls, and locality functions.

A matrix A over sites {0..N-1} is (r0, N(r))-geometrically local when
A_ij = 0 whenever d(i, j) > r0 and the metric's growth function
N(r) = max_i |{j : d(i, j) <= r}| stays polynomial in r.  Everything the
light-cone engine knows about geometry flows through SiteGraph: the
distance d(i, j), the closed ball ball(i, r), and N(r).

Three kinds are supported.  "chain" and "grid" (L1 metric, row-major
index order) have closed-form metrics and stay lazy, so N may be as
large as 2**62 without ever materializing sites.  "general" carries an
explicit bond list and uses BFS distances; it is meant for desk-scale
instances such as clock-register graphs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from dataclasses import dataclass, field

MAX_SITES = 2 ** 62


class _LruCache:
    """Small synchronized LRU map. Ball memoization must survive concurrent readers."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                return self._data[key]
        return None

    def put(self, key, value):
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)


@dataclass
class SiteGraph:
    """Site set with a metric.

    kind: "chain", "grid", or "general".
    boundary: "open" or "periodic" (chain/grid only).
    dims: per-axis lengths for grids (row-major site order).
    bonds: undirected edge list for general graphs.
    """

    kind: str
    n_sites: int
    boundary: str = "open"
    dims: tuple[int, ...] | None = None
    bonds: tuple[tuple[int, int], ...] | None = None
    ball_cache_size: int = 65536
    _adj: dict | None = field(default=None, repr=False)
    _ball_cache: _LruCache | None = field(default=None, repr=False)
    _dist_cache: _LruCache | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("chain", "grid", "general"):
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if self.boundary not in ("open", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if not (1 <= self.n_sites <= MAX_SITES):
            raise ValueError(f"n_sites {self.n_sites} out of range")
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
        self._ball_cache = _LruCache(self.ball_cache_size)
        self._dist_cache = _LruCache(1024)

    # ---- config round trip -------------------------------------------------

    @classmethod
    def from_config(cls, cfg: dict) -> "SiteGraph":
        kind = cfg.get("kind")
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

    def to_config(self) -> dict:
        if self.kind == "chain":
            return {"kind": "chain", "n_sites": self.n_sites, "boundary": self.boundary}
        if self.kind == "grid":
            return {"kind": "grid", "dims": list(self.dims), "boundary": self.boundary}
        return {"kind": "general", "n_sites": self.n_sites,
                "bonds": [list(b) for b in self.bonds]}

    # ---- coordinates (grid) ------------------------------------------------

    def site_coords(self, i: int) -> tuple[int, ...]:
        if self.kind != "grid":
            raise ValueError("site_coords is grid-only")
        coords = []
        for d in reversed(self.dims):
            i, c = divmod(i, d)
            coords.append(c)
        return tuple(reversed(coords))

    def coords_site(self, coords) -> int:
        if self.kind != "grid":
            raise ValueError("coords_site is grid-only")
        i = 0
        for c, d in zip(coords, self.dims):
            i = i * d + (c % d)
        return i

    # ---- metric -------------------------------------------------------------

    def _check_site(self, i: int):
        if not (0 <= i < self.n_sites):
            raise ValueError(f"site {i} out of range [0, {self.n_sites})")

    def distance(self, i: int, j: int) -> int:
        self._check_site(i)
        self._check_site(j)
        if self.kind == "chain":
            d = abs(i - j)
            if self.boundary == "periodic":
                d = min(d, self.n_sites - d)
            return d
        if self.kind == "grid":
            ci, cj = self.site_coords(i), self.site_coords(j)
            tot = 0
            for a, b, L in zip(ci, cj, self.dims):
                d = abs(a - b)
                if self.boundary == "periodic":
                    d = min(d, L - d)
                tot += d
            return tot
        return self._bfs_distances(i).get(j, self.n_sites + 1)

    def _bfs_distances(self, src: int, radius: int | None = None) -> dict[int, int]:
        key = (src, radius)
        cached = self._dist_cache.get(("bfs", src)) if radius is None else None
        if cached is not None:
            return cached
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
        if radius is None:
            self._dist_cache.put(("bfs", src), dist)
        return dist

    # ---- balls ---------------------------------------------------------------

    def ball(self, i: int, r: float) -> tuple[int, ...]:
        """Closed ball {j : d(i,j) <= r}, sorted. r is floored to the metric's integer scale."""
        self._check_site(i)
        if r < 0:
            raise ValueError("radius must be nonnegative")
        R = int(r)
        cached = self._ball_cache.get((i, R))
        if cached is not None:
            return cached
        if self.kind == "chain":
            out = self._chain_ball(i, R)
        elif self.kind == "grid":
            out = self._grid_ball(i, R)
        else:
            out = tuple(sorted(self._bfs_distances(i, radius=R).keys()))
        self._ball_cache.put((i, R), out)
        return out

    def _chain_ball(self, i: int, R: int) -> tuple[int, ...]:
        n = self.n_sites
        if self.boundary == "open":
            return tuple(range(max(0, i - R), min(n - 1, i + R) + 1))
        if 2 * R + 1 >= n:
            return tuple(range(n))
        return tuple(sorted((i + o) % n for o in range(-R, R + 1)))

    def _grid_ball(self, i: int, R: int) -> tuple[int, ...]:
        center = self.site_coords(i)
        dims = self.dims
        periodic = self.boundary == "periodic"
        out: set[int] = set()

        def rec(axis: int, budget: int, prefix: list[int]):
            if axis == len(dims):
                out.add(self.coords_site(prefix))
                return
            c, L = center[axis], dims[axis]
            if periodic:
                seen_axis = set()
                for o in range(-min(budget, L - 1), min(budget, L - 1) + 1):
                    pos = (c + o) % L
                    d = min(abs(o), L - abs(o))
                    if d > budget or (pos, d) in seen_axis:
                        continue
                    # same position can be reached by two offsets; keep cheapest
                    seen_axis.add((pos, d))
                    rec(axis + 1, budget - d, prefix + [pos])
            else:
                for pos in range(max(0, c - budget), min(L - 1, c + budget) + 1):
                    rec(axis + 1, budget - abs(pos - c), prefix + [pos])

        rec(0, R, [])
        return tuple(sorted(out))

    # ---- locality function -----------------------------------------------------

    def locality_function(self, r: float) -> int:
        """N(r) = max_i |ball(i, r)|.

        chain: min(2 floor(r) + 1, N). grid: per-axis distance-count convolution,
        evaluated at the most-central site for open boundaries (which attains the
        max for L1 balls in a box), capped at N. general: exact max over BFS balls.
        """
        if r < 0:
            raise ValueError("radius must be nonnegative")
        R = int(r)
        if self.kind == "chain":
            return min(2 * R + 1, self.n_sites)
        if self.kind == "grid":
            return self._grid_locality(R)
        best = 0
        for i in range(self.n_sites):
            best = max(best, len(self._bfs_distances(i, radius=R)))
        return best

    def _axis_count(self, L: int, R: int) -> list[int]:
        """counts[m] = max over centers of #positions at exact axis-distance m, m <= R."""
        counts = [0] * (R + 1)
        counts[0] = 1
        if self.boundary == "periodic":
            for m in range(1, R + 1):
                if 2 * m < L:
                    counts[m] = 2
                elif 2 * m == L:
                    counts[m] = 1
        else:
            c = (L - 1) // 2
            for m in range(1, R + 1):
                counts[m] = (1 if c - m >= 0 else 0) + (1 if c + m <= L - 1 else 0)
        return counts

    def _grid_locality(self, R: int) -> int:
        acc = [1] + [0] * R
        for L in self.dims:
            cnt = self._axis_count(L, R)
            nxt = [0] * (R + 1)
            for a, va in enumerate(acc):
                if va == 0:
                    continue
                for b in range(0, R + 1 - a):
                    if cnt[b]:
                        nxt[a + b] += va * cnt[b]
            acc = nxt
        return min(sum(acc), self.n_sites)


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
