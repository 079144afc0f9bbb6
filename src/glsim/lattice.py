"""Site geometries: metrics, balls, and locality functions.

A matrix A over sites {0..N-1} is (r0, N(r))-geometrically local when
A_ij = 0 whenever d(i, j) > r0 and the metric's growth function
N(r) = max_i |{j : d(i, j) <= r}| stays polynomial in r.  Everything the
light-cone engine knows about geometry flows through SiteGraph: the
distance d(i, j), the closed ball ball(i, r) as sorted runs of consecutive
sites (runs), and N(r).

Three kinds are supported.  "grid" (L1 metric, row-major index order)
has a closed-form metric and stays lazy, so N may be as large as 2**62
without ever materializing sites; a "chain" is a grid with one axis,
dims = (N,).  "general" carries an explicit bond list and uses BFS
distances; it is meant for desk-scale instances such as clock-register
graphs.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

MAX_SITES = 2 ** 62
BALL_CACHE_SIZE = 65536  # (site, radius) BFS balls kept per general graph


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
        self._cached_ball = lru_cache(BALL_CACHE_SIZE)(
            lambda i, R: tuple(sorted(ref()._bfs_distances(i, radius=R))))
        self._offset_table = lru_cache(64)(lambda R: ref()._leading_offsets(R))
        self._unclipped_sites = lru_cache(4)(lambda R: ref()._unclipped_ball(R))
        if self.dims is not None:   # the axes' lengths and row-major strides, the diameter
            self._dims = np.array(self.dims, dtype=np.int64)
            self._strides = np.array([math.prod(self.dims[k + 1:]) for k in range(len(self.dims))],
                                     dtype=np.int64)
            self._diameter = sum(L // 2 if self.boundary == "periodic" else L - 1
                                 for L in self.dims)
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

    def runs(self, i: int, r: float) -> tuple[np.ndarray, np.ndarray]:
        """ball(i, r) as sorted, disjoint runs of consecutive sites: (starts, lengths).

        chain and grid: each offset of the leading axes within r (a table kept
        per radius) that lands in the box gives one run along the last axis,
        as far as the budget r leaves; a periodic last axis splits a wrapped
        run in two, and a run over the whole axis stays one.  A site at least
        r from every face gets the table's runs of such a ball, shifted to it
        (its lengths array is shared and read-only).  general: the runs of the
        cached BFS ball.  r is floored to the metric's integer scale.
        """
        self._check_site(i)
        if r < 0:
            raise ValueError("radius must be nonnegative")
        if self.kind == "general":
            ball = np.asarray(self._cached_ball(i, int(r)), dtype=np.int64)
            cuts = np.flatnonzero(np.diff(ball) != 1) + 1
            return ball[np.r_[0, cuts]], np.diff(np.r_[0, cuts, ball.size])
        R = min(int(r), self._diameter)
        unclipped = self._unclipped(i, R)
        if unclipped is not None:
            return i + unclipped[0], unclipped[1]
        offsets, shift, budget, _ = self._offset_table(R)
        *lead, x = self.site_coords(i)
        lead = np.array(lead, dtype=np.int64)
        L, lead_dims = self.dims[-1], self._dims[:-1]
        pos = offsets + lead   # the leading coordinates of each run
        if self.boundary == "open":
            inside = ((pos >= 0) & (pos < lead_dims)).all(axis=1)
            left = np.minimum(budget[inside], x)
            right = np.minimum(budget[inside], L - 1 - x)
            return i + shift[inside] - left, left + right + 1
        base = i - x + (pos % lead_dims - lead) @ self._strides[:-1]
        width = np.minimum(2 * budget + 1, L)
        lo = np.where(width == L, 0, (x - budget) % L)
        first = np.minimum(width, L - lo)   # the rest wraps to the start of the axis
        starts = np.concatenate((base + lo, base))
        lengths = np.concatenate((first, width - first))
        keep = np.flatnonzero(lengths)
        order = keep[np.argsort(starts[keep])]
        return starts[order], lengths[order]

    def _unclipped(self, i: int, R: int):
        """The radius table's runs of a ball no face clips (starts less the site,
        lengths), when every coordinate of site i is at least R from both faces
        of its axis; else None."""
        unclipped = self._offset_table(R)[3]
        if unclipped is not None and all(R <= c < L - R
                                         for c, L in zip(self.site_coords(i), self.dims)):
            return unclipped
        return None

    def _leading_offsets(self, R: int):
        """The offsets of the leading axes within L1 distance R, one row each in
        lexicographic order; the shift each makes to a site's index; the
        budget R - |offset| each leaves for the last axis; and, when every
        axis is at least 2R + 1 long, the runs of a ball no face clips, as
        read-only (starts less the site, lengths), else None.  A periodic axis
        of length L takes the offsets from -((L - 1) // 2) to L // 2, one per
        position."""
        offsets = np.zeros((1, 0), dtype=np.int64)
        cost = np.zeros(1, dtype=np.int64)
        for L in self.dims[:-1]:
            if self.boundary == "periodic":
                axis = np.arange(-min(R, (L - 1) // 2), min(R, L // 2) + 1)
            else:
                axis = np.arange(-min(R, L - 1), min(R, L - 1) + 1)
            total = cost[:, None] + np.abs(axis)
            row, col = np.nonzero(total <= R)
            offsets = np.column_stack((offsets[row], axis[col]))
            cost = total[row, col]
        shift, budget = offsets @ self._strides[:-1], R - cost
        unclipped = None
        if min(self.dims) > 2 * R:
            unclipped = (shift - budget, 2 * budget + 1)
            for a in unclipped:
                a.setflags(write=False)
        return offsets, shift, budget, unclipped

    def _unclipped_ball(self, R: int) -> np.ndarray:
        """The members, less the site, of a ball of radius R no face clips; read-only."""
        members = run_sites(*self._offset_table(R)[3])
        members.setflags(write=False)
        return members

    def ball(self, i: int, r: float) -> tuple[int, ...]:
        """Closed ball {j : d(i,j) <= r}, sorted. r is floored to the metric's integer scale."""
        return tuple(self.ball_sites(i, r).tolist())

    def ball_sites(self, i: int, r: float) -> np.ndarray:
        """ball(i, r) as a sorted int64 array: when no face clips the ball, the
        members of such a ball (kept for the last few radii) shifted to i, else
        the members of its runs."""
        if self.kind != "general" and 0 <= i < self.n_sites and r >= 0:
            R = min(int(r), self._diameter)
            if self._unclipped(i, R) is not None:
                return i + self._unclipped_sites(R)
        return run_sites(*self.runs(i, r))

    def ball_size(self, i: int, r: float) -> int:
        """|ball(i, r)|: the sum of the run lengths."""
        return int(self.runs(i, r)[1].sum())

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
        R = min(int(r), self._diameter)
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


def run_sites(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The members of the runs (starts, lengths), run by run: start, start + 1, ..."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if ends.size else 0) + np.repeat(starts - ends + lengths, lengths)


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
