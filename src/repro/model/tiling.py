"""The 2D overlapped-tiling cost model for the native engine.

The paper's benefit model (Eq. 3–12) prices fusion on the GPU by how
much global-memory traffic a fused kernel saves against the shared
memory it must spend on halos.  On the CPU the same trade appears one
level down: a fused local-to-local chain evaluated tile-by-tile keeps
every intermediate stage resident in a small scratch buffer, paying a
*recompute overhead* on the halo ring of each tile instead of streaming
full-plane intermediates through cache once per consumer.  Following
Jangda & Guha's warp-overlapped tiling formulation, this module picks
the (tile_h × tile_w) shape minimizing

    cost(th, tw) = Σ_s  w_s · area_s(th, tw) / (th · tw) · a(ws)

where ``area_s`` is the halo-extended region stage ``s`` computes,
``w_s`` its per-pixel weight (tape length), and ``a(ws)`` an access
cost keyed to the cache level the total working set ``ws`` fits in
(:class:`repro.model.hardware.CpuCacheSpec`).

The model is deliberately **geometry-free**: tile shape depends only on
the stage margins, weights, element width, and the host cache spec —
never on the plane size — so a pipeline's blocks take the same tile at
every resolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .hardware import CpuCacheSpec, detect_cpu_caches

__all__ = [
    "STACK_SCRATCH_CAP",
    "StageFootprint",
    "TileChoice",
    "choose_tile",
    "recompute_factor",
    "scratch_bytes",
    "sweep_tiles",
    "tile_cost",
]


#: Hard cap on per-tile stack scratch (bytes).  Tiles live on the
#: OpenMP worker stacks; 1 MiB leaves an order of magnitude of headroom
#: under the common 8 MiB default stack while still exceeding most L2s.
STACK_SCRATCH_CAP = 1 << 20


#: Candidate tile shapes (height, width).  Widths are kept >= 32 so the
#: innermost ``#pragma omp simd`` loop has full vectors to chew on, and
#: the grid is powers of two so halo fractions step smoothly.
DEFAULT_CANDIDATES: Tuple[Tuple[int, int], ...] = tuple(
    (th, tw)
    for th in (8, 16, 32, 64, 128)
    for tw in (32, 64, 128, 256, 512)
)


@dataclass(frozen=True)
class StageFootprint:
    """One stage of a fused chain, as the tiling model sees it.

    ``left``/``right``/``top``/``bottom`` are the halo margins the
    stage must be computed over (from the consumer-offset ledger in
    ``native_lower``); ``weight`` is its relative per-pixel compute cost
    (the stage tape's instruction count); ``materialized`` is False for
    the destination stage, which writes the output plane directly and
    needs no scratch.
    """

    name: str
    left: int = 0
    right: int = 0
    top: int = 0
    bottom: int = 0
    weight: float = 1.0
    materialized: bool = True

    @property
    def margin(self) -> Tuple[int, int, int, int]:
        """``(left, right, top, bottom)``."""
        return (self.left, self.right, self.top, self.bottom)

    def area(self, tile_h: int, tile_w: int) -> int:
        """Elements the stage computes per (tile_h × tile_w) tile."""
        return (tile_h + self.top + self.bottom) * (
            tile_w + self.left + self.right
        )

    def recompute(self, tile_h: int, tile_w: int) -> float:
        """This stage's redundant-work factor: halo-extended area over
        tile area (1.0 = no halo)."""
        return self.area(tile_h, tile_w) / (tile_h * tile_w)


@dataclass(frozen=True)
class TileChoice:
    """A candidate (or chosen) tile shape with its model scores."""

    height: int
    width: int
    scratch_bytes: int
    recompute: float
    cost: float
    fits: str  # "L1" | "L2" | "L3"
    caches: CpuCacheSpec

    def describe(self) -> str:
        return (
            f"{self.height}x{self.width}: cost={self.cost:.3f} "
            f"recompute={self.recompute:.3f} "
            f"scratch={self.scratch_bytes // 1024}K (fits {self.fits})"
        )


def scratch_bytes(
    stages: Sequence[StageFootprint],
    tile_h: int,
    tile_w: int,
    bytes_per_element: int = 8,
) -> int:
    """Total per-tile scratch, summed over the materialized stages."""
    return sum(
        s.area(tile_h, tile_w) * bytes_per_element
        for s in stages
        if s.materialized
    )


def recompute_factor(
    stages: Sequence[StageFootprint], tile_h: int, tile_w: int
) -> float:
    """Weighted redundant-work factor of a tile shape (1.0 = no halo)."""
    total_weight = sum(s.weight for s in stages) or 1.0
    work = sum(s.weight * s.area(tile_h, tile_w) for s in stages)
    return work / (total_weight * tile_h * tile_w)


def _working_set(
    stages: Sequence[StageFootprint], tile_h: int, tile_w: int, bpe: int
) -> int:
    # Scratch plus the output tile and one halo-extended input tile:
    # the streams the tile stack touches besides its own buffers.
    max_l = max((s.left for s in stages), default=0)
    max_r = max((s.right for s in stages), default=0)
    max_t = max((s.top for s in stages), default=0)
    max_b = max((s.bottom for s in stages), default=0)
    io = tile_h * tile_w + (tile_h + max_t + max_b) * (tile_w + max_l + max_r)
    return scratch_bytes(stages, tile_h, tile_w, bpe) + io * bpe


def _access_cost(working_set: int, caches: CpuCacheSpec) -> Tuple[float, str]:
    if working_set <= caches.l1d_bytes:
        return 1.0, "L1"
    if working_set <= caches.l2_bytes:
        return 4.0, "L2"
    return 12.0, "L3"


def tile_cost(
    stages: Sequence[StageFootprint],
    tile_h: int,
    tile_w: int,
    caches: Optional[CpuCacheSpec] = None,
    bytes_per_element: int = 8,
) -> TileChoice:
    """Score one tile shape (lower cost is better)."""
    caches = caches or detect_cpu_caches()
    scratch = scratch_bytes(stages, tile_h, tile_w, bytes_per_element)
    recompute = recompute_factor(stages, tile_h, tile_w)
    ws = _working_set(stages, tile_h, tile_w, bytes_per_element)
    access, fits = _access_cost(ws, caches)
    total_weight = sum(s.weight for s in stages) or 1.0
    cost = recompute * total_weight * access
    return TileChoice(
        height=tile_h,
        width=tile_w,
        scratch_bytes=scratch,
        recompute=recompute,
        cost=cost,
        fits=fits,
        caches=caches,
    )


def _feasible(choice: TileChoice, caches: CpuCacheSpec) -> bool:
    cap = min(STACK_SCRATCH_CAP, max(caches.l2_bytes, caches.l1d_bytes))
    return choice.scratch_bytes <= cap


def sweep_tiles(
    stages: Sequence[StageFootprint],
    caches: Optional[CpuCacheSpec] = None,
    bytes_per_element: int = 8,
    candidates: Optional[Sequence[Tuple[int, int]]] = None,
) -> Tuple[TileChoice, ...]:
    """Score every candidate shape, best (lowest cost) first.

    Ties break toward wider tiles (longer contiguous ``simd`` runs,
    fewer partial vectors), then taller ones (fewer halo rows).
    """
    caches = caches or detect_cpu_caches()
    scored = [
        tile_cost(stages, th, tw, caches, bytes_per_element)
        for th, tw in (candidates or DEFAULT_CANDIDATES)
    ]
    feasible = [c for c in scored if _feasible(c, caches)]
    feasible.sort(key=lambda c: (round(c.cost, 9), -c.width, -c.height))
    return tuple(feasible)


def choose_tile(
    stages: Sequence[StageFootprint],
    caches: Optional[CpuCacheSpec] = None,
    bytes_per_element: int = 8,
    candidates: Optional[Sequence[Tuple[int, int]]] = None,
) -> Optional[TileChoice]:
    """The model's pick, or ``None`` when no candidate fits the caps.

    ``None`` tells the native lowering to materialize nothing and
    sweep the block's fused tape in row bands: a chain whose margins
    blow every candidate past the scratch cap gains nothing from
    overlapped tiling anyway.
    """
    ranked = sweep_tiles(stages, caches, bytes_per_element, candidates)
    return ranked[0] if ranked else None
