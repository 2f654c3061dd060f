"""Named graph corpus mirroring the paper's dataset (scaled down).

The paper evaluates 234 graphs from DIMACS10 (151), SNAP (68) and LAW (15)
plus 12 "representative" graphs (Table 4).  This module provides:

* :data:`REPRESENTATIVE_SPECS` — stand-ins for the 12 Table-4 graphs, each
  built by the generator whose output matches the original's structural
  regime (road / mesh / rgg / bubbles / social / web / citation).
* :func:`build_corpus` — a multi-group sweep corpus for the Figure 5/7
  scatter experiments, spanning two orders of magnitude in edge count.
* :func:`load` / :func:`available` — name-based access with caching.
* :data:`MICRO_SPECS` — the eight cases (graph recipe and engine
  config) of the engine micro-sweep (:mod:`repro.bench.micro`), whose
  graphs the serve daemon's ``micro`` corpus loads too.

Sizes are scaled so a pure-Python event-driven simulator can traverse each
graph in seconds; the ``scale`` knob grows everything proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import GraphConstructionError
from repro.graphs import diskcache
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.utils.rng import derive_seed

__all__ = [
    "GraphSpec",
    "REPRESENTATIVE_SPECS",
    "REPRESENTATIVE_NAMES",
    "BREAKDOWN_NAMES",
    "GROUPS",
    "MicroSpec",
    "MICRO_SPECS",
    "available",
    "load",
    "load_many",
    "representative_graphs",
    "breakdown_graphs",
    "build_corpus",
    "clear_cache",
]


@dataclass(frozen=True)
class GraphSpec:
    """Recipe for one named corpus graph."""

    name: str
    group: str          # dimacs10 | snap | law
    paper_analog: str   # original SuiteSparse graph this stands in for
    regime: str         # deep | mid | shallow
    builder: Callable[[int, int], CSRGraph]  # (scale, seed) -> graph

    def build(self, scale: int = 1, base_seed: int = 7) -> CSRGraph:
        seed = derive_seed(base_seed, "corpus", self.name, scale)
        # The raw builder output is disk-cached; metadata is re-applied
        # below so cache hits are indistinguishable from rebuilds.
        g = diskcache.cached_build(
            "corpus", self.name, {"scale": scale}, seed,
            lambda: self.builder(scale, seed),
        )
        return g.with_name(self.name, group=self.group,
                           paper_analog=self.paper_analog, regime_hint=self.regime)


def _spec(name, group, analog, regime, builder) -> GraphSpec:
    return GraphSpec(name=name, group=group, paper_analog=analog,
                     regime=regime, builder=builder)


def _giant(graph: CSRGraph) -> CSRGraph:
    """Largest connected component (R-MAT leaves isolated vertices)."""
    from repro.graphs.properties import largest_component

    sub, _ = largest_component(graph)
    return sub


# ---------------------------------------------------------------------------
# The 12 representative graphs of Table 4 (scaled stand-ins).
#
# Base sizes are chosen so ratios of |V| and |E| across graphs roughly track
# Table 4 (e.g. euro_osm is the biggest and sparsest; hollywood is the
# densest; social graphs have heavy-tailed degree), at ~1/3000 scale.
# ---------------------------------------------------------------------------

REPRESENTATIVE_SPECS: Tuple[GraphSpec, ...] = (
    _spec("euro_osm", "dimacs10", "europe_osm", "deep",
          lambda s, r: gen.road_network(9000 * s, seed=r)),
    _spec("delaunay", "dimacs10", "delaunay_n24", "deep",
          lambda s, r: gen.delaunay_mesh(5000 * s, seed=r)),
    _spec("rgg", "dimacs10", "rgg_n_2_24_s0", "deep",
          lambda s, r: gen.random_geometric(4500 * s, seed=r)),
    _spec("hugebubbles", "dimacs10", "hugebubbles-00020", "deep",
          lambda s, r: gen.bubble_mesh(220 * s, 28, seed=r)),
    _spec("auto", "dimacs10", "auto", "mid",
          lambda s, r: gen.grid3d(13 * s, 13, 13)),
    _spec("citation", "dimacs10", "citationCiteseer", "shallow",
          lambda s, r: gen.citation_graph(2600 * s, refs_per_paper=6, seed=r)),
    _spec("il2010", "dimacs10", "il2010", "deep",
          lambda s, r: gen.road_network(3800 * s, seed=r, extra_edge_fraction=0.04)),
    _spec("amazon", "snap", "amazon0302", "mid",
          lambda s, r: gen.co_purchase(2400 * s, seed=r)),
    _spec("google", "snap", "web-Google", "shallow",
          lambda s, r: gen.web_copy_model(2800 * s, out_degree=5, seed=r)),
    _spec("wiki", "snap", "wiki-Talk", "shallow",
          lambda s, r: gen.preferential_attachment(3200 * s, m=8, seed=r)),
    _spec("ljournal", "law", "ljournal-2008", "shallow",
          lambda s, r: gen.preferential_attachment(4200 * s, m=9, seed=r)),
    _spec("hollywood", "law", "hollywood-2009", "shallow",
          lambda s, r: _giant(gen.rmat(11, edge_factor=int(24 * s), seed=r))),
)

REPRESENTATIVE_NAMES: Tuple[str, ...] = tuple(s.name for s in REPRESENTATIVE_SPECS)

#: The six graphs of the breakdown / load-balance / sensitivity experiments
#: (paper Figures 8-10).
BREAKDOWN_NAMES: Tuple[str, ...] = (
    "euro_osm", "delaunay", "hugebubbles", "amazon", "google", "ljournal",
)

GROUPS: Dict[str, str] = {
    "dimacs10": "Benchmark graphs from the 10th DIMACS Implementation Challenge "
                "(clustering, numerical simulation, road networks)",
    "snap": "Real-world networks from the Stanford Network Analysis Platform "
            "(social, citation, web)",
    "law": "Large-scale web graphs from the Laboratory for Web Algorithmics",
}

_BY_NAME: Dict[str, GraphSpec] = {s.name: s for s in REPRESENTATIVE_SPECS}
_CACHE: Dict[Tuple[str, int, int], CSRGraph] = {}


def available() -> List[str]:
    """Names of all representative graphs."""
    return list(REPRESENTATIVE_NAMES)


def load(name: str, *, scale: int = 1, base_seed: int = 7) -> CSRGraph:
    """Load a named representative graph (cached per (name, scale, seed))."""
    if name not in _BY_NAME:
        raise GraphConstructionError(
            f"unknown graph {name!r}; available: {', '.join(REPRESENTATIVE_NAMES)}"
        )
    key = (name, scale, base_seed)
    if key not in _CACHE:
        _CACHE[key] = _BY_NAME[name].build(scale=scale, base_seed=base_seed)
    return _CACHE[key]


def load_many(names, *, scale: int = 1, base_seed: int = 7) -> List[CSRGraph]:
    """Load several named graphs."""
    return [load(n, scale=scale, base_seed=base_seed) for n in names]


def representative_graphs(*, scale: int = 1, base_seed: int = 7) -> List[CSRGraph]:
    """All 12 Table-4 stand-ins."""
    return load_many(REPRESENTATIVE_NAMES, scale=scale, base_seed=base_seed)


def breakdown_graphs(*, scale: int = 1, base_seed: int = 7) -> List[CSRGraph]:
    """The six graphs used by Figures 8-10."""
    return load_many(BREAKDOWN_NAMES, scale=scale, base_seed=base_seed)


def clear_cache() -> None:
    """Drop all cached corpus graphs (frees memory between experiments)."""
    _CACHE.clear()


# ---------------------------------------------------------------------------
# Sweep corpus for the Figure 5 / Figure 7 scatter plots.
# ---------------------------------------------------------------------------

def build_corpus(
    *,
    sizes: Optional[List[int]] = None,
    base_seed: int = 7,
) -> List[CSRGraph]:
    """Build the multi-group sweep corpus (default ~24 graphs).

    Mirrors the paper's 234-graph sweep at simulator scale: every size in
    ``sizes`` is instantiated for several structural families across the
    three groups, covering roughly two decades of edge counts.  The graphs
    come back sorted by edge count, matching Figure 5's x-axis.
    """
    sizes = sizes or [400, 1200, 3600, 9000]
    families: List[Tuple[str, str, Callable[[int, int], CSRGraph]]] = [
        ("road", "dimacs10", lambda n, r: gen.road_network(n, seed=r)),
        ("mesh", "dimacs10", lambda n, r: gen.delaunay_mesh(max(n, 8), seed=r)),
        ("bubbles", "dimacs10",
         lambda n, r: gen.bubble_mesh(max(2, n // 25), 25, seed=r)),
        ("social", "snap", lambda n, r: gen.preferential_attachment(n, m=6, seed=r)),
        ("copurchase", "snap", lambda n, r: gen.co_purchase(n, seed=r)),
        ("web", "law", lambda n, r: gen.web_copy_model(n, out_degree=6, seed=r)),
    ]
    corpus: List[CSRGraph] = []
    for size in sizes:
        for fam, group, builder in families:
            seed = derive_seed(base_seed, "sweep", fam, size)
            g = diskcache.cached_build(
                "sweep", f"{fam}_{size}", {"size": size}, seed,
                lambda b=builder, n=size, r=seed: b(n, r),
            )
            corpus.append(g.with_name(f"{fam}_{size}", group=group, family=fam))
    corpus.sort(key=lambda g: g.n_edges)
    return corpus


# ---------------------------------------------------------------------------
# The engine micro-sweep's cases (``repro.bench.micro``), whose graphs the
# serve daemon's ``micro`` corpus loads without importing the benchmark
# harness.
# ---------------------------------------------------------------------------

class MicroSpec(NamedTuple):
    """One micro case: the graph ``generators.<kind>(**params, seed=seed)``
    and the engine config ``DiggerBeesConfig(**config)`` it runs under."""

    name: str
    kind: str
    params: Dict
    seed: int
    config: Dict

    def build(self) -> CSRGraph:
        """The generator's graph through the disk cache (a hit equals a
        rebuild), under the generator's own name."""
        return diskcache.cached_build(
            self.kind, self.name, self.params, self.seed,
            lambda: getattr(gen, self.kind)(**self.params, seed=self.seed),
        )


#: Config fields of the steal-heavy cases: tight stack geometry so
#: bailout events (refills, intra/inter steals, leader work) dominate the
#: schedule instead of the expand fast path.
_STEAL_HEAVY = dict(hot_size=16, hot_cutoff=4, cold_cutoff=8, flush_batch=4,
                    refill_batch=4, cold_reserve=64)

#: Fixed forever: ``benchmarks/baseline_micro.json`` pins the DiggerBees
#: schedule of each, in this order.  Two road networks, a
#: preferential-attachment graph and a Delaunay mesh; two steal-heavy
#: graphs (skew3000, a deep skewed tree where one warp owns the spine and
#: the rest hammer the steal protocol; hub2500, a hub-rooted power-law
#: graph whose burst of work at the root must spread by stealing); and two
#: shallow-wide ones, the frontier engine's winning shape (starmesh2400, a
#: hub mesh with pendant leaves; layers2000, a root feeding five 400-wide
#: layers), on which bench_crossover.py times both engine families.
MICRO_SPECS: Tuple[MicroSpec, ...] = (
    MicroSpec("road1000", "road_network", {"n_vertices": 1000}, 1,
              dict(n_blocks=4, warps_per_block=4, seed=1)),
    MicroSpec("road2500", "road_network", {"n_vertices": 2500}, 2,
              dict(n_blocks=4, warps_per_block=4, seed=2)),
    MicroSpec("pa2000", "preferential_attachment",
              {"n_vertices": 2000, "m": 6}, 3,
              dict(n_blocks=8, warps_per_block=4, seed=3)),
    MicroSpec("mesh1500", "delaunay_mesh", {"n_vertices": 1500}, 4,
              dict(n_blocks=4, warps_per_block=8, seed=4)),
    MicroSpec("skew3000", "skewed_tree", {"n_vertices": 3000}, 5,
              dict(n_blocks=4, warps_per_block=4, **_STEAL_HEAVY, seed=5)),
    MicroSpec("hub2500", "preferential_attachment",
              {"n_vertices": 2500, "m": 4}, 6,
              dict(n_blocks=8, warps_per_block=4, **_STEAL_HEAVY, seed=6)),
    MicroSpec("starmesh2400", "star_mesh",
              {"n_hubs": 120, "leaves_per_hub": 19}, 7,
              dict(n_blocks=8, warps_per_block=4, seed=7)),
    MicroSpec("layers2000", "wide_layers", {"width": 400, "depth": 5}, 8,
              dict(n_blocks=8, warps_per_block=4, seed=8)),
)
