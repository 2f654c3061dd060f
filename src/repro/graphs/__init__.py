"""Graph substrate: CSR structure, generators, corpus, I/O, properties."""

from repro.graphs.csr import CSRGraph, from_adjacency, from_edges
from repro.graphs.properties import (
    GraphProfile,
    approximate_diameter,
    bfs_levels,
    connected_components,
    degree_statistics,
    largest_component,
    num_bfs_levels,
    profile_graph,
)

__all__ = [
    "CSRGraph",
    "from_edges",
    "from_adjacency",
    "bfs_levels",
    "num_bfs_levels",
    "connected_components",
    "largest_component",
    "approximate_diameter",
    "degree_statistics",
    "GraphProfile",
    "profile_graph",
]
