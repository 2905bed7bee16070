"""Data center network topologies."""

from repro.topology.base import (
    Edge,
    Topology,
    build_topology,
    canonical_edge,
    path_edges,
)
from repro.topology.bcube import bcube
from repro.topology.fattree import fat_tree
from repro.topology.leafspine import leaf_spine
from repro.topology.random_graphs import jellyfish
from repro.topology.simple import (
    LINKS_PER_PARALLEL_PATH,
    dumbbell,
    line,
    parallel_paths,
    star,
)
from repro.topology.vl2 import vl2

__all__ = [
    "Edge",
    "Topology",
    "build_topology",
    "canonical_edge",
    "path_edges",
    "fat_tree",
    "bcube",
    "vl2",
    "leaf_spine",
    "jellyfish",
    "line",
    "star",
    "dumbbell",
    "parallel_paths",
    "LINKS_PER_PARALLEL_PATH",
]
