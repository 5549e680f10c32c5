"""Technology mapping: cuts, Boolean matching, covering, the two mappers."""

from .cover import ConeCover, CoverStats, MappingError, Selection, cover_cone
from .dontcare import HazardDontCares, InputBurst, synthesis_bursts
from .reference import hand_style_reference
from .cuts import Cluster, cluster_expression, enumerate_clusters
from .match import Match, expression_truth_table, find_matches, match_cluster
from .mapper import MappingOptions, MappingResult, async_tmap, map_network, tmap

__all__ = [
    "Cluster",
    "ConeCover",
    "CoverStats",
    "HazardDontCares",
    "InputBurst",
    "MappingError",
    "MappingOptions",
    "MappingResult",
    "Match",
    "Selection",
    "async_tmap",
    "cluster_expression",
    "cover_cone",
    "enumerate_clusters",
    "expression_truth_table",
    "hand_style_reference",
    "find_matches",
    "map_network",
    "match_cluster",
    "synthesis_bursts",
    "tmap",
]
