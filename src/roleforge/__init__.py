"""Community structure, directional community-role measures, objective role
groups, and social-capitalist analysis for directed graphs."""

from . import capitalists, clustering, errors, graph, louvain, measures, stats
from .capitalists import CapitalistRecord, classify_ratio, crosstab, detect_capitalists, overlap_index
from .clustering import ClusteringResult, davies_bouldin, kmeans, label_role, renumber_by_size, select_k, standardize
from .errors import (ConfigError, DegenerateClusteringError, DegenerateVarianceError, EdgeListParseError,
                     PipelineStageError, RoleForgeError, UndefinedModularityError, UndefinedValueError)
from .graph import DirectedGraph, load_edge_list, save_edge_list
from .louvain import LouvainTrace, Partition, aggregate_graph, directed_modularity, louvain_directed
from .measures import (MEASURE_COLUMNS, NodeCommunityProfile, community_profile, ga_role, role_measures,
                       z_score_within_community)
from .stats import AnovaResult, one_way_anova, pairwise_t_bonferroni, regularized_incomplete_beta

__all__ = ["AnovaResult", "CapitalistRecord", "ClusteringResult", "ConfigError",
           "DegenerateClusteringError", "DegenerateVarianceError", "DirectedGraph", "EdgeListParseError",
           "LouvainTrace", "MEASURE_COLUMNS", "NodeCommunityProfile", "Partition", "PipelineStageError",
           "RoleForgeError", "UndefinedModularityError", "UndefinedValueError", "aggregate_graph",
           "capitalists", "classify_ratio", "clustering", "community_profile", "crosstab",
           "davies_bouldin", "detect_capitalists", "directed_modularity", "errors", "ga_role", "graph",
           "kmeans", "label_role", "load_edge_list", "louvain", "louvain_directed", "measures",
           "one_way_anova", "overlap_index", "pairwise_t_bonferroni", "regularized_incomplete_beta",
           "renumber_by_size", "role_measures", "save_edge_list", "select_k", "standardize", "stats",
           "z_score_within_community"]
__version__ = "0.1.0"
