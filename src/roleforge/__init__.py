"""Community structure, directional community-role measures, objective role
groups, and social-capitalist analysis for directed graphs."""

from .capitalists import (CapitalistRecord, classify_ratio, crosstab, detect_capitalists,
                          overlap_index)
from .clustering import (ClusteringResult, RoleThresholds, davies_bouldin, kmeans, label_role,
                         renumber_by_size, select_k, standardize)
from .errors import (ConfigError, DegenerateClusteringError, DegenerateVarianceError,
                     EdgeListParseError, PipelineStageError, RoleForgeError,
                     UndefinedModularityError, UndefinedValueError)
from .graph import DirectedGraph, load_edge_list, save_edge_list
from .louvain import (LouvainTrace, Partition, aggregate_graph, directed_modularity,
                      louvain_directed)
from .measures import (MEASURE_COLUMNS, NodeCommunityProfile, community_profile, ga_role,
                       role_measures, z_score_within_community)
from .stats import AnovaResult, one_way_anova, pairwise_t_bonferroni, regularized_incomplete_beta

__version__ = "0.1.0"
