"""Community structure, directional community-role measures, objective role
groups, and social-capitalist analysis for directed graphs.

The names below load with their module on first use, so importing one
module (a k-means worker's `roleforge.clustering`) loads no other.
"""

import importlib

_EXPORTS = {
    "capitalists": ("CapitalistRecord", "classify_ratio", "crosstab", "detect_capitalists",
                    "overlap_index"),
    "clustering": ("ClusteringResult", "davies_bouldin", "kmeans", "label_role", "renumber_by_size",
                   "select_k", "standardize"),
    "errors": ("ConfigError", "DegenerateClusteringError", "DegenerateVarianceError",
               "EdgeListParseError", "PipelineStageError", "RoleForgeError",
               "UndefinedModularityError", "UndefinedValueError"),
    "graph": ("DirectedGraph", "load_edge_list", "save_edge_list"),
    "louvain": ("LouvainTrace", "Partition", "aggregate_graph", "directed_modularity",
                "louvain_directed"),
    "measures": ("MEASURE_COLUMNS", "NodeCommunityProfile", "community_profile", "ga_role",
                 "role_measures", "z_score_within_community"),
    "stats": ("AnovaResult", "one_way_anova", "pairwise_t_bonferroni", "regularized_incomplete_beta"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
