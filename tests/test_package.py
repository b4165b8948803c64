"""The package namespace: every public name resolves, and a module import
loads no module it does not use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roleforge

# every name the package has exported, by the module that defines it
NAMESPACE = {
    "capitalists": ["CapitalistRecord", "classify_ratio", "crosstab", "detect_capitalists",
                    "overlap_index"],
    "clustering": ["ClusteringResult", "davies_bouldin", "kmeans", "label_role", "renumber_by_size",
                   "select_k", "standardize"],
    "errors": ["ConfigError", "DegenerateClusteringError", "DegenerateVarianceError",
               "EdgeListParseError", "PipelineStageError", "RoleForgeError",
               "UndefinedModularityError", "UndefinedValueError"],
    "graph": ["DirectedGraph", "load_edge_list", "save_edge_list"],
    "louvain": ["LouvainTrace", "Partition", "aggregate_graph", "directed_modularity",
                "louvain_directed"],
    "measures": ["MEASURE_COLUMNS", "NodeCommunityProfile", "community_profile", "ga_role",
                 "role_measures", "z_score_within_community"],
    "stats": ["AnovaResult", "one_way_anova", "pairwise_t_bonferroni", "regularized_incomplete_beta"],
}
PUBLIC = sorted([*NAMESPACE, *(name for names in NAMESPACE.values() for name in names)])


def _python(code):
    env = dict(os.environ, PYTHONPATH=str(Path(roleforge.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_every_public_name_resolves():
    for module, names in NAMESPACE.items():
        mod = importlib.import_module(f"roleforge.{module}")
        assert getattr(roleforge, module) is mod
        for name in names:
            assert getattr(roleforge, name) is getattr(mod, name), name
    assert roleforge.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(roleforge))
    assert roleforge.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        roleforge.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from roleforge import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_imports_load_only_what_they_use():
    loaded = "print(sorted(m for m in sys.modules if m.startswith('roleforge')))"
    assert _python(f"import sys, roleforge; {loaded}") == "['roleforge']"
    # what a k-means worker imports
    assert _python(f"import sys; from roleforge.clustering import _serve_fits; {loaded}") == \
        "['roleforge', 'roleforge.clustering', 'roleforge.errors']"
    assert _python(f"import sys; from roleforge import DirectedGraph; {loaded}") == \
        "['roleforge', 'roleforge.errors', 'roleforge.graph']"
