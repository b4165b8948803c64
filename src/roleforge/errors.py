"""Exception types shared across the package, and the config rules that two modules apply."""

import math


class RoleForgeError(Exception):
    """Base class for all errors raised by this package."""


class EdgeListParseError(RoleForgeError):
    """Malformed edge-list input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UndefinedModularityError(RoleForgeError):
    """Modularity is undefined on a graph without arcs."""


class UndefinedValueError(RoleForgeError):
    """A value is undefined for its input: the Davies-Bouldin index of fewer than 2 groups."""


class ConfigError(RoleForgeError, ValueError):
    """Invalid configuration or parameter combination; a ValueError too, for callers that catch one."""


class DegenerateClusteringError(RoleForgeError):
    """Clustering collapsed (empty group or coincident centroids)."""


class DegenerateVarianceError(RoleForgeError):
    """Within-group variance is zero; the F statistic is undefined."""


class PipelineStageError(RoleForgeError):
    """A pipeline stage failed; partial artifacts are left in place."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage


def check_finite(key: str, value: float) -> None:
    """The first test of every float config key's rule."""
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")


def check_seed(seed: int) -> None:
    """The rule of the `seed` key, which Louvain and k-means both take."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
