"""Exception hierarchy for the cliquespace toolkit."""


class CliquespaceError(Exception):
    """Base class for all toolkit errors."""


class GraphFormatError(CliquespaceError):
    """A graph file is malformed or violates the declared format."""


class DisconnectedGraphError(CliquespaceError):
    """An operation that requires a connected graph received a disconnected one."""


class FeatureTimeoutError(CliquespaceError):
    """Feature computation exceeded its time budget."""


class CliqueValidityError(CliquespaceError):
    """A solver returned a vertex set that is not a clique of the input graph."""


class SolverSpawnError(CliquespaceError):
    """An external solver process could not be started."""


class SolverOutputError(CliquespaceError):
    """An external solver's output could not be parsed."""


class ScoringError(CliquespaceError):
    """Performance scoring received degenerate run records."""


class NormalizationError(CliquespaceError):
    """Feature normalization cannot be fitted on the given matrix."""


class ProjectionError(CliquespaceError):
    """Projection fitting or application failed (rank deficiency, missing features)."""


class GeometryError(CliquespaceError):
    """Boundary or footprint geometry is degenerate (e.g. collinear points)."""


class SelectorError(CliquespaceError):
    """Selector training or prediction received invalid inputs."""


class ModelFormatError(CliquespaceError):
    """A persisted model file is malformed or has an unsupported version."""


class ConfigError(CliquespaceError):
    """Pipeline configuration is missing, unparsable, or invalid."""


class PipelineError(CliquespaceError):
    """A pipeline stage is missing its prerequisite artifacts or inputs disagree."""


class CampaignFailureError(CliquespaceError):
    """Every run in a benchmarking campaign failed; nothing is scoreable."""
