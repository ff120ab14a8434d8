"""Exception types shared across the package."""


class CausalProbeError(Exception):
    """Base class for all package-specific errors."""


class GraphGenerationError(CausalProbeError):
    """Random DAG generation exceeded its rejection budget."""


class CapacityError(CausalProbeError):
    """An exact computation would exceed its size guard."""


class DataError(CausalProbeError):
    """Malformed tabular data (bad CSV, non-binary cell, ragged rows)."""


class KnowledgeError(CausalProbeError):
    """Inconsistent qualitative domain knowledge."""


class OrientationError(CausalProbeError):
    """A pattern admits no consistent extension under the given knowledge."""


class DegenerateNetworkError(CausalProbeError):
    """A generated network has no nontrivial treatment-outcome pair."""


class PipelineError(CausalProbeError):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
