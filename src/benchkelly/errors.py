"""Exception hierarchy for the engine.

Every error carries a stable ``code`` string so the CLI can emit
machine-parsable ``ERROR <code>: message`` lines.
"""


class EngineError(Exception):
    """Base class; ``code`` identifies the failure category."""

    code = "ENGINE"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class DimensionMismatch(EngineError):
    code = "DIMENSION_MISMATCH"


class SingularCovariance(EngineError):
    code = "SINGULAR_COVARIANCE"


class NonpositiveHorizon(EngineError):
    code = "NONPOSITIVE_HORIZON"


class NegativeTheta(EngineError):
    code = "NEGATIVE_THETA"


class TimeOutOfRange(EngineError):
    code = "TIME_OUT_OF_RANGE"


class BlowUp(EngineError):
    code = "BLOW_UP"


class EigenvalueViolation(EngineError):
    code = "EIGENVALUE_VIOLATION"


class RepresentationMismatch(EngineError):
    code = "REPRESENTATION_MISMATCH"


class ConfigError(EngineError):
    code = "CONFIG"


class NonfiniteState(EngineError):
    code = "NONFINITE_STATE"


class MeasureMismatch(EngineError):
    code = "MEASURE_MISMATCH"


class ParseError(EngineError):
    code = "PARSE"


class SchemaError(EngineError):
    code = "SCHEMA"


class NonMonotoneDates(EngineError):
    code = "NON_MONOTONE_DATES"


class RankDeficient(EngineError):
    code = "RANK_DEFICIENT"


class WeightSumError(EngineError):
    code = "WEIGHT_SUM"


class InsufficientData(EngineError):
    code = "INSUFFICIENT_DATA"


class EquivalenceFailure(EngineError):
    code = "EQUIVALENCE_FAILURE"
