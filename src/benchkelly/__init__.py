"""Benchmarked risk-sensitive portfolio engine.

Solves the backward Riccati/linear/scalar system for the quadratic value
surface of a factor-market model, evaluates the optimal affine allocation by
two equivalent routes, verifies the saddle-point and change-of-measure
identities numerically, simulates the controlled market by Monte Carlo,
estimates models from return panels, and reports performance metrics.
"""

from .errors import EngineError
from .model import ModelSpec, ValidatedModel, validate_model
from .valuefn import ValueCoefficients, solve_value_coefficients, value_function
from .policy import PolicyAction, fractional_kelly
from .simulate import PathBundle, SimConfig, simulate_lanes

__all__ = [
    "EngineError",
    "ModelSpec",
    "ValidatedModel",
    "validate_model",
    "ValueCoefficients",
    "solve_value_coefficients",
    "value_function",
    "PolicyAction",
    "fractional_kelly",
    "PathBundle",
    "SimConfig",
    "simulate_lanes",
]

__version__ = "0.1.0"
