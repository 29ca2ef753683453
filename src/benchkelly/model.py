"""Affine factor-market model: validation, Gram contractions, projection matrices.

The market has m risky assets whose drifts are affine in an n-dimensional
factor state, driven by a d-dimensional Brownian motion, plus a benchmark
level with its own loading on the same noise:

    asset returns:   dS/S = (a + A x) dt + Sigma dW        (m assets)
    factor state:    dX   = (b + B x) dt + Lambda dW       (n factors)
    benchmark:       dL/L = (c + C x) dt + Xi' dW          (scalar level)

Coefficients are constant or piecewise-constant on a declared knot grid.
Everything downstream consumes the model through per-segment Gram
contractions (Sigma Sigma', Sigma Lambda', ...), so two parameterizations
with equal contractions are interchangeable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve

from .errors import (
    DimensionMismatch,
    NegativeTheta,
    NonfiniteState,
    NonpositiveHorizon,
    ParseError,
    SingularCovariance,
    TimeOutOfRange,
)

# Relative pivot threshold for the positive-definiteness test of Sigma Sigma'.
PD_PIVOT_RTOL = 1e-12

_COEFF_SHAPES = {
    "asset_drift": ("m",),
    "asset_factor_loading": ("m", "n"),
    "asset_vol": ("m", "d"),
    "factor_drift": ("n",),
    "factor_mean_reversion": ("n", "n"),
    "factor_vol": ("n", "d"),
    "bench_drift": (),
    "bench_factor_loading": ("n",),
    "bench_vol": ("d",),
}


@dataclass(frozen=True)
class CoefficientBlock:
    """One segment of model coefficients (all rates annualized)."""

    asset_drift: np.ndarray          # a, (m,)
    asset_factor_loading: np.ndarray  # A, (m, n)
    asset_vol: np.ndarray            # Sigma, (m, d)
    factor_drift: np.ndarray         # b, (n,)
    factor_mean_reversion: np.ndarray  # B, (n, n)
    factor_vol: np.ndarray           # Lambda, (n, d)
    bench_drift: float               # c
    bench_factor_loading: np.ndarray  # C, (n,)
    bench_vol: np.ndarray            # Xi, (d,)

    @staticmethod
    def zeros(n: int, m: int, d: int) -> "CoefficientBlock":
        return CoefficientBlock(
            asset_drift=np.zeros(m),
            asset_factor_loading=np.zeros((m, n)),
            asset_vol=np.zeros((m, d)),
            factor_drift=np.zeros(n),
            factor_mean_reversion=np.zeros((n, n)),
            factor_vol=np.zeros((n, d)),
            bench_drift=0.0,
            bench_factor_loading=np.zeros(n),
            bench_vol=np.zeros(d),
        )

    def replace(self, **kwargs) -> "CoefficientBlock":
        data = {k: getattr(self, k) for k in _COEFF_SHAPES}
        data.update(kwargs)
        return CoefficientBlock(**{
            k: (float(v) if k == "bench_drift" else np.asarray(v, dtype=float))
            for k, v in data.items()
        })


@dataclass(frozen=True)
class CoefficientSet:
    """Piecewise-constant coefficients on ascending knot times (first knot 0)."""

    knots: np.ndarray                 # segment start times, knots[0] == 0
    blocks: tuple[CoefficientBlock, ...]

    @staticmethod
    def constant(block: CoefficientBlock) -> "CoefficientSet":
        return CoefficientSet(knots=np.array([0.0]), blocks=(block,))

    def segment_indices(self, times) -> np.ndarray:
        """The segment of each time: that of the last knot at or before it."""
        return np.maximum(np.searchsorted(self.knots, times, side="right") - 1, 0)


@dataclass(frozen=True)
class ModelSpec:
    """Market/factor/benchmark model with horizon and risk sensitivity.

    theta >= 0; theta == 0 selects the Kelly (log-optimal) mode.
    """

    n: int
    m: int
    d: int
    coeffs: CoefficientSet
    horizon_years: float
    theta: float
    x0: np.ndarray

    @staticmethod
    def constant(n, m, d, horizon_years, theta, x0, **coeff_kwargs) -> "ModelSpec":
        """Convenience builder: zero block overridden by keyword coefficients."""
        block = CoefficientBlock.zeros(n, m, d).replace(**coeff_kwargs)
        return ModelSpec(
            n=n, m=m, d=d,
            coeffs=CoefficientSet.constant(block),
            horizon_years=float(horizon_years),
            theta=float(theta),
            x0=np.asarray(x0, dtype=float),
        )


@dataclass(frozen=True)
class GramBlocks:
    """The six noise contractions at one coefficient segment.

    ss_chol is the lower Cholesky factor of ss; solves against ss go
    through it rather than an explicit inverse.
    """

    ss: np.ndarray       # Sigma Sigma', (m, m)
    ss_chol: np.ndarray  # lower factor of ss
    sl: np.ndarray       # Sigma Lambda', (m, n)
    ll: np.ndarray       # Lambda Lambda', (n, n)
    s_xi: np.ndarray     # Sigma Xi, (m,)
    l_xi: np.ndarray     # Lambda Xi, (n,)
    xi_xi: float         # Xi' Xi

    def ss_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve (Sigma Sigma') x = rhs via the cached factorization."""
        return cho_solve((self.ss_chol, True), rhs)


@dataclass(frozen=True)
class ProjectionPair:
    """Noise-space pair (I + theta*Pi, I - theta/(theta+1)*Pi); mutual inverses."""

    pplus: np.ndarray   # (d, d)
    pminus: np.ndarray  # (d, d)


def _rowdot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Dot products over the last axis, broadcast over the leading ones,
    written to out when given."""
    return np.einsum("...j,...j->...", a, b, out=out)


def _track(block: CoefficientBlock, H: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The noise loading track = Sigma' h - Xi of ln(V/L) under allocations
    H, one row or a stack of rows, written to out when given."""
    track = np.matmul(H, block.asset_vol, out=out)
    return np.subtract(track, block.bench_vol, out=track)


def _log_excess_drift(block: CoefficientBlock, gram: GramBlocks, X: np.ndarray,
                      H: np.ndarray, out: np.ndarray | None = None,
                      work: tuple | None = None) -> np.ndarray:
    """The drift ell of ln(V/L) under allocations H, one row or a stack of
    rows, at factor states X, one row or one per row of H:
    ell = -h' Sigma Sigma' h / 2 + h' a + |Xi|^2 / 2 - c + (h' A - C') x,
    summed in that order.

    Given out and work = (H @ Sigma Sigma', H @ A - C, a row dot), arrays
    of those shapes, ell and its partial terms are written to them; else
    they are made here.  Either way the operations and their order are the
    same.
    """
    lead = H.shape[:-1]
    ell = np.empty(lead) if out is None else out
    h_ss, h_ab, dot = work or (np.empty(H.shape), np.empty(lead + X.shape[-1:]), np.empty(lead))
    np.multiply(-0.5, _rowdot(np.matmul(H, gram.ss, out=h_ss), H, out=ell), out=ell)
    np.add(ell, np.matmul(H, block.asset_drift, out=dot), out=ell)
    np.add(ell, 0.5 * gram.xi_xi, out=ell)
    np.subtract(ell, block.bench_drift, out=ell)
    np.matmul(H, block.asset_factor_loading, out=h_ab)
    np.subtract(h_ab, block.bench_factor_loading, out=h_ab)
    np.add(ell, _rowdot(h_ab, X, out=dot), out=ell)
    return ell


def _log_excess_terms(block: CoefficientBlock, gram: GramBlocks, X: np.ndarray,
                      H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The drift ell and noise loading track of ln(V/L) under allocations H
    at factor states X (see _log_excess_drift and _track), the one
    definition of the benchmarked reward."""
    return _log_excess_drift(block, gram, X, H), _track(block, H)


def cholesky_pd(mat: np.ndarray):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Returns (L, None) on success, (None, (index, pivot)) when a pivot falls
    at or below PD_PIVOT_RTOL * max(diagonal) -- the caller decides how to
    report.
    """
    mat = np.asarray(mat, dtype=float)
    k = mat.shape[0]
    L = np.zeros_like(mat)
    scale = float(np.max(np.diag(mat))) if k else 0.0
    thresh = PD_PIVOT_RTOL * max(scale, 0.0)
    for j in range(k):
        pivot = mat[j, j] - L[j, :j] @ L[j, :j]
        if pivot <= thresh:
            return None, (j, float(pivot))
        L[j, j] = np.sqrt(pivot)
        if j + 1 < k:
            L[j + 1:, j] = (mat[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
    return L, None


def _build_gram(block: CoefficientBlock, knot_time: float) -> GramBlocks:
    sigma = block.asset_vol
    lam = block.factor_vol
    xi = block.bench_vol
    ss = sigma @ sigma.T
    chol, fail = cholesky_pd(ss)
    if fail is not None:
        j, pivot = fail
        raise SingularCovariance(
            f"asset covariance not positive definite at knot t={knot_time:g}: "
            f"pivot {pivot:.3e} at index {j}"
        )
    return GramBlocks(
        ss=ss,
        ss_chol=chol,
        sl=sigma @ lam.T,
        ll=lam @ lam.T,
        s_xi=sigma @ xi,
        l_xi=lam @ xi,
        xi_xi=float(xi @ xi),
    )


def _check_spec(spec: ModelSpec) -> None:
    n, m, d = spec.n, spec.m, spec.d
    if min(n, m, d) < 1:
        raise DimensionMismatch(f"dimensions must be positive, got n={n}, m={m}, d={d}")
    if d < m:
        raise DimensionMismatch(f"noise dimension d={d} must be >= number of assets m={m}")
    if spec.x0.shape != (n,):
        raise DimensionMismatch(f"x0 must have shape ({n},), got {spec.x0.shape}")
    dims = {"n": n, "m": m, "d": d}
    for bi, block in enumerate(spec.coeffs.blocks):
        for name, dim_names in _COEFF_SHAPES.items():
            value = getattr(block, name)
            expected = tuple(dims[x] for x in dim_names)
            got = () if np.isscalar(value) else np.asarray(value).shape
            if got != expected:
                raise DimensionMismatch(
                    f"coefficient '{name}' in block {bi} has shape {got}, expected {expected}"
                )
            if not np.all(np.isfinite(value)):
                raise NonfiniteState(f"coefficient '{name}' in block {bi} is not finite")
    knots = spec.coeffs.knots
    if len(knots) != len(spec.coeffs.blocks):
        raise DimensionMismatch("knot count does not match coefficient block count")
    if knots[0] != 0.0 or not np.all(np.diff(knots) > 0):
        raise DimensionMismatch("knots must start at 0 and be strictly increasing")


class ValidatedModel:
    """Immutable handle around a validated ModelSpec with cached per-segment blocks.

    Safe for unrestricted concurrent reads.
    """

    def __init__(self, spec: ModelSpec, grams: tuple[GramBlocks, ...]):
        self._spec = spec
        self._grams = grams

    @property
    def spec(self) -> ModelSpec:
        return self._spec

    @property
    def n(self) -> int:
        return self._spec.n

    @property
    def m(self) -> int:
        return self._spec.m

    @property
    def d(self) -> int:
        return self._spec.d

    @property
    def theta(self) -> float:
        return self._spec.theta

    @property
    def horizon(self) -> float:
        return self._spec.horizon_years

    @property
    def x0(self) -> np.ndarray:
        return self._spec.x0

    def segment_indices(self, times) -> np.ndarray:
        """The coefficient segment of each of the times, one array lookup;
        raises TimeOutOfRange naming the first time outside [0, horizon]."""
        times = np.asarray(times, dtype=float)
        T = self._spec.horizon_years
        inside = (times >= 0.0) & (times <= T * (1 + 1e-12) + 1e-15)
        if not inside.all():
            raise TimeOutOfRange(f"time {times.flat[np.argmin(inside)]:g} outside [0, {T:g}]")
        return self._spec.coeffs.segment_indices(times)

    def coefficients(self, s: float) -> CoefficientBlock:
        return self._spec.coeffs.blocks[int(self.segment_indices(s))]

    def gram_blocks(self, s: float) -> GramBlocks:
        """Noise contractions at time s; cached, bit-identical within a segment."""
        return self._grams[int(self.segment_indices(s))]

    def projection_matrices(self, s: float) -> ProjectionPair:
        """Pplus = I + theta Pi and Pminus = I - theta/(theta+1) Pi at the
        model's theta, with Pi = Sigma' (Sigma Sigma')^{-1} Sigma;
        Pminus @ Pplus == identity."""
        theta = self.theta
        gram = self.gram_blocks(s)
        sigma = self.coefficients(s).asset_vol
        pi = sigma.T @ gram.ss_solve(sigma)
        eye = np.eye(self.d)
        return ProjectionPair(
            pplus=eye + theta * pi,
            pminus=eye - (theta / (theta + 1.0)) * pi,
        )


def validate_model(spec: ModelSpec) -> ValidatedModel:
    """Check all model invariants and return an immutable validated handle.

    Positive definiteness of Sigma Sigma' is verified at every knot by a
    Cholesky attempt with relative pivot threshold PD_PIVOT_RTOL; the failing
    knot time is named in the error.
    """
    spec = ModelSpec(
        n=int(spec.n), m=int(spec.m), d=int(spec.d),
        coeffs=spec.coeffs,
        horizon_years=float(spec.horizon_years),
        theta=float(spec.theta),
        x0=np.asarray(spec.x0, dtype=float),
    )
    for name in ("theta", "horizon_years", "x0"):
        if not np.all(np.isfinite(getattr(spec, name))):
            raise NonfiniteState(f"model '{name}' is not finite: {getattr(spec, name)}")
    if spec.horizon_years <= 0:
        raise NonpositiveHorizon(f"horizon must be > 0 years, got {spec.horizon_years:g}")
    if spec.theta < 0:
        raise NegativeTheta(f"theta must be >= 0, got {spec.theta:g}")
    _check_spec(spec)
    grams = tuple(
        _build_gram(block, float(knot))
        for block, knot in zip(spec.coeffs.blocks, spec.coeffs.knots)
    )
    return ValidatedModel(spec, grams)


# ---------------------------------------------------------------------------
# Model file format (JSON): keys n, m, d, theta, horizon_years, x0 and either
# a "constant" coefficient block or "piecewise": {"knots": [...], "blocks": [...]}.
# Matrices are row-major arrays of arrays.
# ---------------------------------------------------------------------------

def _block_to_json(block: CoefficientBlock) -> dict:
    out = {}
    for name in _COEFF_SHAPES:
        value = getattr(block, name)
        out[name] = float(value) if name == "bench_drift" else np.asarray(value).tolist()
    return out


def _read(where: str, convert, value):
    """convert(value), with an unreadable value reported as a ParseError."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"model file: {where} is not readable: {exc}") from None


def _count(value) -> int:
    """A JSON integer (not a boolean)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    """A JSON number (not a boolean or a string) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _floats(value) -> np.ndarray:
    """A JSON number or nested lists of numbers as a float array."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        else:
            _number(item)
    return np.asarray(value, dtype=float)


def _block_from_json(data: dict, where: str) -> CoefficientBlock:
    if not isinstance(data, dict):
        raise DimensionMismatch(f"{where} must be an object")
    missing = [k for k in _COEFF_SHAPES if k not in data]
    if missing:
        raise DimensionMismatch(f"{where}: missing coefficient keys {missing}")
    return CoefficientBlock(**{
        k: _read(f"{where} '{k}'", _number if k == "bench_drift" else _floats, data[k])
        for k in _COEFF_SHAPES
    })


def model_to_dict(spec: ModelSpec) -> dict:
    out = {
        "n": spec.n,
        "m": spec.m,
        "d": spec.d,
        "theta": spec.theta,
        "horizon_years": spec.horizon_years,
        "x0": spec.x0.tolist(),
    }
    if len(spec.coeffs.blocks) == 1:
        out["constant"] = _block_to_json(spec.coeffs.blocks[0])
    else:
        out["piecewise"] = {
            "knots": spec.coeffs.knots.tolist(),
            "blocks": [_block_to_json(b) for b in spec.coeffs.blocks],
        }
    return out


def model_from_dict(data: dict) -> ModelSpec:
    if not isinstance(data, dict):
        raise DimensionMismatch("model file must hold a JSON object")
    for key in ("n", "m", "theta", "horizon_years", "x0"):
        if key not in data:
            raise DimensionMismatch(f"model file missing required key '{key}'")
    n, m = _read("'n'", _count, data["n"]), _read("'m'", _count, data["m"])
    d = _read("'d'", _count, data.get("d", n + m + 1))
    if "constant" in data:
        coeffs = CoefficientSet.constant(_block_from_json(data["constant"], "constant block"))
    elif "piecewise" in data:
        pw = data["piecewise"]
        if not (isinstance(pw, dict) and "knots" in pw and "blocks" in pw):
            raise DimensionMismatch("piecewise coefficients need 'knots' and 'blocks'")
        knots = _read("piecewise 'knots'", _floats, pw["knots"])
        blocks = tuple(
            _block_from_json(b, f"piecewise block {i}") for i, b in enumerate(pw["blocks"])
        )
        coeffs = CoefficientSet(knots=knots, blocks=blocks)
    else:
        raise DimensionMismatch("model file needs either 'constant' or 'piecewise' coefficients")
    return ModelSpec(
        n=n, m=m, d=d, coeffs=coeffs,
        horizon_years=_read("'horizon_years'", _number, data["horizon_years"]),
        theta=_read("'theta'", _number, data["theta"]),
        x0=_read("'x0'", _floats, data["x0"]),
    )


def save_model(spec: ModelSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(spec), indent=2, sort_keys=True) + "\n")


def load_model(path: str | Path) -> ModelSpec:
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not text
        raise ParseError(f"model file {path} is not valid JSON: {exc}") from None
    return model_from_dict(data)
