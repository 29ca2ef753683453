import numpy as np
import pytest

from benchkelly import model as model_mod
from benchkelly.errors import (
    DimensionMismatch,
    NegativeTheta,
    NonfiniteState,
    NonpositiveHorizon,
    SingularCovariance,
    TimeOutOfRange,
)
from benchkelly.model import CoefficientBlock, CoefficientSet, ModelSpec, validate_model

from conftest import make_random_spec, make_scalar_spec


def test_minimal_model_valid():
    spec = ModelSpec.constant(
        n=1, m=1, d=3, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_vol=[[0.2, 0.0, 0.0]],
    )
    vm = validate_model(spec)
    assert vm.n == 1 and vm.m == 1 and vm.d == 3


def test_zero_vol_rejected():
    spec = ModelSpec.constant(n=1, m=1, d=3, horizon_years=1.0, theta=1.0, x0=[0.0])
    with pytest.raises(SingularCovariance) as err:
        validate_model(spec)
    assert "t=0" in str(err.value)


def test_experiment_scale_dimensions_valid():
    # 13 assets on 6 factors with d = m + n + 1, as in a full-scale run
    rng = np.random.default_rng(0)
    spec = make_random_spec(rng, theta=1.0, n=6, m=13, d=20, horizon=5.0)
    vm = validate_model(spec)
    assert vm.d == 20 and vm.horizon == 5.0


def test_dimension_mismatch_detected():
    spec = ModelSpec.constant(
        n=2, m=1, d=3, horizon_years=1.0, theta=1.0, x0=[0.0, 0.0],
        asset_vol=[[0.2, 0.0, 0.0]],
    )
    bad = ModelSpec(
        n=2, m=1, d=3,
        coeffs=CoefficientSet.constant(
            spec.coeffs.blocks[0].replace(factor_vol=np.zeros((1, 3)))
        ),
        horizon_years=1.0, theta=1.0, x0=np.zeros(2),
    )
    with pytest.raises(DimensionMismatch):
        validate_model(bad)


def test_d_less_than_m_rejected():
    spec = ModelSpec.constant(n=1, m=2, d=1, horizon_years=1.0, theta=1.0, x0=[0.0],
                              asset_vol=[[0.2], [0.1]])
    with pytest.raises(DimensionMismatch):
        validate_model(spec)


@pytest.mark.parametrize("horizon,theta,err", [
    (0.0, 1.0, NonpositiveHorizon),
    (-2.0, 1.0, NonpositiveHorizon),
    (1.0, -0.5, NegativeTheta),
    (float("nan"), 1.0, NonfiniteState),
    (float("inf"), 1.0, NonfiniteState),
    (1.0, float("nan"), NonfiniteState),
])
def test_scalar_parameter_guards(horizon, theta, err):
    spec = ModelSpec.constant(
        n=1, m=1, d=1, horizon_years=horizon, theta=theta, x0=[0.0],
        asset_vol=[[0.2]],
    )
    with pytest.raises(err):
        validate_model(spec)


def test_gram_blocks_hand_values():
    # Sigma = [0.2, 0, 0], Lambda = [0, 0.1, 0], Xi = (0, 0, 0.05)
    spec = ModelSpec.constant(
        n=1, m=1, d=3, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_vol=[[0.2, 0.0, 0.0]],
        factor_vol=[[0.0, 0.1, 0.0]],
        bench_vol=[0.0, 0.0, 0.05],
    )
    gram = validate_model(spec).gram_blocks(0.5)
    assert gram.ss[0, 0] == pytest.approx(0.04, abs=1e-15)
    assert gram.sl[0, 0] == 0.0
    assert gram.s_xi[0] == 0.0
    assert gram.l_xi[0] == 0.0
    assert gram.xi_xi == pytest.approx(0.0025, abs=1e-15)


def test_gram_blocks_zero_benchmark_noise():
    spec = ModelSpec.constant(
        n=1, m=1, d=3, horizon_years=1.0, theta=1.0, x0=[0.0],
        asset_vol=[[0.2, 0.0, 0.0]], factor_vol=[[0.0, 0.1, 0.0]],
    )
    gram = validate_model(spec).gram_blocks(0.0)
    assert gram.xi_xi == 0.0
    assert np.all(gram.s_xi == 0.0) and np.all(gram.l_xi == 0.0)


def test_ss_inverse_against_numpy():
    # the Cholesky solve applies (SS')^-1 to a vector and to a matrix
    rng = np.random.default_rng(3)
    spec = make_random_spec(rng, m=3, d=6, n=1)
    gram = validate_model(spec).gram_blocks(0.0)
    for rhs in (rng.standard_normal(3), rng.standard_normal((3, 4)), np.eye(3)):
        assert np.abs(gram.ss_solve(rhs) - np.linalg.solve(gram.ss, rhs)).max() < 1e-10
    assert np.abs(gram.ss @ gram.ss_solve(np.eye(3)) - np.eye(3)).max() < 1e-10


def test_projection_hand_values_scalar():
    spec = ModelSpec.constant(
        n=1, m=1, d=1, horizon_years=1.0, theta=1.0, x0=[0.0], asset_vol=[[1.0]],
    )
    proj = validate_model(spec).projection_matrices(0.0)
    assert proj.pplus[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert proj.pminus[0, 0] == pytest.approx(0.5, abs=1e-15)


def test_projection_theta_zero_identity():
    rng = np.random.default_rng(5)
    vm = validate_model(make_random_spec(rng, theta=0.0, m=2, d=5))
    proj = vm.projection_matrices(0.0)
    assert np.array_equal(proj.pplus, np.eye(vm.d))
    assert np.array_equal(proj.pminus, np.eye(vm.d))


def test_projection_inverse_oracle():
    rng = np.random.default_rng(7)
    vm = validate_model(make_random_spec(rng, m=2, d=5, theta=0.7))
    proj = vm.projection_matrices(0.3)
    assert np.abs(proj.pminus - np.linalg.inv(proj.pplus)).max() < 1e-12


@pytest.mark.parametrize("theta", [0.0, 0.1, 1.0, 10.0])
def test_projection_pair_properties(theta):
    rng = np.random.default_rng(int(theta * 10) + 1)
    vm = validate_model(make_random_spec(rng, theta=theta))
    proj = vm.projection_matrices(0.0)
    eye = np.eye(vm.d)
    assert np.abs(proj.pminus @ proj.pplus - eye).max() < 1e-12
    assert np.abs(proj.pplus - proj.pplus.T).max() < 1e-13
    assert np.abs(proj.pminus - proj.pminus.T).max() < 1e-13
    # Pplus >= I and Pminus <= I in the semidefinite order for theta >= 0
    assert np.linalg.eigvalsh(proj.pplus - eye)[0] >= -1e-12
    assert np.linalg.eigvalsh(eye - proj.pminus)[0] >= -1e-12


def test_projector_idempotent():
    rng = np.random.default_rng(11)
    vm = validate_model(make_random_spec(rng, m=4, d=9, theta=1.0))
    sigma = vm.coefficients(0.0).asset_vol
    gram = vm.gram_blocks(0.0)
    pi = sigma.T @ gram.ss_solve(sigma)
    assert np.abs(pi @ pi - pi).max() < 1e-10


def test_piecewise_segment_lookup_and_caching():
    b0 = CoefficientBlock.zeros(1, 1, 1).replace(asset_vol=[[0.2]], asset_drift=[0.04])
    b1 = b0.replace(asset_drift=[0.08], asset_vol=[[0.3]])
    spec = ModelSpec(
        n=1, m=1, d=1,
        coeffs=CoefficientSet(knots=np.array([0.0, 0.5]), blocks=(b0, b1)),
        horizon_years=1.0, theta=1.0, x0=np.zeros(1),
    )
    vm = validate_model(spec)
    # bit-identical (same object) within a segment, different across the knot
    assert vm.gram_blocks(0.1) is vm.gram_blocks(0.49)
    assert vm.gram_blocks(0.5) is vm.gram_blocks(0.9)
    assert vm.gram_blocks(0.1) is not vm.gram_blocks(0.6)
    assert vm.coefficients(0.6).asset_drift[0] == 0.08


def test_segment_indices_is_one_lookup_of_many_times():
    b0 = CoefficientBlock.zeros(1, 1, 1).replace(asset_vol=[[0.2]])
    spec = ModelSpec(
        n=1, m=1, d=1,
        coeffs=CoefficientSet(knots=np.array([0.0, 0.5]), blocks=(b0, b0)),
        horizon_years=1.0, theta=1.0, x0=np.zeros(1),
    )
    vm = validate_model(spec)
    times = np.array([0.0, 0.1, 0.49, 0.5, 0.9, 1.0])
    assert vm.segment_indices(times).tolist() == [0, 0, 0, 1, 1, 1]
    assert [vm.segment_index(t) for t in times.tolist()] == [0, 0, 0, 1, 1, 1]
    # the error names the first time outside [0, horizon], NaN included
    with pytest.raises(TimeOutOfRange, match=r"^time 1\.5 outside \[0, 1\]$"):
        vm.segment_indices([0.2, 1.5, -0.1])
    with pytest.raises(TimeOutOfRange, match=r"^time -0\.1 outside"):
        vm.segment_indices([0.2, -0.1, 1.5])
    with pytest.raises(TimeOutOfRange, match=r"^time nan outside"):
        vm.segment_indices([0.2, float("nan")])


@pytest.mark.parametrize("name,value", [
    ("asset_drift", [float("nan")]),
    ("asset_vol", [[float("inf")]]),
    ("factor_mean_reversion", [[-float("inf")]]),
    ("bench_drift", float("nan")),
])
def test_nonfinite_coefficient_rejected(name, value):
    b0 = make_scalar_spec().coeffs.blocks[0]
    spec = ModelSpec(
        n=1, m=1, d=1,
        coeffs=CoefficientSet(knots=np.array([0.0, 0.5]), blocks=(b0, b0.replace(**{name: value}))),
        horizon_years=1.0, theta=1.0, x0=np.zeros(1),
    )
    with pytest.raises(NonfiniteState) as err:
        validate_model(spec)
    assert f"'{name}' in block 1" in str(err.value)


def test_nan_knot_rejected():
    b0 = make_scalar_spec().coeffs.blocks[0]
    spec = ModelSpec(
        n=1, m=1, d=1, coeffs=CoefficientSet(knots=np.array([0.0, np.nan]), blocks=(b0, b0)),
        horizon_years=1.0, theta=1.0, x0=np.zeros(1),
    )
    with pytest.raises(DimensionMismatch):
        validate_model(spec)


def test_nonfinite_x0_rejected():
    spec = ModelSpec.constant(n=1, m=1, d=1, horizon_years=1.0, theta=1.0,
                              x0=[float("nan")], asset_vol=[[0.2]])
    with pytest.raises(NonfiniteState) as err:
        validate_model(spec)
    assert "'x0'" in str(err.value)


def test_time_out_of_range():
    spec = make_random_spec(np.random.default_rng(2))
    vm = validate_model(spec)
    with pytest.raises(TimeOutOfRange):
        vm.gram_blocks(1.5)
    with pytest.raises(TimeOutOfRange):
        vm.gram_blocks(-0.1)


def test_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    spec = make_random_spec(rng, m=2, d=4, n=2)
    path = tmp_path / "model.json"
    model_mod.save_model(spec, path)
    loaded = model_mod.load_model(path)
    assert loaded.n == spec.n and loaded.m == spec.m and loaded.d == spec.d
    assert loaded.theta == spec.theta and loaded.horizon_years == spec.horizon_years
    assert np.array_equal(loaded.x0, spec.x0)
    for name in ("asset_drift", "asset_vol", "factor_vol", "bench_vol"):
        assert np.array_equal(
            getattr(loaded.coeffs.blocks[0], name),
            getattr(spec.coeffs.blocks[0], name),
        )


def test_model_file_piecewise_round_trip(tmp_path):
    b0 = CoefficientBlock.zeros(1, 1, 2).replace(asset_vol=[[0.2, 0.0]])
    b1 = b0.replace(asset_vol=[[0.25, 0.0]])
    spec = ModelSpec(
        n=1, m=1, d=2,
        coeffs=CoefficientSet(knots=np.array([0.0, 2.0]), blocks=(b0, b1)),
        horizon_years=3.0, theta=0.5, x0=np.zeros(1),
    )
    path = tmp_path / "pw.json"
    model_mod.save_model(spec, path)
    loaded = model_mod.load_model(path)
    assert len(loaded.coeffs.blocks) == 2
    assert loaded.coeffs.at(2.5).asset_vol[0, 0] == 0.25


def test_model_file_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "m": 1}')
    with pytest.raises(DimensionMismatch):
        model_mod.load_model(path)
