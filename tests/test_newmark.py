"""Newmark integrator, PCG solver, discrete energy and the run loop."""

from dataclasses import dataclass

import numpy as np
import pytest

from semwave import build_space, generate_box_mesh
from semwave.assembly import assemble_operators
from semwave.newmark import (
    NewmarkConfig,
    RunResult,
    SolverError,
    WaveState,
    discrete_energy,
    initial_acceleration,
    newmark_step,
    pcg,
    run,
    write_probe_csv,
)

UNIT_BOX = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]


@dataclass
class ScalarOps:
    """1-DOF stand-in: M = 1, K = 1, no damping -> rho'' = -c0^2 rho."""

    mass: np.ndarray
    damping: np.ndarray
    c0: float = 1.0

    def stiffness(self, u):
        return u


def _scalar_ops():
    return ScalarOps(np.ones(1), np.zeros(1))


def _integrate_scalar(dt, t_final, beta=0.25, gamma=0.5):
    cfg = NewmarkConfig(dt=dt, t_final=t_final, beta=beta, gamma=gamma)
    ops = _scalar_ops()
    rho, v = np.array([1.0]), np.array([0.0])
    state = WaveState(rho, v, initial_acceleration(ops, rho, v, np.zeros(1)), 0.0, 0)
    for _ in range(cfg.num_steps):
        state = newmark_step(state, ops, np.zeros(1), cfg)
    return state


def test_scalar_surrogate_first_step():
    # frozen one-step value of the average-acceleration recurrence:
    # a1 (1 + dt^2/4) = -(rho0 + (1/2 - 1/4) dt^2 a0), rho1 = pred + dt^2 a1 / 4
    state = _integrate_scalar(0.1, 0.1)
    assert abs(state.rho[0] - 0.9950124688279302) < 1e-13
    assert abs(state.rho[0] - np.cos(0.1)) < 1e-4


def test_scalar_second_order_ratios():
    errors = []
    for dt in (0.1, 0.05, 0.025, 0.0125):
        state = _integrate_scalar(dt, 2.0)
        errors.append(abs(state.rho[0] - np.cos(2.0)))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    for ratio in ratios:
        assert 3.0 < ratio < 5.0


def test_zero_everything_stays_zero():
    cfg = NewmarkConfig(dt=0.1, t_final=1.0)
    ops = _scalar_ops()
    state = WaveState(np.zeros(1), np.zeros(1), np.zeros(1), 0.0, 0)
    for _ in range(cfg.num_steps):
        state = newmark_step(state, ops, np.zeros(1), cfg)
    assert state.rho[0] == 0.0 and state.vel[0] == 0.0


def test_explicit_path_matches_implicit_at_small_dt():
    imp = _integrate_scalar(1e-3, 0.1, beta=0.25)
    exp = _integrate_scalar(1e-3, 0.1, beta=0.0)
    assert abs(imp.rho[0] - exp.rho[0]) < 1e-6


def test_config_validation():
    with pytest.raises(ValueError):
        NewmarkConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        NewmarkConfig(dt=0.5, t_final=0.1)
    with pytest.raises(ValueError):
        NewmarkConfig(dt=0.1, t_final=1.0, beta=0.7)
    with pytest.raises(ValueError):
        NewmarkConfig(dt=0.1, t_final=1.0, gamma=-0.1)


def test_num_steps_rounding():
    assert NewmarkConfig(dt=0.1, t_final=1.0).num_steps == 10
    # t_final / dt off an integer only by float roundoff
    assert NewmarkConfig(dt=1e-5, t_final=5e-3).num_steps == 500


def test_t_final_not_multiple_of_dt_rejected():
    with pytest.raises(ValueError, match="whole number of steps"):
        NewmarkConfig(dt=0.002, t_final=0.0105)


# -- PCG ------------------------------------------------------------------


def test_pcg_against_dense_solve(rng):
    a = rng.standard_normal((30, 30))
    a = a @ a.T + 30 * np.eye(30)
    b = rng.standard_normal(30)
    x, its = pcg(lambda v: a @ v, b, np.diag(a), 1e-12, 200)
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-8)
    assert its <= 30


def test_pcg_zero_rhs():
    x, its = pcg(lambda v: v, np.zeros(5), np.ones(5), 1e-12, 10)
    assert its == 0 and np.all(x == 0.0)


def test_pcg_reports_residual_on_failure(rng):
    a = rng.standard_normal((20, 20))
    a = a @ a.T + 20 * np.eye(20)
    b = rng.standard_normal(20)
    with pytest.raises(SolverError, match="relative residual"):
        pcg(lambda v: a @ v, b, np.diag(a), 1e-14, 1)


# -- energy ---------------------------------------------------------------


def test_energy_conservation_small_mesh(rng):
    mesh = generate_box_mesh(UNIT_BOX, (2, 2, 2))
    space = build_space(mesh, 2)
    ops = assemble_operators(space, c0=1.0, rho0=1.0)
    cfg = NewmarkConfig(dt=1e-3, t_final=1.0, cg_tol=1e-13)
    rho = rng.standard_normal(space.ndof)
    vel = rng.standard_normal(space.ndof)
    state = WaveState(rho, vel, initial_acceleration(ops, rho, vel, np.zeros(space.ndof)), 0.0, 0)
    e0 = discrete_energy(state, ops)
    for _ in range(cfg.num_steps):
        state = newmark_step(state, ops, np.zeros(space.ndof), cfg)
    assert abs(discrete_energy(state, ops) - e0) / e0 < 1e-10


def test_energy_of_zero_state(cube2_space_r2):
    ops = assemble_operators(cube2_space_r2, c0=1.0, rho0=1.0)
    n = cube2_space_r2.ndof
    assert discrete_energy(WaveState(np.zeros(n), np.zeros(n), np.zeros(n), 0.0, 0), ops) == 0.0


def test_energy_constant_rho_is_kinetic_only(cube2_space_r2, rng):
    ops = assemble_operators(cube2_space_r2, c0=2.0, rho0=1.0)
    n = cube2_space_r2.ndof
    v = rng.standard_normal(n)
    state = WaveState(np.full(n, 3.0), v, np.zeros(n), 0.0, 0)
    expected = 0.5 * v @ (ops.mass * v)
    assert abs(discrete_energy(state, ops) - expected) < 1e-10 * expected


def test_energy_m_normalized_velocity(cube2_space_r2, rng):
    ops = assemble_operators(cube2_space_r2, c0=1.0, rho0=1.0)
    n = cube2_space_r2.ndof
    v = rng.standard_normal(n)
    v /= np.sqrt(v @ (ops.mass * v))
    state = WaveState(np.zeros(n), v, np.zeros(n), 0.0, 0)
    assert abs(discrete_energy(state, ops) - 0.5) < 1e-12


# -- run loop -------------------------------------------------------------


def test_run_zero_loads_zero_probes(cube2_space_r2):
    ops = assemble_operators(cube2_space_r2, c0=1.0, rho0=1.0)
    cfg = NewmarkConfig(dt=0.01, t_final=0.1, probes={"mid": (0.5, 0.5, 0.5)})
    result = run(cube2_space_r2, ops, lambda k: np.zeros(cube2_space_r2.ndof), cfg)
    assert result.probe_names == ["mid"]
    assert np.max(np.abs(result.probe_values)) == 0.0
    assert result.times[-1] == pytest.approx(0.1)


def test_run_probe_outside_mesh(cube2_space_r2):
    ops = assemble_operators(cube2_space_r2, c0=1.0, rho0=1.0)
    cfg = NewmarkConfig(dt=0.01, t_final=0.1, probes={"bad": (5.0, 0.5, 0.5)})
    with pytest.raises(ValueError, match="outside"):
        run(cube2_space_r2, ops, lambda k: np.zeros(cube2_space_r2.ndof), cfg)


def test_run_reports_nonfinite_step(cube2_space_r2):
    ops = assemble_operators(cube2_space_r2, c0=1.0, rho0=1.0)
    n = cube2_space_r2.ndof

    def loads(k):
        return np.full(n, np.nan) if k == 3 else np.zeros(n)

    cfg = NewmarkConfig(dt=0.01, t_final=0.1)
    with pytest.raises(SolverError, match="step 3"):
        run(cube2_space_r2, ops, loads, cfg)


def test_run_writes_snapshots(tmp_path, unit_space_r1):
    ops = assemble_operators(unit_space_r1, c0=1.0, rho0=1.0)
    cfg = NewmarkConfig(dt=0.01, t_final=0.05, snapshot_stride=2)
    result = run(unit_space_r1, ops, lambda k: np.zeros(unit_space_r1.ndof), cfg, out_dir=tmp_path)
    assert len(result.snapshot_files) == 3  # steps 0, 2, 4
    for path in result.snapshot_files:
        assert path.endswith(".vtk")
    from semwave.space import SpectralField
    from test_space import _write_vtk_oracle

    oracle = tmp_path / "oracle.vtk"
    _write_vtk_oracle(unit_space_r1, {"rho": SpectralField(unit_space_r1, result.final.rho)}, oracle)
    assert open(result.snapshot_files[-1], "rb").read() == oracle.read_bytes()


def test_probe_csv_roundtrip(tmp_path):
    result = RunResult(
        times=np.array([0.0, 0.1]),
        probe_names=["a", "b"],
        probe_values=np.array([[1.0, 2.0], [3.0, 4.0]]),
        final=None,
    )
    path = tmp_path / "probes.csv"
    write_probe_csv(result, path)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data, [[0.0, 1.0, 2.0], [0.1, 3.0, 4.0]])


def test_run_probes_match_evaluate(perturbed_mesh):
    """Recorded probe traces equal point evaluation of the marched field."""
    from semwave.space import SpectralField, evaluate, interpolate

    space = build_space(perturbed_mesh, 3)
    ops = assemble_operators(space, c0=1.0, rho0=1.0)
    probes = {"a": (0.25, 0.25, 0.75), "b": (1.2, 0.8, 0.3), "c": (0.7, 0.45, 0.55), "corner": (0.0, 0.0, 0.0)}
    cfg = NewmarkConfig(dt=0.01, t_final=0.05, probes=probes)
    rho0 = interpolate(space, lambda x, y, z: np.sin(2 * x) * np.cos(y) + z + 1.0).coeffs
    result = run(space, ops, lambda k: np.zeros(space.ndof), cfg, initial=(rho0, np.zeros(space.ndof)))
    for k, rho in ((0, rho0), (cfg.num_steps, result.final.rho)):
        expected = [evaluate(space, SpectralField(space, rho), np.array(x)) for x in probes.values()]
        np.testing.assert_allclose(result.probe_values[k], expected, rtol=1e-14, atol=1e-15)


def test_run_rejects_bad_initial_state(cube2_space_r2):
    ops = assemble_operators(cube2_space_r2, c0=1.0, rho0=1.0)
    n = cube2_space_r2.ndof
    cfg = NewmarkConfig(dt=0.01, t_final=0.05)
    for rho0 in (np.full(n, np.nan), np.zeros(n - 1)):
        with pytest.raises(ValueError, match="initial state"):
            run(cube2_space_r2, ops, lambda k: np.zeros(n), cfg, initial=(rho0, np.zeros(n)))


@pytest.mark.parametrize("beta", [0.0, 0.25])
def test_run_matches_stepping_without_a_precomputed_diagonal(rng, beta):
    """run() hands newmark_step the diagonal it computes once; stepping
    without it gives the same states bit for bit."""
    mesh = generate_box_mesh(UNIT_BOX, (2, 1, 1))
    space = build_space(mesh, 2)
    ops = assemble_operators(space, c0=1.0, rho0=1.0, impedance={"xmin": 2.0, "ymax": 0.5})
    cfg = NewmarkConfig(dt=1e-3, t_final=2e-2, beta=beta)
    rho, vel = rng.standard_normal(space.ndof), rng.standard_normal(space.ndof)
    loads = lambda k: np.full(space.ndof, np.sin(k * cfg.dt))  # noqa: E731
    final = run(space, ops, loads, cfg, initial=(rho, vel)).final
    state = WaveState(rho, vel, initial_acceleration(ops, rho, vel, loads(0)), 0.0, 0)
    for k in range(cfg.num_steps):
        state = newmark_step(state, ops, loads(k + 1), cfg)
    for got, want in ((final.rho, state.rho), (final.vel, state.vel), (final.acc, state.acc)):
        np.testing.assert_array_equal(got, want)


def _textbook_step(state, ops, load_next, cfg):
    """The out-of-place Newmark update, formula by formula."""
    dt, beta, gamma, c2 = cfg.dt, cfg.beta, cfg.gamma, ops.c0**2
    rho_pred = state.rho + dt * state.vel + (0.5 - beta) * dt**2 * state.acc
    v_pred = state.vel + (1.0 - gamma) * dt * state.acc
    rhs = load_next - ops.damping * v_pred - c2 * ops.stiffness(rho_pred)
    diag = ops.mass + gamma * dt * ops.damping
    if beta == 0.0:
        acc = rhs / diag
    else:
        acc, _ = pcg(lambda u: diag * u + beta * dt**2 * c2 * ops.stiffness(u), rhs, diag, cfg.cg_tol, cfg.cg_maxiter)
    return rho_pred + beta * dt**2 * acc, v_pred + gamma * dt * acc, acc


@pytest.mark.parametrize("beta", [0.0, 0.25])
def test_step_matches_textbook_update_and_keeps_input(rng, beta):
    """The in-place step gives the out-of-place formulas' states bit for bit
    and leaves the state it was given unchanged."""
    space = build_space(generate_box_mesh(UNIT_BOX, (2, 1, 1)), 2)
    ops = assemble_operators(space, c0=1.3, rho0=1.0, impedance={"xmin": 2.0, "ymax": 0.5})
    cfg = NewmarkConfig(dt=0.5, t_final=2.0, beta=beta)  # a large dt: every term moves the sums' roundoff
    state = WaveState(*rng.standard_normal((3, space.ndof)), 0.25, 4)
    before = [state.rho.copy(), state.vel.copy(), state.acc.copy()]
    load = rng.standard_normal(space.ndof)
    new = newmark_step(state, ops, load, cfg)
    for got, want in zip((new.rho, new.vel, new.acc), _textbook_step(state, ops, load, cfg)):
        np.testing.assert_array_equal(got, want)
    for got, want in zip((state.rho, state.vel, state.acc), before):
        np.testing.assert_array_equal(got, want)
    assert (new.t, new.step) == (0.25 + cfg.dt, 5)
    given = (state.rho, state.vel, state.acc, load)
    assert not any(np.shares_memory(a, b) for a in (new.rho, new.vel, new.acc) for b in given)
