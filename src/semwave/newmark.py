"""Newmark time integration of M rho'' + B rho' + c0^2 K rho = f.

The implicit update solves the SPD effective system

    (M + gamma dt B + beta dt^2 c0^2 K) a^{k+1} = rhs

by matrix-free conjugate gradients with the diagonal preconditioner
diag(M + gamma dt B).  With beta = 0 the update is explicit: M and B
are diagonal so no linear solve is needed.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .assembly import AssembledOperators
from .space import SpectralField, basis_rows, write_vtk


class SolverError(Exception):
    pass


@dataclass
class NewmarkConfig:
    dt: float
    t_final: float
    beta: float = 0.25
    gamma: float = 0.5
    cg_tol: float = 1e-10
    cg_maxiter: int = 1000
    snapshot_stride: int = 0
    probes: dict[str, tuple[float, float, float]] = field(default_factory=dict)

    def __post_init__(self):
        if self.dt <= 0 or self.t_final < self.dt:
            raise ValueError("need dt > 0 and t_final >= dt")
        if not (0.0 <= self.beta <= 0.5 and 0.0 <= self.gamma <= 1.0):
            raise ValueError("Newmark parameters out of range: 0<=beta<=1/2, 0<=gamma<=1")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"t_final = {self.t_final!r} is not a whole number of steps dt = {self.dt!r}")

    @property
    def num_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class WaveState:
    rho: np.ndarray
    vel: np.ndarray
    acc: np.ndarray
    t: float
    step: int


def pcg(apply_a, b, precond_diag, tol, maxiter):
    """Preconditioned CG for SPD systems; returns (x, iterations).

    Raises SolverError when the relative residual does not reach tol.
    """
    x = np.zeros_like(b)
    r = b.copy()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return x, 0
    z = r / precond_diag
    p = z.copy()
    rz = r @ z
    for it in range(1, maxiter + 1):
        ap = apply_a(p)
        alpha = rz / (p @ ap)
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol * bnorm:
            return x, it
        z = r / precond_diag
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError(
        f"CG did not converge in {maxiter} iterations "
        f"(relative residual {np.linalg.norm(r) / bnorm:.3e})"
    )


def initial_acceleration(ops: AssembledOperators, rho0, v0, f0) -> np.ndarray:
    """a0 = M^-1 (f0 - B v0 - c0^2 K rho0), the PDE residual at t=0."""
    return (f0 - ops.damping * v0 - ops.c0**2 * ops.stiffness(rho0)) / ops.mass


def newmark_step(
    state: WaveState, ops: AssembledOperators, load_next: np.ndarray, cfg: NewmarkConfig, diag=None
) -> WaveState:
    """Advance one step; load_next is the load vector at t^{k+1}.  diag is the
    step-independent M + gamma dt B, made here when not given.

    The new state's rho, vel and acc are the predictor and right-hand-side
    buffers, updated in place in the operation order of the textbook update,
    so results are bitwise those of the out-of-place formulas; state is left
    unchanged."""
    dt, beta, gamma = cfg.dt, cfg.beta, cfg.gamma
    c2 = ops.c0**2
    if diag is None:
        diag = ops.mass + gamma * dt * ops.damping
    rho = np.multiply(dt, state.vel)  # predictor rho + dt v + (1/2 - beta) dt^2 a
    rho += state.rho
    work = np.empty_like(rho)
    rho += np.multiply((0.5 - beta) * dt**2, state.acc, out=work)
    vel = np.multiply((1.0 - gamma) * dt, state.acc)  # predictor v + (1 - gamma) dt a
    vel += state.vel
    rhs = np.multiply(ops.damping, vel)  # rhs = f - B v_pred - c0^2 K rho_pred
    np.subtract(load_next, rhs, out=rhs)
    rhs -= np.multiply(c2, ops.stiffness(rho), out=work)
    if beta == 0.0:
        acc = np.divide(rhs, diag, out=rhs)
    else:

        def apply_eff(u):
            return diag * u + beta * dt**2 * c2 * ops.stiffness(u)

        acc, _ = pcg(apply_eff, rhs, diag, cfg.cg_tol, cfg.cg_maxiter)
    rho += np.multiply(beta * dt**2, acc, out=work)
    vel += np.multiply(gamma * dt, acc, out=work)
    return WaveState(rho, vel, acc, state.t + dt, state.step + 1)


def discrete_energy(state: WaveState, ops: AssembledOperators) -> float:
    """0.5 v^T M v + 0.5 c0^2 rho^T K rho."""
    return float(
        0.5 * state.vel @ (ops.mass * state.vel)
        + 0.5 * ops.c0**2 * state.rho @ ops.stiffness(state.rho)
    )


@dataclass
class RunResult:
    times: np.ndarray
    probe_names: list[str]
    probe_values: np.ndarray  # (nsteps+1, nprobes)
    final: WaveState
    snapshot_files: list[str] = field(default_factory=list)


def run(
    space,
    ops: AssembledOperators,
    loads,
    cfg: NewmarkConfig,
    initial=None,
    out_dir=None,
    run_name: str = "run",
) -> RunResult:
    """Time-march from t=0 to t_final.

    loads: callable step index k -> load vector at t^k (length ndof).
    initial: optional (rho0, v0) coefficient vectors, default zero.
    Snapshots are written as VTK when snapshot_stride > 0 and out_dir given.
    """
    n = space.ndof
    rho0 = np.zeros(n) if initial is None else np.asarray(initial[0], dtype=float)
    v0 = np.zeros(n) if initial is None else np.asarray(initial[1], dtype=float)
    if rho0.shape != (n,) or v0.shape != (n,) or not np.all(np.isfinite([rho0, v0])):
        raise ValueError("initial state must be finite vectors of length ndof")
    state = WaveState(rho0, v0, initial_acceleration(ops, rho0, v0, loads(0)), 0.0, 0)

    # each probe reads its element's DOFs weighted by the basis at its point
    names = list(cfg.probes)
    elem, xi = space.mesh.locate_points(np.asarray(list(cfg.probes.values()) or np.empty((0, 3)), dtype=float))
    if np.any(elem < 0):
        name = names[int(np.argmax(elem < 0))]
        raise ValueError(f"probe {name!r} at {cfg.probes[name]} is outside the mesh")
    probe_dofs, probe_basis = space.emap[elem], basis_rows(space, xi)

    nsteps = cfg.num_steps
    times = np.empty(nsteps + 1)
    values = np.empty((nsteps + 1, len(names)))
    snapshots: list[str] = []

    def record(k, st):
        times[k] = st.t
        values[k] = np.sum(probe_basis * st.rho[probe_dofs], axis=1)
        if cfg.snapshot_stride > 0 and out_dir is not None and k % cfg.snapshot_stride == 0:
            path = Path(out_dir) / f"{run_name}_{k}.vtk"
            write_vtk(space, {"rho": SpectralField(space, st.rho)}, path)
            snapshots.append(str(path))

    record(0, state)
    diag = ops.mass + cfg.gamma * cfg.dt * ops.damping
    for k in range(nsteps):
        load_next = np.asarray(loads(k + 1), dtype=float)
        if not np.all(np.isfinite(load_next)):
            # a non-finite load makes the whole step non-finite; report it
            # before it reaches the linear solver
            raise SolverError(f"non-finite solution first detected at step {k + 1}")
        state = newmark_step(state, ops, load_next, cfg, diag)
        if not np.all(np.isfinite(state.rho)):
            raise SolverError(f"non-finite solution first detected at step {state.step}")
        record(k + 1, state)
    return RunResult(times, names, values, state, snapshots)


def write_csv(path: Path, header, rows) -> Path:
    """header, then rows, with each float written to 12 significant digits."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)
    return path


def write_probe_csv(result: RunResult, path):
    """One row per step: the time, then each probe's value."""
    write_csv(path, ["time"] + result.probe_names, np.column_stack([result.times, result.probe_values]).tolist())
