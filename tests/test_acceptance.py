"""End-to-end acceptance gate.

Each test exercises one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (on the real stdout, past pytest's
capture) before asserting.  The criteria are deliberately run at the
configurations frozen in the repository's verification experiments; see
the individual docstrings for the measured reference values.
"""

import json
import time

import numpy as np

from semwave import build_space, generate_box_mesh
from semwave import cli
from semwave.assembly import assemble_convective, assemble_operators
from semwave.curle import ForceHistory, curle_pressure, psd
from semwave.fvsource import generate_box_fv, lighthill_divergence, sample_velocity
from semwave.newmark import (
    NewmarkConfig,
    WaveState,
    discrete_energy,
    initial_acceleration,
    newmark_step,
)
from semwave.projection import aeroacoustic_load, build_projection

UNIT_BOX = [(0.0, 1.0), (0.0, 1.0), (0.0, 1.0)]


def _report(capsys, k: int, passed: bool, detail: str) -> None:
    line = f"CRITERION {k}: {'PASS' if passed else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert passed, line


# -- 1. spatial (h-) convergence ------------------------------------------


def test_criterion_01_spatial_convergence(capsys):
    """MMS sweep on 4^3/8^3/16^3 cubes, r=1..3, dt=1e-4, T=0.05: error
    monotone in h and observed order between the two finest meshes
    >= r+0.6 (measured 1.63 / 2.81 / 4.07)."""
    t0 = time.perf_counter()
    cfg = NewmarkConfig(dt=1e-4, t_final=0.05)
    ok = True
    details = []
    for r in (1, 2, 3):
        errs = [cli.mms_single(n, r, cfg)[0] for n in (4, 8, 16)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        monotone = errs[0] > errs[1] > errs[2]
        ok = ok and monotone and orders[-1] >= r + 0.6
        details.append(f"r={r} orders={orders[0]:.2f}/{orders[1]:.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    _report(capsys, 1, ok, ", ".join(details) + f", {elapsed:.0f}s")


# -- 11. h-convergence on curved elements ---------------------------------


def _warped_box_mesh(bounds, divisions):
    """The generated box with x += 0.08 s and y += 0.04 s, s = sin(pi x) sin(pi y)
    sin(pi z): every interior element is curved and the unit cube's boundary stays."""
    from semwave.mesh import HexMesh

    box = generate_box_mesh(bounds, divisions)
    v = box.vertices.copy()
    s = np.prod(np.sin(np.pi * v), axis=1)
    v[:, 0] += 0.08 * s
    v[:, 1] += 0.04 * s
    return HexMesh(v, box.elements, box.boundary)


def test_criterion_11_curved_spatial_convergence(capsys, monkeypatch):
    """Criterion 1's MMS sweep on the unit cube warped by _warped_box_mesh,
    r = 1 and 2, the degrees whose curved stiffness is assembled: error
    monotone in h and observed order between the two finest meshes
    >= r+0.6 (measured 1.48/1.63 and 2.14/2.76)."""
    monkeypatch.setattr(cli, "generate_box_mesh", _warped_box_mesh)
    t0 = time.perf_counter()
    cfg = NewmarkConfig(dt=1e-4, t_final=0.05)
    ok = True
    details = []
    for r in (1, 2):
        errs = [cli.mms_single(n, r, cfg)[0] for n in (4, 8, 16)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        ok = ok and errs[0] > errs[1] > errs[2] and orders[-1] >= r + 0.6
        details.append(f"r={r} orders={orders[0]:.2f}/{orders[1]:.2f}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    _report(capsys, 11, ok, ", ".join(details) + f", {elapsed:.0f}s")


# -- 2. spectral (p-) convergence -----------------------------------------


def test_criterion_02_spectral_convergence(capsys):
    """Fixed 4^3 mesh, r=1..5, dt=1e-5, T=0.02: E2 (measured with
    over-integrated quadrature so the norm resolves the between-node
    error at every r) decreases monotonically and by >= 5x per unit r
    (measured drops 11.2 / 8.7 / 12.5 / 9.4)."""
    t0 = time.perf_counter()
    cfg = NewmarkConfig(dt=1e-5, t_final=0.02)
    errs = [cli.mms_single(4, r, cfg, points=10)[0] for r in (1, 2, 3, 4, 5)]
    drops = [errs[i] / errs[i + 1] for i in range(4)]
    floor = min(errs)
    ok = True
    for i, d in enumerate(drops):
        if errs[i] <= 10.0 * floor:
            break  # remaining pairs sit at the error floor
        ok = ok and d >= 5.0 and errs[i + 1] < errs[i]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _report(capsys, 2, ok, "drops=" + "/".join(f"{d:.1f}" for d in drops) + f", {elapsed:.0f}s")


# -- 3. Newmark temporal order --------------------------------------------


class _ScalarOps:
    """rho'' + rho = 0 surrogate: M = 1, B = 0, K = identity, c0 = 1."""

    mass = np.ones(1)
    damping = np.zeros(1)
    c0 = 1.0

    @staticmethod
    def stiffness(u):
        return u


def test_criterion_03_newmark_second_order(capsys):
    """Scalar cosine problem, dt halved three times from 0.1: consecutive
    error ratios within [3, 5] (measured ~4.0)."""
    t0 = time.perf_counter()
    errors = []
    for halvings in range(4):
        dt = 0.1 / 2**halvings
        cfg = NewmarkConfig(dt=dt, t_final=2.0)
        state = WaveState(
            np.ones(1), np.zeros(1),
            initial_acceleration(_ScalarOps, 1.0, np.zeros(1), np.zeros(1)),
            0.0, 0,
        )
        for _ in range(cfg.num_steps):
            state = newmark_step(state, _ScalarOps, np.zeros(1), cfg)
        errors.append(abs(state.rho[0] - np.cos(state.t)))
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    elapsed = time.perf_counter() - t0
    ok = all(3.0 <= q <= 5.0 for q in ratios) and elapsed < 1.0
    _report(capsys, 3, ok, "ratios=" + "/".join(f"{q:.2f}" for q in ratios) + f", {elapsed:.2f}s")


# -- 4. discrete energy conservation --------------------------------------


def test_criterion_04_energy_conservation(capsys):
    """f=0, B=0, beta=1/4, gamma=1/2, random data, 8^3 r=2 mesh, 1000
    steps: relative energy drift <= 1e-9 (measured 1.6e-15)."""
    t0 = time.perf_counter()
    mesh = generate_box_mesh(UNIT_BOX, (8, 8, 8))
    space = build_space(mesh, 2)
    ops = assemble_operators(space, c0=1.0, rho0=1.0)
    cfg = NewmarkConfig(dt=1e-3, t_final=1.0, cg_tol=1e-12)
    rng = np.random.default_rng(42)
    rho = rng.standard_normal(space.ndof)
    vel = rng.standard_normal(space.ndof)
    zero = np.zeros(space.ndof)
    state = WaveState(rho, vel, initial_acceleration(ops, rho, vel, zero), 0.0, 0)
    e0 = discrete_energy(state, ops)
    drift = 0.0
    for _ in range(cfg.num_steps):
        state = newmark_step(state, ops, zero, cfg)
        drift = max(drift, abs(discrete_energy(state, ops) - e0) / e0)
    elapsed = time.perf_counter() - t0
    ok = drift <= 1e-9 and elapsed < 120.0
    _report(capsys, 4, ok, f"relative drift={drift:.2e}, {elapsed:.0f}s")


# -- 5. impedance absorption ----------------------------------------------


def test_criterion_05_impedance_absorption(tmp_path, capsys):
    """Duct with Z = rho0 c0 on the outflow: reflected amplitude at the
    mid-duct probe < 2% of the incident pulse (measured 0.04%)."""
    t0 = time.perf_counter()
    rho0, c0 = 1.204, 343.0
    cfg = {
        "version": "1", "rho0": rho0, "c0": c0, "degree": 2,
        "mesh": {"generator": {"box": [[0, 1], [0, 0.1], [0, 0.1]], "div": [50, 5, 5]}},
        "time": {"dt": 5e-6, "t_final": 4e-3, "beta": 0.0, "gamma": 0.5},
        "impedance": {"xmax": rho0 * c0},
        "initial": {"type": "gaussian_plane", "axis": 0, "center": 0.3, "sigma": 0.05, "direction": 1.0},
        "probes": {"mid": [0.5, 0.05, 0.05]},
    }
    result, _ = cli.run_solve(cfg, tmp_path)
    t = result.times
    p = np.abs(result.probe_values[:, 0])
    incident = p[t < 1.5e-3].max()
    reflected = p[t > 2.8e-3].max()
    ratio = reflected / incident
    elapsed = time.perf_counter() - t0
    ok = ratio < 0.02 and elapsed < 300.0
    _report(capsys, 5, ok, f"reflection ratio={ratio:.2e}, {elapsed:.0f}s")


# -- 6. reverberant box stationarity --------------------------------------


def test_criterion_06_noise_box(tmp_path, capsys):
    """Scaled reverberant box (T=0.1 s, Z=32206 walls, 162 Hz monopole):
    moving-RMS of probe A changes < 10% over the final 20% (measured
    5.8%) and the dominant PSD peak of the stationary-window pressure
    fluctuation lies within one frequency bin of 162 Hz (measured
    170.9 Hz at 24.4 Hz bins)."""
    t0 = time.perf_counter()
    z_wall = 32206.0
    f_src = 162.0
    dt = 5e-6
    cfg = {
        "version": "1", "rho0": 1.204, "c0": 343.0, "degree": 2,
        "mesh": {"generator": {"box": [[0, 1.4], [0, 1.19], [0, 0.825]], "div": [18, 15, 10]}},
        "time": {"dt": dt, "t_final": 0.1, "beta": 0.0, "gamma": 0.5},
        "impedance": {t: z_wall for t in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")},
        "source": {"type": "monopole", "position": [1.15, 0.595, 0.065], "frequency": f_src},
        "probes": {"A": [0.424, 0.595, 0.151], "B": [0.9, 0.224, 0.528]},
    }
    result, _ = cli.run_solve(cfg, tmp_path)
    pa = result.probe_values[:, 0]
    n = pa.size

    # stationarity: two-period moving RMS over the final fifth of the run
    win = int(round((2.0 / f_src) / dt))
    rms = np.sqrt(np.convolve(pa**2, np.ones(win) / win, mode="valid"))
    tail = rms[int(0.8 * len(rms)):]
    change = (tail.max() - tail.min()) / tail.mean()

    # tonal peak: fluctuation (mean removed) over the stationary second half
    x = pa[n // 2:]
    freq, pxx = psd(x - x.mean(), dt, 8192)
    df = freq[1] - freq[0]
    peak = freq[np.argmax(pxx)]
    elapsed = time.perf_counter() - t0
    ok = change < 0.10 and abs(peak - f_src) <= df and elapsed < 1200.0
    _report(capsys, 6, ok, f"rms change={change:.3f}, peak={peak:.1f}Hz (bin {df:.1f}Hz), {elapsed:.0f}s")


# -- 7. FV source accuracy ------------------------------------------------


def test_criterion_07_fv_source_accuracy(capsys):
    """u=(x,-y,0) on 8^3/16^3/32^3 meshes: max-norm error against the
    analytic divergence (x,y,0) at roundoff (the face reconstruction is
    exact for linear fields) or decreasing at order >= 1.8; constant u
    gives exactly zero to 1e-10."""
    t0 = time.perf_counter()
    errs = []
    for n in (8, 16, 32):
        fv = generate_box_fv(UNIT_BOX, (n, n, n))
        u = sample_velocity(fv, lambda x, y, z: (x, -y, np.zeros_like(z)))
        div = lighthill_divergence(fv, u, rho0=1.0)
        exact = np.stack([fv.centers[:, 0], fv.centers[:, 1], np.zeros(fv.num_cells)], axis=1)
        errs.append(np.max(np.abs(div.values - exact)))
    at_floor = max(errs) < 1e-12
    orders_ok = at_floor or all(np.log2(errs[i] / errs[i + 1]) >= 1.8 for i in range(2))
    elapsed = time.perf_counter() - t0
    ok = orders_ok and elapsed < 60.0
    _report(capsys, 7, ok, f"max errors={errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e}, {elapsed:.0f}s")


def test_criterion_07b_fv_constant_field(capsys):
    fv = generate_box_fv(UNIT_BOX, (8, 8, 8))
    u = sample_velocity(fv, lambda x, y, z: (np.full_like(x, 1.7), np.full_like(y, -0.4), np.full_like(z, 0.9)))
    div = lighthill_divergence(fv, u, rho0=1.204)
    assert np.max(np.abs(div.values)) <= 1e-10


# -- 8. projection conservation and exactness -----------------------------


def test_criterion_08_projection_conservation(capsys):
    """Constant donor reproduced to <= 1e-3 relative at default sampling
    and <= 1e-9 on aligned meshes; transferred-mass identity to CG
    tolerance; column sums match cell volumes within 0.5%."""
    t0 = time.perf_counter()
    # aligned: FV cells coincide with the elements
    mesh = generate_box_mesh(UNIT_BOX, (2, 2, 2))
    space1 = build_space(mesh, 1)
    fv_al = generate_box_fv(UNIT_BOX, (2, 2, 2))
    proj_al = build_projection(space1, fv_al, cg_tol=1e-13)
    err_al = np.max(np.abs(proj_al.project(np.full(8, 3.0)).coeffs - 3.0)) / 3.0

    # unaligned at default sampling
    space2 = build_space(mesh, 2)
    fv_un = generate_box_fv(UNIT_BOX, (5, 5, 5))
    proj_un = build_projection(space2, fv_un)
    err_un = np.max(np.abs(proj_un.project(np.ones(125)).coeffs - 1.0))

    # mass identity and column-sum audit on a non-trivial field
    qf = fv_un.centers[:, 0] - 2.0 * fv_un.centers[:, 1]
    report = proj_un.conservation_report(fv_un, qf)
    mass_gap = abs(report["transferred_mass_fv"] - report["transferred_mass_acoustic"])
    mass_ok = mass_gap <= 1e-8 * max(1.0, abs(report["transferred_mass_fv"]))
    col_ok = report["column_sum_max_rel_error"] < 5e-3

    elapsed = time.perf_counter() - t0
    ok = err_al <= 1e-9 and err_un <= 1e-3 and mass_ok and col_ok and elapsed < 120.0
    _report(capsys, 8, ok, f"aligned={err_al:.1e}, default={err_un:.1e}, "
                   f"mass gap={mass_gap:.1e}, colsum={report['column_sum_max_rel_error']:.1e}, {elapsed:.0f}s")


# -- 12. FV -> SEM load convergence in the FV cell size -------------------


def _swirl(x, y, z):
    return (np.sin(np.pi * x) * np.cos(np.pi * y), -np.cos(np.pi * x) * np.sin(np.pi * y),
            0.3 * np.sin(np.pi * z) * np.sin(np.pi * x))


def _swirl_lighthill(x, y, z):
    """div(u x u)_i = sum_j u_j d_j u_i + u_i div u of _swirl, in closed form."""
    sx, cx, sy, cy, sz, cz = (f(np.pi * c) for c in (x, y, z) for f in (np.sin, np.cos))
    zero = np.zeros_like(x)
    grad = np.pi * np.array([  # grad[i, j] = d_j u_i
        [cx * cy, -sx * sy, zero],
        [sx * sy, -cx * cy, zero],
        [0.3 * cx * sz, zero, 0.3 * sx * cz],
    ])
    u = np.stack(_swirl(x, y, z))
    return np.einsum("jn,ijn->in", u, grad) + u * np.trace(grad)


def test_criterion_12_fv_load_convergence(capsys):
    """The chain sample_velocity -> lighthill_divergence -> build_projection
    -> aeroacoustic_load for _swirl (rho0 = 1) on 8^3/16^3/32^3 FV cells over
    4^3 elements at r = 3, against aeroacoustic_load of the closed-form source
    at the GLL nodes: relative error falling, finest observed order >= 1.8
    (measured 0.373/0.102/0.0239, orders 1.88/2.09)."""
    t0 = time.perf_counter()
    space = build_space(generate_box_mesh(UNIT_BOX, (4, 4, 4)), 3)
    conv = assemble_convective(space)
    exact = aeroacoustic_load(conv, *_swirl_lighthill(*space.node_coords.T))
    errs = []
    for n in (8, 16, 32):
        fv = generate_box_fv(UNIT_BOX, (n, n, n))
        source = lighthill_divergence(fv, sample_velocity(fv, _swirl), rho0=1.0)
        proj = build_projection(space, fv)
        load = aeroacoustic_load(conv, *(proj.project(q).coeffs for q in source.values.T))
        errs.append(np.linalg.norm(load - exact) / np.linalg.norm(exact))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    elapsed = time.perf_counter() - t0
    ok = errs[0] > errs[1] > errs[2] and orders[-1] >= 1.8 and elapsed < 60.0
    _report(capsys, 12, ok, f"errors={errs[0]:.4g}/{errs[1]:.4g}/{errs[2]:.4g}, "
                    f"orders={orders[0]:.2f}/{orders[1]:.2f}, {elapsed:.1f}s")


# -- 9. compact-source observer analytics ---------------------------------


def test_criterion_09_curle_analytics(capsys):
    """Constant axial force at 1 m gives 1/(4 pi) Pa to 1e-12; cos(theta)
    directivity at 8 angles to 1e-12; harmonic far-field amplitude decay
    exponent -1 +/- 0.05 over one decade of r (measured -1.00)."""
    t0 = time.perf_counter()
    hist = ForceHistory(np.arange(10) * 0.01, np.tile([0.0, 0.0, 1.0], (10, 1)))
    rec = curle_pressure(hist, np.array([0.0, 0.0, 1.0]), c0=343.0)
    const_ok = np.max(np.abs(rec.pressure - 1.0 / (4.0 * np.pi))) <= 1e-12

    on_axis = curle_pressure(hist, np.array([0.0, 0.0, 2.0]), c0=343.0).pressure
    dir_ok = True
    for theta in np.linspace(0.0, np.pi, 8):
        obs = 2.0 * np.array([np.sin(theta), 0.0, np.cos(theta)])
        rec = curle_pressure(hist, obs, c0=343.0)
        dir_ok = dir_ok and np.max(np.abs(rec.pressure - np.cos(theta) * on_axis)) <= 1e-12

    # harmonic force: steady-state amplitude vs axial distance
    w = 2.0 * np.pi * 100.0
    times = np.arange(20000) * 1e-5
    forces = np.stack([0 * times, 0 * times, np.sin(w * times)], axis=1)
    harm = ForceHistory(times, forces)
    radii = np.logspace(1.0, 2.0, 8)
    amps = []
    for rr in radii:
        rec = curle_pressure(harm, np.array([0.0, 0.0, rr]), c0=343.0)
        amps.append(np.max(np.abs(rec.pressure[2000:-2000])))
    slope = np.polyfit(np.log(radii), np.log(amps), 1)[0]
    decay_ok = abs(slope - (-1.0)) <= 0.05

    elapsed = time.perf_counter() - t0
    ok = const_ok and dir_ok and decay_ok and elapsed < 10.0
    _report(capsys, 9, ok, f"decay exponent={slope:.3f}, {elapsed:.1f}s")


# -- 10. end-to-end synthetic pipeline ------------------------------------


def test_criterion_10_pipeline(tmp_path, capsys):
    """fv-source -> project -> solve on a 2-element-thick box completes,
    keeps the criterion-8 audit quantities, and produces finite probes."""
    t0 = time.perf_counter()
    rho0, c0 = 1.204, 343.0
    slab = [[0.0, 1.0], [0.0, 1.0], [0.0, 0.1]]

    fv_out = tmp_path / "fv"
    assert cli.main([
        "fv-source", "--config",
        _dump(tmp_path, "fv.json", {
            "version": "1", "rho0": rho0,
            "synthetic": {"box": slab, "div": [16, 16, 4], "field": "shear_xy"},
        }),
        "--out", str(fv_out),
    ]) == 0

    pr_out = tmp_path / "proj"
    assert cli.main([
        "project", "--config",
        _dump(tmp_path, "pr.json", {
            "version": "1", "fv_file": str(fv_out / "fv_source.json"),
            "degree": 2, "mesh": {"generator": {"box": slab, "div": [8, 8, 2]}},
        }),
        "--out", str(pr_out),
    ]) == 0
    report = json.loads((pr_out / "conservation_report.json").read_text())
    audit_ok = (
        report["empty_columns"] == 0
        and report["column_sum_max_rel_error"] < 5e-3
        and abs(report["transferred_mass_fv"] - report["transferred_mass_acoustic"])
        <= 1e-8 * max(1.0, abs(report["transferred_mass_fv"]))
    )

    sv_out = tmp_path / "solve"
    assert cli.main([
        "solve", "--config",
        _dump(tmp_path, "sv.json", {
            "version": "1", "rho0": rho0, "c0": c0, "degree": 2,
            "mesh": {"generator": {"box": slab, "div": [8, 8, 2]}},
            "time": {"dt": 1e-5, "t_final": 5e-3, "beta": 0.0, "gamma": 0.5},
            "impedance": {t: rho0 * c0 for t in ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")},
            "source": {"type": "projected", "files": [str(pr_out / "load_0000.npy")], "stride": 4},
            "probes": {"mid": [0.5, 0.5, 0.05]},
        }),
        "--out", str(sv_out),
    ]) == 0
    probes = np.loadtxt(sv_out / "solve_probes.csv", delimiter=",", skiprows=1)
    finite_ok = np.all(np.isfinite(probes)) and probes.shape[0] == 501

    elapsed = time.perf_counter() - t0
    ok = audit_ok and finite_ok and elapsed < 600.0
    _report(capsys, 10, ok, f"colsum={report['column_sum_max_rel_error']:.1e}, "
                    f"probe range=[{probes[:, 1].min():.2e}, {probes[:, 1].max():.2e}], {elapsed:.0f}s")


def _dump(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)
