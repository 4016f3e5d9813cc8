"""Compact-source observer pressure, surface force integration and PSD."""

import warnings

import numpy as np
import pytest

from semwave.curle import (
    CurleError,
    ForceHistory,
    curle_pressure,
    psd,
)


def integrate_surface_force(areas, normals, pressures) -> np.ndarray:
    """F = sum p * area * normal over a sampled closed surface: the force
    history a curle run reads, from wall pressure.

    Warns when the area vectors do not close to within 1% of the total
    area (open or badly sampled surface)."""
    areas = np.asarray(areas, dtype=float)
    normals = np.asarray(normals, dtype=float)
    pressures = np.asarray(pressures, dtype=float)
    closure = np.linalg.norm((areas[:, None] * normals).sum(axis=0))
    if closure > 0.01 * areas.sum():
        warnings.warn(
            f"surface does not close: |sum(area*n)| = {closure:.3e} "
            f"exceeds 1% of total area {areas.sum():.3e}",
            stacklevel=2,
        )
    return (pressures[:, None] * areas[:, None] * normals).sum(axis=0)


def _constant_force(n=10, dt=0.01, f=(0.0, 0.0, 1.0)):
    times = np.arange(n) * dt
    return ForceHistory(times, np.tile(f, (n, 1)))


def test_constant_axial_force():
    rec = curle_pressure(_constant_force(), np.array([0.0, 0.0, 1.0]), c0=343.0)
    np.testing.assert_allclose(rec.pressure, 1.0 / (4.0 * np.pi), atol=1e-12)


def test_dipole_null_plane():
    rec = curle_pressure(_constant_force(), np.array([1.0, 0.0, 0.0]), c0=343.0)
    np.testing.assert_allclose(rec.pressure, 0.0, atol=1e-14)


def test_cosine_directivity():
    on_axis = curle_pressure(_constant_force(), np.array([0.0, 0.0, 2.0]), c0=343.0)
    for theta in np.linspace(0.0, np.pi, 8):
        obs = 2.0 * np.array([np.sin(theta), 0.0, np.cos(theta)])
        if np.linalg.norm(obs) == 0:
            continue
        rec = curle_pressure(_constant_force(), obs, c0=343.0)
        np.testing.assert_allclose(rec.pressure, np.cos(theta) * on_axis.pressure, atol=1e-12)


def test_harmonic_amplitude():
    # F = (0,0,sin wt): amplitude at axial distance R is
    # (1/4piR) sqrt(1/R^2 + (w/c0)^2)
    w = 2.0 * np.pi * 100.0
    c0, big_r = 343.0, 10.0
    dt = 1e-5
    times = np.arange(20000) * dt
    forces = np.stack([0 * times, 0 * times, np.sin(w * times)], axis=1)
    rec = curle_pressure(ForceHistory(times, forces), np.array([0.0, 0.0, big_r]), c0)
    amp = np.max(np.abs(rec.pressure[1000:-1000]))
    expected = np.sqrt(1.0 / big_r**2 + (w / c0) ** 2) / (4.0 * np.pi * big_r)
    assert abs(amp - expected) < 0.01 * expected


def test_observer_at_body_rejected():
    with pytest.raises(CurleError, match="coincides"):
        curle_pressure(_constant_force(), np.zeros(3), c0=343.0)


def test_history_validation():
    with pytest.raises(CurleError, match="at least 3"):
        ForceHistory([0.0, 0.1], np.zeros((2, 3)))
    with pytest.raises(CurleError, match="uniform"):
        ForceHistory([0.0, 0.1, 0.3], np.zeros((3, 3)))
    with pytest.raises(CurleError, match="increasing"):
        ForceHistory([0.0, -0.1, -0.2], np.zeros((3, 3)))
    with pytest.raises(CurleError, match="\\(n, 3\\)"):
        ForceHistory([0.0, 0.1, 0.2], np.zeros((3, 2)))
    with pytest.raises(CurleError, match="non-finite"):
        ForceHistory([0.0, 0.1, 0.2], np.full((3, 3), np.nan))


def test_body_point_offsets_distance():
    hist = ForceHistory(np.arange(5) * 0.1, np.tile([0.0, 0.0, 1.0], (5, 1)), body_point=np.array([0.0, 0.0, 1.0]))
    rec = curle_pressure(hist, np.array([0.0, 0.0, 2.0]), c0=343.0)
    np.testing.assert_allclose(rec.pressure, 1.0 / (4.0 * np.pi), atol=1e-12)


# -- surface force --------------------------------------------------------


def _sphere_sampling(n_theta=100, n_phi=200):
    theta = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phi = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    normals = np.stack(
        [np.sin(tg) * np.cos(pg), np.sin(tg) * np.sin(pg), np.cos(tg)], axis=-1
    ).reshape(-1, 3)
    areas = (np.sin(tg) * (np.pi / n_theta) * (2.0 * np.pi / n_phi)).ravel()
    return areas, normals


def test_uniform_pressure_closed_surface():
    areas, normals = _sphere_sampling()
    force = integrate_surface_force(areas, normals, np.full(areas.size, 5.0))
    assert np.max(np.abs(force)) < 1e-10


def test_nz_pressure_on_sphere():
    areas, normals = _sphere_sampling()
    force = integrate_surface_force(areas, normals, normals[:, 2])
    assert abs(force[2] - 4.0 * np.pi / 3.0) < 1e-3
    assert max(abs(force[0]), abs(force[1])) < 1e-10


def test_zero_pressure():
    areas, normals = _sphere_sampling(20, 40)
    assert np.max(np.abs(integrate_surface_force(areas, normals, np.zeros(areas.size)))) == 0.0


def test_open_surface_warns():
    areas, normals = _sphere_sampling(20, 40)
    keep = normals[:, 2] > 0  # hemisphere only
    with pytest.warns(UserWarning, match="does not close"):
        integrate_surface_force(areas[keep], normals[keep], np.ones(keep.sum()))


# -- PSD ------------------------------------------------------------------


def test_psd_sine_peak_power():
    dt, nseg = 1e-3, 1024
    t = np.arange(8192) * dt
    f0 = 125.0  # exactly bin-centered for nseg=1024: bin width ~0.977 Hz
    amp = 2.0
    freq, pxx = psd(amp * np.sin(2.0 * np.pi * f0 * t), dt, nseg)
    df = freq[1] - freq[0]
    peak = np.argmax(pxx)
    assert abs(freq[peak] - f0) <= df
    window = slice(max(peak - 4, 0), peak + 5)
    power = np.trapezoid(pxx[window], freq[window])
    assert abs(power - amp**2 / 2.0) < 0.02 * amp**2 / 2.0


def test_psd_zero_signal():
    freq, pxx = psd(np.zeros(2048), 1e-3, 256)
    assert np.max(pxx) == 0.0


def test_psd_white_noise_variance():
    rng = np.random.default_rng(1234)
    x = rng.standard_normal(1 << 16)
    freq, pxx = psd(x, 0.01, 2048)
    variance = np.trapezoid(pxx, freq)
    assert abs(variance - 1.0) < 0.1


def test_psd_segment_too_long():
    with pytest.raises(ValueError, match="segment"):
        psd(np.zeros(100), 1e-3, 256)
