"""Compact-source Curle analogy: observer pressure from the time history of
the surface force on a rigid body.

The body is treated as acoustically compact (size much smaller than the
wavelength): a single body reference point defines the observer distance
and retarded times are dropped.  The quadrupole volume term is out of
scope.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import welch


class CurleError(Exception):
    pass


@dataclass
class ForceHistory:
    """Uniformly sampled force on a body: F(t^k) in newtons."""

    times: np.ndarray
    forces: np.ndarray  # (n, 3)
    body_point: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.forces = np.asarray(self.forces, dtype=float)
        self.body_point = np.asarray(self.body_point, dtype=float)
        if self.forces.shape != (self.times.size, 3):
            raise CurleError("forces must be (n, 3) matching times")
        if self.times.size < 3:
            raise CurleError("need at least 3 samples to differentiate the force")
        steps = np.diff(self.times)
        if np.any(steps <= 0) or np.ptp(steps) > 1e-9 * steps[0]:
            raise CurleError("times must be strictly increasing and uniform")
        if not (np.all(np.isfinite(self.forces)) and np.all(np.isfinite(self.times))):
            raise CurleError("non-finite force history")

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def curle_pressure(force: ForceHistory, observer, c0: float) -> np.ndarray:
    """p(x,t) in Pa at the times of force: (1/4pi) (r/r^2) . (F/r + F'/c0),
    with F' by second-order finite differences (central inside, one-sided at
    the ends)."""
    rvec = np.asarray(observer, dtype=float) - force.body_point
    r = float(np.linalg.norm(rvec))
    if r <= 0:
        raise CurleError("observer coincides with the body reference point")
    fdot = np.gradient(force.forces, force.dt, axis=0, edge_order=2)
    return (force.forces / r + fdot / c0) @ rvec / (4.0 * np.pi * r**2)


def psd(series, dt: float, segment_length: int):
    """Welch power spectral density with a Hann window and half-overlapping
    segments.

    Returns (frequencies in Hz, PSD in signal-units^2 / Hz); integrating
    the PSD over frequency recovers the signal variance up to the window
    correction that scipy applies.
    """
    series = np.asarray(series, dtype=float)
    if segment_length > series.size:
        raise ValueError("segment length exceeds series length")
    freq, pxx = welch(
        series,
        fs=1.0 / dt,
        window="hann",
        nperseg=segment_length,
        noverlap=segment_length // 2,
        detrend=False,
        scaling="density",
    )
    return freq, pxx
