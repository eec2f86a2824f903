"""Left-null transform of the per-IBR dynamics and the running z integral.

Each IBR block has a zero eigenvalue; its left null row t_i = [omega_c_i, 1]
defines z_i = omega_c_i * ddelta_i + domega_i. The z vector is computable from
real-power measurements alone by integrating
    dz_i/dt = omega_c_i * (dws_i - m_p_i * dpg_i),
which is what makes a fast secondary controller possible without fast
frequency sensing. z is a plain array, z(0) = 0 unless re-seeded; z_update
advances it with per-IBR omega_c and m_p arrays that a run builds once.
"""

from __future__ import annotations

import numpy as np

from .netmodel import _readonly


def make_transform(ibrs) -> np.ndarray:
    """The read-only (N, 2N) block-diagonal T with row i's block t_i = [omega_c_i, 1]:
    the map from the 2N-dim deviation state to the N-dim z vector."""
    ibrs = tuple(ibrs)
    t = np.zeros((len(ibrs), 2 * len(ibrs)))
    for i, p in enumerate(ibrs):
        t[i, 2 * i : 2 * i + 2] = p.omega_c, 1.0
    return _readonly(t)


def z_update(
    z: np.ndarray,
    d_omega_s: np.ndarray,
    d_p_g: np.ndarray,
    dt: float,
    omega_c: np.ndarray,
    m_p: np.ndarray,
) -> np.ndarray:
    """Advance the z integral one control period; returns the new z.

    Forward Euler: z += omega_c * (dws - m_p * dpg) * dt, sampling the
    integrand at the interval start; omega_c and m_p are per-IBR arrays.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    integrand = omega_c * (np.asarray(d_omega_s, float) - m_p * np.asarray(d_p_g, float))
    return z + integrand * dt
