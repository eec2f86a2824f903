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

from dataclasses import dataclass

import numpy as np

from .netmodel import _readonly


@dataclass(frozen=True)
class LeftNullTransform:
    """Block-diagonal map from the 2N-dim deviation state to the N-dim z vector."""

    t_blocks: np.ndarray  # (N, 2) rows [omega_c_i, 1]
    t: np.ndarray         # (N, 2N) block-diagonal assembly

    def __post_init__(self):
        object.__setattr__(self, "t_blocks", _readonly(self.t_blocks))
        object.__setattr__(self, "t", _readonly(self.t))

    @property
    def n_ibr(self) -> int:
        return self.t.shape[0]


def make_transform(ibrs) -> LeftNullTransform:
    """Build t_i = [omega_c_i, 1] per IBR and the block-diagonal stack."""
    ibrs = tuple(ibrs)
    n = len(ibrs)
    blocks = np.array([[p.omega_c, 1.0] for p in ibrs])
    t = np.zeros((n, 2 * n))
    for i in range(n):
        t[i, 2 * i : 2 * i + 2] = blocks[i]
    return LeftNullTransform(t_blocks=blocks, t=t)


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
