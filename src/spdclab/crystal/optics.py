"""Plane-wave propagation in anisotropic crystals.

For a propagation direction s the two allowed refractive indices solve the
Fresnel wave-normal equation (Born & Wolf, *Principles of Optics*, sec. 15.3).
With u = 1/n^2, the principal values u_i = 1/n_i^2 and s^ = s/|s|, it is the
quadratic sum_i s^_i^2 (u - u_{i+1})(u - u_{i+2}) = 0 (indices cyclic), whose
roots are, in closed form,

    u = (T +- sqrt(D)) / 2,   T = sum_i s^_i^2 (u_{i+1} + u_{i+2}),
    D = (a - b)^2 + q (q + 2a + 2b),

with p_i = s^_i^2 (u_{i+1} - u_{i+2}), q = -p_m for the middle principal
axis m (the one whose u lies between the other two) and a, b the other two
p.  Because u_m lies between its neighbours, q, a and b share a sign, so D
is a sum of non-negative terms and its one difference, a - b, is of two
computed products: D cannot cancel.  It stays exact where it vanishes or
nearly does, on and near the optic axes, along the principal axes and in
the principal planes.  For a uniaxial crystal it reduces to
(u_o - u_e)^2 (s^_x^2 + s^_y^2)^2.  The fast wave takes the larger u.

u is also an eigenvalue of the 2x2 restriction of eps^-1 = diag(u_x, u_y,
u_z) to the plane transverse to s, and the eigenvector gives the
displacement direction d.  The electric field follows from E ~ eps^-1 d,
and the walk-off (angle between the wave vector and the Poynting vector)
equals the angle between d and E.  Tests check the indices against the
eigenvalues of P eps^-1 P (P = I - s^ s^T), the Fresnel polynomial and a
finite-difference index-gradient oracle.

There is one index solver over directions of shape (..., 3) at wavelengths
that broadcast with them: one wavelength, one per direction, or one per row
of a grid.  :func:`index_batch` returns its two index arrays, of the
broadcast shape: use it wherever only indices or wave numbers are needed
(scans, root-find residuals).  :func:`solve_waves` takes the same indices
for one direction and adds d and the walk-offs from the transverse frame,
which cost more; use it only where those are needed (d_eff, walk-offs).
"""

from __future__ import annotations

import numpy as np

from .._record import _Record
from .materials import SellmeierSet

FAST = "fast"
SLOW = "slow"


class WaveSolution(_Record):
    """Both eigenwaves for one (direction, wavelength)."""

    __slots__ = ("n_fast", "n_slow", "d_fast", "d_slow", "walkoff_fast", "walkoff_slow")

    def __init__(self, n_fast: float, n_slow: float, d_fast: np.ndarray, d_slow: np.ndarray,
                 walkoff_fast: float, walkoff_slow: float):
        self._fill(n_fast, n_slow, d_fast, d_slow, walkoff_fast, walkoff_slow)

    def n(self, branch: str) -> float:
        return self.n_fast if branch == FAST else self.n_slow

    def walkoff(self, branch: str) -> float:
        return self.walkoff_fast if branch == FAST else self.walkoff_slow


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


_Z_AXIS, _X_AXIS = np.array([[0.0, 0.0, 1.0]]), np.array([[1.0, 0.0, 0.0]])
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])  # cyclic column shifts


def _row_norms(v: np.ndarray) -> np.ndarray:
    """np.linalg.norm(v, axis=1, keepdims=True), the same sums without its dispatch."""
    return np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True))


def transverse_frame(s: np.ndarray) -> tuple:
    """(t1, t2) completing each unit row of s to the right-handed frame (t1, t2, s).

    t1 is the projected z axis, or the x axis where |s_z| >= 0.9.
    """
    helper = np.where(np.abs(s[:, 2:3]) < 0.9, _Z_AXIS, _X_AXIS)
    t1 = helper - np.add.reduce(helper * s, axis=1, keepdims=True) * s
    t1 /= _row_norms(t1)
    # s x t1 spelled out: np.cross alone costs a third of a one-row solve
    return t1, s[:, _NEXT] * t1[:, _PREV] - s[:, _PREV] * t1[:, _NEXT]


def _inverse_squares(sellmeier: SellmeierSet, directions, wavelength_nm) -> tuple:
    """(u_fast, u_slow) = 1/n^2 for directions (..., 3) at wavelengths that broadcast.

    The closed form of the module docstring, evaluated column by column so
    that every part broadcasts: the Sellmeier indices and the middle axis on
    the wavelengths' own shape (once, and kept by the set, when all of them
    are equal), the rest on the broadcast shape.
    """
    s = np.asarray(directions, dtype=float)
    lam = np.asarray(wavelength_nm, dtype=float)
    if lam.ndim and lam.size and lam.min() == lam.max():
        u = np.broadcast_to(1.0 / sellmeier.principal_indices(lam.flat[0]) ** 2,
                            lam.shape + (3,))
    else:
        u = 1.0 / sellmeier.principal_indices(lam) ** 2
    middle = np.argsort(u, axis=-1)[..., 1]
    d = u[..., _NEXT] - u[..., _PREV]
    v = u[..., _NEXT] + u[..., _PREV]
    s2 = s * s
    w = s2 / (s2[..., 0] + s2[..., 1] + s2[..., 2])[..., None]     # s_hat_i^2
    p = [w[..., i] * d[..., i] for i in range(3)]
    trace = w[..., 0] * v[..., 0] + w[..., 1] * v[..., 1] + w[..., 2] * v[..., 2]

    def discriminant(m):
        q, a, b = -p[m], p[(m + 1) % 3], p[(m + 2) % 3]
        return (a - b) ** 2 + q * (q + 2.0 * (a + b))

    axes = sorted(set(middle.ravel().tolist())) or [1]     # [1] when there are no rows
    disc = discriminant(axes[0])
    for m in axes[1:]:          # rows at wavelengths that order their axes otherwise
        disc = np.where(middle == m, discriminant(m), disc)
    root = np.sqrt(disc)
    return 0.5 * (trace + root), 0.5 * (trace - root)


def index_batch(sellmeier: SellmeierSet, directions, wavelength_nm):
    """(n_fast, n_slow) arrays for directions (..., 3).

    ``wavelength_nm`` is one wavelength or an array that broadcasts with
    the directions' leading shape; the arrays have the broadcast shape.
    """
    u_fast, u_slow = _inverse_squares(sellmeier, directions, wavelength_nm)
    return 1.0 / np.sqrt(u_fast), 1.0 / np.sqrt(u_slow)


def solve_waves(sellmeier: SellmeierSet, direction, wavelength_nm: float) -> WaveSolution:
    """Both eigenwaves, with d and walk-off, for one propagation direction.

    The indices are :func:`index_batch`'s; d is the eigenvector of the
    transverse restriction (m11, m22, m12) of eps^-1 at each u.
    """
    u_fast, u_slow = _inverse_squares(sellmeier, direction, wavelength_nm)
    s = np.asarray(direction, dtype=float).reshape(1, 3)
    t1, t2 = transverse_frame(s / _row_norms(s))
    t1, t2 = t1[0], t2[0]
    eps_inv = 1.0 / sellmeier.principal_indices(wavelength_nm) ** 2
    e1 = t1 * eps_inv
    m11, m22, m12 = float(e1 @ t1), float(t2 * eps_inv @ t2), float(e1 @ t2)

    def branch(u):
        n = 1.0 / np.sqrt(u)
        v1 = np.array([m12, u - m11])
        v2 = np.array([u - m22, m12])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        nv = np.linalg.norm(v)
        v = np.array([1.0, 0.0]) if nv < 1e-14 else v / nv  # degenerate: any transverse
        d = v[0] * t1 + v[1] * t2
        e = _unit(eps_inv * d)
        # |d x e| spelled out, as in transverse_frame; arccos(d.e) alone
        # cannot resolve angles below about 1.5e-8 rad
        cross = d[_NEXT] * e[_PREV] - d[_PREV] * e[_NEXT]
        walk = float(np.arctan2(np.sqrt(cross @ cross), d @ e))
        return n, d, walk

    nf, df, wf = branch(float(u_fast))
    ns, ds, ws = branch(float(u_slow))
    return WaveSolution(n_fast=nf, n_slow=ns, d_fast=df, d_slow=ds,
                        walkoff_fast=wf, walkoff_slow=ws)


def refractive_indices(sellmeier: SellmeierSet, direction, wavelength_nm: float):
    """(n_fast, n_slow) for the given direction, n_fast <= n_slow."""
    n_fast, n_slow = index_batch(sellmeier, direction, wavelength_nm)
    return float(n_fast), float(n_slow)


def walkoff_angle(sellmeier: SellmeierSet, direction, wavelength_nm: float,
                  branch: str = FAST) -> float:
    """Angle between wave vector and ray direction for one branch, in rad."""
    if branch not in (FAST, SLOW):
        raise ValueError(f"branch must be '{FAST}' or '{SLOW}'")
    return solve_waves(sellmeier, direction, wavelength_nm).walkoff(branch)


def fresnel_residual(sellmeier: SellmeierSet, direction, wavelength_nm: float,
                     n: float) -> float:
    """Classic Fresnel wave-normal polynomial at u = 1/n^2 (oracle for tests)."""
    s = _unit(np.asarray(direction, dtype=float))
    u = 1.0 / n**2
    u_ax = 1.0 / sellmeier.principal_indices(wavelength_nm) ** 2
    ux, uy, uz = u_ax
    return float(
        s[0] ** 2 * (u - uy) * (u - uz)
        + s[1] ** 2 * (u - ux) * (u - uz)
        + s[2] ** 2 * (u - ux) * (u - uy)
    )
