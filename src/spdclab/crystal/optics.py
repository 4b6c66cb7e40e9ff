"""Plane-wave propagation in anisotropic crystals.

For a propagation direction s the two allowed refractive indices solve the
Fresnel wave-normal equation.  Equivalently, with u = 1/n^2 and the inverse
dielectric tensor eps^-1 = diag(1/n_x^2, 1/n_y^2, 1/n_z^2), u is an
eigenvalue of the 2x2 restriction of eps^-1 to the plane transverse to s,
and the eigenvector gives the displacement direction D.  The electric
field follows from E ~ eps^-1 D, and the walk-off (angle between the wave
vector and the Poynting vector) equals the angle between D and E.  This
eigenproblem form is numerically robust through all principal-plane and
principal-axis degeneracies; tests verify it against the classic Fresnel
quadratic and a finite-difference index-gradient oracle.

There is one solver, a batched eigen-solve over directions of shape
(..., 3) at wavelengths that broadcast with them: one wavelength, one per
direction, or one per row of a grid.  :func:`index_batch` returns its two
index arrays, of the broadcast shape: use it wherever only indices or wave
numbers are needed (scans, root-find residuals).
:func:`solve_waves` wraps it for one direction and adds D and walk-off,
which cost more; use it only where those are needed (d_eff, walk-offs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .materials import SellmeierSet

FAST = "fast"
SLOW = "slow"


@dataclass(frozen=True)
class WaveSolution:
    """Both eigenwaves for one (direction, wavelength)."""

    n_fast: float
    n_slow: float
    d_fast: np.ndarray
    d_slow: np.ndarray
    walkoff_fast: float
    walkoff_slow: float

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
    # s x t1 spelled out: np.cross alone costs a third of a one-row solve.  The
    # fancy index leaves t2 column-major, which fixes the order in which the
    # einsums of _eigensystem add up its rows.
    return t1, s[:, _NEXT] * t1[:, _PREV] - s[:, _PREV] * t1[:, _NEXT]


def _eigensystem(sellmeier: SellmeierSet, directions, wavelength_nm) -> tuple:
    """The batched eigen-solve over directions (..., 3) and wavelengths that broadcast.

    The Sellmeier indices are evaluated on the wavelengths' own shape, once
    (the set keeps it) when all of them are equal.  The solve runs on the
    broadcast rows as one contiguous (N, 3) block.  Returns the broadcast
    shape, the frames of the N unit directions, eps^-1 (shape (3,) or
    (N, 3)), the transverse restriction (m11, m22, m12) of eps^-1 per row
    and its eigenvalues (u_fast, u_slow), each (N,).
    """
    s = np.asarray(directions, dtype=float)
    lam = np.asarray(wavelength_nm, dtype=float)
    shape = np.broadcast(s[..., 0], lam).shape
    if lam.ndim and lam.size and lam.min() == lam.max():
        lam = lam.flat[0]
    eps_inv = 1.0 / sellmeier.principal_indices(lam) ** 2
    if s.shape[:-1] != shape:
        s = np.broadcast_to(s, shape + (3,))
    if lam.ndim:
        eps_inv = np.broadcast_to(eps_inv, shape + (3,)).reshape(-1, 3)
    s = s.reshape(-1, 3)
    s = s / _row_norms(s)
    t1, t2 = transverse_frame(s)
    e1 = t1 * eps_inv
    m11 = np.einsum("ij,ij->i", e1, t1)
    m22 = np.einsum("ij,ij->i", t2 * eps_inv, t2)
    m12 = np.einsum("ij,ij->i", e1, t2)
    mean = 0.5 * (m11 + m22)
    radius = np.hypot(0.5 * (m11 - m22), m12)
    return shape, t1, t2, eps_inv, (m11, m22, m12), (mean + radius, mean - radius)


def index_batch(sellmeier: SellmeierSet, directions, wavelength_nm):
    """(n_fast, n_slow) arrays for directions (..., 3).

    ``wavelength_nm`` is one wavelength or an array that broadcasts with
    the directions' leading shape; the arrays have the broadcast shape.
    """
    shape, *_, (u_fast, u_slow) = _eigensystem(sellmeier, directions, wavelength_nm)
    return (1.0 / np.sqrt(u_fast)).reshape(shape), (1.0 / np.sqrt(u_slow)).reshape(shape)


def solve_waves(sellmeier: SellmeierSet, direction, wavelength_nm: float) -> WaveSolution:
    """Both eigenwaves, with D and walk-off, for one propagation direction."""
    _, t1, t2, eps_inv, m, u = _eigensystem(sellmeier, direction, wavelength_nm)
    t1, t2 = t1[0], t2[0]
    m11, m22, m12 = (float(x[0]) for x in m)

    def branch(u):
        n = 1.0 / np.sqrt(u)
        v1 = np.array([m12, u - m11])
        v2 = np.array([u - m22, m12])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        nv = np.linalg.norm(v)
        v = np.array([1.0, 0.0]) if nv < 1e-14 else v / nv  # degenerate: any transverse
        d = v[0] * t1 + v[1] * t2
        e = _unit(eps_inv * d)
        walk = float(np.arccos(np.clip(np.dot(d, e), -1.0, 1.0)))
        return n, d, walk

    nf, df, wf = branch(float(u[0][0]))
    ns, ds, ws = branch(float(u[1][0]))
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
