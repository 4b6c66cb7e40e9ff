"""Type-II phase matching: collinear curves, emission rings, and d_eff.

Conventions
-----------
* Type-II degenerate down-conversion is fast_pump -> fast + slow.  For a
  negative uniaxial crystal the fast branch is the extraordinary wave, so
  this reduces to the familiar e -> e + o interaction.
* d_eff contracts the second-order tensor with the three eigenwave
  polarization unit vectors (displacement directions from the index
  solver) and is reported as a magnitude.  Eigenvector sign is not
  physical, so relative signs between separately evaluated geometries are
  not meaningful.
* Mismatches are reported in rad/um along the relevant direction.

The non-collinear helpers parametrize emission directions around the pump
axis by an opening angle Omega and azimuth psi.  A "ring" is the locus
where a photon of one branch at the sampled direction has an exactly
phase-matched partner of the other branch (partner direction free); the
two rings of a type-II cut cross at two arms, which is where polarization
pairs of both orderings are emitted.

Every root is bracketed by a grid scan and refined by one solver.  A ring
opening or a collinear angle is the root in the first sign change of its
row (:func:`_first_roots`): the grid's first half is scanned for every row,
its second half only for the rows with no bracket in the first.  The arm
azimuth scan and the cut search's 13-cut scan need every cell, so they scan
their whole grid (:func:`_bracket_cells`).  :func:`_solve_bracketed` then
refines all rows at once by Illinois regula falsi.  A row bisects only when
it stalls: its step leaves the open bracket, or its last two steps did not
halve the bracket and its last step did not halve the |residual| at the
iterate.  The cut search first tries two batched calls that interpolate
from its scan (:func:`_refine_scanned_root`), and hands the solver the
tightest verified bracket when they miss.  The mismatch functions broadcast
over their angles, azimuths, wavelengths and branches, so one call
evaluates every row.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from .._record import _Record
from ..errors import NumericalConsistencyError
from .materials import CrystalCut, CrystalData, SellmeierSet, polar_direction
from .optics import FAST, SLOW, WaveSolution, index_batch, solve_waves, transverse_frame

TWO_PI = 2.0 * np.pi

#: |Delta k| accepted as phase matched, rad/um
DELTA_K_TOL = 1e-6

#: steps after which a bracketed root-find gives up
MAX_ROOT_STEPS = 100

#: polar-angle step of the scan that brackets each collinear root
COLLINEAR_SCAN_STEP_RAD = np.radians(0.5)

#: half-width of ``spectral_fwhm``'s wavelength grid around twice the pump, nm
SPECTRUM_SPAN_NM = 40.0


class PhaseMatchSolution(_Record):
    """One degenerate collinear sample: signal and idler at twice the pump
    wavelength, all three waves along one direction (ring points are RingClouds)."""

    __slots__ = ("theta", "phi",
                 "delta_k_residual",        # rad/um
                 "d_eff_pm_v", "walkoff_fast", "walkoff_slow")

    def __init__(self, theta: float, phi: float, delta_k_residual: float, d_eff_pm_v: float,
                 walkoff_fast: float, walkoff_slow: float):
        self._fill(theta, phi, delta_k_residual, d_eff_pm_v, walkoff_fast, walkoff_slow)


def _wave_numbers(sellmeier: SellmeierSet, directions: np.ndarray,
                  wavelength_nm, branch) -> np.ndarray:
    """|k| in rad/um for directions (..., 3); broadcasts over the wavelength and branch."""
    n_fast, n_slow = index_batch(sellmeier, directions, wavelength_nm)
    n = np.where(np.asarray(branch) == FAST, n_fast, n_slow)
    return TWO_PI / (np.asarray(wavelength_nm) * 1e-3) * n


def _bracket_cells(vals: np.ndarray) -> np.ndarray:
    """Mask of the grid cells [i, i + 1] along the last axis that bracket a root.

    A cell brackets a root when its left value is 0 or its two values
    differ in sign; a cell with a NaN end never does.
    """
    a, b = vals[..., :-1], vals[..., 1:]
    return ((a == 0.0) | (a * b < 0.0)) & ~np.isnan(b)


def _first_roots(f, grid: np.ndarray, n_rows: int, xtol: float) -> np.ndarray:
    """The root in the first bracketing cell of each of ``n_rows`` rows of ``f`` on ``grid``.

    ``f(x, rows)`` returns the residuals of rows ``rows`` at the points
    ``x``, broadcasting the two.  The grid is scanned in two halves that
    share their middle point: every row on the first half, then only the
    rows with no bracket there on the second; a scan passes x (1, G) and
    rows (R, 1).  The cells of the two halves are all the grid's cells, so
    each row's first bracket is the one a scan of the whole grid finds.
    :func:`_solve_bracketed` then refines every row's bracket at once.

    Returns the (n_rows,) roots, NaN for a row with no bracket.
    """
    mid = grid.size // 2
    cell = np.full(n_rows, -1)
    fa, fb = np.empty(n_rows), np.empty(n_rows)
    todo = np.arange(n_rows)
    for lo, hi in ((0, mid + 1), (mid, grid.size)):
        if not todo.size:
            break
        vals = f(grid[None, lo:hi], todo[:, None])
        cells = _bracket_cells(vals)
        hit = cells.any(axis=1)
        i = cells[hit].argmax(axis=1)
        cell[todo[hit]] = lo + i
        fa[todo[hit]], fb[todo[hit]] = vals[hit, i], vals[hit, i + 1]
        todo = todo[~hit]
    rows = np.flatnonzero(cell >= 0)
    i = cell[rows]
    roots = np.full(n_rows, np.nan)
    roots[rows] = _solve_bracketed(lambda x, r: f(x, rows[r]), grid[i], grid[i + 1],
                                   fa[rows], fb[rows], xtol)
    return roots


def _solve_bracketed(f, a, b, fa, fb, xtol: float) -> np.ndarray:
    """One root of ``f`` inside each row's bracket [a, b], all rows at once.

    ``f(x, rows)`` returns the residuals of rows ``rows`` (indices into
    ``a``) at the points ``x``; ``fa`` and ``fb`` are the residuals at the
    endpoints.  Illinois regula falsi proposes each step.  The step bisects
    instead only when the solver stalls: when it falls outside the open
    bracket, or when the last two steps did not together halve the
    bracket and the last step did not halve the |residual| at the iterate.
    Iterates closing in from one side therefore keep their superlinear
    regula-falsi steps.  As in Brent's method, a step shorter than xtol / 2
    from the last iterate is lengthened to xtol / 2, so that a converged
    iterate closes its bracket.  Every iterate stays inside its bracket and
    nothing is extrapolated.  A row stops once its own |b - a| < xtol and
    returns the endpoint with the smaller |residual|.

    Raises NumericalConsistencyError if a row's endpoints do not bracket a
    root, if a residual inside a bracket is NaN, or if a row is still open
    after MAX_ROOT_STEPS steps.
    """
    a, b, fa, fb = (np.array(v, dtype=float, ndmin=1)
                    for v in np.broadcast_arrays(a, b, fa, fb))
    if not np.all(np.sign(fa) * np.sign(fb) <= 0.0):
        raise NumericalConsistencyError("root-find endpoints do not bracket a root")
    a, b = np.where(fb == 0.0, b, a), np.where(fa == 0.0, a, b)  # a root at an end closes
    ga, gb = fa.copy(), fb.copy()       # true residuals; fa, fb carry the Illinois weights
    x_last = np.where(np.abs(fa) <= np.abs(fb), a, b)
    kept = np.zeros(a.shape)            # +1: the last step kept a, -1: it kept b
    width_1 = np.full(a.shape, np.inf)  # bracket width one and two steps ago
    width_2 = width_1.copy()
    res_0 = np.minimum(np.abs(fa), np.abs(fb))  # |residual| at the last iterate
    res_1 = np.full(a.shape, np.inf)            # and at the one before
    for step in range(MAX_ROOT_STEPS + 1):
        rows = np.flatnonzero(np.abs(b - a) >= xtol)
        if not rows.size:
            return np.where(np.abs(ga) <= np.abs(gb), a, b)
        if step == MAX_ROOT_STEPS:
            raise NumericalConsistencyError(
                f"root-find not converged after {MAX_ROOT_STEPS} steps")
        ra, rb, rfa, rfb, xl = a[rows], b[rows], fa[rows], fb[rows], x_last[rows]
        width = np.abs(rb - ra)
        x = (ra * rfb - rb * rfa) / (rfb - rfa)
        inside = (np.minimum(ra, rb) < x) & (x < np.maximum(ra, rb))
        progress = (width <= 0.5 * width_2[rows]) | (res_0[rows] <= 0.5 * res_1[rows])
        x = np.where(inside & progress, x, 0.5 * (ra + rb))
        x = np.where(np.abs(x - xl) < 0.5 * xtol,
                     xl + 0.5 * xtol * np.sign(ra + rb - 2.0 * xl), x)
        fx = np.asarray(f(x, rows), dtype=float)
        if np.any(np.isnan(fx)):
            raise NumericalConsistencyError("root-find residual is NaN inside a bracket")
        to_b = np.sign(fx) == np.sign(rfb)   # x replaces b, a is kept
        to_a = np.sign(fx) == np.sign(rfa)   # x replaces a, b is kept
        # Illinois: an endpoint kept twice in a row has its weight halved
        rfa = np.where(to_b & (kept[rows] == 1.0), 0.5 * rfa, rfa)
        rfb = np.where(to_a & (kept[rows] == -1.0), 0.5 * rfb, rfb)
        kept[rows] = np.where(to_b, 1.0, np.where(to_a, -1.0, 0.0))
        a[rows], fa[rows], ga[rows] = (np.where(to_b, ra, x), np.where(to_b, rfa, fx),
                                       np.where(to_b, ga[rows], fx))
        b[rows], fb[rows], gb[rows] = (np.where(to_a, rb, x), np.where(to_a, rfb, fx),
                                       np.where(to_a, gb[rows], fx))
        width_2[rows], width_1[rows] = width_1[rows], width
        res_1[rows], res_0[rows] = res_0[rows], np.abs(fx)
        x_last[rows] = x


def collinear_mismatch(sellmeier: SellmeierSet, theta, phi, pump_nm: float):
    """Delta k = k_p - k_fast - k_slow for degenerate collinear type II, rad/um.

    Broadcasts over theta and phi; scalars give a float.
    """
    s = polar_direction(theta, phi)
    n_pump, _ = index_batch(sellmeier, s, pump_nm)
    n_fast, n_slow = index_batch(sellmeier, s, 2.0 * pump_nm)
    return (TWO_PI / (pump_nm * 1e-3)) * (n_pump - 0.5 * (n_fast + n_slow))


def collinear_d_eff(crystal: CrystalData, pump: WaveSolution,
                    down: WaveSolution) -> float:
    """|d_eff| of fast pump -> fast + slow along one direction, from its solved waves.

    The pair at the two non-collinear arms is ``noncollinear_arms(...).d_eff_fs``
    and ``.d_eff_sf``.
    """
    return abs(crystal.tensor.contract(pump.d_fast, down.d_fast, down.d_slow))


def phase_match_collinear(
    crystal: CrystalData,
    pump_nm: float = 390.0,
    phi_grid: Optional[np.ndarray] = None,
    branch: str = "upper",
) -> list:
    """Collinear degenerate type-II curve theta(phi) with d_eff and walk-offs.

    ``branch`` selects the theta > 90 deg ('upper') or theta < 90 deg
    ('lower') family; for a biaxial crystal they are physically distinct
    directions with different d_eff.  Azimuths with no root are skipped
    (a gap in the curve, not an error).
    """
    sel = crystal.sellmeier
    if phi_grid is None:
        phi_grid = np.radians(np.arange(0.0, 90.0 + 1e-9, 1.0))
    th_lo, th_hi = (np.pi / 2, np.pi) if branch == "upper" else (1e-6, np.pi / 2)
    down_nm = 2.0 * pump_nm
    thetas = np.arange(th_lo, th_hi, COLLINEAR_SCAN_STEP_RAD)
    phis = np.atleast_1d(phi_grid).astype(float)
    roots = _first_roots(lambda th, r: collinear_mismatch(sel, th, phis[r], pump_nm),
                         thetas, phis.size, xtol=1e-12)
    found = ~np.isnan(roots)
    roots, phis = roots[found], phis[found]
    residuals = collinear_mismatch(sel, roots, phis, pump_nm)
    samples = []
    for root, phi, dk in zip(roots, phis, residuals):
        s = polar_direction(root, phi)
        pump = solve_waves(sel, s, pump_nm)
        down = solve_waves(sel, s, down_nm)
        samples.append(PhaseMatchSolution(
            theta=float(root), phi=float(phi),
            delta_k_residual=float(dk),
            d_eff_pm_v=collinear_d_eff(crystal, pump, down),
            walkoff_fast=down.walkoff_fast, walkoff_slow=down.walkoff_slow,
        ))
    return samples


# ---------------------------------------------------------------------------
# Non-collinear geometry
# ---------------------------------------------------------------------------

class _PumpFrame:
    """Orthonormal frames with e3 along each pump axis; directions from (omega, psi).

    ``pump_dirs`` is one unit pump direction (3,) or a stack (C, 3), one
    frame row per cut.  Methods take ``cut``, the frame row of each of their
    rows (0 for a single cut), which broadcasts with their other arguments.
    """

    def __init__(self, sellmeier: SellmeierSet, pump_dirs, pump_nm: float):
        self.sellmeier = sellmeier
        self.pump_nm = pump_nm
        self.p = np.asarray(pump_dirs, dtype=float).reshape(-1, 3)
        self.e1, self.e2 = transverse_frame(self.p)

    def k_pump(self, pump_nm, cut=0):
        """|k| of the fast pump wave along the pump axis; broadcasts over pump_nm and cut."""
        return _wave_numbers(self.sellmeier, self.p[cut], pump_nm, FAST)

    def direction(self, omega, psi, cut=0) -> np.ndarray:
        """Unit vector at opening omega and azimuth psi; (..., 3) for arrays."""
        omega = np.asarray(omega, dtype=float)[..., None]
        psi = np.asarray(psi, dtype=float)[..., None]
        return (np.cos(omega) * self.p[cut]
                + np.sin(omega) * (np.cos(psi) * self.e1[cut] + np.sin(psi) * self.e2[cut]))

    def transverse(self, d: np.ndarray) -> np.ndarray:
        """(kx, ky) components of d in the first cut's frame; (..., 2) for (..., 3)."""
        p = self.p[0]
        t = d - (d @ p)[..., None] * p
        return np.stack([t @ self.e1[0], t @ self.e2[0]], axis=-1)


def _ring_mismatch(frame: _PumpFrame, omega, psi, lam_s, lam_p, branch, k_p=None, cut=0):
    """Residual |k_p - k_s| - k_i for a partner of the opposite branch.

    Broadcasts over omega, psi, the wavelengths, the branch, the pump wave
    number k_p (computed from lam_p when not given) and the frame row cut;
    all-scalar arguments give a float.  Each part is computed on the shape
    of the arguments it depends on, so a scan of openings (omega (1, G), the
    rest (R, 1)) does the work that does not depend on the opening once per
    row, and the Sellmeier indices once per row and wavelength.
    """
    if k_p is None:
        k_p = frame.k_pump(lam_p, cut)
    lam_i = 1.0 / (1.0 / np.asarray(lam_p) - 1.0 / np.asarray(lam_s))
    partner = np.where(np.asarray(branch) == FAST, SLOW, FAST)
    d = frame.direction(omega, psi, cut)
    k_s = _wave_numbers(frame.sellmeier, d, lam_s, branch)
    v = np.asarray(k_p)[..., None] * frame.p[cut] - k_s[..., None] * d
    nv = np.linalg.norm(v, axis=-1)
    return nv - _wave_numbers(frame.sellmeier, v / nv[..., None], lam_i, partner)


def ring_opening_angle(frame: _PumpFrame, psi, branch, lam_s=None, lam_p=None, cut=0):
    """Opening angle of the branch ring at azimuth psi, NaN where there is no ring.

    Broadcasts over psi, branch, the wavelengths (lam_p defaults to the
    frame's pump, lam_s to 2 lam_p) and the frame row cut, and returns an
    array of the broadcast shape (0-d for scalar arguments).  Every row's
    first root on one 40-point grid of openings is found by
    :func:`_first_roots`.
    """
    lam_p = frame.pump_nm if lam_p is None else lam_p
    lam_s = 2.0 * np.asarray(lam_p) if lam_s is None else lam_s
    psi, branch, lam_s, lam_p, cut = np.broadcast_arrays(psi, branch, lam_s, lam_p, cut)
    shape = psi.shape
    psi, branch, lam_s, lam_p, cut = (x.ravel() for x in (psi, branch, lam_s, lam_p, cut))
    k_p = frame.k_pump(lam_p, cut)
    omega = _first_roots(
        lambda om, r: _ring_mismatch(frame, om, psi[r], lam_s[r], lam_p[r], branch[r], k_p[r],
                                     cut[r]),
        np.linspace(1e-5, 0.20, 40), psi.size, xtol=1e-11)
    return omega.reshape(shape)


def _arm_geometry(frame: _PumpFrame, n_psi: int) -> tuple:
    """Both fast/slow ring intersections of every cut in the frame's stack.

    The fast-minus-slow ring opening is scanned at n_psi azimuths on every
    cut in one ring solve; both azimuth crossings of every cut that has
    exactly two are solved together; their fast-ring openings give the
    arms.  The external half-angle refracts the mean internal opening at an
    exit face normal to the pump, with the fast index at arm i:
    sin(ext) = n_fast sin(mean opening).

    Returns (crossings, omega, dirs, ext): the crossing count of each cut
    (C,), and for the cuts with two, the openings (C, 2) and directions
    (C, 2, 3) of arm i then arm j and the external half-angle in degrees
    (C,); NaN for the other cuts.
    """
    n_cut = frame.p.shape[0]

    def diff(psi, cut):
        """Fast minus slow ring opening at each psi; NaN where a ring is absent."""
        psi, cut = np.broadcast_arrays(psi, cut)
        branch = np.array([FAST, SLOW]).reshape((2,) + (1,) * psi.ndim)
        fast, slow = ring_opening_angle(frame, psi, branch, cut=cut)
        return fast - slow

    psis = np.linspace(0.0, TWO_PI, n_psi, endpoint=False)
    vals = diff(psis, np.arange(n_cut)[:, None])
    cells = _bracket_cells(np.concatenate([vals, vals[:, :1]], axis=1))  # the scan wraps around
    crossings = cells.sum(axis=1)
    cut, cell = np.nonzero(cells & (crossings == 2)[:, None])  # arm i, then arm j, per cut
    psi = _solve_bracketed(lambda x, rows: diff(x, cut[rows]),
                           psis[cell], psis[cell] + TWO_PI / n_psi,
                           vals[cut, cell], vals[cut, (cell + 1) % n_psi], xtol=1e-6)
    omega = np.full((n_cut, 2), np.nan)
    dirs = np.full((n_cut, 2, 3), np.nan)
    ext = np.full(n_cut, np.nan)
    arms = cut[::2]
    omega[arms] = ring_opening_angle(frame, psi, FAST, cut=cut).reshape(-1, 2)
    dirs[arms] = frame.direction(omega[arms], psi.reshape(-1, 2), arms[:, None])
    n_fast, _ = index_batch(frame.sellmeier, dirs[arms, 0], 2.0 * frame.pump_nm)
    sin_ext = n_fast * np.sin(0.5 * (omega[arms, 0] + omega[arms, 1]))
    ext[arms] = np.degrees(np.arcsin(np.clip(sin_ext, -1, 1)))
    return crossings, omega, dirs, ext


class NoncollinearArms(_Record):
    """The two ring-intersection directions and their pair nonlinearities."""

    __slots__ = (
        "dir_i",                    # arm on the -H side
        "dir_j",                    # arm on the +H side
        "opening_i",                # internal opening from the pump axis, rad
        "opening_j",
        "d_eff_fs",                 # fast at arm i, slow at arm j
        "d_eff_sf",                 # slow at arm i, fast at arm j
        "fast_deflection_rad",      # fast-eigenpolarization angle from the arm axis at arm i
        "external_half_angle_deg",  # mean opening after Snell refraction, degrees
        "pump_wave",                # the fast pump along the cut axis, as solved for d_eff
    )

    def __init__(self, dir_i: np.ndarray, dir_j: np.ndarray, opening_i: float,
                 opening_j: float, d_eff_fs: float, d_eff_sf: float,
                 fast_deflection_rad: float, external_half_angle_deg: float,
                 pump_wave: WaveSolution):
        self._fill(dir_i, dir_j, opening_i, opening_j, d_eff_fs, d_eff_sf,
                   fast_deflection_rad, external_half_angle_deg, pump_wave)


def noncollinear_arms(crystal: CrystalData, cut: CrystalCut,
                      pump_nm: float = 390.0, n_psi: int = 36) -> NoncollinearArms:
    """Locate the two fast/slow ring intersections for a degenerate cut.

    The arms and the external half-angle come from :func:`_arm_geometry` on
    this one cut.  Each of the three waves (the pump along the axis, and the
    degenerate wave at each arm) is then solved once for d_eff and the
    fast deflection.
    """
    sel = crystal.sellmeier
    frame = _PumpFrame(sel, cut.direction(), pump_nm)
    (crossings,), (omega,), (dirs,), (ext,) = _arm_geometry(frame, n_psi)
    if crossings != 2:
        raise ValueError(
            f"expected exactly two ring intersections, found {crossings}; "
            "the cut may not be in the non-collinear type-II regime"
        )
    d_a, d_b = dirs
    # The vector from arm i to arm j defines the horizontal axis.
    t_ab = frame.transverse(d_b) - frame.transverse(d_a)
    h2 = t_ab / np.linalg.norm(t_ab)
    pump = solve_waves(sel, frame.p[0], pump_nm)
    wave_i, wave_j = solve_waves(sel, d_a, 2.0 * pump_nm), solve_waves(sel, d_b, 2.0 * pump_nm)
    # fast-polarization deflection from the horizontal at arm i
    t = frame.transverse(wave_i.d_fast)
    defl = float(np.arccos(np.clip(abs(np.dot(t, h2)) / np.linalg.norm(t), 0.0, 1.0)))
    return NoncollinearArms(
        dir_i=d_a, dir_j=d_b,
        opening_i=float(omega[0]), opening_j=float(omega[1]),
        d_eff_fs=abs(crystal.tensor.contract(pump.d_fast, wave_i.d_fast, wave_j.d_slow)),
        d_eff_sf=abs(crystal.tensor.contract(pump.d_fast, wave_i.d_slow, wave_j.d_fast)),
        fast_deflection_rad=defl,
        external_half_angle_deg=float(ext),
        pump_wave=pump,
    )


def pair_state_angle(d_eff_arm_i: float, d_eff_arm_j: float) -> float:
    """State angle of cos(theta)|HH> + sin(theta)|VV> from the arm nonlinearities.

    The two polarization orderings are generated with amplitudes
    proportional to their effective nonlinearities, so
    theta = arctan(d_i / d_j).
    """
    if d_eff_arm_i < 0 or d_eff_arm_j < 0:
        raise ValueError("arm nonlinearities are magnitudes, must be >= 0")
    return float(np.arctan2(d_eff_arm_i, d_eff_arm_j))


def _inverse_interpolation(x, y) -> float:
    """The point where the polynomial x(y) through the points (x, y) meets y = 0.

    With two points this is the secant, with three inverse quadratic
    interpolation; NaN where two y values coincide.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    est = 0.0
    for k in range(x.size):
        others = np.delete(y, k)
        with np.errstate(divide="ignore", invalid="ignore"):
            est += x[k] * np.prod(others / (others - y[k]))
    return float(est)


#: offsets of the three cuts around the scan's estimate, rad
CUT_PROBE_RAD = 2e-5


def _refine_scanned_root(f, xs, fs, i: int, xtol: float) -> float:
    """A root of ``f`` in the scanned cell [xs[i], xs[i + 1]], in few batched calls of f.

    1. Inverse interpolation through the finite scan points xs[i - 1 .. i + 2]
       estimates the root (the secant when that leaves the cell).
    2. One call at the estimate and +- CUT_PROBE_RAD; when these bracket the
       root, inverse quadratic interpolation through them improves it.
    3. One call at +- xtol / 4 around that verifies a sign change narrower
       than xtol.

    Every evaluated point inside the verified bracket narrows it.  When a
    batch does not bracket the root, :func:`_solve_bracketed` continues from
    the tightest verified bracket, so nothing is extrapolated.  Returns the
    end of the final bracket with the smaller |residual|, as the solver does.
    """
    a, b, fa, fb = xs[i], xs[i + 1], fs[i], fs[i + 1]

    def narrow(x, fx):
        nonlocal a, b, fa, fb
        for xk, fk in zip(x, fx):
            if a < xk < b and not np.isnan(fk):
                if np.sign(fk) == np.sign(fa):
                    a, fa = xk, fk
                else:
                    b, fb = xk, fk

    near = np.arange(max(i - 1, 0), min(i + 3, xs.size))
    near = near[~np.isnan(fs[near])]
    est = _inverse_interpolation(xs[near], fs[near])
    if not a < est < b:
        est = _inverse_interpolation([a, b], [fa, fb])
    for offsets in ((-CUT_PROBE_RAD, 0.0, CUT_PROBE_RAD), (-0.25 * xtol, 0.25 * xtol)):
        x = est + np.array(offsets)
        fx = f(x)
        narrow(x, fx)
        if abs(b - a) < xtol:
            return float(a if abs(fa) <= abs(fb) else b)
        est = _inverse_interpolation(x, fx)
        if not (a < est < b and np.min(fx) <= 0.0 <= np.max(fx)):
            break
    (root,) = _solve_bracketed(f, a, b, fa, fb, xtol=xtol)
    return float(root)


def cut_for_arm_opening(crystal: CrystalData, pump_nm: float = 390.0,
                        external_half_angle_deg: float = 3.0,
                        phi: float = 0.0, length_mm: float = 2.0) -> CrystalCut:
    """Cut whose degenerate arms exit at the requested external half-angle.

    The search starts from the lower (theta < 90 deg) family's collinear
    phase-matching angle theta_0 at ``phi``.  The upper family needs no
    search of its own: in the principal frame the Fresnel equation depends
    only on s_x^2, s_y^2 and s_z^2, so n(theta, phi) = n(pi - theta, phi)
    and the upper family has a root exactly where the lower one does, at
    pi - theta_0.  The non-collinear regime may open on either side
    of theta_0, so it scans 13 cuts from theta_0 + 0.15 deg to
    theta_0 + 6 deg and, if none of their cells brackets the requested
    angle, 13 from theta_0 - 6 deg to theta_0 - 0.15 deg.  A cut's angle is
    the external half-angle ``noncollinear_arms`` reports for it; a cut
    without two arms brackets nothing.  Each scan is one
    :func:`_arm_geometry` call over its 13 cuts.  The first bracket found
    is refined to a verified sign change narrower than 1e-8 rad by
    :func:`_refine_scanned_root`: one call on 3 cuts, then one on 2, so a
    search takes 3 calls when the first scan brackets the angle.

    Raises ValueError when there is no collinear root at ``phi`` or no
    scanned cell brackets the requested angle.
    """
    coll = phase_match_collinear(crystal, pump_nm, phi_grid=np.array([phi]),
                                 branch="lower")
    if not coll:
        raise ValueError("no collinear phase matching at this azimuth")
    th0 = coll[0].theta

    def f(thetas, rows=None):
        dirs = [CrystalCut(theta, phi, length_mm).direction() for theta in thetas]
        frame = _PumpFrame(crystal.sellmeier, dirs, pump_nm)
        # coarse azimuth bracket suffices: crossings are refined by the solver
        return _arm_geometry(frame, n_psi=12)[-1] - external_half_angle_deg

    for lo, hi in ((th0 + np.radians(0.15), th0 + np.radians(6.0)),
                   (th0 - np.radians(6.0), th0 - np.radians(0.15))):
        span = np.linspace(lo, hi, 13)
        vals = f(span)
        cells = _bracket_cells(vals)
        if cells.any():
            theta = _refine_scanned_root(f, span, vals, int(cells.argmax()), xtol=1e-8)
            return CrystalCut(theta, phi, length_mm)
    raise ValueError("no cut with the requested arm opening in the scanned range")


# ---------------------------------------------------------------------------
# Emission rings and spectra
# ---------------------------------------------------------------------------

def _gaussian_samples(center: float, fwhm: float, n: int, half_span: float) -> tuple:
    """(wavelengths, weights): n samples across center +- half_span sigma of a
    Gaussian spectrum of the given FWHM, with its unnormalised weights.

    A width whose sigma is not positive (zero, or so small that it underflows)
    gives the center alone with weight 1: a monochromatic line.  So does a
    single sample (n = 1).
    """
    sigma = fwhm / 2.3548
    if not sigma > 0 or n == 1:
        return np.array([center]), np.array([1.0])
    lam = np.linspace(center - half_span * sigma, center + half_span * sigma, n)
    return lam, np.exp(-0.5 * ((lam - center) / sigma) ** 2)


class RingCloud(_Record):
    """Point cloud of phase-matched emission directions.

    Columns: transverse direction components (kx, ky) in the pump frame,
    wavelength (nm), intensity weight, polarization branch.
    """

    __slots__ = ("kx", "ky", "wavelength_nm", "weight",
                 "branch")                  # 'fast'/'slow' strings

    def __init__(self, kx: np.ndarray, ky: np.ndarray, wavelength_nm: np.ndarray,
                 weight: np.ndarray, branch: np.ndarray):
        self._fill(kx, ky, wavelength_nm, weight, branch)

    def radial_spread(self, branch: str = FAST) -> float:
        """Mean over azimuth of (max-min) opening angle, rad; the ring width."""
        mask = self.branch == branch
        if not np.any(mask):
            return 0.0
        kx, ky = self.kx[mask], self.ky[mask]
        r = np.hypot(kx, ky)
        psi = np.arctan2(ky, kx)
        spreads = []
        for lo in np.arange(-np.pi, np.pi, np.pi / 4):
            sel = (psi >= lo) & (psi < lo + np.pi / 4)
            if np.count_nonzero(sel) > 1:
                spreads.append(r[sel].max() - r[sel].min())
        return float(np.mean(spreads)) if spreads else 0.0


def spdc_rings(crystal: CrystalData, cut: CrystalCut,
               pump_nm: float = 390.0, pump_fwhm_nm: float = 2.1,
               filter_fwhm_nm: float = 3.0,
               n_psi: int = 48, n_signal: int = 5, n_pump: int = 3) -> RingCloud:
    """Sample both emission rings across the pump and filter acceptance.

    Points are ring-center directions for each (azimuth, signal wavelength,
    pump wavelength) triple, weighted by a Gaussian pump spectrum and a
    Gaussian filter acceptance; each satisfies |Delta k| < DELTA_K_TOL by
    construction of the ring root-find.  The finite-length sinc width adds
    two half-maximum edge points per center when the crystal is short
    enough for that width to matter.
    """
    frame = _PumpFrame(crystal.sellmeier, cut.direction(), pump_nm)
    lam_ss, w_ss = _gaussian_samples(2.0 * pump_nm, filter_fwhm_nm, n_signal, 2.0)
    lam_ps, w_ps = _gaussian_samples(pump_nm, pump_fwhm_nm, n_pump, 2.0)
    L_um = cut.length_mm * 1e3
    # one row per (branch, psi, signal sample, pump sample), in that nesting order
    branch, psi, i_s, i_p = (x.ravel() for x in np.meshgrid(
        np.array([FAST, SLOW]), np.linspace(0.0, TWO_PI, n_psi, endpoint=False),
        np.arange(lam_ss.size), np.arange(lam_ps.size), indexing="ij"))
    om = ring_opening_angle(frame, psi, branch, lam_ss[i_s], lam_ps[i_p])
    found = ~np.isnan(om)
    branch, psi, i_s, i_p, om = (x[found] for x in (branch, psi, i_s, i_p, om))
    lam_s, lam_p = lam_ss[i_s], lam_ps[i_p]
    # half-max angular half-width of sinc^2(dk_par L/2)
    h = 1e-5
    up, down = _ring_mismatch(frame, om + np.array([[h], [-h]]), psi, lam_s, lam_p, branch)
    slope = np.abs(up - down) / (2 * h)
    half_w = np.divide(2.7831, L_um * slope, out=np.zeros_like(slope), where=slope != 0)
    # each centre, then its two half-maximum edge points where the width matters
    edges = (1e-5 < half_w) & (half_w < 0.05)
    opening = np.stack([om, om - half_w, om + half_w], axis=1)
    row, col = np.nonzero(np.stack([np.ones_like(edges), edges, edges], axis=1) & (opening > 0))
    t = frame.transverse(frame.direction(opening[row, col], psi[row]))
    weight = w_ss[i_s[row]] * w_ps[i_p[row]] * np.array([1.0, 0.5, 0.5])[col]
    if not row.size:
        warnings.warn("empty acceptance: no phase-matched directions found")
    return RingCloud(t[:, 0], t[:, 1], lam_s[row], weight, branch[row])


def spectral_fwhm(crystal: CrystalData, cut: CrystalCut, arm: str = "signal",
                  pump_fwhm_nm: float = 2.1, pump_nm: float = 390.0,
                  n_points: int = 161) -> float:
    """FWHM (nm) of one arm's phase-matching spectrum.

    The measured photon sits at a fixed ring-intersection direction (the
    fast photon for 'signal', slow for 'idler'); its partner's direction
    floats to cancel the transverse mismatch, and the longitudinal residue
    enters a sinc^2(dk_z L / 2) profile that is summed over a Gaussian
    pump spectrum.
    """
    if arm not in ("signal", "idler"):
        raise ValueError("arm must be 'signal' or 'idler'")
    sel = crystal.sellmeier
    p = cut.direction()
    frame = _PumpFrame(sel, p, pump_nm)
    arms = noncollinear_arms(crystal, cut, pump_nm)
    meas_branch = FAST if arm == "signal" else SLOW
    other = SLOW if meas_branch == FAST else FAST
    d_meas = arms.dir_i if arm == "signal" else arms.dir_j
    cos_om = float(np.dot(d_meas, p))
    t_vec = d_meas - cos_om * p
    sin_om = float(np.linalg.norm(t_vec))
    t_hat = t_vec / sin_om
    L_um = cut.length_mm * 1e3
    lam0 = 2.0 * pump_nm
    lam_grid = np.linspace(lam0 - SPECTRUM_SPAN_NM, lam0 + SPECTRUM_SPAN_NM, n_points)
    lam_ps, weights = _gaussian_samples(pump_nm, pump_fwhm_nm, 7, 2.5)
    weights /= weights.sum()
    # rows: pump wavelengths; columns: measured-photon wavelengths
    k_p = frame.k_pump(lam_ps)[:, None]
    k_s = _wave_numbers(sel, d_meas, lam_grid, meas_branch)
    k_t = k_s * sin_om
    lam_i = 1.0 / (1.0 / lam_ps[:, None] - 1.0 / lam_grid)
    d_i = p
    for _ in range(6):  # fixed point: idler polar angle cancels k_t
        s_t = k_t / _wave_numbers(sel, d_i, lam_i, other)
        # a point with s_t >= 1 has no partner; it keeps its d_i and stays so
        c_t = np.sqrt(np.where(s_t < 1.0, 1.0 - s_t * s_t, 0.0))
        d_i = np.where((s_t < 1.0)[..., None],
                       c_t[..., None] * p - s_t[..., None] * t_hat, d_i)
    k_i = _wave_numbers(sel, d_i, lam_i, other)
    matched = k_t / k_i < 1.0
    s_t = np.where(matched, k_t / k_i, 0.0)
    dk_z = k_p - k_s * cos_om - k_i * np.sqrt(1.0 - s_t ** 2)
    profile = np.sum(weights[:, None] * np.where(
        matched, np.sinc(dk_z * L_um / 2.0 / np.pi) ** 2, 0.0), axis=0)
    return _fwhm_of_profile(lam_grid, profile)


def _fwhm_of_profile(x: np.ndarray, y: np.ndarray) -> float:
    """FWHM by linear interpolation; the half maximum must lie inside the grid."""
    peak_idx = int(np.argmax(y))
    half = y[peak_idx] / 2.0
    below = np.flatnonzero(y <= half)
    left_of, right_of = below[below < peak_idx], below[below > peak_idx]
    if not (half > 0.0 and left_of.size and right_of.size):
        raise NumericalConsistencyError(
            f"half maximum not bracketed inside the {x[0]:g}-{x[-1]:g} nm spectral grid")
    j = left_of[-1]
    left = x[j] + (half - y[j]) * (x[j + 1] - x[j]) / (y[j + 1] - y[j])
    j = right_of[0]
    right = x[j - 1] + (half - y[j - 1]) * (x[j] - x[j - 1]) / (y[j] - y[j - 1])
    return float(right - left)
