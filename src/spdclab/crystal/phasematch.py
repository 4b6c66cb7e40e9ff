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
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import brentq

from ..errors import NumericalConsistencyError
from .materials import CrystalCut, CrystalData, SellmeierSet, polar_direction
from .optics import FAST, SLOW, index_batch, solve_waves, transverse_frame

TWO_PI = 2.0 * np.pi

#: |Delta k| accepted as phase matched, rad/um
DELTA_K_TOL = 1e-6

COLLINEAR = "collinear"
NONCOLLINEAR = "noncollinear"


@dataclass(frozen=True)
class PhaseMatchSolution:
    """One phase-matched configuration (collinear sample or ring point)."""

    signal_wavelength_nm: float
    idler_wavelength_nm: float
    pump_wavelength_nm: float
    theta: float
    phi: float
    delta_k_residual: float       # rad/um
    d_eff_pm_v: float
    walkoff_fast: float
    walkoff_slow: float
    n_pump: float
    n_signal: float
    n_idler: float

    def __post_init__(self):
        inv = 1.0 / self.pump_wavelength_nm
        inv_sum = 1.0 / self.signal_wavelength_nm + 1.0 / self.idler_wavelength_nm
        if abs(inv - inv_sum) > 1e-9:
            raise ValueError("energy conservation violated beyond 1e-9 nm^-1")


def _wave_numbers(sellmeier: SellmeierSet, directions: np.ndarray,
                  wavelength_nm: float, branch: str) -> np.ndarray:
    """|k| in rad/um of one branch for an (N, 3) block of directions."""
    n_fast, n_slow = index_batch(sellmeier, directions, wavelength_nm)
    return TWO_PI / (wavelength_nm * 1e-3) * (n_fast if branch == FAST else n_slow)


def _bracket_starts(vals: np.ndarray) -> np.ndarray:
    """Indices i whose grid cell [i, i + 1] brackets a root; NaN cells never do."""
    a, b = vals[:-1], vals[1:]
    return np.flatnonzero(((a == 0.0) | (a * b < 0.0)) & ~np.isnan(b))


def collinear_mismatch(sellmeier: SellmeierSet, theta, phi: float, pump_nm: float):
    """Delta k = k_p - k_fast - k_slow for degenerate collinear type II, rad/um.

    Vectorized over theta; a scalar theta gives a float.
    """
    s = np.reshape(polar_direction(theta, phi), (-1, 3))
    n_pump, _ = index_batch(sellmeier, s, pump_nm)
    n_fast, n_slow = index_batch(sellmeier, s, 2.0 * pump_nm)
    dk = (TWO_PI / (pump_nm * 1e-3)) * (n_pump - 0.5 * (n_fast + n_slow))
    return float(dk[0]) if np.ndim(theta) == 0 else dk


def d_eff_contraction(crystal: CrystalData, pump_dir, sig_dir, idl_dir,
                      pump_nm: float, sig_nm: float, idl_nm: float,
                      sig_branch: str = FAST, idl_branch: str = SLOW) -> float:
    """|d_eff| for fast pump and the given signal/idler branches."""
    ep = solve_waves(crystal.sellmeier, pump_dir, pump_nm).d_vec(FAST)
    es = solve_waves(crystal.sellmeier, sig_dir, sig_nm).d_vec(sig_branch)
    ei = solve_waves(crystal.sellmeier, idl_dir, idl_nm).d_vec(idl_branch)
    return abs(crystal.tensor.contract(ep, es, ei))


def phase_match_collinear(
    crystal: CrystalData,
    pump_nm: float = 390.0,
    phi_grid: Optional[np.ndarray] = None,
    branch: str = "upper",
    scan_step_rad: float = np.radians(0.5),
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
    samples = []
    thetas = np.arange(th_lo, th_hi, scan_step_rad)
    for phi in np.atleast_1d(phi_grid):
        f = lambda th: collinear_mismatch(sel, th, phi, pump_nm)
        starts = _bracket_starts(collinear_mismatch(sel, thetas, phi, pump_nm))
        if not starts.size:
            continue
        i = starts[0]
        root = brentq(f, thetas[i], thetas[i + 1], xtol=1e-12)
        s = polar_direction(root, phi)
        pump = solve_waves(sel, s, pump_nm)
        down = solve_waves(sel, s, down_nm)
        samples.append(PhaseMatchSolution(
            signal_wavelength_nm=down_nm, idler_wavelength_nm=down_nm,
            pump_wavelength_nm=pump_nm,
            theta=root, phi=float(phi),
            delta_k_residual=f(root),
            d_eff_pm_v=abs(crystal.tensor.contract(
                pump.d_fast, down.d_fast, down.d_slow)),
            walkoff_fast=down.walkoff_fast, walkoff_slow=down.walkoff_slow,
            n_pump=pump.n_fast, n_signal=down.n_fast, n_idler=down.n_slow,
        ))
    return samples


# ---------------------------------------------------------------------------
# Non-collinear geometry
# ---------------------------------------------------------------------------

class _PumpFrame:
    """Orthonormal frame with e3 along the pump; directions from (omega, psi)."""

    def __init__(self, sellmeier: SellmeierSet, cut: CrystalCut, pump_nm: float):
        self.sellmeier = sellmeier
        self.pump_nm = pump_nm
        self.p = cut.direction()
        (self.e1,), (self.e2,) = transverse_frame(self.p[None, :])

    def k_pump(self, pump_nm: Optional[float] = None) -> float:
        lam = self.pump_nm if pump_nm is None else pump_nm
        return float(_wave_numbers(self.sellmeier, self.p[None, :], lam, FAST)[0])

    def direction(self, omega, psi: float) -> np.ndarray:
        """Unit vector at opening omega and azimuth psi; (N, 3) for array omega."""
        omega = np.asarray(omega, dtype=float)[..., None]
        return (np.cos(omega) * self.p
                + np.sin(omega) * (np.cos(psi) * self.e1 + np.sin(psi) * self.e2))

    def transverse(self, d: np.ndarray) -> np.ndarray:
        t = d - np.dot(d, self.p) * self.p
        return np.array([np.dot(t, self.e1), np.dot(t, self.e2)])


def _ring_mismatch(frame: _PumpFrame, omega, psi: float,
                   lam_s: float, lam_p: float, branch: str,
                   k_p: Optional[float] = None):
    """Residual |k_p - k_s| - k_i for a partner of the opposite branch.

    Vectorized over omega; a scalar omega gives a float.
    """
    sel = frame.sellmeier
    lam_i = 1.0 / (1.0 / lam_p - 1.0 / lam_s)
    if k_p is None:
        k_p = frame.k_pump(lam_p)
    d = np.reshape(frame.direction(omega, psi), (-1, 3))
    v = k_p * frame.p - _wave_numbers(sel, d, lam_s, branch)[:, None] * d
    nv = np.linalg.norm(v, axis=1)
    res = nv - _wave_numbers(sel, v / nv[:, None], lam_i, SLOW if branch == FAST else FAST)
    return float(res[0]) if np.ndim(omega) == 0 else res


def ring_opening_angle(frame: _PumpFrame, psi: float, branch: str,
                       lam_s: Optional[float] = None,
                       lam_p: Optional[float] = None) -> Optional[float]:
    """Opening angle of the branch ring at azimuth psi, or None if absent."""
    lam_p = frame.pump_nm if lam_p is None else lam_p
    lam_s = 2.0 * lam_p if lam_s is None else lam_s
    k_p = frame.k_pump(lam_p)
    # vectorized bracket scan, scalar refinement
    f = lambda om: _ring_mismatch(frame, om, psi, lam_s, lam_p, branch, k_p)
    grid = np.linspace(1e-5, 0.20, 40)
    starts = _bracket_starts(f(grid))
    if not starts.size:
        return None
    return brentq(f, grid[starts[0]], grid[starts[0] + 1], xtol=1e-11)


@dataclass(frozen=True)
class NoncollinearArms:
    """The two ring-intersection directions and their pair nonlinearities."""

    dir_i: np.ndarray             # arm on the -H side
    dir_j: np.ndarray             # arm on the +H side
    opening_i: float
    opening_j: float
    d_eff_fs: float               # fast at arm i, slow at arm j
    d_eff_sf: float               # slow at arm i, fast at arm j
    fast_deflection_rad: float    # fast-eigenpolarization angle from the arm axis at arm i

    @property
    def external_opening_deg(self) -> float:
        return float(np.degrees(0.5 * (self.opening_i + self.opening_j)))


def noncollinear_arms(crystal: CrystalData, cut: CrystalCut,
                      pump_nm: float = 390.0, n_psi: int = 36) -> NoncollinearArms:
    """Locate the two fast/slow ring intersections for a degenerate cut."""
    sel = crystal.sellmeier
    frame = _PumpFrame(sel, cut, pump_nm)
    lam = 2.0 * pump_nm

    def diff(psi):
        of = ring_opening_angle(frame, psi, FAST)
        os_ = ring_opening_angle(frame, psi, SLOW)
        if of is None or os_ is None:
            return np.nan
        return of - os_

    psis = np.linspace(0.0, TWO_PI, n_psi, endpoint=False)
    vals = np.array([diff(p) for p in psis])
    hits = []
    for i in _bracket_starts(np.append(vals, vals[0])):  # the scan wraps around
        psi = brentq(diff, psis[i], psis[i] + TWO_PI / n_psi, xtol=1e-6)
        om = ring_opening_angle(frame, psi, FAST)
        hits.append((om, frame.direction(om, psi)))
    if len(hits) != 2:
        raise ValueError(
            f"expected exactly two ring intersections, found {len(hits)}; "
            "the cut may not be in the non-collinear type-II regime"
        )
    (om_a, d_a), (om_b, d_b) = hits
    # The vector from arm i to arm j defines the horizontal axis.
    t_ab = frame.transverse(d_b) - frame.transverse(d_a)
    h2 = t_ab / np.linalg.norm(t_ab)
    d_fs = d_eff_contraction(crystal, frame.p, d_a, d_b, pump_nm, lam, lam, FAST, SLOW)
    d_sf = d_eff_contraction(crystal, frame.p, d_a, d_b, pump_nm, lam, lam, SLOW, FAST)
    # fast-polarization deflection from the horizontal at arm i
    t = frame.transverse(solve_waves(sel, d_a, lam).d_fast)
    defl = float(np.arccos(np.clip(abs(np.dot(t, h2)) / np.linalg.norm(t), 0.0, 1.0)))
    return NoncollinearArms(
        dir_i=d_a, dir_j=d_b,
        opening_i=float(om_a), opening_j=float(om_b),
        d_eff_fs=d_fs, d_eff_sf=d_sf,
        fast_deflection_rad=defl,
    )


def d_eff_typeII(crystal: CrystalData, cut: CrystalCut,
                 geometry: str = COLLINEAR, pump_nm: float = 390.0):
    """Effective nonlinearity at a cut.

    ``collinear`` returns the single |d_eff| at the cut direction;
    ``noncollinear`` returns the (d_fs, d_sf) pair at the two ring arms.
    """
    if geometry == COLLINEAR:
        s = cut.direction()
        return d_eff_contraction(crystal, s, s, s, pump_nm, 2 * pump_nm, 2 * pump_nm)
    if geometry == NONCOLLINEAR:
        arms = noncollinear_arms(crystal, cut, pump_nm)
        return arms.d_eff_fs, arms.d_eff_sf
    raise ValueError(f"geometry must be '{COLLINEAR}' or '{NONCOLLINEAR}'")


def cut_for_arm_opening(crystal: CrystalData, pump_nm: float = 390.0,
                        external_half_angle_deg: float = 3.0,
                        phi: float = 0.0, length_mm: float = 2.0) -> CrystalCut:
    """Cut whose degenerate arms exit at the requested external half-angle.

    Sweeps theta above the collinear phase-matching angle at fixed phi;
    external angles follow from Snell refraction at an exit face normal to
    the pump.
    """
    sel = crystal.sellmeier
    coll = phase_match_collinear(crystal, pump_nm, phi_grid=np.array([phi]),
                                 branch="lower")
    if not coll:
        coll = phase_match_collinear(crystal, pump_nm, phi_grid=np.array([phi]))
    if not coll:
        raise ValueError("no collinear phase matching at this azimuth")
    th0 = coll[0].theta

    def ext_deg(theta):
        cut = CrystalCut(theta, phi, length_mm)
        try:
            # coarse azimuth bracket suffices: crossings are refined by brentq
            arms = noncollinear_arms(crystal, cut, pump_nm, n_psi=12)
        except ValueError:
            return np.nan
        om = 0.5 * (arms.opening_i + arms.opening_j)
        n = index_batch(sel, arms.dir_i[None, :], 2 * pump_nm)[0][0]
        return float(np.degrees(np.arcsin(np.clip(n * np.sin(om), -1, 1))))

    f = lambda th: ext_deg(th) - external_half_angle_deg
    # the non-collinear regime may open on either side of the collinear angle
    for lo, hi in ((th0 + np.radians(0.15), th0 + np.radians(6.0)),
                   (th0 - np.radians(6.0), th0 - np.radians(0.15))):
        span = np.linspace(lo, hi, 13)
        for i in _bracket_starts(np.array([f(t) for t in span])):
            theta = brentq(f, span[i], span[i + 1], xtol=1e-8)
            return CrystalCut(theta, phi, length_mm)
    raise ValueError("no cut with the requested arm opening in the scanned range")


# ---------------------------------------------------------------------------
# Emission rings and spectra
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingCloud:
    """Point cloud of phase-matched emission directions.

    Columns: transverse direction components (kx, ky) in the pump frame,
    wavelength (nm), intensity weight, polarization branch.
    """

    kx: np.ndarray
    ky: np.ndarray
    wavelength_nm: np.ndarray
    weight: np.ndarray
    branch: np.ndarray            # 'fast'/'slow' strings

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("kx,ky,wavelength_nm,weight,branch\n")
        for i in range(self.kx.size):
            buf.write(f"{self.kx[i]:.6e},{self.ky[i]:.6e},"
                      f"{self.wavelength_nm[i]:.3f},{self.weight[i]:.5f},{self.branch[i]}\n")
        return buf.getvalue()

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
    frame = _PumpFrame(crystal.sellmeier, cut, pump_nm)
    lam0 = 2.0 * pump_nm
    sig_p = pump_fwhm_nm / 2.3548 if pump_fwhm_nm > 0 else 0.0
    sig_f = filter_fwhm_nm / 2.3548 if filter_fwhm_nm > 0 else 0.0
    lam_ps = np.linspace(pump_nm - 2 * sig_p, pump_nm + 2 * sig_p, n_pump) \
        if sig_p > 0 else np.array([pump_nm])
    lam_ss = np.linspace(lam0 - 2 * sig_f, lam0 + 2 * sig_f, n_signal) \
        if sig_f > 0 else np.array([lam0])
    L_um = cut.length_mm * 1e3
    kx, ky, lam, wt, br = [], [], [], [], []
    for branch in (FAST, SLOW):
        for psi in np.linspace(0.0, TWO_PI, n_psi, endpoint=False):
            for lam_s in lam_ss:
                w_f = np.exp(-0.5 * ((lam_s - lam0) / sig_f) ** 2) if sig_f > 0 else 1.0
                for lam_p in lam_ps:
                    w_p = np.exp(-0.5 * ((lam_p - pump_nm) / sig_p) ** 2) if sig_p > 0 else 1.0
                    om = ring_opening_angle(frame, psi, branch, lam_s, lam_p)
                    if om is None:
                        continue
                    # half-max angular half-width of sinc^2(dk_par L/2)
                    h = 1e-5
                    up, down = _ring_mismatch(frame, np.array([om + h, om - h]),
                                              psi, lam_s, lam_p, branch)
                    slope = (up - down) / (2 * h)
                    half_w = 2.7831 / (L_um * abs(slope)) if slope != 0 else 0.0
                    pts = [(om, 1.0)]
                    if 1e-5 < half_w < 0.05:
                        pts += [(om - half_w, 0.5), (om + half_w, 0.5)]
                    for o, w_edge in pts:
                        if o <= 0:
                            continue
                        d = frame.direction(o, psi)
                        t = frame.transverse(d)
                        kx.append(t[0])
                        ky.append(t[1])
                        lam.append(lam_s)
                        wt.append(w_f * w_p * w_edge)
                        br.append(branch)
    if not kx:
        warnings.warn("empty acceptance: no phase-matched directions found")
    return RingCloud(np.array(kx), np.array(ky), np.array(lam),
                     np.array(wt), np.array(br))


def spectral_fwhm(crystal: CrystalData, cut: CrystalCut, arm: str = "signal",
                  pump_fwhm_nm: float = 2.1, pump_nm: float = 390.0,
                  span_nm: float = 40.0, n_points: int = 161) -> float:
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
    frame = _PumpFrame(sel, cut, pump_nm)
    arms = noncollinear_arms(crystal, cut, pump_nm)
    meas_branch = FAST if arm == "signal" else SLOW
    other = SLOW if meas_branch == FAST else FAST
    d_meas = arms.dir_i if arm == "signal" else arms.dir_j
    cos_om = float(np.dot(d_meas, frame.p))
    t_vec = d_meas - cos_om * frame.p
    sin_om = float(np.linalg.norm(t_vec))
    t_hat = t_vec / sin_om
    L_um = cut.length_mm * 1e3
    lam0 = 2.0 * pump_nm
    lam_grid = np.linspace(lam0 - span_nm, lam0 + span_nm, n_points)
    if pump_fwhm_nm > 0:
        sig = pump_fwhm_nm / 2.3548
        lam_ps = np.linspace(pump_nm - 2.5 * sig, pump_nm + 2.5 * sig, 7)
        weights = np.exp(-0.5 * ((lam_ps - pump_nm) / sig) ** 2)
        weights /= weights.sum()
    else:
        lam_ps = np.array([pump_nm])
        weights = np.array([1.0])
    profile = np.zeros_like(lam_grid)
    k_ss = np.array([_wave_numbers(sel, d_meas[None, :], lam_s, meas_branch)[0]
                     for lam_s in lam_grid])
    for lam_p, w in zip(lam_ps, weights):
        k_p = frame.k_pump(lam_p)
        for idx, (lam_s, k_s) in enumerate(zip(lam_grid, k_ss)):
            lam_i = 1.0 / (1.0 / lam_p - 1.0 / lam_s)
            k_t = k_s * sin_om
            d_i = frame.p
            for _ in range(6):  # fixed point: idler polar angle cancels k_t
                k_i = _wave_numbers(sel, d_i[None, :], lam_i, other)[0]
                s_t = k_t / k_i
                if s_t >= 1.0:
                    break
                d_i = np.sqrt(1.0 - s_t * s_t) * frame.p - s_t * t_hat
            k_i = _wave_numbers(sel, d_i[None, :], lam_i, other)[0]
            if k_t / k_i >= 1.0:
                continue
            dk_z = k_p - k_s * cos_om - k_i * np.sqrt(1.0 - (k_t / k_i) ** 2)
            profile[idx] += w * np.sinc(dk_z * L_um / 2.0 / np.pi) ** 2
    return _fwhm_of_profile(lam_grid, profile)


def _fwhm_of_profile(x: np.ndarray, y: np.ndarray) -> float:
    """FWHM by linear interpolation; the half maximum must lie inside the grid."""
    peak_idx = int(np.argmax(y))
    half = y[peak_idx] / 2.0
    below = np.flatnonzero(y <= half)
    left_of, right_of = below[below < peak_idx], below[below > peak_idx]
    if not (half > 0.0 and left_of.size and right_of.size):
        raise NumericalConsistencyError(
            "half maximum not bracketed inside the spectral grid; widen the span")
    j = left_of[-1]
    left = x[j] + (half - y[j]) * (x[j + 1] - x[j]) / (y[j + 1] - y[j])
    j = right_of[0]
    right = x[j - 1] + (half - y[j - 1]) * (x[j] - x[j - 1]) / (y[j] - y[j - 1])
    return float(right - left)
