import numpy as np
import pytest
from scipy.optimize import brentq

from spdclab import crystal
from spdclab.crystal import phasematch
from spdclab.crystal import (
    CrystalCut,
    collinear_d_eff,
    cut_for_arm_opening,
    noncollinear_arms,
    phase_match_collinear,
    solve_waves,
    spdc_rings,
    spectral_fwhm,
)
from spdclab.crystal.materials import CrystalData, NonlinearTensor
from spdclab.errors import NumericalConsistencyError

SEVEN_PI_30 = 7 * np.pi / 30


@pytest.fixture(scope="module")
def bibo_curve(bibo):
    return phase_match_collinear(bibo)


@pytest.fixture(scope="module")
def bbo_cut_3deg(bbo):
    return cut_for_arm_opening(bbo, external_half_angle_deg=3.0, length_mm=2.0)


class TestCollinearCurve:
    def test_all_samples_phase_matched(self, bibo_curve):
        assert len(bibo_curve) > 50
        for s in bibo_curve:
            assert abs(s.delta_k_residual) < crystal.DELTA_K_TOL

    def test_bibo_max_d_eff(self, bibo_curve):
        best = max(s.d_eff_pm_v for s in bibo_curve)
        assert abs(best - 1.94) / 1.94 < 0.10

    def test_bbo_max_d_eff(self, bbo):
        curve = phase_match_collinear(bbo, branch="lower")
        best = max(s.d_eff_pm_v for s in curve)
        assert abs(best - 1.15) / 1.15 < 0.10

    def test_bbo_theta_independent_of_phi(self, bbo):
        curve = phase_match_collinear(bbo, branch="lower")
        thetas = [s.theta for s in curve]
        assert max(thetas) - min(thetas) < 1e-9

    def test_minimal_walkoff_region(self, bibo):
        """Near the curve terminus both walk-offs shrink to ~0.011 rad while
        d_eff stays near 1.1 pm/V."""
        fine = phase_match_collinear(
            bibo, phi_grid=np.radians(np.arange(20.0, 23.01, 0.1)))
        sample = min(fine, key=lambda s: np.hypot(s.walkoff_fast, s.walkoff_slow))
        quad = np.hypot(sample.walkoff_fast, sample.walkoff_slow)
        assert abs(quad - 0.011) / 0.011 < 0.15
        assert abs(sample.d_eff_pm_v - 1.1) / 1.1 < 0.15

    @pytest.mark.parametrize("species", ["bbo", "bibo"])
    def test_upper_family_mirrors_lower(self, species, request):
        """n(theta, phi) = n(pi - theta, phi): the upper family has its roots at pi
        minus the lower family's, at the same azimuths and with the same walk-offs.
        d_eff is left free: the tensor does not share the symmetry for BiBO."""
        crys = request.getfixturevalue(species)
        phis = np.radians(np.arange(0.0, 360.0, 3.0))
        for pump_nm in (385.0, 390.0, 395.0):
            lower = phase_match_collinear(crys, pump_nm, phis, branch="lower")
            upper = phase_match_collinear(crys, pump_nm, phis, branch="upper")
            assert lower and [s.phi for s in upper] == [s.phi for s in lower]
            for lo, up in zip(lower, upper):
                assert abs(up.theta - (np.pi - lo.theta)) < 1e-12
                assert abs(up.walkoff_fast - lo.walkoff_fast) < 1e-6
                assert abs(up.walkoff_slow - lo.walkoff_slow) < 1e-6

    def test_gap_reported_as_missing_samples(self, bibo):
        # no collinear type-II solution at low azimuth: skipped, not an error
        samples = phase_match_collinear(bibo, phi_grid=np.radians([5.0, 10.0]))
        assert samples == []


class TestDEffConventions:
    def test_bbo_contraction_matches_closed_form(self, bbo):
        """Oracle: pure-d22 type-II closed form |d22 cos^2(theta) cos(3 phi)|."""
        pure = NonlinearTensor.from_elements(
            "3m", {"d22": 2.2, "d21": -2.2, "d16": -2.2}, "oracle fixture")
        crys = CrystalData(sellmeier=bbo.sellmeier, tensor=pure)
        for theta in (0.55, 0.7533, 0.9):
            for phi in (0.0, 0.4, np.pi / 3, 1.2):
                s = CrystalCut(theta, phi, 1.0).direction()
                got = collinear_d_eff(crys, solve_waves(bbo.sellmeier, s, 390.0),
                                      solve_waves(bbo.sellmeier, s, 780.0))
                want = abs(2.2 * np.cos(theta) ** 2 * np.cos(3 * phi))
                assert abs(got - want) < 1e-9

    def test_sign_flip_of_all_fields_leaves_d_eff_invariant(self, bibo):
        rng = np.random.default_rng(12)
        for _ in range(10):
            ep, es, ei = rng.normal(size=(3, 3))
            a = abs(bibo.tensor.contract(ep, es, ei))
            b = abs(bibo.tensor.contract(-ep, -es, -ei))
            assert abs(a - b) < 1e-12


class TestNoncollinearArms:
    def test_two_arms_found(self, bibo_arms):
        assert bibo_arms.opening_i > 0 and bibo_arms.opening_j > 0
        # degenerate arms sit a few degrees from the pump axis
        assert 0.03 < bibo_arms.opening_i < 0.09

    def test_arm_pair_nonlinearities(self, bibo_arms):
        lo, hi = sorted((bibo_arms.d_eff_fs, bibo_arms.d_eff_sf))
        assert abs(lo - 1.84) / 1.84 < 0.10
        assert abs(hi - 2.02) / 2.02 < 0.10

    def test_pair_state_angle_near_published(self, bibo_arms):
        lo, hi = sorted((bibo_arms.d_eff_fs, bibo_arms.d_eff_sf))
        angle = crystal.pair_state_angle(lo, hi)
        assert abs(angle - SEVEN_PI_30) / SEVEN_PI_30 < 0.015

    def test_fast_polarization_deflection(self, bibo_arms):
        # published geometry: ~15 degrees between the fast eigenpolarization
        # and the axis joining the intersections
        defl = np.degrees(bibo_arms.fast_deflection_rad)
        assert abs(defl - 15.0) < 3.0

    @pytest.mark.parametrize("species", ["bbo", "bibo"])
    def test_external_half_angle_is_snell_at_arm_i(self, species, request):
        """Oracle: sin(ext) = n_fast(arm i) sin(mean opening), n from solve_waves."""
        crys = request.getfixturevalue(species)
        arms = noncollinear_arms(crys, crys.reference_cut)
        n = solve_waves(crys.sellmeier, arms.dir_i, 2 * 390.0).n_fast
        om = 0.5 * (arms.opening_i + arms.opening_j)
        want = np.degrees(np.arcsin(n * np.sin(om)))
        assert abs(arms.external_half_angle_deg - want) < 1e-12
        # refraction out of the denser crystal opens the arms
        assert arms.external_half_angle_deg > np.degrees(om)

    def test_each_wave_solved_once(self, bibo, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return solve_waves(*args)

        monkeypatch.setattr(phasematch, "solve_waves", counting)
        noncollinear_arms(bibo, bibo.reference_cut)
        assert len(calls) == 3

    def test_over_matched_cut_has_no_arms(self, bibo):
        # beyond the collinear curve the pump carries too much momentum and
        # no degenerate rings exist at all
        curve = phase_match_collinear(bibo, phi_grid=np.radians([55.0]))
        cut = CrystalCut(curve[0].theta + 0.02, curve[0].phi, 0.6)
        with pytest.raises(ValueError):
            noncollinear_arms(bibo, cut)


class TestCutForArmOpening:
    def test_bbo_three_degree_cut(self, bbo, bbo_cut_3deg):
        arms = noncollinear_arms(bbo, bbo_cut_3deg)
        om = 0.5 * (arms.opening_i + arms.opening_j)
        n = solve_waves(bbo.sellmeier, arms.dir_i, 780.0).n_fast
        ext = np.degrees(np.arcsin(n * np.sin(om)))
        assert abs(ext - 3.0) < 0.05
        assert abs(bbo_cut_3deg.theta - bbo.reference_cut.theta) < 2e-3

    # theta found before the scan was batched; the search solves it to 1e-8 rad
    @pytest.mark.parametrize("species,phi,theta", [
        ("bbo", 0.0, 0.7666500690517719),
        ("bibo", 0.962, 1.1508150606158853),  # lower family, not the 1.944 reference cut
    ])
    def test_three_degree_cut_at_reference_phi(self, species, phi, theta, request):
        crys = request.getfixturevalue(species)
        cut = cut_for_arm_opening(crys, external_half_angle_deg=3.0, phi=phi, length_mm=1.0)
        assert (cut.phi, cut.length_mm) == (phi, 1.0)
        assert abs(cut.theta - theta) < 1e-8
        arms = noncollinear_arms(crys, cut, n_psi=12)
        om = 0.5 * (arms.opening_i + arms.opening_j)
        n = solve_waves(crys.sellmeier, arms.dir_i, 780.0).n_fast
        assert abs(np.degrees(np.arcsin(n * np.sin(om))) - 3.0) < 1e-3

    # theta found before the solver's fallback rule changed, to 1e-8 rad
    @pytest.mark.parametrize("species,phi,half_angle,theta", [
        ("bbo", 0.0, 2.2, 0.7604733371600038),
        ("bbo", 0.0, 3.8, 0.7747361615218825),
        ("bibo", 0.962, 2.2, 1.1443816854083007),
        ("bibo", 0.962, 3.8, 1.1593313988729759),
    ])
    def test_cut_away_from_three_degrees(self, species, phi, half_angle, theta, request):
        crys = request.getfixturevalue(species)
        cut = cut_for_arm_opening(crys, external_half_angle_deg=half_angle, phi=phi)
        assert abs(cut.theta - theta) < 1e-8

    @staticmethod
    def _counted_search(crys, phi, monkeypatch):
        """Run the 2.2 deg search; return residual sizes over every nested
        root-find and the cut count of each geometry call."""
        residuals, geometries = [], []
        solve, arm_geometry = phasematch._solve_bracketed, phasematch._arm_geometry

        def counted_solve(f, *args, **kwargs):
            def counted_f(x, rows):
                residuals.append(x.size)
                return f(x, rows)
            return solve(counted_f, *args, **kwargs)

        def counted_geometry(frame, n_psi):
            geometries.append(frame.p.shape[0])
            return arm_geometry(frame, n_psi)

        monkeypatch.setattr(phasematch, "_solve_bracketed", counted_solve)
        monkeypatch.setattr(phasematch, "_arm_geometry", counted_geometry)
        cut_for_arm_opening(crys, external_half_angle_deg=2.2, phi=phi)
        return residuals, geometries

    # budget of the earlier one-cut-per-step refinement
    @pytest.mark.parametrize("species,phi,max_residuals", [("bbo", 0.0, 330),
                                                           ("bibo", 0.962, 400)])
    def test_search_step_counts(self, species, phi, max_residuals, request, monkeypatch):
        """Residuals over every nested root-find, and geometry calls, at 2.2 deg."""
        residuals, geometries = self._counted_search(request.getfixturevalue(species),
                                                     phi, monkeypatch)
        assert len(residuals) <= max_residuals
        assert 0 < len(geometries) <= 4

    # budget of the batched refinement (116 and 144 residuals when written)
    @pytest.mark.parametrize("species,phi,max_residuals", [("bbo", 0.0, 130),
                                                           ("bibo", 0.962, 160)])
    def test_batched_refinement_residual_counts(self, species, phi, max_residuals,
                                                request, monkeypatch):
        residuals, _ = self._counted_search(request.getfixturevalue(species), phi,
                                            monkeypatch)
        assert len(residuals) <= max_residuals

    @pytest.mark.parametrize("species,phi,half_angle", [
        ("bbo", 0.0, 2.2), ("bbo", 0.0, 3.0), ("bbo", 0.0, 3.8),
        ("bibo", 0.962, 2.2), ("bibo", 0.962, 3.0), ("bibo", 0.962, 3.8),
    ])
    def test_theta_in_verified_sign_change(self, species, phi, half_angle, request,
                                           monkeypatch):
        """Three geometry calls; the last evaluates two cuts less than 1e-8 rad apart
        whose residuals change sign, and the returned theta is the one nearer zero."""
        calls = []
        arm_geometry = phasematch._arm_geometry

        def recorded_geometry(frame, n_psi):
            out = arm_geometry(frame, n_psi)
            calls.append((frame.p, out[-1] - half_angle))
            return out

        monkeypatch.setattr(phasematch, "_arm_geometry", recorded_geometry)
        cut = cut_for_arm_opening(request.getfixturevalue(species),
                                  external_half_angle_deg=half_angle, phi=phi)
        assert [p.shape[0] for p, _ in calls] == [13, 3, 2]
        p, res = calls[-1]
        thetas = np.arctan2(np.hypot(p[:, 0], p[:, 1]), p[:, 2])
        assert res[0] * res[1] <= 0.0 and 0.0 < thetas[1] - thetas[0] < 1e-8
        assert abs(cut.theta - thetas[np.argmin(np.abs(res))]) < 1e-14

    def test_missed_batch_continues_from_tightest_bracket(self, bbo, monkeypatch):
        """A scan estimate 1e-4 rad too high puts all three probe cuts above the root;
        the solver then refines [scan point below, lowest probe] and the pin still holds."""
        interpolate, solve = phasematch._inverse_interpolation, phasematch._solve_bracketed
        arm_geometry = phasematch._arm_geometry
        estimates, brackets, frame_rows = [], [], []

        def off_estimate(x, y):
            est = interpolate(x, y) + (0.0 if estimates else 1e-4)
            estimates.append(est)
            return est

        def recorded_solve(f, a, b, fa, fb, xtol):
            if xtol == 1e-8:
                brackets.append((a, b, fa, fb))
            return solve(f, a, b, fa, fb, xtol=xtol)

        def counted_geometry(frame, n_psi):
            frame_rows.append(frame.p.shape[0])
            return arm_geometry(frame, n_psi)

        monkeypatch.setattr(phasematch, "_inverse_interpolation", off_estimate)
        monkeypatch.setattr(phasematch, "_solve_bracketed", recorded_solve)
        monkeypatch.setattr(phasematch, "_arm_geometry", counted_geometry)
        cut = cut_for_arm_opening(bbo, external_half_angle_deg=3.0)
        assert abs(cut.theta - 0.7666500690517719) < 1e-8
        ((a, b, fa, fb),) = brackets
        th0 = phase_match_collinear(bbo, phi_grid=np.array([0.0]), branch="lower")[0].theta
        span = np.linspace(th0 + np.radians(0.15), th0 + np.radians(6.0), 13)
        assert a in span and b == estimates[0] - phasematch.CUT_PROBE_RAD
        assert fa < 0.0 < fb and a < cut.theta < b
        assert frame_rows[:2] == [13, 3] and set(frame_rows[2:]) == {1}

    def test_estimate_outside_cell_falls_back_to_secant(self, monkeypatch):
        """An inverse-cubic estimate outside the scanned cell (0.877 for [1, 2]) is
        replaced by the cell's secant, and the root is verified inside the cell."""
        xs, fs = np.array([0.0, 1.0, 2.0, 3.0]), np.array([-3.0, -0.01, 1.0, 1.05])
        interpolate = phasematch._inverse_interpolation
        estimates = []

        def recorded(x, y):
            estimates.append((len(x), interpolate(x, y)))
            return estimates[-1][1]

        def f(x, rows=None):
            return np.interp(x, xs, fs)

        monkeypatch.setattr(phasematch, "_inverse_interpolation", recorded)
        root = phasematch._refine_scanned_root(f, xs, fs, 1, xtol=1e-8)
        (n_cubic, cubic), (n_secant, secant) = estimates[:2]
        assert (n_cubic, n_secant) == (4, 2)
        assert abs(cubic - 0.877) < 1e-3 and 1.0 < secant < 2.0
        assert 1.0 < root < 2.0 and abs(root - (1.0 + 0.01 / 1.01)) < 1e-8
        assert f(root - 1e-8) < 0.0 < f(root + 1e-8)

    @pytest.mark.parametrize("half_angle", [20.0, 0.1])
    def test_unreachable_opening_raises(self, bbo, half_angle):
        with pytest.raises(ValueError, match="^no cut with the requested arm opening "
                                             "in the scanned range$"):
            cut_for_arm_opening(bbo, external_half_angle_deg=half_angle)

    def test_theta_scan_is_one_batched_solve(self, bbo, monkeypatch):
        """The 13 scanned cuts share one azimuth scan; the refinement is one call on
        3 cuts and one on 2."""
        frame_rows, first_ring_call, ring_cuts = [], [], []
        arm_geometry, ring_opening_angle = phasematch._arm_geometry, phasematch.ring_opening_angle

        def counted_geometry(frame, n_psi):
            frame_rows.append(frame.p.shape[0])
            first_ring_call.append(len(ring_cuts))
            return arm_geometry(frame, n_psi)

        def counted_ring(frame, *args, cut=0):
            ring_cuts.append(np.unique(cut).size)
            return ring_opening_angle(frame, *args, cut=cut)

        def no_arms(*args, **kwargs):
            raise AssertionError("the cut search needs no d_eff solves")

        monkeypatch.setattr(phasematch, "_arm_geometry", counted_geometry)
        monkeypatch.setattr(phasematch, "ring_opening_angle", counted_ring)
        monkeypatch.setattr(phasematch, "noncollinear_arms", no_arms)
        cut_for_arm_opening(bbo, external_half_angle_deg=3.0)
        # one scan of 13 cuts (two when the upper side brackets nothing), then 3, then 2
        assert frame_rows in ([13, 3, 2], [13, 13, 3, 2])
        # the first ring solve of each call covers all of its cuts
        assert [ring_cuts[i] for i in first_ring_call] == frame_rows


class TestRings:
    def test_rings_intersect_in_two_regions(self, bibo_arms):
        # the arms object is itself the intersection finder; two distinct arms
        sep = np.degrees(np.arccos(np.clip(
            np.dot(bibo_arms.dir_i, bibo_arms.dir_j), -1, 1)))
        assert sep > 1.0

    def test_bibo_cloud_wider_than_bbo_at_matched_opening(self, bbo, bibo):
        ext = noncollinear_arms(bibo, bibo.reference_cut).external_half_angle_deg
        bbo_cut = cut_for_arm_opening(bbo, external_half_angle_deg=ext, length_mm=2.0)
        kw = dict(n_psi=16, n_signal=3, n_pump=3)
        cloud_bibo = spdc_rings(bibo, bibo.reference_cut, **kw)
        cloud_bbo = spdc_rings(bbo, bbo_cut, **kw)
        for branch in (crystal.FAST, crystal.SLOW):
            assert (cloud_bibo.radial_spread(branch)
                    > cloud_bbo.radial_spread(branch))

    def test_zero_filter_width_collapses_rings(self, bibo):
        kw = dict(n_psi=12, n_pump=1, pump_fwhm_nm=0.0)
        wide = spdc_rings(bibo, bibo.reference_cut, filter_fwhm_nm=3.0,
                          n_signal=3, **kw)
        narrow = spdc_rings(bibo, bibo.reference_cut, filter_fwhm_nm=0.0,
                            n_signal=1, **kw)
        assert narrow.radial_spread() < wide.radial_spread()

    def test_single_filter_sample_is_the_centre(self, bibo):
        """One signal sample of a finite filter is the centre line with weight 1."""
        kw = dict(n_psi=12, n_signal=1, n_pump=1, pump_fwhm_nm=0.0)
        one = spdc_rings(bibo, bibo.reference_cut, filter_fwhm_nm=3.0, **kw)
        mono = spdc_rings(bibo, bibo.reference_cut, filter_fwhm_nm=0.0, **kw)
        assert one.kx.size > 0
        for name in ("kx", "ky", "wavelength_nm", "weight", "branch"):
            assert np.array_equal(getattr(one, name), getattr(mono, name))

    def test_empty_acceptance_warns(self, bibo):
        # beyond the collinear curve nothing phase matches: empty cloud
        curve = phase_match_collinear(bibo, phi_grid=np.radians([55.0]))
        cut = CrystalCut(curve[0].theta + 0.05, curve[0].phi, 0.6)
        with pytest.warns(UserWarning, match="empty acceptance"):
            cloud = spdc_rings(bibo, cut, n_psi=8, n_signal=1, n_pump=1,
                               pump_fwhm_nm=0.0, filter_fwhm_nm=0.0)
        assert cloud.kx.size == 0


class TestSpectralFwhm:
    def test_bibo_signal_arm(self, bibo):
        width = spectral_fwhm(bibo, bibo.reference_cut, arm="signal")
        assert abs(width - 7.0) / 7.0 < 0.30

    def test_bibo_idler_arm(self, bibo):
        width = spectral_fwhm(bibo, bibo.reference_cut, arm="idler")
        assert 14.0 * 0.7 < width < 17.5 * 1.3

    def test_phase_matching_width_halves_when_length_doubles(self, bibo):
        cut1 = bibo.reference_cut
        cut2 = CrystalCut(cut1.theta, cut1.phi, 2 * cut1.length_mm)
        w1 = spectral_fwhm(bibo, cut1, arm="signal", pump_fwhm_nm=0.0)
        w2 = spectral_fwhm(bibo, cut2, arm="signal", pump_fwhm_nm=0.0)
        assert abs(w2 - 0.5 * w1) / (0.5 * w1) < 0.05

    def test_bbo_idler_arm(self, bbo, bbo_cut_3deg):
        width = spectral_fwhm(bbo, bbo_cut_3deg, arm="idler")
        assert abs(width - 15.5) / 15.5 < 0.30

    @pytest.mark.xfail(
        strict=True,
        reason="published 7.5 nm for the 2 mm BBO fast photon includes "
               "non-phase-matching broadening; the sinc x pump model gives "
               "~4.8 nm at this cut (the same measurement's L-scaling, "
               "7.5 -> 9.6 nm at half length, is also incompatible with a "
               "pure sinc width)",
    )
    def test_bbo_signal_arm_published_value(self, bbo, bbo_cut_3deg):
        width = spectral_fwhm(bbo, bbo_cut_3deg, arm="signal")
        assert abs(width - 7.5) / 7.5 < 0.30

    def test_arm_validation(self, bibo):
        with pytest.raises(ValueError):
            spectral_fwhm(bibo, bibo.reference_cut, arm="pump")

    def test_subnormal_pump_width_is_monochromatic(self, bibo):
        # sigma = FWHM / 2.3548 underflows to 0, as for a zero width
        cut = bibo.reference_cut
        assert (spectral_fwhm(bibo, cut, pump_fwhm_nm=5e-324)
                == spectral_fwhm(bibo, cut, pump_fwhm_nm=0.0))
        kw = dict(n_psi=8, filter_fwhm_nm=0.0)
        tiny, zero = (spdc_rings(bibo, cut, pump_fwhm_nm=w, **kw) for w in (5e-324, 0.0))
        assert np.array_equal(tiny.kx, zero.kx) and np.array_equal(tiny.weight, zero.weight)

    def test_fwhm_of_profile_interpolates(self):
        x = np.linspace(-2.0, 2.0, 401)
        width = phasematch._fwhm_of_profile(x, np.exp(-0.5 * x**2))
        assert abs(width - 2.3548) < 1e-3

    @pytest.mark.parametrize("profile", [
        lambda x: np.zeros_like(x),                  # flat
        lambda x: np.exp(-0.5 * (x + 2.0) ** 2),     # peak at the grid edge
        lambda x: np.exp(-0.5 * (x / 10.0) ** 2),    # span narrower than the peak
    ], ids=["flat", "edge_peak", "narrow_span"])
    def test_fwhm_of_profile_unbracketed_raises(self, profile):
        x = np.linspace(-2.0, 2.0, 41)
        with pytest.raises(NumericalConsistencyError):
            phasematch._fwhm_of_profile(x, profile(x))


class TestVectorizedMismatch:
    """Array forms of the mismatch formulas equal their scalar forms."""

    def test_collinear_mismatch(self, bibo):
        thetas = np.linspace(1e-6, np.pi, 37)
        vals = phasematch.collinear_mismatch(bibo.sellmeier, thetas, 0.4, 390.0)
        assert vals.shape == thetas.shape
        for th, v in zip(thetas, vals):
            scalar = phasematch.collinear_mismatch(bibo.sellmeier, th, 0.4, 390.0)
            assert isinstance(scalar, float)
            assert v == pytest.approx(scalar, rel=0, abs=1e-13)

    @pytest.mark.parametrize("branch", [crystal.FAST, crystal.SLOW])
    def test_ring_mismatch(self, bibo, branch):
        frame = phasematch._PumpFrame(bibo.sellmeier, bibo.reference_cut.direction(), 390.0)
        omegas = np.linspace(1e-5, 0.2, 23)
        vals = phasematch._ring_mismatch(frame, omegas, 1.1, 781.0, 389.5, branch)
        assert vals.shape == omegas.shape
        for om, v in zip(omegas, vals):
            scalar = phasematch._ring_mismatch(frame, om, 1.1, 781.0, 389.5, branch)
            assert isinstance(scalar, float)
            assert v == pytest.approx(scalar, rel=0, abs=1e-13)


class TestBatchedRootFinder:
    """The batched bracketed solver against scipy's brentq as the oracle."""

    @staticmethod
    def _oracle_root(f, grid, vals, xtol):
        """First bracket of ``vals`` (f on ``grid``) refined by brentq on the scalar f;
        None without a bracket."""
        for i in range(grid.size - 1):
            if np.isnan(vals[i + 1]):
                continue
            if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0:
                return brentq(f, grid[i], grid[i + 1], xtol=xtol)
        return None

    @staticmethod
    def _ring_rows():
        """Every (branch, psi, lam_s, lam_p) row of spdc_rings at its defaults."""
        sig_p, sig_f = 2.1 / 2.3548, 3.0 / 2.3548
        lam_ps = np.linspace(390.0 - 2 * sig_p, 390.0 + 2 * sig_p, 3)
        lam_ss = np.linspace(780.0 - 2 * sig_f, 780.0 + 2 * sig_f, 5)
        psis = np.linspace(0.0, 2 * np.pi, 48, endpoint=False)
        return [(b, psi, ls, lp) for b in (crystal.FAST, crystal.SLOW)
                for psi in psis for ls in lam_ss for lp in lam_ps]

    @pytest.mark.parametrize("species", ["bbo", "bibo"])
    def test_ring_openings_match_brentq(self, species):
        crys = crystal.load_crystal(species)
        frame = phasematch._PumpFrame(crys.sellmeier, crys.reference_cut.direction(), 390.0)
        rows = self._ring_rows()
        branch, psi, lam_s, lam_p = (np.array(col) for col in zip(*rows))
        batched = phasematch.ring_opening_angle(frame, psi, branch, lam_s, lam_p)
        grid = np.linspace(1e-5, 0.20, 40)
        k_p = frame.k_pump(lam_p)
        # the bracket scan of every row in one call; brentq refines each row alone
        scans = phasematch._ring_mismatch(frame, grid, psi[:, None], lam_s[:, None],
                                          lam_p[:, None], branch[:, None], k_p[:, None])
        for (b, ps, ls, lp), kp, vals, got in zip(rows, k_p, scans, batched):
            want = self._oracle_root(
                lambda om: phasematch._ring_mismatch(frame, om, ps, ls, lp, b, kp),
                grid, vals, 1e-11)
            assert want is not None and abs(got - want) < 2e-11
        # scalar arguments give a 0-d array
        one = phasematch.ring_opening_angle(frame, psi[7], branch[7], lam_s[7], lam_p[7])
        assert one.shape == () and one == batched[7]

    def test_no_ring_is_nan(self, bibo):
        curve = phase_match_collinear(bibo, phi_grid=np.radians([55.0]))
        cut = CrystalCut(curve[0].theta + 0.05, curve[0].phi, 0.6)
        frame = phasematch._PumpFrame(bibo.sellmeier, cut.direction(), 390.0)
        one = phasematch.ring_opening_angle(frame, 0.3, crystal.FAST)
        assert one.shape == () and np.isnan(one)
        both = phasematch.ring_opening_angle(frame, np.array([0.3, 1.3]), crystal.FAST)
        assert both.shape == (2,) and np.all(np.isnan(both))

    @pytest.mark.parametrize("species", ["bbo", "bibo"])
    def test_ring_centres_phase_matched(self, species):
        crys = crystal.load_crystal(species)
        cut = crys.reference_cut
        frame = phasematch._PumpFrame(crys.sellmeier, cut.direction(), 390.0)
        cloud = spdc_rings(crys, cut)
        sig_p, sig_f = 2.1 / 2.3548, 3.0 / 2.3548
        lam_ps = np.linspace(390.0 - 2 * sig_p, 390.0 + 2 * sig_p, 3)
        w_ps = np.exp(-0.5 * ((lam_ps - 390.0) / sig_p) ** 2)
        w_p = cloud.weight / np.exp(-0.5 * ((cloud.wavelength_nm - 780.0) / sig_f) ** 2)
        # a centre carries its pump weight; an edge point carries half of it
        fits = np.abs(w_ps[:, None] - w_p) < 1e-9
        centre = fits.any(axis=0)
        assert np.count_nonzero(centre) == 2 * 48 * 5 * 3
        assert np.all(centre | (np.abs(0.5 * w_ps[:, None] - w_p) < 1e-9).any(axis=0))
        om = np.arcsin(np.hypot(cloud.kx, cloud.ky))
        psi = np.arctan2(cloud.ky, cloud.kx)
        dk = np.abs(phasematch._ring_mismatch(frame, om, psi, cloud.wavelength_nm,
                                              lam_ps[:, None], cloud.branch))
        assert np.all(np.where(fits, dk, np.inf).min(axis=0)[centre] < crystal.DELTA_K_TOL)

    @pytest.mark.parametrize("species,branch", [("bbo", "lower"), ("bibo", "upper")])
    def test_collinear_theta_matches_brentq(self, species, branch):
        crys = crystal.load_crystal(species)
        curve = phase_match_collinear(crys, branch=branch)
        th_lo, th_hi = (np.pi / 2, np.pi) if branch == "upper" else (1e-6, np.pi / 2)
        thetas = np.arange(th_lo, th_hi, np.radians(0.5))
        want = {}
        for phi in np.radians(np.arange(0.0, 90.0 + 1e-9, 1.0)):
            f = lambda th: phasematch.collinear_mismatch(crys.sellmeier, th, phi, 390.0)
            root = self._oracle_root(f, thetas, f(thetas), 1e-12)
            if root is not None:
                want[float(phi)] = root
        assert [s.phi for s in curve] == list(want)
        for s in curve:
            assert abs(s.theta - want[s.phi]) < 1e-11

    def test_smooth_rows_converge_independently(self):
        c = np.array([0.001, 0.5, 1.0, 7.9])
        roots = phasematch._solve_bracketed(lambda x, r: x**3 - c[r],
                                            0.0, 2.0, -c, 8.0 - c, xtol=1e-13)
        assert np.max(np.abs(roots - np.cbrt(c))) < 1e-13

    def test_root_at_an_endpoint(self):
        roots = phasematch._solve_bracketed(lambda x, r: x - 1.0,
                                            [0.0, 1.0], [1.0, 3.0], [-1.0, 0.0], [0.0, 2.0],
                                            xtol=1e-12)
        assert roots.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("fa,fb", [(1.0, 2.0), (-1.0, -0.5), (np.nan, 1.0)],
                             ids=["both_positive", "both_negative", "nan_end"])
    def test_unbracketed_endpoints_raise(self, fa, fb):
        with pytest.raises(NumericalConsistencyError, match="bracket"):
            phasematch._solve_bracketed(lambda x, r: x, [0.0, 0.0], [1.0, 1.0],
                                        [-1.0, fa], [1.0, fb], xtol=1e-12)

    def test_one_sided_approach_keeps_regula_falsi(self):
        """A convex residual that regula falsi closes in on from one side."""
        calls = []

        def f(x, rows):
            calls.append(x.size)
            return np.exp(x) - 2.0

        (root,) = phasematch._solve_bracketed(f, -4.0, 4.0, np.exp(-4.0) - 2.0,
                                              np.exp(4.0) - 2.0, xtol=1e-12)
        assert abs(root - np.log(2.0)) < 1e-12
        assert len(calls) <= 15

    def test_stalled_row_bisects(self):
        """x**15 is flat near its root: regula falsi stalls there and bisection takes over."""
        calls = []

        def f(x, rows):
            calls.append(x.size)
            return x**15

        (root,) = phasematch._solve_bracketed(f, -0.2, 1.0, (-0.2)**15, 1.0, xtol=1e-6)
        assert abs(root) < 1e-6
        assert len(calls) <= 56 < phasematch.MAX_ROOT_STEPS

    def test_step_function_hits_iteration_cap(self):
        step = lambda x, r: np.where(x < 1 / 3, -1.0, 1.0)
        root = phasematch._solve_bracketed(step, 0.0, 1.0, -1.0, 1.0, xtol=1e-12)
        assert abs(root - 1 / 3) < 1e-12
        # no bracket narrower than one ulp exists, so xtol = 0 runs into the cap
        with pytest.raises(NumericalConsistencyError, match="not converged"):
            phasematch._solve_bracketed(step, 0.0, 1.0, -1.0, 1.0, xtol=0.0)

    def test_nan_inside_bracket_raises(self):
        with pytest.raises(NumericalConsistencyError, match="NaN"):
            phasematch._solve_bracketed(lambda x, r: np.full_like(x, np.nan),
                                        0.0, 1.0, -1.0, 1.0, xtol=1e-12)

    def test_nan_row_never_bracketed(self):
        vals = np.array([[np.nan] * 5, [2.0, 1.0, np.nan, -1.0, -2.0],
                         [1.0, 0.0, np.nan, 3.0, 4.0], [1.0, -1.0, 0, 0, 0]])
        assert not phasematch._bracket_cells(vals[0]).any()
        roots = phasematch._first_roots(_piecewise_linear(vals), np.arange(5.0), 4, 1e-12)
        assert np.array_equal(roots, [np.nan, np.nan, np.nan, 0.5], equal_nan=True)


def _piecewise_linear(vals: np.ndarray):
    """f(x, rows) for ``_first_roots``: each row of ``vals``, sampled at x = 0, 1, 2, ...,
    joined by straight lines; exactly the sample at a whole x, so a NaN sample stays
    confined to the grid points and cells it touches.  Records each call's arguments."""
    def f(x, rows):
        f.calls.append((np.asarray(x).tolist(), np.asarray(rows).tolist()))
        lo = np.clip(np.floor(x), 0, vals.shape[1] - 2).astype(int)
        t = x - lo
        return np.where(t == 0, vals[rows, lo], (1 - t) * vals[rows, lo] + t * vals[rows, lo + 1])
    f.calls = []
    return f


class TestTwoStageScan:
    """The first-bracket scan in two halves against a scan of the whole grid written here."""

    @staticmethod
    def _whole_grid_roots(residual, grid, vals, xtol):
        """Each row's root in the first bracket of ``vals`` (the rows sampled on all of
        ``grid``), refined by the solver, NaN without one; and that cell, -1 without."""
        cells = phasematch._bracket_cells(vals)
        rows = np.flatnonzero(cells.any(axis=1))
        i = cells[rows].argmax(axis=1)
        roots, first = np.full(vals.shape[0], np.nan), np.full(vals.shape[0], -1)
        roots[rows] = phasematch._solve_bracketed(lambda x, r: residual(x, rows[r]),
                                                  grid[i], grid[i + 1], vals[rows, i],
                                                  vals[rows, i + 1], xtol=xtol)
        first[rows] = i
        return roots, first

    def test_second_half_only_for_rows_without_a_bracket(self):
        vals = np.array([[1.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0],
                         [4.0, 3.0, 2.0, 1.0, 0.5, 0.25, -1.0, -2.0],
                         [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]])
        f = _piecewise_linear(vals)
        roots = phasematch._first_roots(f, np.arange(8.0), 3, 1e-12)
        # the scan: points 0-4 for every row, then 4-7 for rows 1 and 2; then the solve
        assert f.calls[:2] == [([[0.0, 1.0, 2.0, 3.0, 4.0]], [[0], [1], [2]]),
                               ([[4.0, 5.0, 6.0, 7.0]], [[1], [2]])]
        assert f.calls[2][1] == [0, 1] and all(np.ndim(x) == 1 for x, _ in f.calls[2:])
        assert roots[0] == 0.5 and abs(roots[1] - 5.2) < 1e-12 and np.isnan(roots[2])

    def test_root_at_the_shared_midpoint(self):
        """A residual that is 0 at grid[mid], positive before and negative after: the
        first half's last cell does not bracket it (its left end is not 0), the second
        half's first cell does."""
        grid = np.linspace(0.0, 1.4, 8)
        residual = lambda x, r: grid[4] - x + 0.0 * r
        roots = phasematch._first_roots(residual, grid, 1, 1e-12)
        vals = residual(grid[None], np.zeros((1, 1)))
        want, first = self._whole_grid_roots(residual, grid, vals, 1e-12)
        assert roots.tolist() == [grid[4]] and np.array_equal(roots, want)
        assert first.tolist() == [4]

    def test_ring_openings_past_the_midpoint_and_absent(self, bbo):
        """BBO 0.05 and 0.1 rad past its reference cut opens rings past the grid's
        midpoint (0.103 rad); 0.05 rad before it has no ring.  One stack of three cuts."""
        th = bbo.reference_cut.theta
        dirs = [CrystalCut(th + d, 0.0, 2.0).direction() for d in (0.05, 0.1, -0.05)]
        frame = phasematch._PumpFrame(bbo.sellmeier, dirs, 390.0)
        ring_rows = TestBatchedRootFinder._ring_rows()
        branch, psi, lam_s, lam_p = (np.tile(np.array(col), 3) for col in zip(*ring_rows))
        cut = np.repeat(np.arange(3), len(ring_rows))
        got = phasematch.ring_opening_angle(frame, psi, branch, lam_s, lam_p, cut)
        grid = np.linspace(1e-5, 0.20, 40)
        k_p = frame.k_pump(lam_p, cut)
        vals = phasematch._ring_mismatch(frame, grid, psi[:, None], lam_s[:, None],
                                         lam_p[:, None], branch[:, None], k_p[:, None],
                                         cut[:, None])
        want, first = self._whole_grid_roots(
            lambda om, r: phasematch._ring_mismatch(frame, om, psi[r], lam_s[r], lam_p[r],
                                                    branch[r], k_p[r], cut[r]),
            grid, vals, 1e-11)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.any(first[cut == 0] >= 20) and np.any(first[cut == 1] >= 20)
        assert np.all(first[cut < 2] >= 0) and np.all(first[cut == 2] == -1)

    @pytest.mark.parametrize("branch", ["lower", "upper"])
    def test_collinear_roots_match_whole_grid(self, bibo, branch):
        """BiBO's lower family at phi = 0.962 has its root in cell 130 of 179, past the
        midpoint; the upper family's lies before it.  Low azimuths have no root."""
        sel = bibo.sellmeier
        phis = np.concatenate([np.radians([5.0, 10.0, 30.0, 60.0, 90.0]), [0.962]])
        got = phase_match_collinear(bibo, phi_grid=phis, branch=branch)
        th_lo, th_hi = (np.pi / 2, np.pi) if branch == "upper" else (1e-6, np.pi / 2)
        thetas = np.arange(th_lo, th_hi, phasematch.COLLINEAR_SCAN_STEP_RAD)
        want, first = self._whole_grid_roots(
            lambda th, r: phasematch.collinear_mismatch(sel, th, phis[r], 390.0), thetas,
            phasematch.collinear_mismatch(sel, thetas, phis[:, None], 390.0), 1e-12)
        assert [(s.phi, s.theta) for s in got] == [
            (float(p), float(t)) for p, t in zip(phis, want) if not np.isnan(t)]
        assert first[:2].tolist() == [-1, -1] and np.all(first[2:] >= 0)
        assert (first[-1] > thetas.size // 2) == (branch == "lower")
