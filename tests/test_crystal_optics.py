import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from spdclab.crystal import FAST, SLOW, load_crystal, solve_waves, walkoff_angle
from spdclab.crystal.materials import BIAXIAL, SellmeierSet
from spdclab.crystal.optics import fresnel_residual, index_batch, refractive_indices


def random_directions(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestFresnelRoots:
    @pytest.mark.parametrize("species,lam", [("bbo", 780.0), ("bibo", 780.0),
                                             ("bibo", 390.0)])
    def test_roots_satisfy_fresnel_equation(self, species, lam, bbo, bibo):
        crys = {"bbo": bbo, "bibo": bibo}[species]
        for s in random_directions(30, seed=1):
            n_f, n_s = refractive_indices(crys.sellmeier, s, lam)
            assert n_f <= n_s
            assert 1.0 < n_f and 1.0 < n_s
            assert abs(fresnel_residual(crys.sellmeier, s, lam, n_f)) < 1e-10
            assert abs(fresnel_residual(crys.sellmeier, s, lam, n_s)) < 1e-10

    def test_principal_axis_degeneracy(self, bibo):
        # along a principal axis the two roots equal the other two indices
        nx, ny, nz = bibo.sellmeier.principal_indices(780.0)
        cases = {
            (1, 0, 0): (ny, nz),
            (0, 1, 0): (nx, nz),
            (0, 0, 1): (nx, ny),
        }
        for axis, expected in cases.items():
            n_f, n_s = refractive_indices(bibo.sellmeier, np.array(axis, float), 780.0)
            assert abs(n_f - min(expected)) < 1e-12
            assert abs(n_s - max(expected)) < 1e-12

    def test_continuity_under_perturbation(self, bibo):
        rng = np.random.default_rng(2)
        for s in random_directions(20, seed=3):
            n_f, n_s = refractive_indices(bibo.sellmeier, s, 780.0)
            ds = rng.normal(size=3) * 1e-6
            n_f2, n_s2 = refractive_indices(bibo.sellmeier, s + ds, 780.0)
            assert abs(n_f2 - n_f) < 1e-4
            assert abs(n_s2 - n_s) < 1e-4

    def test_bibo_pump_index_at_reference_cut(self, bibo):
        # published theoretical value n_p ~ 1.84 for the fast 390 nm wave
        n_f, _ = refractive_indices(bibo.sellmeier,
                                    bibo.reference_cut.direction(), 390.0)
        assert abs(n_f - 1.84) / 1.84 < 0.015

    def test_bibo_downconverted_indices_at_reference_cut(self, bibo):
        # published theoretical values (n_s, n_i) ~ (1.78, 1.90)
        n_f, n_s = refractive_indices(bibo.sellmeier,
                                      bibo.reference_cut.direction(), 780.0)
        assert abs(n_f - 1.78) / 1.78 < 0.015
        assert abs(n_s - 1.90) / 1.90 < 0.015

    def test_polarizations_transverse_and_orthogonal(self, bibo):
        for s in random_directions(20, seed=4):
            sol = solve_waves(bibo.sellmeier, s, 780.0)
            assert abs(np.dot(sol.d_fast, s)) < 1e-10
            assert abs(np.dot(sol.d_slow, s)) < 1e-10
            assert abs(np.dot(sol.d_fast, sol.d_slow)) < 1e-10


class TestWalkoff:
    def test_bbo_extraordinary_at_type_ii_cut(self, bbo):
        # published anchor ~0.072 rad for the 780 nm extraordinary wave
        theta_pm = 0.75332  # collinear type-II angle with this Sellmeier set
        s = np.array([np.sin(theta_pm), 0.0, np.cos(theta_pm)])
        rho = walkoff_angle(bbo.sellmeier, s, 780.0, FAST)
        assert abs(rho - 0.072) / 0.072 < 0.10

    def test_bbo_ordinary_has_no_walkoff(self, bbo):
        s = np.array([np.sin(0.75), 0.0, np.cos(0.75)])
        assert walkoff_angle(bbo.sellmeier, s, 780.0, SLOW) < 1e-12
        # off the principal planes too, where arccos(d.e) read up to 1.5e-8 rad
        for theta in np.linspace(0.1, 1.5, 7):
            for phi in np.linspace(0.2, 6.0, 7):
                s = [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
                assert walkoff_angle(bbo.sellmeier, s, 780.0, SLOW) < 1e-14

    def test_bibo_pump_walkoffs_at_reference_cut(self, bibo):
        """Published pair (0.020, 0.063) with quadrature 0.066, +-15%.

        These anchors are reproduced by the fast and slow waves at the pump
        wavelength (390 nm) at the cut direction; at the down-converted
        wavelength the same waves give (0.016, 0.056).
        """
        s = bibo.reference_cut.direction()
        w_fast = walkoff_angle(bibo.sellmeier, s, 390.0, FAST)
        w_slow = walkoff_angle(bibo.sellmeier, s, 390.0, SLOW)
        assert abs(w_fast - 0.020) / 0.020 < 0.15
        assert abs(w_slow - 0.063) / 0.063 < 0.15
        assert abs(np.hypot(w_fast, w_slow) - 0.066) / 0.066 < 0.15

    def test_vanishes_along_principal_axes(self, bibo):
        for axis in np.eye(3):
            for branch in (FAST, SLOW):
                assert walkoff_angle(bibo.sellmeier, axis, 780.0, branch) < 1e-10

    def test_nonnegative_everywhere(self, bibo):
        for s in random_directions(30, seed=6):
            for branch in (FAST, SLOW):
                assert walkoff_angle(bibo.sellmeier, s, 780.0, branch) >= 0.0

    def test_matches_index_gradient_oracle(self, bibo):
        """Walk-off equals atan(|grad n| / n) on the direction sphere."""
        h = 1e-6

        def gradient_walkoff(theta, phi, branch):
            def n_of(t, p):
                s = np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
                sol = solve_waves(bibo.sellmeier, s, 780.0)
                return sol.n(branch)

            n0 = n_of(theta, phi)
            dndt = (n_of(theta + h, phi) - n_of(theta - h, phi)) / (2 * h)
            dndp = (n_of(theta, phi + h) - n_of(theta, phi - h)) / (2 * h)
            grad = np.hypot(dndt, dndp / np.sin(theta))
            return np.arctan(grad / n0)

        rng = np.random.default_rng(8)
        for _ in range(8):
            theta = rng.uniform(0.3, np.pi - 0.3)
            phi = rng.uniform(0.1, 2 * np.pi - 0.1)
            s = np.array([np.sin(theta) * np.cos(phi),
                          np.sin(theta) * np.sin(phi), np.cos(theta)])
            for branch in (FAST, SLOW):
                direct = walkoff_angle(bibo.sellmeier, s, 780.0, branch)
                oracle = gradient_walkoff(theta, phi, branch)
                assert abs(direct - oracle) < 5e-6

    def test_invalid_branch(self, bbo):
        with pytest.raises(ValueError):
            walkoff_angle(bbo.sellmeier, [0, 0, 1.0], 780.0, "medium")


class TestIndexBatch:
    """The batched solve and the one-direction wrapper are the same solver."""

    # principal axes, and directions just inside and outside |s_z| = 0.9,
    # where the transverse frame switches its helper axis
    FIXED = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, -1.0),
             (np.sqrt(1 - 0.8999**2), 0.0, 0.8999), (np.sqrt(1 - 0.9001**2), 0.0, 0.9001),
             (0.0, np.sqrt(1 - 0.9**2), -0.9), (0.3, 0.3, -0.9001)]

    @hyp_settings(max_examples=40, deadline=None)
    @given(species=st.sampled_from(["bbo", "bibo"]),
           lam=st.sampled_from([390.0, 780.0]),
           extra=st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 3)
                          .filter(lambda v: np.linalg.norm(v) > 1e-3),
                          min_size=1, max_size=6))
    def test_rows_equal_solve_waves(self, species, lam, extra):
        sel = load_crystal(species).sellmeier
        block = np.array(self.FIXED + extra)
        n_fast, n_slow = index_batch(sel, block, lam)
        assert n_fast.shape == n_slow.shape == (len(block),)
        for row, nf, ns in zip(block, n_fast, n_slow):
            sol = solve_waves(sel, row, lam)
            assert nf == pytest.approx(sol.n_fast, rel=1e-15, abs=0)
            assert ns == pytest.approx(sol.n_slow, rel=1e-15, abs=0)

    def test_grid_block_equals_flattened_rows(self, bibo):
        """(R, G, 3) directions at (R, 1) wavelengths solve exactly as their flattened
        rows do, and a block at one wavelength reads the kept Sellmeier indices."""
        sel = bibo.sellmeier
        dirs = random_directions(12, seed=3).reshape(3, 4, 3)
        lam = np.array([[390.0], [780.0], [781.5]])
        flat = index_batch(sel, dirs.reshape(-1, 3), np.repeat(lam.ravel(), 4))
        for grid, rows in zip(index_batch(sel, dirs, lam), flat):
            assert grid.shape == (3, 4) and np.array_equal(grid.ravel(), rows)
        index_batch(sel, dirs, 700.0)
        before = sel._principal_at.cache_info()
        index_batch(sel, dirs, np.full((3, 1), 700.0))
        after = sel._principal_at.cache_info()
        assert after.hits > before.hits and after.misses == before.misses


def _synthetic(coefficients: dict, label: str) -> SellmeierSet:
    return SellmeierSet(label, BIAXIAL, {ax: tuple(c) for ax, c in coefficients.items()},
                        (0.3, 1.5), "synthetic")


#: a biaxial set whose middle index is n_z, not n_y
MIDDLE_Z = _synthetic({"x": (3.0, 0, 0, 0), "y": (3.6, 0, 0, 0), "z": (3.3, 0, 0, 0)},
                      "middle-z")
#: n_x falls through the constant n_y near 640 nm: the middle axis is x below
#: that wavelength and y above it
CROSSING = _synthetic({"x": (3.0, 0.02, 0.01, 0), "y": (3.05, 0, 0, 0),
                       "z": (3.5, 0, 0, 0)}, "crossing")


def _sellmeier(species: str) -> SellmeierSet:
    return {"middle-z": MIDDLE_Z, "crossing": CROSSING}.get(species) \
        or load_crystal(species).sellmeier


def _optic_axes(u: np.ndarray) -> np.ndarray:
    """The two unit optic axes, in the plane normal to the middle axis of u = (u_x, u_y, u_z)."""
    m = int(np.argsort(u)[1])
    i, k = (m + 1) % 3, (m + 2) % 3
    if u[k] == u[m]:        # uniaxial: i becomes the repeated axis, both optic axes lie on k
        i, k = k, i
    ratio = (u[m] - u[i]) / (u[k] - u[m])       # s_i^2 / s_k^2 on an optic axis
    axes = np.zeros((2, 3))
    axes[:, i] = np.sqrt(ratio / (1 + ratio)) * np.array([1.0, -1.0])
    axes[:, k] = np.sqrt(1 / (1 + ratio))
    return axes


def _oracle_directions(u: np.ndarray, seed: int) -> np.ndarray:
    """Principal axes, optic axes exactly and 1e-12 to 1e-3 rad off them,
    principal planes and random directions."""
    rng = np.random.default_rng(seed)
    dirs = [np.eye(3), -np.eye(3)]
    for axis in _optic_axes(u):
        dirs.append(axis[None])
        for off in 10.0 ** np.arange(-12, -2):
            kick = np.cross(axis, rng.normal(size=(4, 3)))      # transverse to the axis
            dirs.append(axis + off * kick / np.linalg.norm(kick, axis=1, keepdims=True))
    t = rng.uniform(0, 2 * np.pi, 20)
    for i in range(3):
        plane = np.zeros((20, 3))
        plane[:, (i + 1) % 3], plane[:, (i + 2) % 3] = np.cos(t), np.sin(t)
        dirs.append(plane)
    dirs.append(random_directions(60, seed) * rng.uniform(0.5, 2.0, (60, 1)))
    return np.concatenate(dirs)


def _eigen_oracle(u: np.ndarray, directions: np.ndarray) -> tuple:
    """(n_fast, n_slow) from the two nonzero eigenvalues of P eps^-1 P, P = I - s s^T,
    one row of u per direction."""
    s = directions / np.linalg.norm(directions, axis=1, keepdims=True)
    proj = np.eye(3) - s[:, :, None] * s[:, None, :]
    eig = np.linalg.eigvalsh(proj @ (u[:, :, None] * np.eye(3)) @ proj)
    return 1 / np.sqrt(eig[:, 2]), 1 / np.sqrt(eig[:, 1])


class TestClosedForm:
    """The closed-form indices against an independent eigen-solve."""

    REL = 1e-15

    @pytest.mark.parametrize("species,lam", [("bbo", 390.0), ("bbo", 780.0),
                                             ("bibo", 390.0), ("bibo", 780.0),
                                             ("middle-z", 500.0), ("crossing", 400.0),
                                             ("crossing", 1000.0)])
    def test_matches_eigen_oracle(self, species, lam):
        sel = _sellmeier(species)
        u = 1 / sel.principal_indices(lam) ** 2
        dirs = _oracle_directions(u, seed=int(lam))
        n_fast, n_slow = index_batch(sel, dirs, lam)
        want_fast, want_slow = _eigen_oracle(np.tile(u, (len(dirs), 1)), dirs)
        np.testing.assert_allclose(n_fast, want_fast, rtol=self.REL, atol=0)
        np.testing.assert_allclose(n_slow, want_slow, rtol=self.REL, atol=0)

    @pytest.mark.parametrize("species", ["bbo", "bibo", "middle-z", "crossing"])
    def test_per_row_wavelengths(self, species):
        """Rows at different wavelengths each take their own middle axis, which
        for the crossing set is x on some rows and y on others."""
        sel = _sellmeier(species)
        lam = np.linspace(350.0, 1050.0, 8)
        u = 1 / sel.principal_indices(lam) ** 2
        if sel is CROSSING:
            assert {int(np.argsort(row)[1]) for row in u} == {0, 1}
        dirs = np.concatenate([_oracle_directions(row, seed=i) for i, row in enumerate(u)])
        rows = np.repeat(np.arange(len(lam)), len(dirs) // len(lam))
        n_fast, n_slow = index_batch(sel, dirs, lam[rows])
        want_fast, want_slow = _eigen_oracle(u[rows], dirs)
        np.testing.assert_allclose(n_fast, want_fast, rtol=self.REL, atol=0)
        np.testing.assert_allclose(n_slow, want_slow, rtol=self.REL, atol=0)
