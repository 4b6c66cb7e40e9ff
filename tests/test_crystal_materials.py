import copy
import inspect
from importlib import resources

import numpy as np
import pytest

from spdclab import crystal
from spdclab.crystal import CrystalCut
from spdclab.crystal.materials import (BIAXIAL, UNIAXIAL, CrystalData, NonlinearTensor,
                                       SellmeierSet, crystal_from_dict)
from spdclab.crystal.optics import WaveSolution, index_batch
from spdclab.crystal.phasematch import NoncollinearArms, PhaseMatchSolution, RingCloud
from spdclab.errors import SchemaError
from spdclab.fileio import _read_json


class TestLoading:
    def test_shipped_species(self, bbo, bibo):
        assert bbo.sellmeier.symmetry == UNIAXIAL
        assert bibo.sellmeier.symmetry == BIAXIAL
        assert "Eimerl" in bbo.sellmeier.source_citation
        assert "Hellwig" in bibo.sellmeier.source_citation
        assert bbo.reference_cut is not None
        assert bibo.reference_cut is not None

    def test_unknown_species(self):
        with pytest.raises(SchemaError):
            crystal.load_crystal("ktp")

    @pytest.mark.parametrize("edit,match", [
        (lambda r: r["d_tensor_pm_per_v"]["elements"].update(d11="x"), "malformed crystal data"),
        (lambda r: r["sellmeier"].update(coefficients=[1, 2]), "malformed crystal data"),
        (lambda r: r["sellmeier"].update(valid_range_um=[0.3, 1.0, 2.0]), "valid_range_um"),
        (lambda r: r["sellmeier"].update(valid_range_um=[1.0, 0.3]), "valid_range_um"),
        (lambda r: r["sellmeier"].update(valid_range_um=[0.3, float("nan")]), "valid_range_um"),
        (lambda r: r.update(kind="count_dataset"), "not a crystal_data record"),
        (lambda r: [r], "must contain a JSON object"),
        (lambda r: r["d_tensor_pm_per_v"]["elements"].update(d11=float("nan")),
         "d matrix must be 3x6 and finite"),
        (lambda r: r["sellmeier"]["coefficients"]["x"].__setitem__(0, float("inf")),
         "four finite Sellmeier coefficients"),
    ], ids=["element_value", "coefficient_list", "range_of_three", "range_reversed",
            "range_nan", "wrong_kind", "not_an_object", "element_nan", "coefficient_inf"])
    def test_malformed_record(self, edit, match):
        raw, _ = _read_json(resources.files("spdclab.data").joinpath("bibo.json"))
        raw = edit(raw) or raw
        with pytest.raises(SchemaError, match=match):
            crystal_from_dict(raw)


class TestSellmeier:
    def test_bbo_ordinary_index_at_780(self, bbo):
        n_o = bbo.sellmeier.principal_indices(780.0)[0]
        assert abs(n_o - 1.66) / 1.66 < 0.01

    def test_biaxial_ordering_everywhere(self, bibo):
        for lam in np.linspace(300.0, 1300.0, 40):
            nx, ny, nz = bibo.sellmeier.principal_indices(lam)
            assert 1.0 < nx < ny < nz

    def test_uniaxial_principal_mapping(self, bbo):
        nx, ny, nz = bbo.sellmeier.principal_indices(780.0)
        assert nx == ny
        assert nz < nx  # negative uniaxial

    def test_out_of_range_rejected(self, bbo, bibo):
        with pytest.raises(ValueError, match="outside"):
            bbo.sellmeier.principal_indices(2000.0)
        with pytest.raises(ValueError, match="outside"):
            bibo.sellmeier.principal_indices(150.0)

    def test_kept_indices_still_checked(self, bibo):
        """One wavelength's indices are kept, a rejected wavelength raises on every call."""
        sel = bibo.sellmeier
        first = sel.principal_indices(780.0)
        assert sel.principal_indices(780.0) is first and not first.flags.writeable
        assert np.array_equal(first, sel.principal_indices(np.array([780.0, 780.0]))[1])
        block = np.tile([0.6, 0.0, 0.8], (4, 1))
        for _ in range(2):
            with pytest.raises(ValueError, match="outside"):
                sel.principal_indices(150.0)
            with pytest.raises(ValueError, match="outside"):
                index_batch(sel, block, np.full(4, 150.0))


class TestTensor:
    def test_from_elements_layout(self):
        t = NonlinearTensor.from_elements("2", {"d14": 1.5, "d22": -0.5}, "test")
        assert t.d_matrix[0, 3] == 1.5
        assert t.d_matrix[1, 1] == -0.5

    def test_bad_element_names(self):
        for name in ("x14", "d99", "d1", "d123", "dab", "d1x"):
            with pytest.raises(SchemaError):
                NonlinearTensor.from_elements("2", {name: 1.0}, "test")

    def test_contract_symmetric_in_last_two_fields(self, bibo):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ep, es, ei = rng.normal(size=(3, 3))
            a = bibo.tensor.contract(ep, es, ei)
            b = bibo.tensor.contract(ep, ei, es)
            assert abs(a - b) < 1e-12

    def test_kleinman_partners_consistent(self, bibo):
        d = bibo.tensor.d_matrix
        assert d[0, 3] == d[1, 4] == d[2, 5]   # d14 = d25 = d36
        assert d[0, 1] == d[1, 5]              # d12 = d26
        assert d[0, 2] == d[2, 4]              # d13 = d35


class TestCrystalCut:
    def test_direction_unit_vector(self):
        cut = CrystalCut(1.944, 0.962, 0.6)
        assert abs(np.linalg.norm(cut.direction()) - 1.0) < 1e-14

    @pytest.mark.parametrize("theta,phi,length", [
        (-0.1, 0.0, 1.0), (3.2, 0.0, 1.0), (1.0, -0.5, 1.0),
        (1.0, 7.0, 1.0), (1.0, 1.0, 0.0), (1.0, 1.0, float("nan")),
        (1.0, 1.0, float("inf")),
    ])
    def test_validation(self, theta, phi, length):
        with pytest.raises(ValueError):
            CrystalCut(theta, phi, length)


class TestRecords:
    """The crystal records are read-only ``_Record`` classes that keep the
    constructors, fields and behaviour of the frozen dataclasses they replaced."""

    # each record's constructor parameters, as the dataclass declared its fields
    PARAMS = {
        SellmeierSet: "species, symmetry, coefficients, valid_range_um, source_citation",
        NonlinearTensor: "point_group, d_matrix, source_citation",
        CrystalCut: "theta, phi, length_mm",
        CrystalData: "sellmeier, tensor, reference_cut=None, notes=''",
        WaveSolution: "n_fast, n_slow, d_fast, d_slow, walkoff_fast, walkoff_slow",
        PhaseMatchSolution: "theta, phi, delta_k_residual, d_eff_pm_v, walkoff_fast, "
                            "walkoff_slow",
        NoncollinearArms: "dir_i, dir_j, opening_i, opening_j, d_eff_fs, d_eff_sf, "
                          "fast_deflection_rad, external_half_angle_deg, pump_wave",
        RingCloud: "kx, ky, wavelength_nm, weight, branch",
    }

    @pytest.mark.parametrize("record", list(PARAMS), ids=lambda r: r.__name__)
    def test_constructor_and_fields(self, record):
        signature = inspect.signature(record)
        shown = ", ".join(str(p.replace(annotation=inspect.Parameter.empty))
                          for p in signature.parameters.values())
        assert shown == self.PARAMS[record]
        assert record._fields == tuple(signature.parameters)

    def test_read_only_compared_by_fields(self, bibo):
        cut = CrystalCut(1.944, 0.962, 0.6)
        assert cut == CrystalCut(theta=1.944, phi=0.962, length_mm=0.6)
        assert hash(cut) == hash(CrystalCut(1.944, 0.962, 0.6))
        assert repr(cut) == "CrystalCut(theta=1.944, phi=0.962, length_mm=0.6)"
        assert copy.deepcopy(bibo.sellmeier) == bibo.sellmeier
        for rec, field in ((cut, "theta"), (bibo, "notes"), (bibo.sellmeier, "species")):
            with pytest.raises(AttributeError):
                setattr(rec, field, None)

    def test_kept_indices_are_derived(self, bibo):
        """``_principal_at`` takes no part in ``==`` or ``repr``."""
        sel = bibo.sellmeier
        sel.principal_indices(780.0)
        rebuilt = SellmeierSet(*(getattr(sel, f) for f in SellmeierSet._fields))
        assert rebuilt == sel and "_principal" not in repr(sel)
        assert rebuilt._principal_at.cache_info().currsize == 0
