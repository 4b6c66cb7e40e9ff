"""Crystal dispersion and nonlinearity data.

Sellmeier coefficients and second-order tensors are shipped as versioned
JSON data files with literature citations; nothing here hard-codes a
specific crystal.  All dispersion entries use the common form

    n^2 = A + B / (lambda^2 - C) - D lambda^2    (lambda in micrometers)

per principal axis ('o'/'e' for uniaxial species, 'x'/'y'/'z' for
biaxial ones).  The shipped BiBO has n_x < n_y < n_z, but nothing relies
on that order: the wave solver finds the middle axis from the principal
indices at each wavelength.  Directions, cut angles (theta, phi) and the
second-order tensor all live in the principal dielectric frame.
"""

from __future__ import annotations

import functools
from importlib import resources
from typing import Optional

import numpy as np

from .._record import _Record
from ..errors import SchemaError
from ..fileio import _read_json, _record_fields

UNIAXIAL = "uniaxial"
BIAXIAL = "biaxial"

_AXES = {UNIAXIAL: ("o", "e"), BIAXIAL: ("x", "y", "z")}


class SellmeierSet(_Record):
    """Dispersion data for one crystal species."""

    __slots__ = (
        "species", "symmetry",
        "coefficients",             # axis -> (A, B, C, D)
        "valid_range_um",           # inclusive (lo, hi)
        "source_citation",
        "_principal_coefficients",  # columns (A, B, C, D) per principal axis x, y, z
        "_principal_at",            # one evaluation per wavelength; a call that raises
    )                               # leaves no entry

    def __init__(self, species: str, symmetry: str, coefficients: dict,
                 valid_range_um: tuple, source_citation: str):
        if symmetry not in _AXES:
            raise SchemaError(f"unknown symmetry {symmetry!r}")
        missing = set(_AXES[symmetry]) - set(coefficients)
        if missing:
            raise SchemaError(f"{species}: missing axes {sorted(missing)}")
        principal = ("o", "o", "e") if symmetry == UNIAXIAL else ("x", "y", "z")
        try:
            table = np.array([coefficients[ax] for ax in principal], dtype=float)
        except (TypeError, ValueError):
            table = None
        if table is None or table.shape != (3, 4) or not np.isfinite(table).all():
            raise SchemaError(
                f"{species}: each axis needs four finite Sellmeier coefficients")
        try:
            lo, hi = map(float, valid_range_um)
        except (TypeError, ValueError):
            lo = hi = np.nan
        if not -np.inf < lo < hi < np.inf:
            raise SchemaError(f"{species}: valid_range_um must be two finite numbers "
                              f"lo < hi, got {valid_range_um!r}")
        self._fill(species, symmetry, coefficients, (lo, hi), source_citation, table.T,
                   functools.lru_cache(maxsize=64)(self._principal_at_one))

    def _indices(self, wavelength_nm) -> np.ndarray:
        """(n_x, n_y, n_z) from the principal coefficients; (..., 3) per wavelength."""
        lam_nm = np.asarray(wavelength_nm, dtype=float)
        lam = lam_nm[..., None] * 1e-3
        lo, hi = self.valid_range_um
        inside = (lo <= lam) & (lam <= hi)
        if not inside.all():
            raise ValueError(
                f"{self.species}: {lam_nm[~inside[..., 0]].flat[0]} nm outside "
                f"the Sellmeier validity range [{lo*1e3:.0f}, {hi*1e3:.0f}] nm"
            )
        a, b, c, d = self._principal_coefficients
        n_sq = a + b / (lam * lam - c) - d * lam * lam
        physical = n_sq > 1.0
        if not physical.all():
            bad = lam_nm[~np.all(physical, axis=-1)].flat[0]
            raise ValueError(f"{self.species}: unphysical index at {bad} nm")
        return np.sqrt(n_sq)

    def _principal_at_one(self, wavelength_nm: float) -> np.ndarray:
        n = self._indices(wavelength_nm)
        n.setflags(write=False)  # shared by every later call at this wavelength
        return n

    def principal_indices(self, wavelength_nm) -> np.ndarray:
        """(n_x, n_y, n_z); uniaxial species map to (n_o, n_o, n_e).

        Shape (3,) for one wavelength, (..., 3) for an array of them.  The
        (3,) array of one wavelength is computed once and is read-only.
        """
        lam = np.asarray(wavelength_nm, dtype=float)
        if lam.ndim == 0:
            return self._principal_at(float(lam))
        return self._indices(lam)


class NonlinearTensor(_Record):
    """3x6 contracted second-order tensor in pm/V (principal frame)."""

    __slots__ = ("point_group", "d_matrix", "source_citation")

    def __init__(self, point_group: str, d_matrix: np.ndarray, source_citation: str):
        m = np.asarray(d_matrix, dtype=float)
        if m.shape != (3, 6) or not np.isfinite(m).all():
            raise SchemaError("contracted d matrix must be 3x6 and finite")
        self._fill(point_group, m, source_citation)

    @staticmethod
    def from_elements(point_group: str, elements: dict, citation: str) -> "NonlinearTensor":
        """Build the 3x6 matrix from entries like {"d22": 2.2, "d31": 0.08}."""
        m = np.zeros((3, 6))
        for name, value in elements.items():
            # d plus a row digit 1-3 and a contracted-column digit 1-6
            if not (len(name) == 3 and name[0] == "d" and name[1] in "123"
                    and name[2] in "123456"):
                raise SchemaError(f"bad element name {name!r}")
            m[int(name[1]) - 1, int(name[2]) - 1] = float(value)
        return NonlinearTensor(point_group, m, citation)

    def contract(self, e_pump, e_sig, e_idl) -> float:
        """d_eff = e_pump . d : (e_sig e_idl), fields as unit vectors."""
        es = np.asarray(e_sig, float)
        ei = np.asarray(e_idl, float)
        v = np.array([
            es[0] * ei[0],
            es[1] * ei[1],
            es[2] * ei[2],
            es[1] * ei[2] + es[2] * ei[1],
            es[0] * ei[2] + es[2] * ei[0],
            es[0] * ei[1] + es[1] * ei[0],
        ])
        return float(np.asarray(e_pump, float) @ (self.d_matrix @ v))


def polar_direction(theta, phi) -> np.ndarray:
    """Unit vector at polar angle theta and azimuth phi; (..., 3) for arrays."""
    theta, phi = np.broadcast_arrays(theta, phi)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


class CrystalCut(_Record):
    """Cut angles in the principal frame plus crystal length."""

    __slots__ = ("theta", "phi", "length_mm")

    def __init__(self, theta: float, phi: float, length_mm: float):
        if not 0.0 <= theta <= np.pi:
            raise SchemaError(f"theta must lie in [0, pi], got {theta}")
        if not 0.0 <= phi < 2.0 * np.pi:
            raise SchemaError(f"phi must lie in [0, 2 pi), got {phi}")
        if not (np.isfinite(length_mm) and length_mm > 0):
            raise SchemaError(
                f"crystal length must be positive and finite, got {length_mm}")
        self._fill(theta, phi, length_mm)

    def direction(self) -> np.ndarray:
        return polar_direction(self.theta, self.phi)


class CrystalData(_Record):
    """One crystal species: dispersion, nonlinearity and an optional reference cut."""

    __slots__ = ("sellmeier", "tensor", "reference_cut", "notes")

    def __init__(self, sellmeier: SellmeierSet, tensor: NonlinearTensor,
                 reference_cut: Optional[CrystalCut] = None, notes: str = ""):
        self._fill(sellmeier, tensor, reference_cut, notes)


def load_crystal(species: str) -> CrystalData:
    """Load a shipped crystal data file ('bbo' or 'bibo'); SchemaError if there is none."""
    raw, _ = _read_json(resources.files("spdclab.data").joinpath(f"{species.lower()}.json"))
    return crystal_from_dict(raw)


def crystal_from_dict(raw) -> CrystalData:
    """The crystal data record ``raw`` as ``CrystalData``; SchemaError if it is malformed."""
    record = _record_fields(raw, "crystal_data", "crystal data file", ("schema_version",))
    try:
        sel = record["sellmeier"]
        sellmeier = SellmeierSet(
            species=record["species"],
            symmetry=record["symmetry"],
            coefficients={ax: tuple(v) for ax, v in sel["coefficients"].items()},
            valid_range_um=tuple(sel["valid_range_um"]),
            source_citation=sel["citation"],
        )
        ten = record["d_tensor_pm_per_v"]
        tensor = NonlinearTensor.from_elements(
            ten["point_group"], ten["elements"], ten["citation"]
        )
        cut = None
        if "reference_cut" in record:
            rc = record["reference_cut"]
            cut = CrystalCut(rc["theta_rad"], rc["phi_rad"], rc["length_mm"])
        return CrystalData(sellmeier=sellmeier, tensor=tensor, reference_cut=cut,
                           notes=record.get("notes", ""))
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"malformed crystal data: {exc}") from exc
