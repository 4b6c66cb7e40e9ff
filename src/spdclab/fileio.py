"""Reading and writing the package's files: JSON in and out, text, CSV tables
and count files.  Standard library only.

Every JSON file spdclab loads, shipped data included, is read by ``_read_json``
and every record in one is checked by ``_record_fields``: a JSON object, of
the record's own ``kind`` if it names one, less its metadata keys.  The input
digest comes from the builtin ``_sha256`` module where it exists (Python
3.11): ``hashlib`` loads OpenSSL, which costs each fresh count-path process
3-5 ms against about 0.3 ms.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from pathlib import Path

from .errors import SchemaError

try:
    from _sha256 import sha256
except ImportError:                  # renamed ``_sha2`` in Python 3.12
    from hashlib import sha256


def dataset_to_dict(data, provenance: str, notes: str = "", extra: dict | None = None) -> dict:
    """A ``witness.CountDataset`` as a count-file record."""
    out = {
        "schema_version": 1,
        "kind": "count_dataset",
        "n": data.n,
        "provenance": provenance,
        "notes": notes,
        "settings": [],
    }
    for s in data.settings:
        rec = {"setting": s.setting}
        if s.histogram is not None:
            rec["histogram"] = {k: int(v) for k, v in sorted(s.histogram.items())}
        if s.aggregated is not None:
            rec["aggregated"] = {k: int(v) for k, v in sorted(s.aggregated.items())}
        if s.hours is not None:
            rec["hours"] = s.hours
        out["settings"].append(rec)
    if extra:
        out.update(extra)
    return out


def _read_json(path) -> tuple:
    """The JSON value in the file at ``path`` (a string, or a path or shipped-data
    resource with ``read_bytes``) and its SHA-256."""
    try:
        blob = (Path(path) if isinstance(path, str) else path).read_bytes()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(blob.decode("utf-8")), sha256(blob).hexdigest()
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def _record_fields(raw, kind: str, name: str, metadata: tuple = ()) -> dict:
    """The fields of ``raw``, the ``kind`` record in the ``name`` file: a JSON object
    whose ``kind``, if given, is ``kind``, less its ``metadata`` keys."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{name} must contain a JSON object")
    found = raw.get("kind", kind)
    if found != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise SchemaError(f"not {article} {kind} record: kind={found!r}")
    return {k: v for k, v in raw.items() if k not in metadata}


def _json_object(value, what: str) -> dict:
    """``value``, a record nested in a file, once it is a JSON object."""
    if not isinstance(value, dict):
        raise SchemaError(f"{what} must be a JSON object")
    return value


def _dump_json(payload: dict, out: str | None) -> None:
    _write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n", out)


def _write_text(text: str, out: str | Path | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"cannot write {out}: {exc}") from exc


def _csv_text(columns: tuple, rows: list) -> str:
    """A header of the column names, then each row formatted by the column specs.

    One ``%`` template per row is repeated over all rows and applied to their
    values at once: the bytes of ``str.format`` per row, in less time.  For
    the specs the tables declare, ``""`` or a precision and a type, the
    conversion ``"%" + (spec or "s")`` writes what ``format(value, spec)`` does.
    """
    line = ",".join("%" + (spec or "s") for _, spec in columns) + "\n"
    return ",".join(name for name, _ in columns) + "\n" + (line * len(rows)) % tuple(
        chain.from_iterable(rows))
