"""Reading and writing the CLI's files: JSON in and out, text, CSV tables and
count files.

Shared by ``cli`` and ``numpy_commands``; standard library only.  The input
digest comes from the builtin ``_sha256`` module where it exists (Python
3.11): ``hashlib`` loads OpenSSL, which costs each fresh count-path process
3-5 ms against about 0.3 ms.
"""

from __future__ import annotations

import json
import sys
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


def _read_json(path: str) -> tuple:
    p = Path(path)
    try:
        blob = p.read_bytes()
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(blob.decode("utf-8")), sha256(blob).hexdigest()
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


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


def _csv_text(columns: tuple, rows) -> str:
    """A header of the column names, then each row formatted by the column specs."""
    line = ",".join(f"{{:{spec}}}" for _, spec in columns) + "\n"
    return ",".join(name for name, _ in columns) + "\n" + "".join(
        line.format(*row) for row in rows)
