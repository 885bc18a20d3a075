"""Atomic CSV/JSON emission with a fixed numeric dialect.

Comma separated, '.' decimal, scientific notation with 17 significant
digits, mandatory header row. Files are written to a temporary then
renamed so partial output never appears under the final name.
"""

from __future__ import annotations

import json
import os
import tempfile


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header, rows) -> None:
    """``rows``, a 2-d float array, under ``header``; one ``%.16e`` template
    per row writes the same bytes as ``f"{x:.16e}"`` per value."""
    template = ",".join(["%.16e"] * len(header))
    lines = [",".join(header)]
    lines.extend(template % tuple(row) for row in rows.tolist())
    _atomic_write(path, "\n".join(lines) + "\n")


def write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
