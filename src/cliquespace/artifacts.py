"""Artifact files: a leading metadata block, then the body.

Every text artifact opens with one ``# key=value`` line per metadata key;
the SVG report carries the same keys as ``<!-- key=value -->`` comments.
Only that leading block is metadata: a later line starting with ``#``,
such as the row of an instance whose file stem starts with ``#``, is data.
"""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path

_SVG_META = re.compile(r"<!--\s*(\S+)=(\S+)\s*-->")


def _write_meta(fh, meta: dict[str, str] | None) -> None:
    for key, value in (meta or {}).items():
        fh.write(f"# {key}={value}\n")


def write_table(path: str | Path, columns, rows, meta: dict[str, str] | None) -> None:
    """A CSV artifact: the metadata block, the header ``columns``, then ``rows``."""
    with Path(path).open("w", newline="") as fh:
        _write_meta(fh, meta)
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)


def write_lines(path: str | Path, lines: list[str], meta: dict[str, str] | None) -> None:
    """A line-oriented artifact: the metadata block, then ``lines``."""
    with Path(path).open("w") as fh:
        _write_meta(fh, meta)
        fh.write("\n".join(lines) + "\n")


def svg_meta_lines(meta: dict[str, str] | None) -> list[str]:
    return [f"<!-- {key}={value} -->" for key, value in (meta or {}).items()]


def _split_meta(lines) -> tuple[dict[str, str], int]:
    """Metadata of the leading ``#`` block of ``lines``, and its line count."""
    meta: dict[str, str] = {}
    count = 0
    for line in lines:
        if not line.startswith("#"):
            break
        count += 1
        key, sep, value = line[1:].partition("=")
        if sep:
            meta[key.strip()] = value.strip()
    return meta, count


def read_artifact_meta(path: str | Path) -> dict[str, str]:
    """The metadata of an artifact, read without its body."""
    path = Path(path)
    with path.open(errors="replace") as fh:
        if path.suffix == ".svg":
            return dict(_SVG_META.findall(fh.read()))
        return _split_meta(fh)[0]


def read_lines(path: str | Path) -> tuple[dict[str, str], list[str]]:
    """Metadata and the remaining lines of a line-oriented artifact."""
    lines = Path(path).read_text().splitlines()
    meta, count = _split_meta(lines)
    return meta, lines[count:]


def read_table(path: str | Path, columns, error, parse, text: str | None = None):
    """Metadata and parsed rows of a CSV artifact: ``(meta, rows)``.

    The header must equal ``columns`` and every row must have as many
    fields; ``parse`` turns a row's fields into the returned value and
    raises ValueError on a bad field.  Any of these faults raises
    ``error`` naming ``path:line``.  ``text`` stands in for the file's
    contents when the caller has already read them.
    """
    if text is None:
        with Path(path).open(newline="") as fh:
            text = fh.read()
    lines = io.StringIO(text, newline="").readlines()
    meta, start = _split_meta(lines)
    reader = csv.reader(lines[start:])
    header = next(reader, None)
    if header is None or tuple(header) != tuple(columns):
        raise error(f"{path}:{start + 1}: expected header {','.join(columns)}, got {header}")
    rows = []
    for fields in reader:
        try:
            if len(fields) != len(columns):
                raise ValueError(f"expected {len(columns)} fields, got {len(fields)}")
            rows.append(parse(fields))
        except ValueError as exc:
            raise error(f"{path}:{start + reader.line_num}: malformed row ({exc})") from None
    return meta, rows
