"""Artifact files: a leading metadata block, then the body.

Every text artifact opens with one ``# key=value`` line per metadata key;
the SVG report carries the same keys as ``<!-- key=value -->`` comments.
Only that leading block is metadata: a later line starting with ``#``,
such as the row of an instance whose file stem starts with ``#``, is data.
The body is CSV for tables and one JSON object for model files.  Every
artifact is written whole or not at all (``open_whole``), so a header
that marks a file as current never heads a partial body.  The one
artifact that is also appended to is the run journal ``runs.csv``: one
flushed and fsynced row per finished run, through ``append_rows``.
``cell`` writes every CSV cell and metadata value; a table's columns are
declared once, each name with its type, by which ``read_table`` parses
each cell.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from contextlib import contextmanager
from pathlib import Path

from .errors import ModelFormatError

_SVG_META = re.compile(r"<!--\s*(\S+)=(\S+)\s*-->")
_MODEL_VERSION = 2
# the stage that writes each kind of model file
_MODEL_STAGES = {"projection": "isa-fit", "selector": "train"}


def cell(value) -> str:
    """A bool as ``true`` or ``false``, a float (numpy's float64 is one) as
    ``repr(float(value))``, anything else as ``str(value)``."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def flag(text: str) -> bool:
    """The bool of a ``true`` or ``false`` cell; any other text raises ValueError."""
    if text not in ("true", "false"):
        raise ValueError(f"expected true or false, got {text!r}")
    return text == "true"


def _write_meta(fh, meta: dict | None) -> None:
    for key, value in (meta or {}).items():
        fh.write(f"# {key}={cell(value)}\n")


@contextmanager
def open_whole(path: str | Path):
    """A text handle on ``<path>.part``, which replaces ``path`` when the
    block ends and is removed when it raises: ``path`` is written whole or
    not at all."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        with part.open("w", newline="") as fh:
            yield fh
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


def _write_rows(fh, rows) -> None:
    """Each row of values as one CSV line of ``cell`` texts."""
    csv.writer(fh).writerows([cell(v) for v in row] for row in rows)


def append_rows(path: str | Path, rows) -> None:
    """Append ``rows`` to the table at ``path`` and flush them to disk
    before returning; a kill can tear at most the final line."""
    with Path(path).open("a", newline="") as fh:
        _write_rows(fh, rows)
        fh.flush()
        os.fsync(fh.fileno())


def write_table(path: str | Path, columns, rows, meta: dict | None) -> None:
    """A CSV artifact: the metadata block, the names of ``columns`` (a dict
    of name to type, or (name, type) pairs), then ``rows`` of values."""
    with open_whole(path) as fh:
        _write_meta(fh, meta)
        csv.writer(fh).writerow(dict(columns))
        _write_rows(fh, rows)


def write_model(path: str | Path, kind: str, body: dict, meta: dict | None) -> None:
    """A model file: the metadata block, then ``body`` as one JSON object
    tagged with the ``kind``'s format name and the model version."""
    model = {"format": f"cliquespace-{kind}-model", "version": _MODEL_VERSION, **body}
    with open_whole(path) as fh:
        _write_meta(fh, meta)
        fh.write(json.dumps(model) + "\n")


def svg_meta_lines(meta: dict | None) -> list[str]:
    return [f"<!-- {key}={cell(value)} -->" for key, value in (meta or {}).items()]


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


def read_model(path: str | Path, kind: str) -> dict:
    """The JSON object of a ``kind`` model file written by ``write_model``.

    Raises ModelFormatError naming ``path`` when the body is not a JSON
    object of the current version, or is a model of another kind.
    """
    try:
        lines = Path(path).read_text().splitlines()
        model = json.loads("\n".join(lines[_split_meta(lines)[1] :]))
        version = model["version"]
        name = model["format"]
    except (ValueError, TypeError, KeyError):
        version = name = None
    if version != _MODEL_VERSION:
        raise ModelFormatError(
            f"{path}: not a version-{_MODEL_VERSION} model file; delete it and re-run "
            f"the {_MODEL_STAGES[kind]} stage to write it again"
        )
    if name != f"cliquespace-{kind}-model":
        raise ModelFormatError(f"{path}: not a {kind} model file (format {name!r})")
    return model


def read_table(path: str | Path, columns, error, parse, text: str | None = None):
    """Metadata and parsed rows of a CSV artifact: ``(meta, rows)``.

    The header must be the names of ``columns`` (as for ``write_table``),
    and each field is parsed by its column's type (a bool by ``flag``);
    ``parse`` turns a row's list of values into the returned value and
    raises ValueError or ``error`` on a bad one.  Any of these faults
    raises ``error`` naming ``path:line``.  ``text`` stands in for the
    file's contents when the caller has already read them.
    """
    if text is None:
        with Path(path).open(newline="") as fh:
            text = fh.read()
    columns = dict(columns)
    readers = [flag if kind is bool else kind for kind in columns.values()]
    lines = io.StringIO(text, newline="").readlines()
    meta, start = _split_meta(lines)
    reader = csv.reader(lines[start:])
    header = next(reader, None)
    if header != list(columns):
        raise error(f"{path}:{start + 1}: expected header {','.join(columns)}, got {header}")
    rows = []
    for fields in reader:
        try:
            if len(fields) != len(readers):
                raise ValueError(f"expected {len(readers)} fields, got {len(fields)}")
            rows.append(parse([read(f) for read, f in zip(readers, fields)]))
        except (ValueError, error) as exc:
            raise error(f"{path}:{start + reader.line_num}: malformed row ({exc})") from None
    return meta, rows
