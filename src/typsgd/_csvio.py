"""Low-level CSV reading/writing shared by the persistence helpers.

Every artifact is read back through :func:`read_table`, which checks each
row's width and parses each cell with its column's parser.

All files written by this package start with a single comment line of the
form ``# typsgd v<version> config=<hash> seed=<seed>`` so outputs are
traceable to the run that produced them; :func:`read_provenance` reads it
back. :func:`write_rows` owns the text of every cell: a float (numpy
float64 included) is written with ``repr``, which round-trips float64
exactly, and None as an empty cell.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os

from . import __version__
from .errors import CsvFormatError

COMMENT_PREFIX = "#"


def config_hash(text: str) -> str:
    """12-hex-digit digest of a canonicalized config text."""
    canonical = "\n".join(line.strip() for line in text.strip().splitlines())
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def provenance_line(config_digest: str = "none", seed: int | None = None) -> str:
    seed_part = "none" if seed is None else str(seed)
    return f"{COMMENT_PREFIX} typsgd v{__version__} config={config_digest} seed={seed_part}"


def read_provenance(path) -> dict[str, str]:
    """The ``key=value`` fields (``config``, ``seed``) of the provenance line that starts ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
    if not first.startswith(f"{COMMENT_PREFIX} typsgd v"):
        raise CsvFormatError(f"{path}: the first line is not a typsgd provenance line", row=0, column=0)
    return dict(field.partition("=")[::2] for field in first.split()[3:])


def format_number(x) -> str:
    # repr() is the shortest exact round-trip representation in py3
    return repr(float(x))


def finite(cell: str) -> float:
    """A cell parser: a finite number; NaN and the infinities raise ValueError."""
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def write_text(path, text: str) -> None:
    """Write to ``path.tmp`` and rename it over ``path``: a failed write leaves ``path`` as it was.

    The temporary file is removed when the write or the rename fails.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def format_cell(cell) -> str:
    """None as an empty cell, a float with :func:`format_number`, anything else with ``str``."""
    if cell is None:
        return ""
    return format_number(cell) if isinstance(cell, float) else str(cell)


def write_rows(path, rows, header=None, config_digest="none", seed=None):
    """Write rows (iterables of raw cell values, see :func:`format_cell`) with the provenance comment line."""
    lines = [provenance_line(config_digest, seed)]
    if header is not None:
        lines.append(",".join(header))
    lines.extend(",".join(format_cell(c) for c in row) for row in rows)
    write_text(path, "\n".join(lines) + "\n")


def read_rows(path, has_header=False):
    """Read rows, skipping comment lines. Returns (header, rows of strings)."""
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith(COMMENT_PREFIX):
                continue
            cells = line.split(",")
            if has_header and header is None:
                header = cells
                continue
            rows.append(cells)
    return header, rows


def read_table(path, columns, has_header=False):
    """Read rows through :func:`read_rows`, looked up when called, and parse every cell with its column's parser.

    ``columns`` is one parser per column, or one parser for every column of a
    table as wide as its header (or, with no header, its first row). A parser
    raises ValueError on a cell it rejects. No data rows, a row of the wrong
    width or a rejected cell raises CsvFormatError naming the file, with
    0-based ``row`` (over data rows) and ``column`` set. Returns (header, rows
    of parsed cells).
    """
    header, raw = read_rows(path, has_header=has_header)
    if not raw:
        raise CsvFormatError(f"{path}: file contains no data rows", row=0, column=0)
    if callable(columns):
        columns = [columns] * len(header if header is not None else raw[0])
    width = len(columns)
    rows = []
    for i, cells in enumerate(raw):
        if len(cells) != width:
            raise CsvFormatError(
                f"{path}: row {i} has {len(cells)} cells, expected {width}", row=i, column=min(len(cells), width)
            )
        row = []
        for j, (parse, cell) in enumerate(zip(columns, cells)):
            try:
                row.append(parse(cell))
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {i}, column {j}: cannot read {cell!r} as {parse.__name__}", row=i, column=j
                ) from None
        rows.append(row)
    return header, rows
