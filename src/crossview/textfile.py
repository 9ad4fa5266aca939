"""Versioned text files: the one reader and writer behind every data format.

Tiles and trajectories share these rules: ASCII, a ``#crossview-<kind>-v<N>``
header line, one record per line with whitespace-separated columns, floats
written with ``repr`` so they read back bit-exactly, blank lines ignored, and
every parse error reported as ``path:line: message``. Each format supplies
only its column layout.

One reader reads and splits a file once. Each format's checked row parse
names every fault. A table of floats goes first through numpy's C reader,
which converts a token with ``float()``'s correctly rounded routine; any
lines it refuses or reads differently (``float()`` takes ``1_0``) go to the
row parse, so the error is always the row parse's.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = ["FileFormatError", "read_ascii", "read_rows", "read_table", "write_rows"]


class FileFormatError(ValueError):
    """A malformed versioned text file; the message starts with its location."""


def write_rows(path, header: str, rows) -> None:
    """Write the header line, then each already formatted row, newline-ended."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def read_ascii(path, error) -> str:
    """The file's text; a non-ASCII byte raises ``error`` at ``path:line:``."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # Number lines as str.splitlines does, the way every reader counts them.
        lineno = len((data[: exc.start].decode("ascii") + ".").splitlines())
        raise error(f"{path}:{lineno}: non-ASCII byte {data[exc.start]:#04x}") from None


def read_rows(path, header: str, parse):
    """Check the header, then return ``parse(rows)``.

    ``rows`` yields the token list of each non-blank line after the header.
    A ValueError that ``parse`` raises while a row is current becomes a
    FileFormatError located at ``path:line:``; one raised once the rows are
    exhausted (an empty file, a whole-file check) is located at ``path:``.
    """
    return _parse_lines(path, _lines(path, header), parse)


def read_table(path, header: str, width: int, parse) -> np.ndarray:
    """numpy's ``(n, width)`` table of the rows, if it has a row and every value
    is finite; else :func:`read_rows`'s ``parse`` of the same lines, which
    returns that table for any file it accepts or raises the fault's error."""
    lines = _lines(path, header)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(lines[1:], comments=None, ndmin=2)
    except ValueError:
        pass
    else:
        if len(table) and table.shape[1] == width and np.isfinite(table).all():
            return table
    return _parse_lines(path, lines, parse)


def _lines(path, header: str) -> list[str]:
    lines = read_ascii(path, FileFormatError).splitlines()
    if not lines or lines[0].strip() != header:
        raise FileFormatError(f"{path}:1: expected header {header!r}")
    return lines


def _parse_lines(path, lines: list[str], parse):
    lineno = None

    def rows():
        nonlocal lineno
        for lineno, line in enumerate(lines[1:], start=2):
            tokens = line.split()
            if tokens:
                yield tokens
        lineno = None

    try:
        return parse(rows())
    except ValueError as exc:
        where = path if lineno is None else f"{path}:{lineno}"
        raise FileFormatError(f"{where}: {exc}") from exc
