"""Versioned text files: the one reader and writer behind every data format.

Tiles and trajectories share these rules: ASCII, a ``#crossview-<kind>-v<N>``
header line, one record per line with whitespace-separated columns, floats
written with ``repr`` so they read back bit-exactly, blank lines ignored, and
every parse error reported as ``path:line: message``. Each format supplies
only its column layout.
"""

from __future__ import annotations

__all__ = ["FileFormatError", "read_ascii", "read_rows", "write_rows"]


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
    lines = read_ascii(path, FileFormatError).splitlines()
    if not lines or lines[0].strip() != header:
        raise FileFormatError(f"{path}:1: expected header {header!r}")
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
