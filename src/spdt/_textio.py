"""The rules of spdt's text formats: trace CSV, network files, daily counts
and the report tables. Files are read and written ``BLOCK_LINES`` lines at a
time, so that temporaries stay small whatever the size of the file.
"""

from __future__ import annotations

import re
from itertools import islice

import numpy as np

BLOCK_LINES = 1 << 13
# the characters str.isspace matches
_SPACE = re.compile(r"\s")


def check_utf8(path, lineno: int, line: str) -> None:
    """Raise naming ``path:lineno`` if the line, read with
    errors="surrogateescape", held bytes that are not UTF-8: they became
    lone surrogates, which do not encode."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        raise ValueError(f"{path}:{lineno}: bytes that are not UTF-8") from None


def id_fault(*ids: str) -> str | None:
    """Why the ids break the id rule, or None if they keep it: an id is
    non-empty, holds no character that ``str.isspace`` matches, and is
    UTF-8. All the ids are checked in one pass."""
    joined = "".join(ids)
    try:
        joined.encode("utf-8")
    except UnicodeEncodeError:
        return "user id is not UTF-8"
    if not all(ids):
        return "empty user id"
    return "user id contains whitespace" if _SPACE.search(joined) else None


def bad_csv_id(ids) -> str | None:
    """The first of the ids that cannot be a CSV field, or None: a CSV id
    keeps the id rule and holds no comma."""
    if id_fault(*ids) is None and not any("," in i for i in ids):
        return None
    return next(i for i in ids if id_fault(i) or "," in i)


def join_lines(lines) -> bytes:
    """Lines joined into one block, each CRLF line end made LF: a line ends
    at LF or CRLF. A lone CR is kept, for a text-mode read to end a line at."""
    block = b"".join(lines)
    return block.replace(b"\r\n", b"\n") if b"\r" in block else block


def read_blocks(lines, block_pass, line_reader):
    """The parts of an iterable of lines read a block at a time, the distinct
    user ids, sorted, and each id code's position among them. The lines
    follow a one-line header, so the first is line 2. A block is
    converted by ``block_pass(lines, index)`` or, if that returns None, by
    ``line_reader(lines, lineno, index)``, which also returns the number of
    the line after it; both code ids in ``index`` in the order met."""
    index: dict[str, int] = {}
    parts = []
    lineno = 2
    while block := list(islice(lines, BLOCK_LINES)):
        part = block_pass(block, index)
        if part is None:
            part, lineno = line_reader(block, lineno, index)
        else:
            lineno += len(block)
        parts.append(part)

    users = sorted(index)
    rank = {user: i for i, user in enumerate(users)}
    recode = np.fromiter(map(rank.__getitem__, index), np.int64, len(index))
    # each id was split out of a whole block of text, and would keep that
    # block's memory from being returned while it lives; copies made once
    # the originals are dropped do not (no id holds whitespace)
    joined = "\n".join(users)
    del index, users, rank
    return parts, joined.split("\n") if joined else [], recode


def int_text(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decimal text of integers as ``str`` writes them: a (width, n) byte
    matrix, one row per digit or sign, with each value right-aligned in its
    column, and the mask of its used bytes."""
    values = np.asarray(values, dtype=np.int64)
    neg = values < 0
    magnitude = values.astype(np.uint64)
    np.negative(magnitude, out=magnitude, where=neg)  # exact for -2**63 too
    width = len(str(int(magnitude.max(initial=0)))) + 1  # digits and a sign
    text = np.empty((width, values.size), dtype=np.uint8)
    used = np.empty((width, values.size), dtype=bool)
    used[-1] = True
    for j in range(width - 1, 0, -1):
        quotient = magnitude // 10
        text[j] = magnitude - quotient * 10
        magnitude = quotient
        # a digit is used while higher digits remain
        used[j - 1] = magnitude != 0
    text += ord("0")
    if neg.any():
        cols = np.flatnonzero(neg)
        sign = np.argmax(used[:, cols], axis=0) - 1
        text[sign, cols] = ord("-")
        used[sign, cols] = True
    return text, used


def id_text(users):
    """The formatter of id codes over ``users``: like ``int_text``, but each
    id's UTF-8 bytes are top-aligned in its column."""
    encoded = [user.encode("utf-8") for user in users]
    size = np.fromiter(map(len, encoded), np.int64, len(encoded))
    used = np.arange(size.max(initial=0))[:, None] < size
    text = np.zeros(used.shape, dtype=np.uint8)
    text.T[used.T] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return lambda codes: (text.take(codes, axis=1), used.take(codes, axis=1))


def write_blocks(fh, columns, formats, sep: str) -> None:
    """Write a line per row of equal-length columns, a block at a time: each
    column's formatter, such as ``int_text``, gives its field as a (width,
    lines) byte matrix and a used mask. The fields and their separators are
    stacked as rows, and a line is a column of the stack read top to bottom:
    its fields joined by ``sep`` and ended by LF."""
    for i in range(0, len(columns[0]), BLOCK_LINES):
        fields = [fmt(col[i:i + BLOCK_LINES]) for fmt, col in zip(formats, columns)]
        end = np.full((1, fields[0][0].shape[1]), ord(sep), dtype=np.uint8)
        text = np.concatenate([part for field, _ in fields for part in (field, end)])
        used = np.concatenate([part for _, mask in fields for part in (mask, end > 0)])
        text[-1] = ord("\n")
        fh.write(text.T[used.T])


def float_field(value: float) -> str:
    """A float's table field: its repr, empty for NaN."""
    return "" if np.isnan(value) else repr(float(value))


def write_table(path, header: str, lines) -> None:
    """Write a text table in UTF-8: the header line, then each of ``lines``,
    every line ended by LF, ``BLOCK_LINES`` lines at a time."""
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        while block := list(islice(lines, BLOCK_LINES)):
            fh.write("\n".join(block) + "\n")
