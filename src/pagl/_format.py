"""The one text formatter of pagl's tables and edge lists.

:func:`format_block` writes rows of columns as bytes: each block of rows
becomes one byte table, one row of text per table row, and the text is
gathered from it through one keep mask.  Every value reads as ``str``
would write it, except a float, which reads as its ``repr``.
:func:`format_rows` writes a header and its rows as TSV text, a block of
rows at a time.
"""

import numpy as np

# rows of a table or an edge list formatted or parsed per pass; keeps a
# block's byte table in cache, under 1 MiB for the edges table
_ROW_BLOCK = 1 << 12


def _field(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)


def _naturals(column):
    """``column`` as unsigned ints and its widest value's digit count, if
    it is a numpy int column with no negative value; else None."""
    if not isinstance(column, np.ndarray) or column.dtype.kind not in "iu":
        return None
    if column.dtype.kind == "i" and column.min() < 0:
        return None
    top = int(column.max())
    return column.astype(np.uint32 if top < 1 << 32 else np.uint64), len(str(top))


def _digits(x, table, keep) -> None:
    """Write ``x`` in decimal into the byte columns of ``table``, right
    aligned, and keep all but their leading zeros."""
    width = table.shape[1]
    for j in range(width - 1):
        np.greater_equal(x, 10 ** (width - 1 - j), out=keep[:, j])
    keep[:, -1] = True
    for j in range(width - 1, -1, -1):
        q = x // 10
        np.add(x - q * 10, ord("0"), out=table[:, j], casting="unsafe")
        x = q


def _texts(column):
    """The text of every item of ``column`` as a byte table, left aligned,
    and each item's length in bytes."""
    at = None
    if isinstance(column, np.ndarray) and column.dtype.kind == "f" \
            and column.dtype.itemsize <= 8:
        # one repr per distinct bit pattern, so -0.0, 0.0 and every NaN
        # keep their own text; a repr is ASCII, so numpy encodes it
        keys, at = np.unique(column.astype(np.float64).view(np.int64),
                             return_inverse=True)
        words = list(map(repr, keys.view(np.float64).tolist()))
    elif isinstance(column, np.ndarray):
        spec = "%r" if column.dtype.kind == "f" else "%s"
        words = [(spec % (v,)).encode() for v in column.tolist()]
    else:
        words = [_field(v).encode() for v in column]
    table = np.array(words, dtype="S")
    table = table.view(np.uint8).reshape(len(words), table.itemsize)
    lengths = np.fromiter(map(len, words), np.int64, len(words))
    return (table, lengths) if at is None else (table[at], lengths[at])


def _cells(column):
    """The width in bytes of ``column``'s text, and a function that writes
    the text into a byte table of that width and marks what to keep."""
    naturals = _naturals(column)
    if naturals is not None:
        x, width = naturals
        return width, lambda table, keep: _digits(x, table, keep)
    text, lengths = _texts(column)

    def fill(table, keep):
        table[...] = text
        np.less(np.arange(text.shape[1]), lengths[:, None], out=keep)

    return text.shape[1], fill


def format_block(columns, sep: bytes = b"\t") -> bytes:
    """Row i of every column, joined by the one byte ``sep``, one line per
    row.

    Non-negative numpy ints are written by digit arithmetic, numpy floats
    by one ``repr`` per distinct value, and every other item (bools,
    strings, negative ints, items of plain sequences) by one ``str``, or
    ``repr`` for a float, each.
    """
    if not columns or len(columns[0]) == 0:
        return b""
    cells = [_cells(column) for column in columns]
    table = np.empty((len(columns[0]), sum(w + 1 for w, _ in cells)), np.uint8)
    keep = np.empty(table.shape, bool)
    at = 0
    for width, fill in cells:
        fill(table[:, at:at + width], keep[:, at:at + width])
        at += width
        table[:, at] = sep[0]
        keep[:, at] = True
        at += 1
    table[:, -1] = ord("\n")
    return table[keep].tobytes()


def _slices(columns, rows: int = _ROW_BLOCK):
    """``columns`` cut into blocks of ``rows`` rows."""
    sizes = {len(column) for column in columns}
    if len(sizes) > 1:
        raise ValueError(f"columns differ in length: {sorted(sizes)}")
    for lo in range(0, sizes.pop() if sizes else 0, rows):
        yield [column[lo:lo + rows] for column in columns]


def _lines(header: str, blocks):
    yield (header + "\n").encode()
    yield from map(format_block, blocks)


def format_rows(header: str, *columns) -> str:
    """TSV text: ``header``, then row i of item i of every column.

    Floats are written with ``repr`` and everything else with ``str``; a
    numpy column is formatted by its dtype, a sequence item by item.
    """
    return b"".join(_lines(header, _slices(columns))).decode()
