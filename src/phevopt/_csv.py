"""The column writer behind the package's CSV data files.

``write_csv`` builds each block of rows as one ``(rows x width)`` byte
matrix in a ``bytearray`` and writes it in one call. Every column fills a
box of bytes, one row per cell, and pads each cell to the box's width
with the byte 0xFF: in the sign column of a non-negative number, in place
of its leading zeros, and past the end of a string's UTF-8. Strict UTF-8
never holds 0xFF, so deleting every pad byte keeps exactly the cells'
bytes, a NUL, comma or newline in a label included; what is left, read
row by row, is the block's lines. The block's columns are concatenated
straight into the buffer, whose pads ``bytearray.translate`` deletes.

``%.Nf`` of a float and ``%d`` of an integer are formatted with array
arithmetic, from the digits of the integer ``rint(|x| * 10**N)``. For a
scaled value ``y`` below 2**49 and more than ``y * 2**-52`` (at least one
ulp) from a half-integer, ``rint`` provably rounds it the way CPython's
correctly rounded ``%`` does. The digits come four at a time: the integers
split into base-10**4 chunks, and four ``uint16`` passes over every chunk
at once each peel one digit per chunk into contiguous byte planes, one
plane per column of the box; the box is the planes' transpose, which the
block's concatenation copies anyway. A block has a sign plane only if one
of its values has its sign bit set, ``-0.0`` included. NaN and the
infinities get the constant cells ``nan``, ``inf`` and ``-inf``, which
``%.Nf`` prints for every N. Every other element (a near-tie, a huge
value, text, any other spec) goes through ``spec % v`` in ``_per_value``,
the one place a value is formatted on its own.

A column is ``(name, spec, values)``, or ``(name, spec, table, index)``
for a coded column whose row ``i`` is ``table[index[i]]``: its table is
formatted once, and each block gathers its rows from it.
"""

import re

import numpy as np

_BLOCK = 4096  # rows per write: bounds the byte matrices held at once
_FIXED = re.compile(r"%\.(\d)f")  # 10.0**N is exact for these N
_EXACT = 2.0 ** 49  # below it rint(y) is exact and y - rint(y) has no rounding
_ULP = 2.0 ** -52  # y * _ULP is at least one ulp of a normal y
_COMMA, _NEWLINE, _MINUS, _POINT, _ZERO = b",\n-.0"
_PAD = b"\xff"  # no UTF-8 encoding holds it: write_csv deletes every one


def _per_value(spec: str, values: np.ndarray) -> np.ndarray:
    """The padded box of ``spec % v`` for each of ``values``, in UTF-8."""
    encoded = [(spec % v).encode("utf-8") for v in values.tolist()]
    width = max(map(len, encoded), default=0)
    padded = b"".join(e.ljust(width, _PAD) for e in encoded)
    return np.frombuffer(padded, np.uint8).reshape(len(encoded), width)


def _chunks(mag: np.ndarray, d: int) -> np.ndarray:
    """The base-10**4 digits of the ``d``-digit integers ``mag``, one row
    per digit, the top one first."""
    c = -(-d // 4)
    m = mag.astype(np.uint32 if d <= 9 else np.uint64)  # 10**9 < 2**32
    chunks = np.empty((c, mag.size), np.uint16)
    q, r = np.empty_like(m), np.empty_like(m)
    for j in range(c - 1, 0, -1):
        np.floor_divide(m, 10_000, out=q)
        np.multiply(q, 10_000, out=r)
        chunks[j] = np.subtract(m, r, out=r)
        m, q = q, m
    chunks[0] = m
    return chunks


def _digits(mag: np.ndarray, negative: np.ndarray, n: int, width: int = 0) -> np.ndarray:
    """The ``(planes, rows)`` byte planes of ``[-]i[.f]``: the unsigned
    integers ``mag`` over ``10**n``, with ``n`` fraction digits, no leading
    zeros and at least ``width`` planes after the sign's. The sign has a
    plane only if a value is ``negative``; each plane is written whole."""
    d = max(len(str(mag.max(initial=0))), n + 1, width - (n > 0))  # digits
    chunks = _chunks(mag, d)
    c = len(chunks)
    digits = np.empty((c, 4, mag.size), np.uint8)  # all 4 * c digits, left to right
    q, r = np.empty_like(chunks), np.empty_like(chunks)
    for p in reversed(range(4)):  # one digit of every chunk per pass
        np.floor_divide(chunks, 10, out=q)
        np.multiply(q, 10, out=r)
        digits[:, p] = np.subtract(chunks, r, out=r)
        chunks, q = q, chunks
    digits = digits.reshape(4 * c, mag.size)[4 * c - d:]
    s = int(negative.any())  # planes of the sign: one, or none
    point = s + d - n  # plane of the point, after the integer digits
    planes = np.empty((s + d + (n > 0), mag.size), np.uint8)
    np.add(digits[:d - n], _ZERO, out=planes[s:point])
    np.add(digits[d - n:], _ZERO, out=planes[point + 1:])
    if n:
        planes[point] = _POINT
    if s:  # 0xFF - 0xD2 is the minus sign: no masked store on a mixed-sign column
        np.multiply(negative, np.uint8(_PAD[0] - _MINUS), out=planes[0])
        np.subtract(_PAD[0], planes[0], out=planes[0])
    for j in range(d - n - 1):  # a leading zero becomes a pad: 0xFF | byte == 0xFF
        planes[s + j] |= (mag < np.uint64(10 ** (d - 1 - j))) * np.uint8(_PAD[0])
    return planes


def _floats(spec: str, n: int, x: np.ndarray) -> np.ndarray:
    """The padded box of ``spec % v`` for each of ``x``, ``spec == "%.{n}f"``:
    a constant cell for NaN and the infinities, and per value only for
    the finite values ``rint`` cannot be shown to round as ``%`` does."""
    with np.errstate(over="ignore", invalid="ignore"):
        y = np.abs(x) * 10.0 ** n
        q = np.rint(y)
        # y * 2**-52 >= spacing(y) for a normal y; for a subnormal one q is 0
        exact = (y < _EXACT) & (0.5 - np.abs(y - q) > y * _ULP)
    if exact.all():
        return _digits(q.astype(np.uint64), np.signbit(x), n).T
    odd = np.flatnonzero(~exact)
    q[odd] = 0.0
    v = x[odd]
    named = [(text, odd[mask]) for text, mask in ((b"nan", np.isnan(v)),
             (b"inf", v == np.inf), (b"-inf", v == -np.inf)) if mask.any()]
    planes = _digits(q.astype(np.uint64), np.signbit(x), n, 3 if named else 0)
    for text, at in named:  # the whole cell, the sign plane's byte included
        planes[:, at] = np.frombuffer(text.rjust(len(planes), _PAD), np.uint8)[:, None]
    box = planes.T
    rows = odd[np.isfinite(v)]
    if rows.size:
        other = _per_value(spec, x[rows])
        if other.shape[1] > box.shape[1]:
            box = _widened(box, other.shape[1])
        box[rows] = _widened(other, box.shape[1])
    return box


def _widened(box: np.ndarray, width: int) -> np.ndarray:
    """``box`` padded on the right to ``width`` columns."""
    out = np.full((box.shape[0], width), _PAD[0], np.uint8)
    out[:, :box.shape[1]] = box
    return out


def _cells(spec: str, values: np.ndarray) -> np.ndarray:
    """The padded box of ``spec % v`` for each of ``values``."""
    kind = values.dtype.kind
    fixed = _FIXED.fullmatch(spec)
    if fixed and kind == "f" and values.dtype.itemsize <= 8:
        return _floats(spec, int(fixed[1]), values.astype(np.float64, copy=False))
    if spec == "%d" and kind in "biu":
        u = values.astype(np.uint64)
        negative = values < 0
        return _digits(np.where(negative, np.negative(u), u), negative, 0).T
    return _per_value(spec, values)


def _column(spec: str, *data):
    """The row count of a column and a function of a row range ``(a, b)``
    giving its padded box."""
    if len(data) == 1:
        values = np.asarray(data[0])
        return len(values), lambda a, b: _cells(spec, values[a:b])
    # a digit box is a transpose, which np.take would copy for every block
    box = np.ascontiguousarray(_cells(spec, np.asarray(data[0])))
    index = np.asarray(data[1])
    return len(index), lambda a, b: np.take(box, index[a:b], axis=0)


def write_csv(path, *columns) -> None:
    """Write ``(name, %-spec, values)`` and ``(name, %-spec, table, index)``
    columns to ``path``, ``\\n``-terminated on every platform; raise
    ``ValueError``, writing nothing, on unequal lengths."""
    names = [c[0] for c in columns]
    n_rows, cells = zip(*(_column(*c[1:]) for c in columns))
    if len(set(n_rows)) != 1:
        raise ValueError(f"CSV columns differ in length: {sorted(set(n_rows))}")
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode("utf-8"))
        for a in range(0, n_rows[0], _BLOCK):
            b = min(a + _BLOCK, n_rows[0])
            # the boxes are freed once joined, the block once translated
            fh.write(_block([cell(a, b) for cell in cells]).translate(None, _PAD))


def _block(boxes) -> bytearray:
    """One block's lines, still padded: its columns' boxes side by side,
    comma-separated and newline-terminated, in one buffer."""
    rows = len(boxes[0])
    comma = np.full((rows, 1), _COMMA, np.uint8)
    parts = [part for box in boxes for part in (box, comma)]
    parts[-1] = np.full((rows, 1), _NEWLINE, np.uint8)
    block = bytearray(rows * sum(part.shape[1] for part in parts))
    np.concatenate(parts, axis=1, out=np.frombuffer(block, np.uint8).reshape(rows, -1))
    return block
