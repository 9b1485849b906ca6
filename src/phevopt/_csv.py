"""The column writer behind the package's CSV data files.

A column whose values repeat (an interval index over every state, a grid
over every interval, a flag) is passed once-formatted: ``formatted`` turns
it into an array of strings, one string per distinct value, written with
the spec ``"%s"``.
"""

import numpy as np

_BLOCK = 4096  # rows formatted per write: bounds the strings held at once


def formatted(spec: str, values) -> np.ndarray:
    """``spec % v`` for each of ``values`` (a 1-d array), as an object array
    that formats each distinct bit pattern once and shares its string.

    Values are told apart by their bits, not by ``==``: ``-0.0`` keeps its
    own ``"-0.000000"``, and every NaN is formatted as itself.
    """
    keys, inverse = np.unique(values.view(f"u{values.itemsize}"),
                              return_inverse=True)
    text = np.array([spec % v for v in keys.view(values.dtype).tolist()],
                    dtype=object)
    return text[inverse]


def write_csv(path, *columns) -> None:
    """Write ``(name, %-spec, values)`` columns to ``path``, ``\\n``-terminated
    on every platform; raise ``ValueError``, writing nothing, on unequal lengths."""
    names, specs, values = zip(*columns)
    n_rows = {len(v) for v in values}
    if len(n_rows) != 1:
        raise ValueError(f"CSV columns differ in length: {sorted(n_rows)}")
    line = ",".join(specs) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(names) + "\n")
        for a in range(0, n_rows.pop(), _BLOCK):
            block = [np.asarray(v[a:a + _BLOCK]).tolist() for v in values]
            fh.write("".join(line % row for row in zip(*block)))
