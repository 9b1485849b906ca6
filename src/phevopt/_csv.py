"""The column writer behind the package's CSV data files."""

import numpy as np

_BLOCK = 4096  # rows formatted per write: bounds the strings held at once


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
