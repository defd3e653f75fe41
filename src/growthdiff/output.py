"""Artifact writers: the one place that knows the CSV and JSON formats.

CSV fields are doubles at 17 significant digits, which read back exactly, in
CRLF rows as ``csv.writer`` writes them.  JSON has a two-space indent and a
trailing newline, with numpy arrays and scalars as plain lists and numbers.
"""

from __future__ import annotations

import csv
import json

import numpy as np

__all__ = ["write_csv", "write_json"]


def write_csv(path, header, blocks) -> None:
    """Write the header row, then the rows of each 2-D block of doubles.

    One block is formatted at a time, so no whole table is held as strings.
    A ``%.17g`` field holds no delimiter or quote, so none needs csv quoting.
    """
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for block in blocks:
            block = np.asarray(block, dtype=float)
            row = ",".join(["%.17g"] * block.shape[1]) + "\r\n"
            fh.write("".join([row % tuple(values) for values in block.tolist()]))


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path, document) -> None:
    """Write a JSON document with two-space indent and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(document, fh, indent=2, default=_plain)
        fh.write("\n")
