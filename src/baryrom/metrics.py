"""Weighted-L2 error percentages and deterministic CSV output."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, ZeroReferenceError
from .pod import SnapshotMatrix
from .rom import FactoredField, row_blocks


@dataclass
class ErrorReport:
    per_time: list = field(default_factory=list)  # (t, percent) pairs
    mean: float = 0.0


def _square_sums(ref: SnapshotMatrix, ip: float, approx=None) -> np.ndarray:
    """Weighted column sums of (ref - approx)**2, one per instant, or of
    ref**2 when ``approx`` is None.  ``approx`` is a SnapshotMatrix or a
    FactoredField, whose rows are lifted one block at a time into the
    buffer that then holds the block of ref - approx, so no field is formed.

    The rows are summed in the ``row_blocks`` of the field, each block's
    first row carrying the sums so far, so for C-ordered inputs the rows
    add in the order ``np.sum(ip * d * d, axis=0)`` adds them and the
    sums are bitwise the same at any block size.  numpy sums a single
    column pairwise instead, which is why a single column is one block.
    The difference and the squares of a block go to two buffers allocated
    once, so with the truth block three blocks are live.
    """
    nx, ns = ref.values.shape
    if approx is not None:
        factored = isinstance(approx, FactoredField)
        shape = approx.shape if factored else approx.values.shape
        if ref.values.shape != shape:
            raise ShapeMismatchError(f"shapes differ: {ref.values.shape} vs {shape}")
        if ref.times.shape != approx.times.shape or not np.allclose(
            ref.times, approx.times, rtol=0.0, atol=1e-12
        ):
            raise ShapeMismatchError("sampling instants differ")
    bounds = row_blocks(nx, ns)
    diff, sq = np.empty((2, max((j - i for i, j in bounds), default=0), ns))
    acc = np.zeros(ns)
    for i, j in bounds:
        x = ref.values[i:j]
        if approx is not None:
            d = diff[:j - i]
            if factored:
                approx.rows(i, j, out=d)
                np.subtract(x, d, out=d)
            else:
                np.subtract(x, approx.values[i:j], out=d)
            x = d
        s = sq[:j - i]
        np.multiply(x, ip, out=s)
        s *= x
        s[0] += acc
        np.sum(s, axis=0, out=acc)
    return acc


def reference_sq(ref: SnapshotMatrix, ip: float) -> np.ndarray:
    """Squared weighted norm of ref per instant, the sums every ``error_report``
    on ref divides by.  Raises ZeroReferenceError if one is zero, so a caller
    can reject ref before it builds a model to score against it."""
    den = _square_sums(ref, ip)
    if not den.all():
        raise ZeroReferenceError("reference field has zero norm at some instant")
    return den


def mean_error(ref: SnapshotMatrix, approx, ip: float) -> float:
    """Time-mean relative error percentage of ``error_report``."""
    return error_report(ref, approx, ip, reference_sq(ref, ip)).mean


def error_report(ref: SnapshotMatrix, approx, ip: float, ref_sq) -> ErrorReport:
    """Per-instant errors 100 * ||ref - approx|| / ||ref||, norms weighted by
    the cell size ``ip``, and their time mean (both time integrals by the
    rectangle rule, so the time step cancels).  ``approx`` is a SnapshotMatrix
    or a FactoredField.  ``ref_sq`` holds the sums ``reference_sq`` returned
    for ref; a zero-norm instant among them raises ZeroReferenceError."""
    if ref_sq.shape != ref.times.shape:
        raise ShapeMismatchError("one squared reference norm per instant required")
    if not ref_sq.all():
        raise ZeroReferenceError("reference field has zero norm at some instant")
    num = _square_sums(ref, ip, approx)
    per_time = 100.0 * np.sqrt(num) / np.sqrt(ref_sq)
    return ErrorReport(per_time=list(zip(ref.times.tolist(), per_time.tolist())),
                       mean=100.0 * float(np.sqrt(num.sum() / ref_sq.sum())))


def format_float(x: float) -> str:
    return f"{x:.17g}"


def write_csv(path, header, rows):
    """Plain CSV with 17-significant-digit floats (deterministic bytes)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            format_float(v) if isinstance(v, float) else str(v) for v in row
        ))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

