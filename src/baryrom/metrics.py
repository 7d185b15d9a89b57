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
    param: float = np.nan
    method: str = ""
    # squared weighted norm of ref per instant, for later reports on the same ref
    ref_sq: np.ndarray | None = field(default=None, compare=False, repr=False)


def _add_squares(acc, x, ip: float, sq):
    """acc += the weighted column sums of x * x, squared into ``sq``, a
    scratch block of x's shape, with x's first row carrying acc."""
    np.multiply(x, ip, out=sq)
    sq *= x
    sq[0] += acc
    np.sum(sq, axis=0, out=acc)


def _column_sums(ref: SnapshotMatrix, approx, ip: float, den=None):
    """Squared weighted norms of ref - approx and of ref, one per instant.

    ``approx`` is a SnapshotMatrix or a FactoredField, whose rows are lifted
    one block at a time into the buffer that then holds the block of ref -
    approx, so no field is formed; None sums ref alone.  Given ``den``, the
    ref sums of an earlier call on the same ref, only ref - approx is summed.

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
    num = np.zeros(ns)
    sum_ref = den is None
    den = np.zeros(ns) if sum_ref else den
    for i, j in bounds:
        r = ref.values[i:j]
        if approx is not None:
            d = diff[:j - i]
            if factored:
                approx.rows(i, j, out=d)
                np.subtract(r, d, out=d)
            else:
                np.subtract(r, approx.values[i:j], out=d)
            _add_squares(num, d, ip, sq[:j - i])
        if sum_ref:
            _add_squares(den, r, ip, sq[:j - i])
    return num, den


def _check_reference(den) -> None:
    if not den.all():
        raise ZeroReferenceError("reference field has zero norm at some instant")


def reference_sq(ref: SnapshotMatrix, ip: float) -> np.ndarray:
    """Squared weighted norm of ref per instant, bitwise the ``ref_sq`` of
    an ``error_report`` on ref, by the same blocked sums.  Raises
    ZeroReferenceError if one is zero, as that report would, so a caller
    can reject ref before it builds a model to score against it."""
    den = _column_sums(ref, None, ip)[1]
    _check_reference(den)
    return den


def mean_error(ref: SnapshotMatrix, approx, ip: float) -> float:
    """Time-mean relative error percentage over a shared uniform sampling.

    Both time integrals use the rectangle rule, so the common time step
    cancels from the ratio.  ``approx`` is a SnapshotMatrix or a
    FactoredField.
    """
    num, den = _column_sums(ref, approx, ip)
    if den.sum() == 0.0:
        raise ZeroReferenceError("reference trajectory has zero norm")
    return 100.0 * float(np.sqrt(num.sum() / den.sum()))


def error_report(ref: SnapshotMatrix, approx, ip: float, method: str = "",
                 ref_sq=None) -> ErrorReport:
    """Per-instant errors 100 * ||ref - approx|| / ||ref||, norms weighted
    by the cell size ``ip``, and their time mean (as ``mean_error``), from
    one pass of weighted column sums.
    ``approx`` is a SnapshotMatrix or a FactoredField, which is scored a
    block of rows at a time.  ``ref_sq`` is ``reference_sq`` of ref, or an
    earlier report's ``ref_sq`` on it: given it, ref is not squared and
    summed again."""
    if ref_sq is not None:
        ref_sq = np.asarray(ref_sq, dtype=float)
        if ref_sq.shape != ref.times.shape:
            raise ShapeMismatchError("one squared reference norm per instant required")
    num, den = _column_sums(ref, approx, ip, ref_sq)
    _check_reference(den)
    per_time = 100.0 * np.sqrt(num) / np.sqrt(den)
    return ErrorReport(
        per_time=list(zip(ref.times.tolist(), per_time.tolist())),
        mean=100.0 * float(np.sqrt(num.sum() / den.sum())),
        param=ref.param,
        method=method,
        ref_sq=den,
    )


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

