"""Weighted-L2 error percentages and deterministic CSV output."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, ZeroReferenceError
from .pod import InnerProduct, SnapshotMatrix
from .rom import FactoredField

# bytes of one row block of the error sums, which stays in cache, so no
# temporary is snapshot-sized
BLOCK_BYTES = 2 * 2**20


@dataclass
class ErrorReport:
    per_time: list = field(default_factory=list)  # (t, percent) pairs
    mean: float = 0.0
    param: float = np.nan
    method: str = ""
    # squared weighted norm of ref per instant, for later reports on the same ref
    ref_sq: np.ndarray | None = field(default=None, compare=False, repr=False)


def error_at_time(ref, approx, ip: InnerProduct) -> float:
    """100 * ||ref - approx||_W / ||ref||_W for a single field."""
    ref = np.asarray(ref, dtype=float)
    approx = np.asarray(approx, dtype=float)
    if ref.shape != approx.shape:
        raise ShapeMismatchError(f"shapes differ: {ref.shape} vs {approx.shape}")
    nref = ip.norm(ref)
    if nref == 0.0:
        raise ZeroReferenceError("reference field has zero norm")
    return 100.0 * ip.norm(ref - approx) / nref


def _column_sums(ref: SnapshotMatrix, approx, ip: InnerProduct, den=None):
    """Squared weighted norms of ref - approx and of ref, one per instant.

    ``approx`` is a SnapshotMatrix or a FactoredField, whose rows are lifted
    one block at a time into the buffer that then holds the block of ref -
    approx, so no field is formed.  Given ``den``, the ref sums of an
    earlier call on the same ref, only ref - approx is summed.

    The rows are summed in blocks of about BLOCK_BYTES, each block's first
    row carrying the sums so far, so for C-ordered inputs the rows add in
    the order ``np.sum(ip.apply(d) * d, axis=0)`` adds them and the sums
    are bitwise the same.  numpy sums a single column pairwise instead, so
    one column is one block.
    """
    factored = isinstance(approx, FactoredField)
    shape = approx.shape if factored else approx.values.shape
    if ref.values.shape != shape:
        raise ShapeMismatchError(f"shapes differ: {ref.values.shape} vs {shape}")
    if ref.times.shape != approx.times.shape or not np.allclose(
        ref.times, approx.times, rtol=0.0, atol=1e-12
    ):
        raise ShapeMismatchError("sampling instants differ")
    nx, ns = shape
    rows = max(1, nx if ns <= 1 else BLOCK_BYTES // (8 * ns))
    num = np.zeros(ns)
    pairs = 2 if den is None else 1
    den = np.zeros(ns) if den is None else den
    block = np.empty((min(rows, nx), ns))  # reused for every block of ref - approx
    for i in range(0, nx, rows):
        r = ref.values[i:i + rows]
        d = block[:r.shape[0]]
        if factored:
            approx.rows(i, i + rows, out=d)
            np.subtract(r, d, out=d)
        else:
            np.subtract(r, approx.values[i:i + rows], out=d)
        for acc, x in ((num, d), (den, r))[:pairs]:
            t = ip.apply(x)
            t *= x
            t[0] += acc
            np.sum(t, axis=0, out=acc)
            del t  # so no more than two blocks are live at once
    return num, den


def mean_error(ref: SnapshotMatrix, approx, ip: InnerProduct) -> float:
    """Time-mean relative error percentage over a shared uniform sampling.

    Both time integrals use the rectangle rule, so the common time step
    cancels from the ratio.  ``approx`` is a SnapshotMatrix or a
    FactoredField.
    """
    num, den = _column_sums(ref, approx, ip)
    if den.sum() == 0.0:
        raise ZeroReferenceError("reference trajectory has zero norm")
    return 100.0 * float(np.sqrt(num.sum() / den.sum()))


def error_report(ref: SnapshotMatrix, approx, ip: InnerProduct, method: str = "",
                 ref_sq=None) -> ErrorReport:
    """Per-instant errors (as ``error_at_time``) and their time mean (as
    ``mean_error``), from one pass of weighted column sums.  ``approx`` is
    a SnapshotMatrix or a FactoredField, which is scored a block of rows at
    a time.  ``ref_sq`` is an earlier report's ``ref_sq`` on the same ref:
    given it, ref is not squared and summed again."""
    if ref_sq is not None:
        ref_sq = np.asarray(ref_sq, dtype=float)
        if ref_sq.shape != ref.times.shape:
            raise ShapeMismatchError("one squared reference norm per instant required")
    num, den = _column_sums(ref, approx, ip, ref_sq)
    if not den.all():
        raise ZeroReferenceError("reference field has zero norm at some instant")
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

