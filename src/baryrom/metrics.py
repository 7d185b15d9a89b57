"""Weighted-L2 error percentages and deterministic CSV output."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, ZeroReferenceError
from .pod import InnerProduct, SnapshotMatrix

# bytes of one row block of the error sums, which stays in cache, so no
# temporary is snapshot-sized
BLOCK_BYTES = 2 * 2**20


@dataclass
class ErrorReport:
    per_time: list = field(default_factory=list)  # (t, percent) pairs
    mean: float = 0.0
    param: float = np.nan
    method: str = ""


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


def _column_sums(ref: SnapshotMatrix, approx: SnapshotMatrix, ip: InnerProduct):
    """Squared weighted norms of ref - approx and of ref, one per instant.

    The rows are summed in blocks of about BLOCK_BYTES, each block's first
    row carrying the sums so far, so for C-ordered inputs the rows add in
    the order ``np.sum(ip.apply(d) * d, axis=0)`` adds them and the sums
    are bitwise the same.  numpy sums a single column pairwise instead, so
    one column is one block.
    """
    if ref.values.shape != approx.values.shape:
        raise ShapeMismatchError(
            f"shapes differ: {ref.values.shape} vs {approx.values.shape}"
        )
    if ref.times.shape != approx.times.shape or not np.allclose(
        ref.times, approx.times, rtol=0.0, atol=1e-12
    ):
        raise ShapeMismatchError("sampling instants differ")
    nx, ns = ref.values.shape
    rows = max(1, nx if ns <= 1 else BLOCK_BYTES // (8 * ns))
    num, den = np.zeros(ns), np.zeros(ns)
    for i in range(0, nx, rows):
        r = ref.values[i:i + rows]
        d = r - approx.values[i:i + rows]
        for acc, x in ((num, d), (den, r)):
            t = ip.apply(x)
            t *= x
            t[0] += acc
            np.sum(t, axis=0, out=acc)
            del t  # so no more than two blocks are live at once
    return num, den


def mean_error(ref: SnapshotMatrix, approx: SnapshotMatrix, ip: InnerProduct) -> float:
    """Time-mean relative error percentage over a shared uniform sampling.

    Both time integrals use the rectangle rule, so the common time step
    cancels from the ratio.
    """
    num, den = _column_sums(ref, approx, ip)
    if den.sum() == 0.0:
        raise ZeroReferenceError("reference trajectory has zero norm")
    return 100.0 * float(np.sqrt(num.sum() / den.sum()))


def error_report(ref: SnapshotMatrix, approx: SnapshotMatrix, ip: InnerProduct,
                 method: str = "") -> ErrorReport:
    """Per-instant errors (as ``error_at_time``) and their time mean (as
    ``mean_error``), from one pass of weighted column sums."""
    num, den = _column_sums(ref, approx, ip)
    if not den.all():
        raise ZeroReferenceError("reference field has zero norm at some instant")
    per_time = 100.0 * np.sqrt(num) / np.sqrt(den)
    return ErrorReport(
        per_time=list(zip(ref.times.tolist(), per_time.tolist())),
        mean=100.0 * float(np.sqrt(num.sum() / den.sum())),
        param=ref.param,
        method=method,
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

