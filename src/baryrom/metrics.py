"""Weighted-L2 error percentages and deterministic CSV output."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, ZeroReferenceError
from .pod import InnerProduct, SnapshotMatrix


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


def mean_error(ref: SnapshotMatrix, approx: SnapshotMatrix, ip: InnerProduct) -> float:
    """Time-mean relative error percentage over a shared uniform sampling.

    Both time integrals use the rectangle rule, so the common time step
    cancels from the ratio.
    """
    if ref.values.shape != approx.values.shape:
        raise ShapeMismatchError(
            f"shapes differ: {ref.values.shape} vs {approx.values.shape}"
        )
    if ref.times.shape != approx.times.shape or not np.allclose(
        ref.times, approx.times, rtol=0.0, atol=1e-12
    ):
        raise ShapeMismatchError("sampling instants differ")
    diff = ref.values - approx.values
    num = float(np.sum(ip.apply(diff) * diff))
    den = float(np.sum(ip.apply(ref.values) * ref.values))
    if den == 0.0:
        raise ZeroReferenceError("reference trajectory has zero norm")
    return 100.0 * float(np.sqrt(num / den))


def error_report(ref: SnapshotMatrix, approx: SnapshotMatrix, ip: InnerProduct,
                 method: str = "") -> ErrorReport:
    per_time = [
        (float(t), error_at_time(ref.values[:, j], approx.values[:, j], ip))
        for j, t in enumerate(ref.times)
    ]
    return ErrorReport(
        per_time=per_time,
        mean=mean_error(ref, approx, ip),
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

