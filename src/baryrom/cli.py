"""Command-line pipeline: generate / offline / predict / compare / bench.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 missing or corrupted data.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, pipeline
from .errors import ConfigError, DataIntegrityError, NumericalError
from .io import entry_path, write_manifest, write_matrix
from .metrics import write_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_DATA = 4


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0.0 <= value < np.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def _comma_list(kind):
    """argparse type: comma-separated ``kind`` values, at least one."""
    def parse(text: str) -> list:
        values = [kind(v) for v in text.split(",") if v]
        if not values:
            raise argparse.ArgumentTypeError(f"needs at least one value, got {text!r}")
        return values
    parse.__name__ = f"{kind.__name__} list"  # argparse names it in "invalid ... value"
    return parse


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with a single stderr line."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# flags shared by several commands; each command takes only those it honours
_FLAGS = {
    "--config": dict(required=True, help="study configuration JSON"),
    "--out": dict(default="out", help="working directory"),
    "--jobs": dict(type=_positive_int, default=1,
                   help="worker threads: one generate chunk or one offline POD each"),
    "--q": dict(type=int, default=None, help="POD truncation order (default: config q)"),
    "--weights": dict(choices=["lagrange", "idw"], default=None,
                      help="weight scheme (default: config weights.kind)"),
    "--neighbors": dict(type=_positive_int, default=None,
                        help="nearest trained viscosities weighted (default: config)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="baryrom",
        description="Parametric reduced-order models from barycentric "
                    "interpolation of POD subspaces",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *flags):
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    command("generate", "run the high-fidelity solver per viscosity",
            "--config", "--out", "--jobs")

    command("offline", "build POD bases and the tensor archive", "--out", "--jobs", "--q")

    p = command("predict", "online prediction at one viscosity",
                "--out", "--weights", "--neighbors")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--method", choices=list(pipeline.METHODS), default="barycentric")
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="barycenter stopping tolerance (default: config tol)")
    p.add_argument("--ic", choices=list(pipeline.IC_MODES), default="weighted")
    p.add_argument("--allow-nonconverged", action="store_true")

    p = command("compare", "errors of both interpolated models vs the truth-POD floor",
                "--out", "--weights", "--neighbors")
    p.add_argument("--targets", type=_comma_list(float), default=None,
                   help="comma-separated viscosities (default: config test_nu)")

    p = command("bench", "median update vs direct-projection time across mesh sizes",
                "--config", "--out", "--jobs", "--q")
    p.add_argument("--sizes", type=_comma_list(int), default="2000,20000",
                   help="comma-separated mesh sizes")
    p.add_argument("--reps", type=_positive_int, default=20)
    p.add_argument("--nu", type=float, default=None,
                   help="update target (default: midpoint of the trained range)")
    return parser


def _cmd_generate(args) -> int:
    cfg = pipeline.load_config(args.config)
    pipeline.run_generate(cfg, args.out, jobs=args.jobs)
    print(f"wrote snapshots and manifest under {args.out}")
    return EXIT_OK


def _cmd_offline(args) -> int:
    pipeline.run_offline(args.out, jobs=args.jobs, q=args.q)
    print(f"wrote POD bases, initial states and tensor archive under {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    study = pipeline.load_study(args.out)
    traj, recon, report = pipeline.predict(
        study, args.nu, method=args.method, ic_mode=args.ic,
        allow_nonconverged=args.allow_nonconverged,
        kind=args.weights, neighbors=args.neighbors, tol=args.tol,
    )
    # truth-IC runs get their own directory, so they never overwrite a weighted one
    suffix = "_truth" if args.ic == "truth" else ""
    outdir = Path(args.out) / f"predict_nu{pipeline._nu_tag(args.nu)}_{args.method}{suffix}"
    outdir.mkdir(parents=True, exist_ok=True)
    q = traj.alphas.shape[1]
    write_csv(
        outdir / "trajectory.csv",
        ["t"] + [f"alpha{i + 1}" for i in range(q)],
        [[float(traj.times[j])] + [float(v) for v in traj.alphas[j]]
         for j in range(traj.times.size)],
    )
    write_matrix(outdir / "field.mat", recon.values)
    write_manifest(outdir / "report.json", report)
    print(f"wrote trajectory, field and report under {outdir}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    study = pipeline.load_study(args.out)
    rows, reports = pipeline.compare(study, args.targets, kind=args.weights,
                                     neighbors=args.neighbors)
    pipeline.write_compare_outputs(args.out, rows, reports)
    print("nu barycentric itsgm truth_pod")
    for row in rows:
        print(f"{row[0]:g} {row[1]:.6f}% {row[2]:.6f}% {row[3]:.6f}%")
    print(f"wrote compare.csv under {args.out}")
    return EXIT_OK


def _remove_listed_files(outdir: Path, manifest: dict) -> None:
    """Delete the data files a manifest lists: its runs, mean and offline outputs."""
    off = manifest.get("offline", {})
    entries = [*manifest.get("runs", []), manifest.get("mean", {}), *off.get("pod", []),
               *off.get("ics", []), off.get("archive", {})]
    for entry in entries:
        try:
            path = entry_path(outdir, entry)
        except DataIntegrityError:  # plain file names inside outdir only
            continue
        if path.is_file():
            path.unlink()


def _cmd_bench(args) -> int:
    cfg = pipeline.load_config(args.config)
    nu = args.nu
    if nu is None:
        lo, hi = min(cfg.trained_nu), max(cfg.trained_nu)
        nu = 0.5 * (lo + hi)
    pipeline.check_viscosity(nu)  # before any size is generated
    studies = []
    for nx in args.sizes:
        size_dir = Path(args.out) / f"bench_nx{nx}"
        size_cfg = pipeline.config_from_dict({
            **cfg.to_dict(), "q": cfg.q if args.q is None else args.q,
            "grid": {"n": nx, "length": cfg.grid_length}})
        # a stored study is reused only if it was built from this very config,
        # by a generate that wrote the mean
        path = size_dir / "manifest.json"
        stored = pipeline.read_manifest(path) if path.exists() else {}
        if stored.get("config") != size_cfg.to_dict() or "mean" not in stored:
            _remove_listed_files(size_dir, stored)
            stored = pipeline.run_generate(size_cfg, size_dir, jobs=args.jobs)
        if "offline" not in stored:
            pipeline.run_offline(size_dir, jobs=args.jobs)
        studies.append(pipeline.load_study(size_dir))
    t_update, t_direct = pipeline.bench_update(studies, nu, reps=args.reps)
    rows = []
    for j, nx in enumerate(args.sizes):
        rows.append(["barycentric_update", nx, float(np.median(t_update[:, j]))])
        rows.append(["direct_projection", nx, float(np.median(t_direct[:, j]))])
    write_csv(Path(args.out) / "bench.csv", ["method", "nx", "median_s"], rows)
    for r in rows:
        print(f"{r[0]} nx={r[1]} median={r[2]:.6e}s")
    print(f"wrote bench.csv under {args.out}")
    return EXIT_OK


_DISPATCH = {
    "generate": _cmd_generate,
    "offline": _cmd_offline,
    "predict": _cmd_predict,
    "compare": _cmd_compare,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except DataIntegrityError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry():  # console-script hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
