"""Byte identity of every file the default study writes, as a tier-1 check.

generate -> offline -> compare --targets 0.06,0.07,0.08,0.1,0.11 -> four
predicts run on configs/burgers.json, all seven in one child interpreter,
and the sha256 of each file they write is compared with
output_digests.json.  The predicts are every pairing of method and
initial state: barycentric and ITSGM, each from the weighted and from the
truth initial state, so each way ``predict`` builds a model and its
reduced march is pinned.  The compare targets take in the trained nodes
0.07 and 0.11, so the truth-POD floor a trained target takes from the
offline archive is pinned too.  A report.json is hashed as ``write_manifest``
writes it, with its ``timings`` removed: they are the only values that
differ between runs.

The digests depend on the numpy build, its BLAS and the CPU, whose SIMD
features pick the kernels and with them the order of floating-point sums.
output_digests.json records all three.  On a build that differs in any of
them the test skips and names the difference: a digest mismatch there
says nothing about the code.  They also depend on the number of BLAS
threads: OpenBLAS splits a product among its threads, and the tensor
archive and the compare errors differ in their last bits between one
thread and two.  So the child runs with its BLAS on one thread, whatever
the environment of the test sets.  A change that moves output bytes on
purpose rewrites the file on the recorded build with

    PYTHONPATH=src python tests/test_output_digests.py

which first prints each file whose digest changed, appeared or
disappeared, and says in CHANGES.md which files changed and why.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from baryrom.cli import main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "output_digests.json"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COMMANDS = [
    ["generate", "--config", str(ROOT / "configs" / "burgers.json")],
    ["offline"],
    ["compare", "--targets", "0.06,0.07,0.08,0.1,0.11"],
    ["predict", "--nu", "0.075"],
    ["predict", "--nu", "0.08", "--ic", "truth"],
    ["predict", "--nu", "0.075", "--method", "itsgm"],
    ["predict", "--nu", "0.08", "--ic", "truth", "--method", "itsgm"],
]


def build() -> dict:
    """The numpy version, its BLAS, and the CPU with the SIMD features
    numpy dispatches on."""
    from numpy._core._multiarray_umath import (
        __cpu_baseline__,
        __cpu_dispatch__,
        __cpu_features__,
    )
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    simd = [*__cpu_baseline__, *(f for f in __cpu_dispatch__ if __cpu_features__.get(f))]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "cpu": cpu, "simd": " ".join(simd)}


def _digest(path: Path) -> str:
    if path.name != "report.json":
        return hashlib.sha256(path.read_bytes()).hexdigest()
    report = json.loads(path.read_text(encoding="utf-8"))
    del report["timings"]
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"  # write_manifest's layout
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_digests(out: Path) -> dict:
    """Run the pipeline into ``out``; {path relative to out: sha256}."""
    for argv in COMMANDS:
        assert main([*argv, "--out", str(out)]) == 0, argv
    return {p.relative_to(out).as_posix(): _digest(p)
            for p in sorted(out.rglob("*")) if p.is_file()}


def pinned_digests(out: Path) -> dict:
    """``output_digests(out)`` in a child interpreter whose BLAS runs on
    one thread."""
    path = os.pathsep.join([str(ROOT / "src"), str(HERE), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, **dict.fromkeys(BLAS_THREAD_VARIABLES, "1"), "PYTHONPATH": path}
    code = ("import json, pathlib, test_output_digests as t; "
            f"print(json.dumps(t.output_digests(pathlib.Path({str(out)!r}))))")
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True)
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_every_output_byte_matches_the_recorded_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    here = build()
    if here != recorded["build"]:
        differ = {k: (recorded["build"].get(k), v) for k, v in here.items()
                  if recorded["build"].get(k) != v}
        pytest.skip(f"digests were recorded on another build, (recorded, here): {differ}")
    digests = pinned_digests(tmp_path)
    assert len(digests) == 28
    assert sorted(digests) == sorted(recorded["files"])
    changed = [name for name, d in digests.items() if d != recorded["files"][name]]
    assert not changed, f"output bytes changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        files = pinned_digests(Path(tmp))
    old = json.loads(DIGESTS.read_text(encoding="utf-8"))["files"] if DIGESTS.exists() else {}
    for name in sorted(old.keys() | files.keys()):
        what = ("appeared" if name not in old else "disappeared" if name not in files
                else "changed" if old[name] != files[name] else None)
        if what:
            print(f"{what}: {name}", file=sys.stderr)
    DIGESTS.write_text(json.dumps({"build": build(), "files": files}, indent=2) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(files)} digests to {DIGESTS}", file=sys.stderr)
