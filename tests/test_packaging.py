"""The dependency floors in pyproject.toml admit no version the code
cannot run on."""

import re
import tomllib
from pathlib import Path

PROJECT = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml")
                       .read_text(encoding="utf-8"))["project"]


def _floor(spec: str, name: str) -> tuple:
    match = re.fullmatch(rf"{name}\s*>=\s*(\d+)\.(\d+)(?:\.\d+)?", spec)
    assert match, f"{spec!r} is not a '{name}>=X.Y' floor"
    return tuple(map(int, match.groups()))


def test_the_dependency_floors_match_what_the_code_uses():
    # the solver calls np.fft.rfft and irfft with out=, and the output
    # digest test imports numpy._core: both arrived in numpy 2.0
    (numpy,) = [d for d in PROJECT["dependencies"] if re.match(r"numpy\b", d)]
    assert _floor(numpy, "numpy") >= (2, 0)
    # the tests read this file with tomllib, new in Python 3.11
    assert _floor(PROJECT["requires-python"], "") >= (3, 11)
