"""The benchmark under perfbench/ binds pipeline functions by name.

Its tracer calls ``getattr(baryrom.pipeline, name)`` for every name in
``tracing.TRACED`` when it is built, its workloads call ``pipeline.<name>``
and probe the names in ``workloads.PROBED``, and its run header asks
``baryrom.solver`` for ``resolve_backend``.  A name dropped from the
package breaks the benchmark, so these checks keep them bound.
"""

import ast
import importlib.util
from pathlib import Path

from baryrom import pipeline, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workload_tree():
    return ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))


def test_traced_names_are_bound_in_pipeline():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [name for name in tracing.TRACED if not hasattr(pipeline, name)]
    assert not missing, f"perfbench traces unbound pipeline names: {missing}"


def test_workload_names_are_bound_in_pipeline():
    tree = _workload_tree()
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "pipeline"}
    probed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "PROBED")
    used |= {name for names in probed.values() for name in names}
    assert {"predict", "update_reduced_model", "karcher_barycenter"} <= used
    missing = sorted(name for name in used if not hasattr(pipeline, name))
    assert not missing, f"perfbench calls unbound pipeline names: {missing}"


def test_solver_backend_probe_exists():
    assert callable(solver.resolve_backend)
