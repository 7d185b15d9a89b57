"""The benchmark under perfbench/ binds pipeline functions by name.

Its tracer calls ``getattr(baryrom.pipeline, name)`` for every name in
``tracing.TRACED`` when it is built, its workloads call ``pipeline.<name>``
and probe the names in ``workloads.PROBED``, and its run header asks
``baryrom.solver`` for ``resolve_backend``.  A name dropped from the
package breaks the benchmark, so these checks keep them bound.  Its span
counts also read some arguments by position (``tracing.COUNTS``), so the
positions it reads are checked against the traced functions' signatures.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

from baryrom import pipeline, solver

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workload_tree():
    return ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_names_are_bound_in_pipeline():
    tracing = _tracing()
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


def test_counted_argument_positions_match_signatures():
    # every _arg(args, kwargs, index, name) in COUNTS must name the parameter
    # at that position of the traced function
    tracing = _tracing()
    tree = ast.parse((PERFBENCH / "tracing.py").read_text(encoding="utf-8"))
    counts = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                  and getattr(node.targets[0], "id", None) == "COUNTS")
    attr_of = {span: attr for attr, span in tracing.TRACED.items()}
    read = set()
    for key, value in zip(counts.keys, counts.values):
        for node in ast.walk(value):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_arg":
                read.add((key.value, node.args[2].value, node.args[3].value))
    assert {("rom.integrate_rom", 3, "steps"), ("solver.run", 0, "cfg"),
            ("solver.run", 1, "grid")} <= read
    for span, index, name in sorted(read):
        params = list(inspect.signature(getattr(pipeline, attr_of[span])).parameters)
        assert params[index] == name, f"{span} argument {index} is {params[index]}, not {name}"


def test_solver_backend_probe_exists():
    assert callable(solver.resolve_backend)



def test_compare_makes_the_calls_study_build_reads(study, monkeypatch):
    # study-build takes predict_p50_ref and predict_p90_ref from the predict
    # calls compare makes with method= as a keyword, and its traced
    # metrics.error_ms counts three error reports per target
    calls = []
    predict, error_report = pipeline.predict, pipeline.error_report

    def spy_predict(study, nu, **kwargs):  # a positional method is a TypeError
        calls.append(("predict", nu, kwargs.get("method")))
        return predict(study, nu, **kwargs)

    def spy_report(ref, *args, **kwargs):
        calls.append(("error_report", ref.param, None))
        return error_report(ref, *args, **kwargs)

    monkeypatch.setattr(pipeline, "predict", spy_predict)
    monkeypatch.setattr(pipeline, "error_report", spy_report)
    nus = [0.06, 0.1]
    pipeline.compare(study, targets=nus)
    for nu in nus:
        methods = sorted(m for name, t, m in calls if name == "predict" and t == nu)
        assert methods == ["barycentric", "itsgm"]
        assert sum(name == "error_report" and t == nu for name, t, _ in calls) == 3
    assert len(calls) == 5 * len(nus)
