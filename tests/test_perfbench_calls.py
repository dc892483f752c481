"""The benchmark's calls into cutsem: a rename in src/ must fail here first.

perfbench/ wraps cutsem functions by name and runs each workload through
them. These tests read perfbench/ and write nothing there: the tracer's
layer table is parsed, not imported, and the workload runs are child
processes that write no bytecode and put their outputs in a temporary
directory.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cutsem

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def tracer_layers():
    """(layer, module, attribute path) of each entry of perfbench/tracer.py's LAYERS."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )
    return [tuple(ast.literal_eval(item) for item in entry.elts[:3]) for entry in table.elts]


def test_every_tracer_layer_resolves_on_cutsem():
    layers = tracer_layers()
    assert layers
    for name, modname, path in layers:
        owner = importlib.import_module(modname)
        for attr in path.split("."):
            assert hasattr(owner, attr), (name, modname, path)
            owner = getattr(owner, attr)
        assert callable(owner), (name, modname, path)


def run_child(tmp_path, workload, trace):
    """perfbench/child.py's JSON result of one seed-1 repetition, its outputs in tmp_path."""
    # the child imports the cutsem under test, whether installed or on a path
    src = os.path.dirname(os.path.dirname(cutsem.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), workload, "1", str(trace), str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"),
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_once_with_no_error_and_no_check_failure(tmp_path, workload):
    result = run_child(tmp_path, workload, 0)
    assert result["error"] is None
    assert result["failures"] == []


def test_traced_cdm_run_counts_one_loop_matvec_per_step(tmp_path):
    # the tracer counts the loop's stiffness applications by wrapping
    # GlobalSystem.k_matvec by name: the leap-frog loop's one application a
    # coarse step, in element-local layout, must stay that method
    result = run_child(tmp_path, "bar_cdm", 1)
    assert result["error"] is None and result["failures"] == []
    assert result["layers"]["kernels.matvec.per_step"] == 1
    assert result["layers"]["integrators.cdm.steps_per_s"] > 0
