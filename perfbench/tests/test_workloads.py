"""The workloads at reduced sizes: checks pass, wrong outputs fail, the trace sees every layer."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import child
import workloads
from tracer import LAYERS, PER_LAYER, Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

BARS = ("bar_cdm", "bar_lts")
SYSTEMS = BARS + ("plate_void",)
ALL = SYSTEMS + ("dtcrit",)

# workloads on which each per-layer metric must be non-zero
EXERCISED = {
    "gll.shape_eval": ALL,
    "geometry.cut_quadrature": ALL,
    "geometry.interface_quadrature": BARS,
    "momentfit.lump": ALL,
    "momentfit.moment_system": ALL,
    "momentfit.qp": ALL,
    "assembly.element_stiffness": ALL,
    "assembly.assemble_global": SYSTEMS,
    "assembly.dofs": SYSTEMS,
    "assembly.k_nnz": SYSTEMS,
    "integrators.eig": ALL,
    "integrators.dt_table": SYSTEMS,
    "integrators.dt_sweep": ("dtcrit",),
    "integrators.cdm": ("bar_cdm",),
    "integrators.lts": ("bar_lts", "plate_void"),
    "kernels.matvec": SYSTEMS,
    "benchmark.l2_error": BARS,
}


def _layer(metric):
    if metric in EXERCISED:
        return metric
    for layer in sorted(EXERCISED, key=len, reverse=True):
        if metric.startswith(layer + "."):
            return layer
    raise KeyError(metric)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("out"))
    return {name: child.run(name, 7, True, out, workloads.SMALL_SIZES) for name in ALL}


def _run(name, seed, tmp_path):
    wl = workloads.WORKLOADS[name](seed, workloads.SMALL_SIZES[name])
    wl.setup()
    wl.solve()
    wl.post(str(tmp_path))
    return wl


@pytest.mark.parametrize("name", ALL)
def test_traced_run_passes_its_checks(traced, name):
    result = traced[name]
    assert result["error"] is None
    assert result["failures"] == []
    assert set(result["layers"]) == {m for m, _, _ in PER_LAYER}


@pytest.mark.parametrize("metric", [m for m, _, _ in PER_LAYER])
def test_every_layer_metric_is_nonzero_where_exercised(traced, metric):
    layer = _layer(metric)
    for name in EXERCISED[layer]:
        assert traced[name]["layers"][metric] > 0, (metric, name)
    if layer.startswith(("kernels.", "integrators.cdm", "integrators.lts", "assembly.assemble")):
        assert traced["dtcrit"]["layers"][metric] == 0, metric
    if layer == "integrators.lts":
        assert traced["bar_cdm"]["layers"][metric] == 0, metric


def test_lts_counts(traced):
    for name in ("bar_lts", "plate_void"):
        layers = traced[name]["layers"]
        assert layers["integrators.lts.p_t"] > 1
        # p_t + 1 full matvecs per coarse step, plus one for the start-up
        assert layers["kernels.matvec.per_step"] == pytest.approx(layers["integrators.lts.p_t"] + 1, rel=0.1)
    assert traced["bar_cdm"]["layers"]["kernels.matvec.per_step"] == pytest.approx(1.0, rel=0.1)


def test_counts_repeat_exactly(traced, tmp_path):
    again = child.run("plate_void", 7, True, str(tmp_path), workloads.SMALL_SIZES)["layers"]
    for metric, unit, _ in PER_LAYER:
        if unit == "count":
            assert again[metric] == traced["plate_void"]["layers"][metric], metric


def test_tracer_wraps_every_binding_and_restores_it():
    import cutsem

    modules = [m for k, m in sys.modules.items() if k.startswith("cutsem")]
    originals = {name: _resolve(modname, path) for name, modname, path, _ in LAYERS}
    tracer = Tracer()
    tracer.install()
    try:
        for name, modname, path, _ in LAYERS:
            assert _resolve(modname, path) is not originals[name], name
            for mod in modules:
                for attr, value in vars(mod).items():
                    assert value is not originals[name], (name, mod.__name__, attr)
        assert cutsem.run_cdm is not originals["integrators.cdm"]
    finally:
        tracer.uninstall()
    for name, modname, path, _ in LAYERS:
        assert _resolve(modname, path) is originals[name]


def _resolve(modname, path):
    obj = sys.modules[modname]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_seed_sets_the_inputs():
    a = workloads.PlateVoid(3, workloads.SIZES["plate_void"])
    b = workloads.PlateVoid(3, workloads.SIZES["plate_void"])
    c = workloads.PlateVoid(4, workloads.SIZES["plate_void"])
    assert a.voids == b.voids and a.bump == b.bump
    assert a.voids != c.voids
    assert workloads.BarCdm(3, workloads.SIZES["bar_cdm"]).cfg == workloads.BarCdm(3, workloads.SIZES["bar_cdm"]).cfg


@pytest.mark.parametrize("name", BARS)
def test_bar_check_fails_on_wrong_velocity(name, tmp_path):
    wl = _run(name, 5, tmp_path)
    assert wl.check() == []
    wl.velocity = -wl.velocity
    wl.error = 0.0  # the program's own figure alone must not pass it
    assert any("nodal velocity" in m for m in wl.check())


def test_bar_lts_check_fails_without_refinement(tmp_path):
    wl = _run("bar_lts", 5, tmp_path)
    wl.p_t = 1
    assert any("p_t" in m for m in wl.check())


def test_plate_checks_fail_on_wrong_outputs(tmp_path):
    wl = _run("plate_void", 5, tmp_path)
    assert wl.check() == []
    good_mass = wl.system.lumped_mass.copy()

    wl.system.lumped_mass *= 1.0001
    assert any("lumped mass" in m for m in wl.check())
    wl.system.lumped_mass[:] = good_mass
    wl.system.lumped_mass[7] = -wl.system.lumped_mass[7]
    assert any("non-positive" in m for m in wl.check())
    wl.system.lumped_mass[:] = good_mass

    wl.system.k_data[0] += 1e-3 * np.abs(wl.system.k_data).max()
    assert any("translation" in m or "symmetric" in m for m in wl.check())
    wl.system.k_data[0] -= 1e-3 * np.abs(wl.system.k_data).max()

    velocity = wl.velocity.copy()
    wl.velocity[0::2] += 1e-3 * np.abs(velocity).max()
    assert any("momentum" in m for m in wl.check())
    wl.velocity = velocity

    wl.states = [2.0 * u if i > 1 else u for i, u in enumerate(wl.states)]
    assert any("energy" in m for m in wl.check())


def test_dtcrit_check_fails_on_wrong_rows(tmp_path):
    wl = _run("dtcrit", 5, tmp_path)
    assert wl.check() == []
    rows = list(wl.rows)
    # a small error in every ratio escapes the ordering checks but not eigh
    wl.rows = [r[:4] + (r[4] * (1.0 + 1e-4),) for r in rows]
    assert any("eigh" in m for m in wl.check())
    wl.rows = [r[:4] + (0.1 * r[4],) if r[2] == "scaled" else r for r in rows]
    assert any("> scaled" in m for m in wl.check())


def test_benchmark_json_lists_the_per_layer_table():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bar_cdm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
