"""In-memory span tracing of the calls the benchmark makes into cutsem.

A span is (name, start, end, parent): `parent` is the index of the
enclosing span, or -1. `Tracer.install` wraps each traced function where
it is looked up: every cutsem module attribute bound to the function
(including names imported with `from .x import f`), and the class
attribute for methods. Function-local imports read the module attribute at
call time, so they see the wrapper as well. Counts are recorded at the same
boundaries. Spans stay in memory until `write` is called at the end of a run.
"""

import contextlib
import functools
import json
import sys
import time

# (name, unit, better): ".s" is inclusive time, ".self_s" that time minus
# child spans, ".calls" a span count; the rest are counts or derived rates
PER_LAYER = [
    ("gll.shape_eval.s", "s", "lower"),
    ("gll.shape_eval.points", "count", "lower"),
    ("geometry.cut_quadrature.s", "s", "lower"),
    ("geometry.cut_quadrature.calls", "count", "lower"),
    ("geometry.cut_quadrature.points", "count", "lower"),
    ("geometry.interface_quadrature.s", "s", "lower"),
    ("momentfit.lump.s", "s", "lower"),
    ("momentfit.moment_system.s", "s", "lower"),
    ("momentfit.moment_system.calls", "count", "lower"),
    ("momentfit.qp.s", "s", "lower"),
    ("momentfit.qp.calls", "count", "lower"),
    ("momentfit.qp.weights_at_bound", "count", "lower"),
    ("assembly.element_stiffness.s", "s", "lower"),
    ("assembly.element_stiffness.calls", "count", "lower"),
    ("assembly.assemble_global.s", "s", "lower"),
    ("assembly.assemble_global.self_s", "s", "lower"),
    ("assembly.dofs", "count", "lower"),
    ("assembly.k_nnz", "count", "lower"),
    ("integrators.eig.s", "s", "lower"),
    ("integrators.eig.calls", "count", "lower"),
    ("integrators.dt_table.s", "s", "lower"),
    ("integrators.dt_sweep.s", "s", "lower"),
    ("integrators.cdm.s", "s", "lower"),
    ("integrators.cdm.self_s", "s", "lower"),
    ("integrators.cdm.steps_per_s", "1/s", "higher"),
    ("integrators.lts.s", "s", "lower"),
    ("integrators.lts.self_s", "s", "lower"),
    ("integrators.lts.coarse_steps_per_s", "1/s", "higher"),
    ("integrators.lts.p_t", "count", "lower"),
    ("integrators.lts.refined_dofs", "count", "lower"),
    ("kernels.matvec.calls", "count", "lower"),
    ("kernels.matvec.s", "s", "lower"),
    ("kernels.matvec.us_per_call", "us", "lower"),
    ("kernels.matvec.per_step", "calls/step", "lower"),
    ("kernels.matvec.bytes_computed", "B", "lower"),
    ("benchmark.l2_error.s", "s", "lower"),
]


def _count_shape_eval(tracer, args, kwargs, result):
    tracer.add("gll.shape_eval.points", len(result[0]))


def _count_cut_quadrature(tracer, args, kwargs, result):
    tracer.add("geometry.cut_quadrature.points", len(result.points))


def _count_qp(tracer, args, kwargs, result):
    from cutsem.momentfit import min_weight_bound

    _, cutq, cfg, basis = args[:4]
    w_min = min_weight_bound(basis, cutq.volume_ratio, cfg)
    at_bound = abs(result.weights - w_min) <= 1e-12 * max(1.0, w_min)
    tracer.add("momentfit.qp.weights_at_bound", int(at_bound.sum()))


def _count_assemble_global(tracer, args, kwargs, result):
    tracer.set("assembly.dofs", result.dof_count)
    tracer.set("assembly.k_nnz", len(result.k_data))


def _count_cdm(tracer, args, kwargs, result):
    tracer.add("integrators.cdm.steps", args[2] if len(args) > 2 else kwargs["n_steps"])


def _count_lts(tracer, args, kwargs, result):
    solver = args[0]
    tracer.add("integrators.lts.steps", args[1] if len(args) > 1 else kwargs["n_steps"])
    tracer.set("integrators.lts.p_t", solver.cfg.p_t)
    tracer.set("integrators.lts.refined_dofs", int(solver.cfg.selection.sum()))


# (layer name, module, attribute path, counter); a dotted path is a method
LAYERS = [
    ("gll.shape_eval", "cutsem.gll", "TensorBasis2d.shape_eval_2d_batch", _count_shape_eval),
    ("geometry.cut_quadrature", "cutsem.geometry", "build_cut_quadrature", _count_cut_quadrature),
    ("geometry.interface_quadrature", "cutsem.geometry", "build_interface_quadrature", None),
    ("momentfit.lump", "cutsem.momentfit", "lump_element", None),
    ("momentfit.moment_system", "cutsem.momentfit", "build_moment_system", None),
    ("momentfit.qp", "cutsem.momentfit", "solve_fitted_weights", _count_qp),
    ("assembly.element_stiffness", "cutsem.assembly", "element_stiffness", None),
    ("assembly.assemble_global", "cutsem.assembly", "assemble_global", _count_assemble_global),
    ("integrators.eig", "cutsem.integrators", "element_max_eigenvalue", None),
    ("integrators.dt_table", "cutsem.integrators", "critical_timestep_table", None),
    ("integrators.dt_sweep", "cutsem.integrators", "critical_dt_sweep", None),
    ("integrators.cdm", "cutsem.integrators", "run_cdm", _count_cdm),
    ("integrators.lts", "cutsem.integrators", "LtsSolver.run", _count_lts),
    ("kernels.matvec", "cutsem.assembly", "GlobalSystem.k_matvec", None),
    ("benchmark.l2_error", "cutsem.benchmark", "l2_velocity_error", None),
]


class Tracer:
    """Spans and counts of one repetition; `install` wraps, `uninstall` restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.counts = {}
        self.enabled = True
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def set(self, key, value):
        self.counts[key] = value

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens itself around a phase."""
        idx = self._open(name) if self.enabled else None
        try:
            yield
        finally:
            if idx is not None:
                self._close(idx)

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every traced function at each place cutsem looks it up."""
        import cutsem  # noqa: F401  (loads every module that binds a traced name)

        modules = [m for k, m in sys.modules.items() if k == "cutsem" or k.startswith("cutsem.")]
        for name, modname, path, counter in LAYERS:
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self.wrap(name, getattr(cls, attr), counter))
                continue
            original = getattr(owner, path)
            wrapper = self.wrap(name, original, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def metrics(self):
        """Per-layer figures named in PER_LAYER, from the spans and counts."""
        total, child, calls = {}, {}, {}
        loop_matvecs = 0
        for name, start, end, parent in self.spans:
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                child[pname] = child.get(pname, 0.0) + (end - start)
            if name == "kernels.matvec" and self._inside(parent, ("integrators.cdm", "integrators.lts")):
                loop_matvecs += 1
        c = self.counts
        matvecs = calls.get("kernels.matvec", 0)
        nnz, dofs = c.get("assembly.k_nnz", 0), c.get("assembly.dofs", 0)
        derived = {
            "integrators.cdm.steps_per_s": _ratio(c.get("integrators.cdm.steps", 0), total.get("integrators.cdm", 0.0)),
            "integrators.lts.coarse_steps_per_s": _ratio(c.get("integrators.lts.steps", 0), total.get("integrators.lts", 0.0)),
            "kernels.matvec.us_per_call": 1e6 * _ratio(total.get("kernels.matvec", 0.0), matvecs),
            "kernels.matvec.per_step": _ratio(
                loop_matvecs, c.get("integrators.cdm.steps", 0) + c.get("integrators.lts.steps", 0)
            ),
            # computed CSR traffic of one y = K x with int64 indices: value and
            # column index per nonzero, the row pointer, x read and y written once
            "kernels.matvec.bytes_computed": (16 * nnz + 8 * (dofs + 1) + 16 * dofs) if matvecs else 0,
        }
        out = {}
        for name, _, _ in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if kind == "s":
                out[name] = total.get(layer, 0.0)
            elif kind == "self_s":
                out[name] = total.get(layer, 0.0) - child.get(layer, 0.0)
            elif kind == "calls":
                out[name] = calls.get(layer, 0)
            else:
                out[name] = derived[name] if name in derived else c.get(name, 0)
        return out

    def _inside(self, idx, names):
        while idx >= 0:
            if self.spans[idx][0] in names:
                return True
            idx = self.spans[idx][3]
        return False


def _ratio(num, den):
    return num / den if den else 0.0
