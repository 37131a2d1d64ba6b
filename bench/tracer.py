"""Span tracer for the traced benchmark run.

The tracer works from outside the package: it replaces the public
functions of each ``nvgslac`` layer module with timing wrappers and
changes no source file.  The package imports names with
``from .x import f``, so one function is bound under its name in several
modules; every binding that refers to the original object is replaced,
not only the one in the defining module.

A wrapper records a span only while a benchmark call is open (see
:meth:`Tracer.call`), so set-up and output checks stay out of the trace.
Spans carry the id of their parent and stay in memory until the run
ends; self time is a span's duration minus the durations of its
children.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "hamiltonian", "spin_core", "transitions", "spectrum", "carbon13", "fitting")
ROOT = "bench.call"

# Operator-algebra and formatting primitives.  They are left unwrapped so
# that their time counts toward the layer that calls them: the cost of
# rebuilding constant operators belongs to the H build or the dipole fold
# that asks for them, and per-peak Lorentzians to the synthesis.
INLINE = frozenset(
    {
        "spin_core.embed",
        "spin_core.spin_matrices",
        "spin_core.format_label",
        "spin_core.parse_label",
        "spectrum.lorentzian",
    }
)

# Per-layer metrics that sum the self time of a set of functions.
SELF_TIME = {
    "hamiltonian.build_s": ("hamiltonian.build_nv_hamiltonian",),
    "spin_core.eigensolve_s": (
        "spin_core.eigensolve",
        "spin_core.require_hermitian",
        "spin_core.is_hermitian",
    ),
    "spin_core.label_s": (
        "spin_core.label_states",
        "spin_core.product_basis_labels",
        "spin_core.default_basis_labels",
    ),
    "transitions.table_s": (
        "transitions.transition_table",
        "transitions.intensity_matrix",
        "transitions.state_weights",
        "transitions.populations",
        "transitions.transition_probabilities",
        "transitions.select_rows",
    ),
    "transitions.dipole_s": ("transitions.dipole_elements",),
    "spectrum.synth_s": ("spectrum.synthesize",),
    "spectrum.write_s": (
        "spectrum.spectrum_to_csv",
        "spectrum.transitions_to_csv",
        "spectrum.write_spectrum_csv",
        "spectrum.write_transitions_csv",
    ),
    "spectrum.read_s": ("spectrum.read_spectrum_csv",),
    "carbon13.sample_s": ("carbon13.sample_placement", "carbon13.site_list"),
    "carbon13.build_s": ("carbon13.build_full_hamiltonian", "carbon13.rotate_tensor"),
    "carbon13.reduce_s": ("carbon13.mc_average_spectrum",),
    "fitting.model_s": ("fitting.model_spectrum",),
    "fitting.optimizer_s": ("fitting.fit_spectrum", "fitting.reduced_chi2"),
}

# Per-layer metrics that count calls of one function.
CALLS = {
    "hamiltonian.build_calls": "hamiltonian.build_nv_hamiltonian",
    "spin_core.eigensolve_calls": "spin_core.eigensolve",
    "transitions.table_calls": "transitions.transition_table",
    "spectrum.synth_calls": "spectrum.synthesize",
    "carbon13.build_calls": "carbon13.build_full_hamiltonian",
    "fitting.fit_calls": "fitting.fit_spectrum",
}


def _eigensolve(tracer, system):
    tracer.counters["spin_core.dim_max"] = max(tracer.counters["spin_core.dim_max"], system.dim)


def _intensity_matrix(tracer, table):
    n = table.energies.size
    tracer.counters["transitions.rows_kept"] += len(table)
    tracer.counters["transitions.pairs"] += n * (n - 1) // 2


def _synthesize(tracer, model):
    tracer.counters["spectrum.peak_points"] += len(model.peaks) * model.grid.size


def _to_csv(tracer, text):
    tracer.counters["spectrum.write_bytes"] += len(text.encode("utf-8"))


def _sample_placement(tracer, placement):
    tracer.counters["carbon13.draws"] += 1
    if placement.n_c13:
        tracer.counters["carbon13.draws_nonempty"] += 1
        multiset = tuple(sorted(label for label, _ in placement.occupied))
        tracer.multisets[tracer.stack[0]].add(multiset)


def _fit_spectrum(tracer, result):
    tracer.counters["fitting.evals"] += result.n_evaluations


# Counters read from a function's return value.
HOOKS = {
    "spin_core.eigensolve": _eigensolve,
    "transitions.intensity_matrix": _intensity_matrix,
    "spectrum.synthesize": _synthesize,
    "spectrum.spectrum_to_csv": _to_csv,
    "spectrum.transitions_to_csv": _to_csv,
    "carbon13.sample_placement": _sample_placement,
    "fitting.fit_spectrum": _fit_spectrum,
}


class Tracer:
    """Records nested spans of calls into the nvgslac layers."""

    def __init__(self):
        self.spans = []  # span id -> (parent id, name, start, end)
        self.stack = []
        self.counters = defaultdict(int)
        self.multisets = defaultdict(set)  # root span id -> nonempty family multisets
        self._patched = []

    def _wrap(self, name, fn, hook):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (parent, name, start, end)
            if hook is not None:
                try:
                    hook(self, result)
                except (AttributeError, TypeError):
                    # The return type changed shape: the counter stops
                    # growing, which shows in the per-layer numbers; the
                    # call itself still succeeded.
                    pass
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of every layer, in every module binding it."""
        layer_modules = {layer: importlib.import_module(f"nvgslac.{layer}") for layer in LAYERS}
        package_modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "nvgslac" or name.startswith("nvgslac."))
        ]
        for layer, module in layer_modules.items():
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in INLINE
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self._wrap(name, fn, HOOKS.get(name))
                for other in package_modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, other_attr, wrapper)
                            self._patched.append((other, other_attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    @contextlib.contextmanager
    def call(self):
        """Root span of one benchmark call; layer spans nest under it."""
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (-1, ROOT, start, end)

    def self_times(self) -> tuple:
        """Summed self time and call count per function name."""
        child = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for sid, (_, name, start, end) in enumerate(self.spans):
            self_s[name] += (end - start) - child[sid]
            calls[name] += 1
        return self_s, calls

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer metrics plus the tracing overhead against the untraced run."""
        self_s, calls = self.self_times()
        layer_self = defaultdict(float)
        for name, seconds in self_s.items():
            layer_self[name.split(".", 1)[0]] += seconds
        c = self.counters
        out = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
        out.update({key: (sum(self_s[n] for n in names), "s") for key, names in SELF_TIME.items()})
        out.update({key: (calls[name], "count") for key, name in CALLS.items()})
        fits = calls["fitting.fit_spectrum"]
        out.update(
            {
                "spin_core.dim_max": (c["spin_core.dim_max"], "count"),
                "transitions.rows_kept": (c["transitions.rows_kept"], "count"),
                "transitions.keep_ratio": (
                    c["transitions.rows_kept"] / c["transitions.pairs"] if c["transitions.pairs"] else 0.0,
                    "ratio",
                ),
                "spectrum.peak_points": (c["spectrum.peak_points"], "count"),
                "spectrum.write_bytes": (c["spectrum.write_bytes"], "bytes"),
                "carbon13.draws": (c["carbon13.draws"], "count"),
                "carbon13.draws_nonempty": (c["carbon13.draws_nonempty"], "count"),
                "carbon13.distinct_multisets": (
                    sum(len(s) for s in self.multisets.values()),
                    "count",
                ),
                "fitting.evals": (c["fitting.evals"], "count"),
                "fitting.evals_per_fit": (c["fitting.evals"] / fits if fits else 0.0, "count"),
                "trace.wall_s": (traced_wall_s, "s"),
                "trace.untraced_wall_s": (untraced_wall_s, "s"),
                "trace.overhead_s": (traced_wall_s - untraced_wall_s, "s"),
                "trace.overhead_share": (
                    (traced_wall_s - untraced_wall_s) / untraced_wall_s if untraced_wall_s else 0.0,
                    "ratio",
                ),
                "trace.attributed_share": (
                    sum(layer_self[layer] for layer in LAYERS) / traced_wall_s if traced_wall_s else 0.0,
                    "ratio",
                ),
                "trace.calls": (calls[ROOT], "count"),
                "trace.spans": (len(self.spans), "count"),
            }
        )
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV: id, parent, name, start and end in s from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, (parent, name, start, end) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{start - origin:.9f},{end - origin:.9f}\n")
