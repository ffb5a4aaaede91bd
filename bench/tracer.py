"""Call tracing for the benchmark's traced runs.

The tracer wraps the public functions and public methods of each curvlab
module from outside the package, so the program under ``src/`` stays
unchanged. Every wrapped call updates per-function statistics (calls,
outermost calls, inclusive time, self time) and, unless the function is
one of the fine-grained ones listed in ``FINE``, records a span
``(id, parent id, name, thread, start, end)``. Fine-grained calls are
aggregated into counters and summed time only: there are several hundred
thousand of them in a full suite run and a span each would dominate the
trace.

A function is patched in every ``curvlab.*`` namespace that holds it,
matched by object identity, because modules import each other's functions
by name (``cli`` binds ``minimize_free_boundary`` and many more).

Self time is busy time: the CPU time of the calling thread during the call
minus that of the wrapped calls it made, summed per module. Thread CPU time
leaves out the time a thread waits, for the GIL or for the pool's other
workers, which wall time would charge to whatever function was waiting.
Spans and inclusive times use the wall clock.
"""

import functools
import inspect
import itertools
import sys
import threading
import time

import numpy as np

LAYERS = (
    "cli",
    "geodesic",
    "fields",
    "hypersurface",
    "spaceform",
    "curves",
    "variation",
    "conformal",
    "fdcheck",
    "estimates",
    "report",
)

# methods of the ScalarField protocol; on any class that has all three they
# count toward the ``fields`` layer, wherever the class is defined
FIELD_METHODS = ("value", "gradient", "hessian")

# aggregated into counters and summed time, no individual spans; the
# ScalarField methods are aggregated as well
FINE = frozenset(
    {
        "hypersurface.Hypersurface.project",
        "hypersurface.Hypersurface.euclid_unit_normal",
        "hypersurface.Hypersurface.side",
        "hypersurface.Hypersurface.chart_points",
        "hypersurface.Hypersurface.euclid_mean_curvature",
        "fdcheck.metric_dg",
        "spaceform.SpaceForm.inner",
        "spaceform.SpaceForm.norm",
        "spaceform.radial_map",
        "spaceform.SpaceForm.check_point",
        "spaceform.SpaceForm.ambient_field",
        "spaceform.SpaceForm.ambient_factor",
        "spaceform.SpaceForm.distance",
        "curves.DiscreteCurve.segment_lengths",
        "curves.DiscreteCurve.segment_vectors",
        "curves.DiscreteCurve.segment_chords",
        "curves.DiscreteCurve.quad_nodes",
        "curves.DiscreteCurve.quad_base_weights",
        "curves.DiscreteCurve.vertex_s",
    }
)


def _add(counters, name, value):
    counters[name] = counters.get(name, 0) + value


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _observe_minimize(counters, args, kwargs, result):
    _add(counters, "geodesic.solves", 1)
    _add(counters, "geodesic.iterations", int(result.iterations))
    _add(counters, "geodesic.levels", len(result.level_sizes))
    _add(counters, "geodesic.converged", int(bool(result.converged)))
    counters.setdefault("geodesic.iterations_per_solve", []).append(int(result.iterations))


def _observe_infimum(counters, args, kwargs, result):
    _add(counters, "hypersurface.infima", 1)
    _add(counters, "hypersurface.n_grid", int(result.n_grid))
    _add(counters, "hypersurface.infimum_converged", int(bool(result.converged)))


def _observe_distance(counters, args, kwargs, result):
    _add(counters, "spaceform.distance_points", int(np.size(result)))


def _observe_bounds_scan(counters, args, kwargs, result):
    _add(counters, "variation.bounds_cells", int(result.n_r) * int(result.n_t))


def _observe_index_form(counters, args, kwargs, result):
    curve = _arg(args, kwargs, 0, "curve")
    _add(counters, "variation.index_form_vertices", int(curve.points.shape[0]))


def _observe_decay_scan(counters, args, kwargs, result):
    _add(counters, "estimates.scan_radii", int(np.size(result.R)))


def _observe_to_json(counters, args, kwargs, result):
    _add(counters, "report.bytes_out", len(result.encode("utf-8")))


OBSERVERS = {
    "geodesic.minimize_free_boundary": _observe_minimize,
    "hypersurface.infimum_over_annulus": _observe_infimum,
    "spaceform.SpaceForm.distance": _observe_distance,
    "variation.crucial_bounds_scan": _observe_bounds_scan,
    "variation.index_form_trace": _observe_index_form,
    "estimates.decay_scan": _observe_decay_scan,
    "report.VerificationReport.to_json": _observe_to_json,
}


class _ThreadState:
    __slots__ = ("index", "stack", "stats", "counters", "spans")

    def __init__(self, index):
        self.index = index
        # frames: [layer, CPU time of wrapped children, nearest span id]
        self.stack = []
        # key -> [calls, outermost calls, inclusive wall s, self CPU s, points, layer]
        self.stats = {}
        self.counters = {}
        self.spans = []


class Tracer:
    """Wraps curvlab functions and accumulates spans and counters per thread."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._span_ids = itertools.count(1)

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads))
                self._threads.append(state)
            self._local.state = state
        return state

    def wrap(self, fn, key, layer, field_method=False):
        """Traced stand-in for ``fn``, reported under ``key`` in ``layer``.

        ``field_method`` marks a ScalarField method, whose outermost calls
        also count the points evaluated.
        """
        tracer = self
        clock = time.perf_counter
        cpu_clock = time.thread_time
        observe = OBSERVERS.get(key)
        fine = field_method or key in FINE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            parent = stack[-1] if stack else None
            outermost = parent is None or parent[0] != layer
            span_id = (parent[2] if parent else 0) if fine else next(tracer._span_ids)
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            start = clock()
            cpu_start = cpu_clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                busy = cpu_clock() - cpu_start
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent[1] += busy
                row = state.stats.get(key)
                if row is None:
                    row = state.stats[key] = [0, 0, 0.0, 0.0, 0, layer]
                row[0] += 1
                row[2] += elapsed
                row[3] += busy - frame[1]
                if outermost:
                    row[1] += 1
                    if field_method:
                        row[4] += int(np.prod(np.shape(_arg(args, kwargs, 1, "x"))[:-1]))
                if not fine:
                    state.spans.append(
                        (span_id, parent[2] if parent else 0, key, state.index, start, end)
                    )
            if observe is not None:
                observe(state.counters, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every public function and method of the curvlab layers.

        Raises when a layer module is missing, so a renamed or removed module
        cannot silently drop out of the trace.
        """
        by_identity = {}
        for layer in LAYERS:
            name = f"curvlab.{layer}"
            module = sys.modules.get(name)
            if module is None:
                raise RuntimeError(f"layer module {name} is not imported")
            for obj_name, obj in list(vars(module).items()):
                if obj_name.startswith("_") or getattr(obj, "__module__", None) != name:
                    continue
                if inspect.isfunction(obj):
                    by_identity[id(obj)] = self.wrap(obj, f"{layer}.{obj_name}", layer)
                elif inspect.isclass(obj) and not getattr(obj, "_is_protocol", False):
                    self._wrap_methods(obj, layer)
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "curvlab" or module_name.startswith("curvlab.")):
                continue
            for attr, value in list(vars(module).items()):
                # the wrapper keeps the original alive, so an equal id is
                # the same object
                wrapped = by_identity.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)

    def _wrap_methods(self, cls, layer):
        is_field = all(callable(getattr(cls, m, None)) for m in FIELD_METHODS)
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, (staticmethod, classmethod)):
                fn, rebind = attr.__func__, type(attr)
            elif inspect.isfunction(attr):
                fn, rebind = attr, None
            else:
                continue
            field_method = is_field and name in FIELD_METHODS
            key = f"{layer}.{cls.__qualname__}.{name}"
            wrapped = self.wrap(fn, key, "fields" if field_method else layer, field_method)
            setattr(cls, name, rebind(wrapped) if rebind else wrapped)

    def summary(self):
        """Merge the per-thread records; call after every traced thread ended."""
        stats = {}
        counters = {}
        spans = []
        for state in self._threads:
            for key, row in state.stats.items():
                acc = stats.setdefault(key, [0, 0, 0.0, 0.0, 0, row[5]])
                for i in range(5):
                    acc[i] += row[i]
            for name, value in state.counters.items():
                if isinstance(value, list):
                    counters.setdefault(name, []).extend(value)
                else:
                    _add(counters, name, value)
            spans.extend(state.spans)
        return stats, counters, spans
