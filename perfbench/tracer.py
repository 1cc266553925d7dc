"""Span tracer for the benchmark's traced runs.

`Tracer.install` wraps the public functions and methods of the traced
`ivwsm` modules (plus the private context constructor the `wsm.context_*`
metrics need) and rebinds every name that points at an original, in the
defining module, in each importing module and in module-level dispatch
dicts such as `wsm._CHECKERS`.  `Tracer.uninstall` puts every original back.

Each call of a wrapped name is one span: name, start, end, parent span and
the id of the benchmark invocation it belongs to.  Spans live in flat
arrays in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import array
import inspect
import sys
import types
from collections import Counter
from time import perf_counter

import numpy as np

#: Modules traced, one per layer of the per-layer metrics.
LAYERS = ("problems", "expr", "ivf", "geometry", "support", "subdiff", "wsm", "cli")
#: Private callables traced because a metric needs them.
PRIVATE = {"wsm": [("_Context", "__init__")]}

CHECKER_SPANS = {
    "definition": "wsm.check_definition",
    "primal": "wsm.check_primal",
    "dual_b": "wsm.check_dual_normal_cone",
    "dual_e": "wsm.check_dual_e",
    "dual_f": "wsm.check_dual_f",
}
CONTEXT_SPAN = "wsm._Context.__init__"
GEOMETRY_KERNELS = {
    "tangent_cone": ("geometry.tangent_cone", "geometry.BoxSet.tangent_cone"),
    "normal_cone": ("geometry.normal_cone", "geometry.BoxSet.normal_cone"),
    "project": (
        "geometry.project",
        "geometry.BoxSet.project",
        "geometry.OrthantCone.project",
    ),
    "dist_to_cone": ("geometry.dist_to_cone",),
    "cone_ball_support": ("geometry.cone_ball_support",),
}
SUBDIFF_SUPPORT = (
    "subdiff.SingletonSubdiff.support",
    "subdiff.ExplicitBoxSubdiff.support",
    "subdiff.SupportOracleSubdiff.support",
)


def _targets(module: types.ModuleType, layer: str):
    """(owner, attribute, span name, original) for every traced callable."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, f"{layer}.{name}", obj
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            yield from _method_targets(obj, layer)
    for cls_name, attr in PRIVATE.get(layer, ()):
        cls = getattr(module, cls_name)
        yield cls, attr, f"{layer}.{cls_name}.{attr}", vars(cls)[attr]


def _method_targets(cls: type, layer: str):
    for attr, raw in vars(cls).items():
        if attr.startswith("_"):
            continue
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        if inspect.isfunction(fn):
            yield cls, attr, f"{layer}.{cls.__name__}.{attr}", raw


class Tracer:
    """Records spans for wrapped `ivwsm` callables while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.invocation = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.errors: Counter = Counter()  # (span name, exception, invocation) -> count
        self.invocations: list[tuple[int, str]] = []  # (pass index, label)
        self._stack = [-1]
        self._current = [-1]
        self._restore: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrapped = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            module = sys.modules[f"ivwsm.{layer}"]
            for owner, attr, span_name, raw in list(_targets(module, layer)):
                wrapper = self._wrap(span_name, raw)
                self._set(owner, attr, raw, wrapper)
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                wrapped[id(fn)] = (fn, wrapper)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ivwsm" and not mod_name.startswith("ivwsm."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(module, attr, obj, hit[1])
                elif isinstance(obj, dict):
                    # dispatch tables such as wsm._CHECKERS hold originals
                    for key, value in list(obj.items()):
                        hit = wrapped.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._restore.append((obj, key, value))
                            obj[key] = hit[1]

    def _set(self, owner, attr: str, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, span_name: str, raw):
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._wrap(span_name, raw.__func__))
        fn = raw
        if span_name not in self.names:  # installing again reuses the name ids
            self.names.append(span_name)
        nid = self.names.index(span_name)
        name_append = self.name_id.append
        parent_append = self.parent.append
        inv_append = self.invocation.append
        start_append = self.start.append
        end_append = self.end.append
        ends = self.end
        stack = self._stack
        current = self._current
        errors = self.errors

        def traced(*args, **kwargs):
            sid = len(ends)
            name_append(nid)
            parent_append(stack[-1])
            inv_append(current[0])
            end_append(0.0)
            stack.append(sid)
            start_append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                errors[(span_name, type(exc).__name__, current[0])] += 1
                raise
            finally:
                ends[sid] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # -- recording --------------------------------------------------------

    def begin_invocation(self, pass_index: int, label: str) -> None:
        self._current[0] = len(self.invocations)
        self.invocations.append((pass_index, label))

    def end_invocation(self) -> None:
        self._current[0] = -1

    def write(self, path) -> None:
        """Write every span recorded so far as one ``.npz`` file."""
        np.savez(
            path,
            span_names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            invocation=np.frombuffer(self.invocation, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            invocation_pass=np.array([p for p, _ in self.invocations], dtype=np.int32),
            invocation_label=np.array([label for _, label in self.invocations]),
        )

    # -- per-layer metrics ------------------------------------------------

    def layer_metrics(self, pass_index: int) -> dict[str, float]:
        """Counts and times of one traced pass.

        Kernel times (``expr.evaluate_s``, ``geometry.*_s``, ...) and the
        ``<layer>.self_s`` totals are self time: span duration minus the
        time its traced children cover.  Phase times (``problems.*``,
        ``ivf.convexity_check_s``, ``ivf.lipschitz_s``, ``wsm.*_s``) are
        inclusive; checker and modulus phases exclude a context build
        nested inside them, which ``wsm.context_s`` reports.
        """
        name = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        inv = np.frombuffer(self.invocation, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        n = len(name)
        has_parent = parent >= 0
        self_time = dur - np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=n
        )
        inv_pass = np.array([p for p, _ in self.invocations] + [-1], dtype=np.int32)
        in_pass = inv_pass[inv] == pass_index  # inv == -1 maps to the sentinel
        ids = {s: i for i, s in enumerate(self.names)}

        def select(*span_names):
            wanted = [ids[s] for s in span_names if s in ids]
            return in_pass & np.isin(name, wanted)

        def calls(*span_names):
            return int(np.count_nonzero(select(*span_names)))

        def self_s(*span_names):
            return float(self_time[select(*span_names)].sum())

        def incl_s(*span_names):
            return float(dur[select(*span_names)].sum())

        one_sided = select("ivf.one_sided_derivative")
        numeric_parent = np.bincount(parent[one_sided & has_parent], minlength=n) > 0
        dir_derivs = select("ivf.dir_derivative")

        # context builds nested in a checker or estimate_modulus span
        phase_ids = {ids[s] for s in (*CHECKER_SPANS.values(), "wsm.estimate_modulus")}
        nested = Counter()
        for sid in np.flatnonzero(select(CONTEXT_SPAN)):
            up = parent[sid]
            while up >= 0 and name[up] not in phase_ids:
                up = parent[up]
            if up >= 0:
                nested[self.names[name[up]]] += dur[sid]

        def phase_s(span_name):
            return incl_s(span_name) - nested[span_name]

        m = {
            "problems.load_s": incl_s("problems.load_problem_file"),
            "problems.build_s": incl_s("problems.build_problem"),
            "expr.evaluate_calls": calls("expr.evaluate"),
            "expr.evaluate_s": self_s("expr.evaluate"),
            "ivf.dir_deriv_calls.numeric": int(np.count_nonzero(dir_derivs & numeric_parent)),
            "ivf.dir_deriv_calls.analytic": int(np.count_nonzero(dir_derivs & ~numeric_parent)),
            "ivf.one_sided_calls": int(np.count_nonzero(one_sided)),
            "ivf.one_sided_s": float(self_time[one_sided].sum()),
            "ivf.nonsmooth_uncertain": sum(
                count
                for (span_name, exc_name, i), count in self.errors.items()
                if span_name == "ivf.one_sided_derivative"
                and exc_name == "NonsmoothUncertainError"
                and inv_pass[i] == pass_index
            ),
            "ivf.convexity_check_s": incl_s("ivf.convexity_check"),
            "ivf.lipschitz_s": incl_s("ivf.lipschitz_estimate"),
        }
        for kernel, span_names in GEOMETRY_KERNELS.items():
            m[f"geometry.{kernel}_calls"] = calls(*span_names)
            m[f"geometry.{kernel}_s"] = self_s(*span_names)
        m["support.default_directions_s"] = self_s("support.default_directions")
        m["subdiff.is_subgradient_calls"] = calls("subdiff.is_subgradient")
        m["subdiff.is_subgradient_s"] = self_s("subdiff.is_subgradient")
        m["subdiff.support_calls"] = calls(*SUBDIFF_SUPPORT)
        m["wsm.context_builds"] = calls(CONTEXT_SPAN)
        m["wsm.context_s"] = incl_s(CONTEXT_SPAN)
        for checker, span_name in CHECKER_SPANS.items():
            m[f"wsm.{checker}_s"] = phase_s(span_name)
        m["wsm.estimate_modulus_s"] = phase_s("wsm.estimate_modulus")
        m["cli.build_problem_calls"] = calls("problems.build_problem")
        for layer in LAYERS:
            in_layer = [s for s in self.names if s.startswith(layer + ".")]
            m[f"{layer}.self_s"] = self_s(*in_layer)
        m["trace.spans"] = int(np.count_nonzero(in_pass))
        return m
