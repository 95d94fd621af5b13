"""Span tracing installed from outside the library.

`Tracer.install()` rebinds toilcast's public functions, in every module that
imported them, to wrappers that record a span (name, start, end, parent)
around each call, and wraps the `_vjp` closure of every Tensor a primitive
returns so that VJP time is separated from `backward`'s own bookkeeping.
Spans stay in compact in-memory arrays until `save` writes them out.
`uninstall()` restores the original bindings.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from toilcast import autodiff, iec, models, nn, rolling, series, synth, training

# The tape-recording primitives of toilcast.autodiff; a name missing from the
# module (deleted later) is skipped.
PRIMITIVES = ("add", "sub", "mul", "matmul", "power", "relu", "tanh", "sigmoid",
              "absolute", "maximum", "reshape", "take", "concat", "mean", "sum_axis",
              "total", "causal_conv1d")
# Other public functions that get one span per call, named module.function.
FUNCTIONS = ((autodiff, "backward"), (nn, "adam_update"), (nn, "layer_norm"),
             (models, "load_checkpoint"), (rolling, "autoregressive_predict"),
             (rolling, "evaluate"), (rolling, "iec_predict"), (training, "fit_dataset"),
             (training, "grid_search"), (series, "make_windows"),
             (series, "scale_windows"), (synth, "gen_dataset"), (iec, "simulate"))
MODEL_FAMILY = {models.Mlp: "ann", models.Tcn: "tcn", models.Tide: "tide"}
# Benchmark modules whose imported toilcast names are rebound too.
EXTRA_MODULES = ("workload", "units", "__main__")


def fixture_key(model) -> str:
    """Rollout label of a TrainedModel: its family, '-q' for a quantile head."""
    return model.family + ("-q" if model.quantiles else "")


def graph_size(root) -> int:
    """Number of Tensors reachable from `root` through the tape."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def tcn_useful_positions(model, params) -> int:
    """Output positions, summed over a TCN forward's convolutions, that the
    last step's receptive field actually reads (per sample)."""
    k, L = model.cfg.kernel, model.cfg.lookback
    need = {L - 1}                      # the head reads only the last step
    useful = 0
    for i in reversed(range(model.n_blocks)):
        d = 2 ** i
        need_h1 = {t - j * d for t in need for j in range(k) if t - j * d >= 0}
        useful += len(need) + len(need_h1)          # conv2 and conv1 outputs
        if f"block{i}.skip.w" in params:
            useful += len(need)                     # 1x1 skip convolution
        need = need | need_h1
    return useful


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.graph_nodes: dict[tuple[str, str], int] = {}
        self.tcn_useful_per_row = 0
        self._context: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    # ---- span recording ----

    def name_id_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.begin(self.name_id_of(name))
        try:
            yield
        finally:
            self.finish(idx)

    def wrap(self, fn, name: str):
        nid, begin, finish = self.name_id_of(name), self.begin, self.finish

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return traced

    def _wrap_primitive(self, fn, name: str):
        nid, begin, finish = self.name_id_of(f"autodiff.{name}"), self.begin, self.finish
        wrap_vjp = self.wrap
        vjp_name = f"autodiff.{name}.vjp"
        counters = self.counters
        is_conv = name == "causal_conv1d"

        def traced(*args, **kwargs):
            idx = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(idx)
            if out._vjp is not None:
                out._vjp = wrap_vjp(out._vjp, vjp_name)
            if is_conv:
                counters["conv_positions"] += out.data.shape[0] * out.data.shape[1]
            return out

        return traced

    def _wrap_forward(self, fn, family: str):
        nid, begin, finish = self.name_id_of(f"models.forward.{family}"), self.begin, self.finish
        tracer = self

        def traced(model, params, x, *args, **kwargs):
            if family == "tcn":
                if not tracer.tcn_useful_per_row:
                    tracer.tcn_useful_per_row = tcn_useful_positions(model, params)
                tracer.counters["tcn_rows"] += np.shape(getattr(x, "data", x))[0]
            idx = begin(nid)
            try:
                out = fn(model, params, x, *args, **kwargs)
            finally:
                finish(idx)
            if tracer._context and tracer._context[-1] == "rollout" \
                    and ("forward", family) not in tracer.graph_nodes:
                tracer.graph_nodes[("forward", family)] = graph_size(out)
            return out

        return traced

    def _wrap_train(self, fn):
        tracer = self
        wrapped = {family: self.wrap(fn, f"training.train.{family}")
                   for family in MODEL_FAMILY.values()}

        def traced(model, *args, **kwargs):
            family = MODEL_FAMILY[type(model)]
            tracer._context.append(family)
            try:
                return wrapped[family](model, *args, **kwargs)
            finally:
                tracer._context.pop()

        return traced

    def _wrap_backward(self, fn):
        tracer, inner = self, self.wrap(fn, "autodiff.backward")

        def traced(output, *args, **kwargs):
            family = tracer._context[-1] if tracer._context else None
            if family in MODEL_FAMILY.values() and ("loss", family) not in tracer.graph_nodes:
                tracer.graph_nodes[("loss", family)] = graph_size(output)
            return inner(output, *args, **kwargs)

        return traced

    def _wrap_predict_window(self, fn):
        tracer = self
        wrapped = {}

        def traced(model, *args, **kwargs):
            key = fixture_key(model)
            if key not in wrapped:
                wrapped[key] = tracer.wrap(fn, f"models.predict_window.{key}")
            tracer._context.append("rollout")
            try:
                return wrapped[key](model, *args, **kwargs)
            finally:
                tracer._context.pop()

        return traced

    # ---- installation ----

    def _rebind(self, original, replacement) -> None:
        """Point every module-level name bound to `original` at `replacement`."""
        for mod in list(sys.modules.values()):
            mod_dict = getattr(mod, "__dict__", None)
            if not mod_dict or not (mod.__name__.startswith("toilcast")
                                    or mod.__name__ in EXTRA_MODULES):
                continue
            for attr, value in list(mod_dict.items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for name in PRIMITIVES:
            fn = getattr(autodiff, name, None)
            if fn is not None:
                self._rebind(fn, self._wrap_primitive(fn, name))
        for mod, name in FUNCTIONS:
            fn = getattr(mod, name)
            if name == "backward":
                self._rebind(fn, self._wrap_backward(fn))
            else:
                self._rebind(fn, self.wrap(fn, f"{mod.__name__.split('.')[-1]}.{name}"))
        self._rebind(training.train, self._wrap_train(training.train))
        for cls, family in MODEL_FAMILY.items():
            self._saved.append((cls, "forward", cls.forward))
            cls.forward = self._wrap_forward(cls.forward, family)
        tm = models.TrainedModel
        self._saved.append((tm, "predict_window", tm.predict_window))
        tm.predict_window = self._wrap_predict_window(tm.predict_window)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # ---- output ----

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy()}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


class SpanTable:
    """Derived per-span quantities: duration, self time, root span."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name_id, self.parent = a["name_id"], a["parent"]
        self.start, self.end = a["start"], a["end"]
        self.dur = self.end - self.start
        n = len(self.dur)
        has_parent = self.parent >= 0
        child_sum = np.bincount(self.parent[has_parent], weights=self.dur[has_parent],
                                minlength=n)
        self.self_time = self.dur - child_sum
        root = np.where(has_parent, self.parent, np.arange(n))
        while True:
            nxt = np.where(self.parent[root] >= 0, self.parent[root], root)
            if (nxt == root).all():
                break
            root = nxt
        self.root = root

    def check(self) -> list[str]:
        """Structural consistency of the span forest; empty when sound."""
        errors = []
        if (self.end <= 0).any():
            errors.append(f"{int((self.end <= 0).sum())} spans never closed")
        if (self.dur < 0).any():
            errors.append("span ends before it starts")
        kids = np.flatnonzero(self.parent >= 0)
        par = self.parent[kids]
        if (par >= kids).any():
            errors.append("a parent span starts after its child")
        if ((self.start[kids] < self.start[par]) | (self.end[kids] > self.end[par])).any():
            errors.append("a child span lies outside its parent")
        if (self.self_time < -1e-9).any():
            errors.append(f"negative self time (min {self.self_time.min():.3g} s): "
                          "overlapping child spans")
        roots = np.flatnonzero(self.parent < 0)
        sums = np.bincount(self.root, weights=self.self_time, minlength=len(self.dur))
        bad = np.abs(sums[roots] - self.dur[roots]) > 1e-9 + 1e-9 * self.dur[roots]
        if bad.any():
            errors.append(f"{int(bad.sum())} span trees whose self times do not sum "
                          "to the root duration")
        return errors

    def ids(self, predicate) -> np.ndarray:
        return np.array([i for i, n in enumerate(self.names) if predicate(n)], dtype=np.int32)

    def per_root(self, roots: np.ndarray, ids: np.ndarray, field: str = "self") -> np.ndarray:
        """For each root span in `roots`, the summed self time ('self'), total
        duration ('dur') or count ('count') of its descendant spans with a
        name id in `ids`."""
        mask = np.isin(self.name_id, ids)
        weights = {"self": self.self_time, "dur": self.dur,
                   "count": np.ones_like(self.dur)}[field][mask]
        totals = np.bincount(self.root[mask], weights=weights, minlength=len(self.dur))
        return totals[roots]

    def durations(self, roots: np.ndarray, ids: np.ndarray) -> np.ndarray:
        mask = np.isin(self.name_id, ids) & np.isin(self.root, roots)
        return self.dur[mask]
