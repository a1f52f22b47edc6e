"""Span tracing of igc from the outside, for the traced run.

`Tracer.install` replaces the public functions and methods of every igc
module with wrappers that record one span per call: name, start, end and
the enclosing span.  The replacement is made in every loaded module that
holds the function, so calls through `from x import f` bindings, the
benchmark's own among them, are seen too.  Spans stay in flat arrays in memory; `metrics` reduces them to the
per-layer figures and `write` stores them when the run ends.  igc's own
files are not modified.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

MODULES = (
    "chart_algebra", "lyndon", "free_lr", "weil", "groupoid",
    "polyvector", "oracle", "checks", "parsing", "cli",
)
# Operators are the public interface of the value classes, so they are
# traced along with the named methods.
DUNDERS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__", "__str__",
}
# Calls whose spans, when they enclose another traced op, keep that inner
# call off the size curves: a curve point is the cost of one outer call.
OP_LEVEL = (
    "groupoid.act", "groupoid.act_transposition", "groupoid.homotopy",
    "groupoid.is_trivial_homotopy", "groupoid.reduce_to_polyvector",
    "free_lr.free_bracket", "free_lr.lie_bracket_ext", "weil.kfield_to_weil",
    "weil.weil_to_kfield", "polyvector.schouten",
)


def _grade(p) -> int:
    return max((len(idx) for idx in p.terms), default=0)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.sizes: dict[int, int] = {}  # span index -> size, for the curves
        self.counters = {"chart_algebra.mul_term_products": 0, "groupoid.act.swaps": 0}
        self.current = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._hooks = {
            "chart_algebra.Poly.__mul__": self._count_mul,
            "groupoid.act": self._act_size,
            "groupoid.reduce_to_polyvector": lambda a, kw, i: self._size(i, a[0].arity),
            "weil.weil_to_kfield": lambda a, kw, i: self._size(i, a[0].arity),
            "free_lr.free_bracket": lambda a, kw, i: self._size(i, a[0].chart.max_degree),
            "free_lr.lie_bracket_ext": lambda a, kw, i: self._size(i, a[0].chart.max_degree),
            "polyvector.schouten": lambda a, kw, i: self._size(i, max(_grade(a[0]), _grade(a[1]))),
        }

    # recording ----------------------------------------------------------------

    def _size(self, idx, value):
        self.sizes[idx] = value

    def _count_mul(self, args, kwargs, idx):
        other = args[1]
        self.counters["chart_algebra.mul_term_products"] += len(args[0].terms) * len(
            getattr(other, "terms", (None,))
        )

    def _act_size(self, args, kwargs, idx):
        self.sizes[idx] = args[1].arity
        self.counters["groupoid.act.swaps"] += len(args[0])

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = self._hooks.get(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        current = self.current
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(current[0])
            ends.append(0.0)
            if hook is not None:
                hook(args, kwargs, idx)
            current[0] = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                current[0] = parents[idx]

        return traced

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around a block."""
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.current[0])
        self.span_end.append(0.0)
        self.current[0] = idx
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter()
            self.current[0] = self.span_parent[idx]

    # installation -------------------------------------------------------------

    def install(self):
        import igc  # noqa: F401  (loads every module)

        wrappers: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules[f"igc.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers.setdefault(id(obj), (obj, self._wrap(obj, f"{short}.{attr}")))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_class(short, obj)
        # rebind every namespace that imported one of the functions, the
        # benchmark's own included
        for mod in list(sys.modules.values()):
            for attr, obj in list(getattr(mod, "__dict__", {}).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])

    def _install_class(self, short: str, cls):
        done: dict[int, object] = {}
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in DUNDERS:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue
            if id(fn) not in done:  # aliases such as __radd__ = __add__ share one span name
                done[id(fn)] = self._wrap(fn, f"{short}.{cls.__name__}.{attr}")
            wrapped = done[id(fn)]
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # reduction ----------------------------------------------------------------

    def metrics(self, check_names=()) -> dict[str, float]:
        """Per-function calls and time, per-module self time and the curves.

        check_names are the checks whose spans the benchmark opened itself,
        as `checks.<name>`.
        """
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        modules = [name.split(".", 1)[0] for name in self.names]
        tracked = {name: 1 << b for b, name in enumerate(OP_LEVEL)}
        bit_of = [tracked.get(name, 0) for name in self.names]
        op_mask = (1 << len(OP_LEVEL)) - 1
        reduce_bit = tracked["groupoid.reduce_to_polyvector"]
        w2k_bit = tracked["weil.weil_to_kfield"]
        act_id = self.name_ids.get("groupoid.act", -1)
        image_id = self.name_ids.get("weil.WeilMorphism.image", -1)

        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        mask = array("q", bytes(8 * n))
        curves: dict[tuple[str, int], list[float]] = {}
        acts_in_reduce = images_in_w2k = 0
        # a span's own time is what its direct children do not cover; summed
        # per module this is the module's time minus nested spans of others
        own = [0.0] * len(self.names)
        for i in range(n):
            nid, p = names[i], parents[i]
            dur = ends[i] - starts[i]
            calls[nid] += 1
            own[nid] += dur
            if p >= 0:
                own[names[p]] -= dur
                mask[i] = mask[p] | bit_of[names[p]]
            m = mask[i]
            if not m & bit_of[nid]:  # recursion counts once
                total[nid] += dur
            if nid == act_id and m & reduce_bit:
                acts_in_reduce += 1
            elif nid == image_id and m & w2k_bit:
                images_in_w2k += 1
            if i in self.sizes and not m & op_mask:
                curves.setdefault((self.names[nid], self.sizes[i]), []).append(dur)
        self_time: dict[str, float] = {}
        for nid, t in enumerate(own):
            self_time[modules[nid]] = self_time.get(modules[nid], 0.0) + t

        def calls_of(name):
            nid = self.name_ids.get(name)
            return 0 if nid is None else calls[nid]

        def secs_of(name):
            nid = self.name_ids.get(name)
            return 0.0 if nid is None else total[nid]

        def curve(name, size):
            samples = curves.get((name, size))
            return statistics.median(samples) * 1e3 if samples else 0.0

        from igc import lyndon

        out: dict[str, float] = {f"{mod}.self_s": self_time.get(mod, 0.0) for mod in MODULES}
        out.update(
            {
                "chart_algebra.poly_new.calls": calls_of("chart_algebra.Poly.__init__"),
                "chart_algebra.poly_add.calls": calls_of("chart_algebra.Poly.__add__"),
                "chart_algebra.poly_mul.calls": calls_of("chart_algebra.Poly.__mul__"),
                "chart_algebra.poly_derive.calls": calls_of("chart_algebra.Poly.derive"),
                "chart_algebra.mul_term_products": self.counters["chart_algebra.mul_term_products"],
                "chart_algebra.vf_bracket.calls": calls_of("chart_algebra.vf_bracket"),
                "lyndon.is_lyndon.calls": calls_of("lyndon.is_lyndon"),
                "lyndon.monomial_bracket.calls": calls_of("lyndon.monomial_bracket"),
                "lyndon.cache_entries": len(lyndon._EXPANSION_CACHE) + len(lyndon._BRACKET_CACHE),
                "weil.image.calls": calls_of("weil.WeilMorphism.image"),
                "weil.image_per_roundtrip": images_in_w2k / max(1, calls_of("weil.weil_to_kfield")),
                "groupoid.act.swaps": self.counters["groupoid.act.swaps"],
                "groupoid.reduce_to_polyvector.acts_per_call": acts_in_reduce
                / max(1, calls_of("groupoid.reduce_to_polyvector")),
                "polyvector.wedge.calls": calls_of("polyvector.wedge"),
                "parsing.parse_expression.calls": calls_of("parsing.parse_expression"),
                "parsing.parse_expression.s": secs_of("parsing.parse_expression"),
                "cli.run_command.calls": calls_of("cli.run_command"),
                "oracle.oracle_multiplicativity.s": secs_of("oracle.oracle_multiplicativity"),
                "oracle.oracle_quotient_lowdegree.s": secs_of("oracle.oracle_quotient_lowdegree"),
            }
        )
        for name, sizes, tag in (
            ("free_lr.free_bracket", range(4, 8), "d"),
            ("free_lr.lie_bracket_ext", range(4, 8), "d"),
            ("weil.weil_to_kfield", range(1, 4), "k"),
            ("groupoid.act", range(3, 7), "k"),
            ("groupoid.reduce_to_polyvector", range(3, 6), "k"),
            ("polyvector.schouten", range(1, 4), "g"),
        ):
            out[f"{name}.calls"] = calls_of(name)
            out[f"{name}.s"] = secs_of(name)
            for size in sizes:
                out[f"{name}.{tag}{size}_ms"] = curve(name, size)
        out["weil.kfield_to_weil.calls"] = calls_of("weil.kfield_to_weil")
        out["weil.kfield_to_weil.s"] = secs_of("weil.kfield_to_weil")
        out["groupoid.homotopy.s"] = secs_of("groupoid.homotopy")
        out["groupoid.is_trivial_homotopy.s"] = secs_of("groupoid.is_trivial_homotopy")
        for name in check_names:
            out[f"checks.{name}.s"] = secs_of(f"checks.{name}")
        return out

    def write(self, directory: Path, stem: str):
        """Store the spans: a JSON index and the four arrays back to back."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / f"{stem}.bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        index = {
            "spans": len(self.span_name),
            "names": self.names,
            "layout": ["name:int32", "parent:int32", "start_s:float64", "end_s:float64"],
        }
        (directory / f"{stem}.json").write_text(json.dumps(index))
