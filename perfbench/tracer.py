"""Outside-in tracing of one worker process.

The tracer replaces named public functions of ennola, in every ennola module
namespace that holds them, and every method of ``Cyclotomic`` and ``QPoly``
with timing wrappers. Nothing in ennola itself changes. Only the traced
worker installs it.

The millions of arithmetic calls are aggregated: each wrapped name keeps a
call count and a summed self time (its duration minus the time spent in
wrapped calls below it), so trace memory does not grow with the run. Full
spans (id, name, start, end, parent) are kept only for workload-level steps:
the whole workload, its library call, each table row, each product pair and
the render.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# Module functions whose calls and self time are aggregated, by module.
FUNCTIONS = {
    "symfunc": ("hall_polynomial", "green_poly"),
    "orbits": ("transform_p",),
    "multipartitions": ("enumerate_mp", "class_size"),
    "charmap": ("character_row", "to_basis", "circ_product", "star_product", "char_table"),
    "reptables": (
        "gelfand_graev",
        "irreducible_multiplicities",
        "degree_hook",
        "model_decomposition",
    ),
}
CLASSES = {"exactnum": ("Cyclotomic", "QPoly")}
# Uncached functions whose hit ratio is reported: the share of calls that
# repeat earlier arguments, which a cache at that boundary would answer.
REPEAT_TRACKED = ("symfunc.hall_polynomial", "orbits.transform_p")
# Private caches of the transition matrices between p_theta and P.
TRANSITION_CACHES = ("charmap._power_theta_to_P_items", "charmap._P_to_power_theta_items")


class Tracer:
    """Counters and spans of one traced workload run."""

    def __init__(self, library_call: str | None) -> None:
        self.library_call = library_call
        self.stats: dict[str, list] = {}  # key -> [calls, self seconds]
        self.repeats: dict[str, list] = {}  # key -> [argument keys seen, repeats]
        self.stack = [0.0]  # time covered by wrapped children, per open call
        self.spans: list[dict] = []
        self.open_spans: list[int] = []
        self.caches: dict[str, object] = {}  # "module.name" -> functools cache
        self.cache_base: dict[str, tuple[int, int]] = {}
        self.t0 = time.perf_counter()
        self.library_end: float | None = None

    # ------------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap the traced names; record every functools cache in ennola."""
        modules = {
            name.rpartition(".")[2]: mod
            for name, mod in list(sys.modules.items())
            if (name == "ennola" or name.startswith("ennola.")) and mod is not None
        }
        for mod in modules.values():
            for value in vars(mod).values():
                if callable(value) and hasattr(value, "cache_info"):
                    key = f"{value.__module__.rpartition('.')[2]}.{value.__name__}"
                    self.caches[key] = value
        for key, fn in self.caches.items():
            info = fn.cache_info()
            self.cache_base[key] = (info.hits, info.misses)

        for short, names in FUNCTIONS.items():
            mod = modules.get(short)
            for name in names:
                original = getattr(mod, name, None)
                if original is None:
                    continue
                key = f"{short}.{name}"
                if name == self.library_call:
                    wrapper = self._spanned(key, "library", original)
                elif name == "character_row":
                    wrapper = self._spanned(key, "row", original)
                elif key in REPEAT_TRACKED:
                    wrapper = self._counted_args(key, original)
                else:
                    wrapper = self._counted(key, original)
                for other in modules.values():
                    for attr, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, attr, wrapper)

        for short, names in CLASSES.items():
            mod = modules.get(short)
            for cls_name in names:
                cls = getattr(mod, cls_name, None)
                if cls is not None:
                    self._wrap_class(f"{short}.{cls_name}", cls)

    def _wrap_class(self, prefix: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if isinstance(value, staticmethod):
                wrapped = staticmethod(self._counted(f"{prefix}.{attr}", value.__func__))
            elif isinstance(value, classmethod):
                wrapped = classmethod(self._counted(f"{prefix}.{attr}", value.__func__))
            elif callable(value) and not isinstance(value, type):
                wrapped = self._counted(f"{prefix}.{attr}", value)
            else:
                continue
            setattr(cls, attr, wrapped)

    # --------------------------------------------------------------- wrappers

    def _counted(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed

        return functools.wraps(fn)(wrapper)

    def _counted_args(self, key: str, fn):
        """Like _counted, and also counts calls that repeat earlier arguments:
        the hit ratio a cache at this boundary would reach."""
        inner = self._counted(key, fn)
        seen = self.repeats.setdefault(key, [set(), 0])

        def wrapper(*args, **kwargs):
            try:
                arg_key = (args, tuple(sorted(kwargs.items())))
                if arg_key in seen[0]:
                    seen[1] += 1
                else:
                    seen[0].add(arg_key)
            except TypeError:  # unhashable arguments: counted as misses
                pass
            return inner(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _spanned(self, key: str, span_name: str, fn):
        """Aggregated like _counted, and each call also kept as a full span."""
        inner = self._counted(key, fn)

        def wrapper(*args, **kwargs):
            with self.span(span_name):
                out = inner(*args, **kwargs)
            if span_name == "library":
                self.library_end = time.perf_counter()
            return out

        return functools.wraps(fn)(wrapper)

    @contextlib.contextmanager
    def span(self, name: str):
        """Keep the enclosed interval as a full span."""
        record = {"id": len(self.spans), "name": name,
                  "parent": self.open_spans[-1] if self.open_spans else None}
        self.spans.append(record)
        self.open_spans.append(record["id"])
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.open_spans.pop()
            record["start"] = start - self.t0
            record["end"] = end - self.t0

    def add_span(self, name: str, start: float, end: float, parent: int | None) -> None:
        """Keep a span whose interval was measured elsewhere (perf_counter)."""
        self.spans.append(
            {"id": len(self.spans), "name": name, "parent": parent,
             "start": start - self.t0, "end": end - self.t0}
        )

    # ---------------------------------------------------------------- results

    def _calls(self, *keys: str) -> int:
        return sum(self.stats.get(k, (0, 0.0))[0] for k in keys)

    def _self(self, *keys: str) -> float:
        return sum(self.stats.get(k, (0, 0.0))[1] for k in keys)

    def _self_prefix(self, prefix: str) -> float:
        return sum(s[1] for k, s in self.stats.items() if k.startswith(prefix))

    def _cache_delta(self, key: str) -> tuple[int, int]:
        fn = self.caches.get(key)
        if fn is None:
            return 0, 0
        info = fn.cache_info()
        hits0, misses0 = self.cache_base[key]
        return info.hits - hits0, info.misses - misses0

    def _hit_ratio(self, key: str) -> float:
        """Cache hits over lookups for a cached function; otherwise the share
        of calls that repeat earlier arguments. 0 when there were no calls."""
        if key in self.caches:
            hits, misses = self._cache_delta(key)
        else:
            hits = self.repeats.get(key, [set(), 0])[1]
            misses = self._calls(key) - hits
        return hits / (hits + misses) if hits + misses else 0.0

    def _span_total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def metrics(self) -> dict[str, float]:
        """Per-layer values of this run; a layer the workload never reaches,
        or a function that no longer exists, reads 0."""
        cyc, qp = "exactnum.Cyclotomic.", "exactnum.QPoly."
        hits = misses = 0
        for key in TRANSITION_CACHES:
            h, m = self._cache_delta(key)
            hits, misses = hits + h, misses + m
        transition_entries = sum(
            self.caches[key].cache_info().currsize
            for key in TRANSITION_CACHES
            if key in self.caches
        )
        workload = self._span_total("workload")
        library = self._span_total("library")
        return {
            "exactnum.cyc_mul.calls": self._calls(cyc + "__mul__", cyc + "__rmul__"),
            "exactnum.cyc_add.calls": self._calls(cyc + "__add__", cyc + "__radd__"),
            "exactnum.cyc_lift.calls": self._calls(cyc + "lift"),
            "exactnum.cyc_new.calls": self._calls(cyc + "__init__"),
            "exactnum.cyc.self_s": self._self_prefix(cyc),
            "exactnum.qpoly_mul.calls": self._calls(qp + "__mul__", qp + "__rmul__"),
            "exactnum.qpoly.self_s": self._self_prefix(qp),
            "symfunc.hall_polynomial.self_s": self._self("symfunc.hall_polynomial"),
            "symfunc.hall_polynomial.hit_ratio": self._hit_ratio("symfunc.hall_polynomial"),
            "symfunc.green_poly.self_s": self._self("symfunc.green_poly"),
            "symfunc.green_poly.hit_ratio": self._hit_ratio("symfunc.green_poly"),
            "orbits.transform.self_s": self._self("orbits.transform_p"),
            "orbits.transform.hit_ratio": self._hit_ratio("orbits.transform_p"),
            "multipartitions.enumerate_mp.self_s": self._self("multipartitions.enumerate_mp"),
            "multipartitions.class_size.self_s": self._self("multipartitions.class_size"),
            "charmap.character_row.self_s": self._self("charmap.character_row"),
            "charmap.to_basis.calls": self._calls("charmap.to_basis"),
            "charmap.to_basis.self_s": self._self("charmap.to_basis"),
            "charmap.circ_product.self_s": self._self("charmap.circ_product"),
            "charmap.star_product.self_s": self._self("charmap.star_product"),
            "charmap.transition.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "charmap.transition.entries": transition_entries,
            "reptables.gelfand_graev.self_s": self._self("reptables.gelfand_graev"),
            "reptables.irreducible_multiplicities.self_s": self._self(
                "reptables.irreducible_multiplicities"
            ),
            "reptables.degree_hook.self_s": self._self("reptables.degree_hook"),
            "cli.render.self_s": workload - library if library else 0.0,
            "cache.entries": sum(fn.cache_info().currsize for fn in self.caches.values()),
        }

