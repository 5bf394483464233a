"""Spans recorded from outside the program, and the per-layer metrics.

`Tracer.install` replaces every public function of the matchex modules,
in every module namespace that holds a reference to it, with a wrapper
that records a span: name, start, end, parent span and the benchmark item
it ran for.  The `visit` callback handed to the enumerator is wrapped too,
so predicate time splits from enumerator self time; visits are not spans
of their own (there are hundreds of thousands per pass) but a count and a
busy time on their enumeration span.  Spans stay in memory and are written
out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "families", "hunt", "matching", "multigraph", "verify")

# name -> unit, in the order they are printed
PER_LAYER = {
    "matching.enumerate_self_s": "s",
    "matching.enumerate_us_per_matching": "us",
    "matching.matchings_visited": "count",
    "verify.predicate_s": "s",
    "verify.predicate_us_per_matching": "us",
    "verify.cap_hits": "count",
    "matching.gallai_edmonds_s": "s",
    "matching.gallai_edmonds_calls": "count",
    "matching.tutte_berge_self_s": "s",
    "matching.solve_s": "s",
    "matching.solve_calls": "count",
    "verify.certificate_self_s": "s",
    "verify.certificate_calls": "count",
    "verify.certificate_hit_frac": "ratio",
    "verify.decide_self_s": "s",
    "hunt.sample_s": "s",
    "hunt.sample_ms_per_graph": "ms",
    "hunt.verify_s": "s",
    "hunt.self_s": "s",
    "multigraph.parse_s": "s",
    "multigraph.parse_calls": "count",
    "cli.self_s": "s",
    "families.build_s": "s",
    "trace.overhead_frac": "ratio",
}

ENUMERATOR = "matching.visit_maximum_matchings"
# one full blossom solve each; `deficiency` delegates to matching_number
SOLVES = ("matching.maximum_matching", "matching.matching_number")
CERTIFICATES = ("verify.strong_counterexample_certificate",
                "verify.weak_counterexample_certificate")
DECIDERS = ("verify.conjecture_holds", "verify.is_counterexample",
            "verify.all_maximum_matchings_saturate", "verify.check_subcubic_guarantee")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "item", "part",
                 "visits", "visit_s", "cap_hit", "hit")

    def __init__(self, sid, name, start, parent, item, part):
        self.sid, self.name, self.start, self.parent = sid, name, start, parent
        self.item, self.part = item, part
        self.end = start
        self.visits = 0
        self.visit_s = 0.0
        self.cap_hit = False  # enumeration ended at its cap
        self.hit = None       # result of a certificate: found or not

    def as_dict(self) -> dict:
        d = {k: getattr(self, k) for k in ("sid", "name", "start", "end", "parent", "item", "part")}
        if self.name == ENUMERATOR:
            d.update(visits=self.visits, visit_s=self.visit_s, cap_hit=self.cap_hit)
        if self.hit is not None:
            d["hit"] = self.hit
        return d


class Tracer:
    """Span recorder.  `item` and `part` label the spans that follow: the
    benchmark command they belong to and the pass (or setup round)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.item = ""
        self.part = ""
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self.stack[-1].sid if self.stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.item, self.part)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if name in CERTIFICATES:
                span.hit = result is not None
            return result

        @functools.wraps(fn)
        def traced_enumeration(g, visit, *args, **kwargs):
            stopped = False

            def timed_visit(m):
                nonlocal stopped
                t0 = time.perf_counter()
                keep = visit(m)
                span.visit_s += time.perf_counter() - t0
                span.visits += 1
                stopped = stopped or keep is False
                return keep

            span = tracer.open(name)
            try:
                stats = fn(g, timed_visit, *args, **kwargs)
            finally:
                tracer.close(span)
            # not exhaustive and not stopped by the visitor: the cap ended it
            span.cap_hit = not stats.exhaustive and not stopped
            return stats

        return traced_enumeration if name == ENUMERATOR else traced

    def install(self, mods) -> None:
        """Wrap the public functions of every layer, at every module that
        imported them (e.g. verify.deficiency and cli.gallai_edmonds)."""
        modules = [getattr(mods, layer) for layer in LAYERS]
        wrapped = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not obj.__name__.startswith("_")
                        and obj.__module__.startswith("matchex.")):
                    wrapped.setdefault(obj, None)
        for fn in wrapped:
            wrapped[fn] = self.wrap(fn, f"{fn.__module__.split('.')[-1]}.{fn.__name__}")
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped and not attr.startswith("_"):
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapped[obj])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the time covered by child spans (and, for an
    enumeration, by its visit callbacks)."""
    own = {s.sid: (s.end - s.start) - s.visit_s for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.end - s.start
    return own


def part_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass (all spans share one `part`)."""
    own = _self_times(spans)
    names = defaultdict(list)
    for s in spans:
        names[s.name].append(s)

    def total(group, self_time=False):
        return sum(own[s.sid] if self_time else s.end - s.start
                   for name in group for s in names[name])

    def calls(group):
        return sum(len(names[name]) for name in group)

    enums = names[ENUMERATOR]
    visits = sum(s.visits for s in enums)
    enum_self = total((ENUMERATOR,), self_time=True)
    predicate = sum(s.visit_s for s in enums)
    certs = [s for n in CERTIFICATES for s in names[n]]
    hunt_ids = {s.sid for s in names["hunt.hunt"]}
    sampled = names["hunt.random_regular_graph"]
    sample_s = total(("hunt.random_regular_graph",))
    return {
        "matching.enumerate_self_s": enum_self,
        "matching.enumerate_us_per_matching": enum_self / visits * 1e6 if visits else 0.0,
        "matching.matchings_visited": visits,
        "verify.predicate_s": predicate,
        "verify.predicate_us_per_matching": predicate / visits * 1e6 if visits else 0.0,
        "verify.cap_hits": sum(s.cap_hit for s in enums),
        "matching.gallai_edmonds_s": total(("matching.gallai_edmonds",)),
        "matching.gallai_edmonds_calls": calls(("matching.gallai_edmonds",)),
        "matching.tutte_berge_self_s": total(("matching.tutte_berge_witness",), self_time=True),
        "matching.solve_s": total(SOLVES),
        "matching.solve_calls": calls(SOLVES),
        "verify.certificate_self_s": total(CERTIFICATES, self_time=True),
        "verify.certificate_calls": len(certs),
        "verify.certificate_hit_frac": sum(s.hit for s in certs) / len(certs) if certs else 0.0,
        "verify.decide_self_s": total(DECIDERS, self_time=True),
        "hunt.sample_s": sample_s,
        "hunt.sample_ms_per_graph": sample_s / len(sampled) * 1e3 if sampled else 0.0,
        "hunt.verify_s": sum(s.end - s.start for s in spans
                             if s.parent in hunt_ids and s.name.startswith("verify.")),
        "hunt.self_s": total(("hunt.hunt",), self_time=True),
        "multigraph.parse_s": total(("multigraph.parse_mgf",)),
        "multigraph.parse_calls": calls(("multigraph.parse_mgf",)),
        "cli.self_s": total(("cli.main",), self_time=True),
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Median over the traced passes of each pass's layer metrics, plus
    the family build time of the setup rounds."""
    parts = defaultdict(list)
    for s in tracer.spans:
        parts[s.part].append(s)
    passes = [part_metrics(spans) for part, spans in parts.items() if part.startswith("pass")]
    out = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    builds = [sum(s.end - s.start for s in spans if s.name.startswith("families.")
                  and s.parent is None)
              for part, spans in parts.items() if part.startswith("setup")]
    out["families.build_s"] = statistics.median(builds) if builds else 0.0
    return out
