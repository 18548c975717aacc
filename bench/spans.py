"""In-memory span tracer that times ucc's layers from outside the package.

A layer is timed by replacing one of its functions at the module attribute
its callers look it up through (``ucc.cli.chain_rule_check``,
``ucc.analytic.certify.f_mean_value``, ...).  Nothing under ``src/`` is
edited: :meth:`Tracer.installed` swaps the wrappers in for the duration of
a traced pass and puts the originals back afterwards.

Three kinds of wrapper exist:

* ``span``: one record ``[name, start, end, parent]`` per call, parent
  being the index of the enclosing open span (-1 at the top).  Used for
  calls that happen at most a few tens of thousands of times per pass.
* ``gen``: the function returns an iterator; every ``next()`` on it is a
  span, so lazy generators are charged where their work really happens.
* ``hot``: a call count and summed seconds only.  Used for the interval
  enclosures and the strip-scan ``f_ratio``, called ~10^5 times per pass,
  where a record per call would cost more than the call.

A wrapper may also ``note`` something about a call (a family size, a
support size); notes are kept per pass in call order.  A site whose
attribute no longer exists is skipped and reported, so the benchmark keeps
running when a later change deletes a function; its metrics then read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from time import perf_counter
from typing import Any, Callable, Iterator

# (module, attribute, kind, span name, note)
#   note(args, kwargs, result) -> (key, value) | None, called after the call
Site = tuple[str, str, str, str, "Callable[..., tuple[str, float] | None] | None"]


def _family_pairs(args, kwargs, result):
    fam = args[0] if args else kwargs["family"]
    return ("pairs", fam.size * fam.size)


def _union_support(args, kwargs, result):
    return ("union_support", result.support_size)


def _rendered_bytes(args, kwargs, result):
    return ("bytes_out", len(result.encode("utf-8")))


def _certificate(args, kwargs, result):
    return ("certificate", result)


def _samples(args, kwargs, result):
    return ("samples", result.samples)


def _encodings(args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    return ("encodings", (1 << (1 << n)) - 1)


SITES: tuple[Site, ...] = (
    ("ucc.report", "render", "span", "report.render", _rendered_bytes),
    ("ucc.cli", "load_family", "span", "setfamily.load_family", None),
    ("ucc.cli", "element_frequencies", "span", "setfamily.element_frequencies", None),
    ("ucc.cli", "closure_fraction", "span", "setfamily.closure_fraction", _family_pairs),
    ("ucc.cli", "closure_fraction_unordered", "span",
     "setfamily.closure_fraction_unordered", _family_pairs),
    ("ucc.cli", "union_distribution", "span", "entropy.union_distribution", _union_support),
    ("ucc.cli", "check_lower_bound", "span", "entropy.check_lower_bound", None),
    ("ucc.cli", "check_upper_bound", "span", "entropy.check_upper_bound", None),
    ("ucc.cli", "chain_rule_check", "span", "entropy.chain_rule_check", None),
    ("ucc.cli", "check_theorem", "span", "entropy.check_theorem", None),
    ("ucc.entropy", "closure_fraction", "span", "setfamily.closure_fraction", _family_pairs),
    ("ucc.entropy", "element_frequencies", "span", "setfamily.element_frequencies", None),
    ("ucc.entropy", "union_distribution", "span", "entropy.union_distribution", _union_support),
    ("ucc.entropy", "_pair_union_counts", "span", "entropy.pair_union_counts", _family_pairs),
    ("ucc.cli", "certify_lower_bound", "span", "certify.certify_lower_bound", _certificate),
    ("ucc.analytic.certify", "_locate_minimum", "span", "certify.localize", None),
    ("ucc.analytic.certify", "f_box_enclosure", "hot", "intervals.f_box_enclosure", None),
    ("ucc.analytic.certify", "f_box_refined", "hot", "intervals.f_box_refined", None),
    ("ucc.analytic.certify", "f_mean_value", "hot", "intervals.f_mean_value", None),
    ("ucc.analytic.certify", "f_ratio", "hot", "certify.strip_scan", None),
    ("ucc.cli", "minimize_diagonal", "span", "scalars.minimize_diagonal", None),
    ("ucc.cli", "corollary_grid_check", "span", "scalars.corollary_grid_check", None),
    ("ucc.cli", "random_families", "gen", "generators.random_families", None),
    ("ucc.generators", "union_closure", "span", "setfamily.union_closure", None),
    ("ucc.cli", "enumerate_union_closed", "gen", "generators.enumerate", _encodings),
    ("ucc.cli", "example_stats", "span", "generators.example_stats", _samples),
)

#: span names whose every call walks all |F|^2 ordered pairs of a family
SETFAMILY_WALKS = ("setfamily.closure_fraction", "setfamily.closure_fraction_unordered")
PAIR_WALKS = (*SETFAMILY_WALKS, "entropy.pair_union_counts")
ENCLOSURES = ("intervals.f_box_enclosure", "intervals.f_box_refined",
              "intervals.f_mean_value")


class Tracer:
    """Span and counter store for one traced pass (see module docstring)."""

    def __init__(self) -> None:
        self._clear()

    def _clear(self) -> None:
        self.spans: list[list[Any]] = []
        self.hot: dict[str, list[float]] = {}
        self.notes: list[tuple[str, str, Any]] = []  # (span name, key, value)
        self.missing: list[str] = []
        self._stack: list[int] = []

    # -- wrappers -------------------------------------------------------
    def _open(self, name: str) -> list[Any]:
        rec = [name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list[Any]) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable, note=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if note is not None:
                self.notes.append((name, *note(args, kwargs, result)))
            return result
        return wrapper

    def gen(self, name: str, fn: Callable, note=None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                self.notes.append((name, *note(args, kwargs, None)))
            return self._iterate(name, fn(*args, **kwargs))
        return wrapper

    def _iterate(self, name: str, source) -> Iterator:
        it = iter(source)
        while True:
            rec = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(rec)
            self.notes.append((name, "items", 1))
            yield item

    def hot_counter(self, name: str, fn: Callable, note=None) -> Callable:
        cell = self.hot.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[0] += 1
                cell[1] += perf_counter() - t0
        return wrapper

    # -- installation ---------------------------------------------------
    @contextlib.contextmanager
    def installed(self, sites: tuple[Site, ...] = SITES):
        """Start a new pass: clear the records, swap every site's wrapper in,
        and restore the originals on exit."""
        self._clear()
        factories = {"span": self.span, "gen": self.gen, "hot": self.hot_counter}
        undo: list[tuple[Any, str, Any]] = []
        try:
            for module_name, attr, kind, name, note in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                undo.append((module, attr, original))
                setattr(module, attr, factories[kind](name, original, note))
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    # -- summaries ------------------------------------------------------
    def total(self, name: str) -> float:
        """Summed duration of the named spans (inclusive of their children)."""
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def count(self, name: str) -> int:
        return sum(1 for rec in self.spans if rec[0] == name)

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus the time their child spans cover."""
        own = {i for i, rec in enumerate(self.spans) if rec[0] == name}
        total = sum(self.spans[i][2] - self.spans[i][1] for i in own)
        covered = sum(end - start for _, start, end, parent in self.spans
                      if parent in own)
        return total - covered

    def noted(self, name: str, key: str) -> list[Any]:
        return [value for n, k, value in self.notes if n == name and k == key]

    def dump(self) -> dict[str, Any]:
        """JSON-ready copy of everything recorded in the pass."""
        return {
            "spans": [[n, round(s, 9), round(e, 9), p] for n, s, e, p in self.spans],
            "hot": {k: {"calls": int(v[0]), "seconds": v[1]} for k, v in self.hot.items()},
            "missing_sites": list(self.missing),
        }


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    m: dict[str, tuple[float, str]] = {}

    def secs(metric: str, span: str) -> None:
        m[metric] = (tr.total(span), "s")

    m["cli.self_s"] = (tr.self_time("cli.run_cli"), "s")
    secs("report.render_s", "report.render")
    m["report.bytes_out"] = (sum(tr.noted("report.render", "bytes_out")), "bytes")

    for fn in ("load_family", "closure_fraction", "closure_fraction_unordered",
               "element_frequencies", "union_closure"):
        secs(f"setfamily.{fn}_s", f"setfamily.{fn}")
    m["setfamily.pair_passes"] = (sum(tr.count(n) for n in SETFAMILY_WALKS), "count")

    for fn in ("union_distribution", "check_lower_bound", "check_upper_bound",
               "chain_rule_check", "check_theorem"):
        secs(f"entropy.{fn}_s", f"entropy.{fn}")
    pairs = sum(sum(tr.noted(n, "pairs")) for n in PAIR_WALKS)
    m["entropy.pair_passes"] = (sum(tr.count(n) for n in PAIR_WALKS), "count")
    m["entropy.pairs_per_s"] = (_rate(pairs, sum(tr.total(n) for n in PAIR_WALKS)), "1/s")
    m["entropy.union_support"] = (
        sum(tr.noted("entropy.union_distribution", "union_support")), "count")

    calls = {n: tr.hot.get(n, [0, 0.0]) for n in (*ENCLOSURES, "certify.strip_scan")}
    for n in ENCLOSURES:
        m[f"{n}_calls"] = (calls[n][0], "count")
    enc_calls = sum(calls[n][0] for n in ENCLOSURES)
    enc_secs = sum(calls[n][1] for n in ENCLOSURES)
    m["intervals.enclosure_us"] = (_rate(enc_secs * 1e6, enc_calls), "us")

    certs = tr.noted("certify.certify_lower_bound", "certificate")
    processed = sum(c.boxes_processed for c in certs)
    accepted = sum(c.accepted_boxes for c in certs)
    localize = tr.total("certify.localize")
    strip = calls["certify.strip_scan"][1]
    sweep = tr.total("certify.certify_lower_bound") - localize - strip
    m["certify.boxes_processed"] = (processed, "count")
    m["certify.accepted_boxes"] = (accepted, "count")
    m["certify.accept_ratio"] = (_rate(accepted, processed), "ratio")
    m["certify.boxes_per_s"] = (_rate(processed, sweep), "1/s")
    m["certify.max_depth_used"] = (max((c.max_depth_used for c in certs), default=0), "count")
    m["certify.localize_s"] = (localize, "s")
    m["certify.strip_scan_s"] = (strip, "s")

    secs("scalars.minimize_diagonal_s", "scalars.minimize_diagonal")
    secs("scalars.corollary_grid_check_s", "scalars.corollary_grid_check")

    m["generators.random_families_per_s"] = (_rate(
        len(tr.noted("generators.random_families", "items")),
        tr.total("generators.random_families")), "1/s")
    enum_s = tr.total("generators.enumerate")
    m["generators.enumerate_s"] = (enum_s, "s")
    m["generators.enumerate_encodings_per_s"] = (
        _rate(sum(tr.noted("generators.enumerate", "encodings")), enum_s), "1/s")
    m["generators.example_samples_per_s"] = (_rate(
        sum(tr.noted("generators.example_stats", "samples")),
        tr.total("generators.example_stats")), "1/s")
    return m
