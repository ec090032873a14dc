"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of splicekit's modules with
wrappers, in every module that holds the name, because a module calls what
its own namespace binds.  A span wrapper records name, start, end, parent
span, op id and the process's peak RSS at both ends; a counter wrapper only
counts calls (``RespectContext.respects`` and ``splice_words`` run up to
millions of times per op).  Spans stay in memory until ``write_spans``.

A wrapped name that a later version of splicekit no longer has is reported
as absent, and every metric that needs it is left out, never read as zero.
"""

from __future__ import annotations

import importlib
import inspect
import json
import resource
import time
from collections import Counter, defaultdict

# span name -> sites ("module:attribute") whose function the span wraps
SPAN_SITES = {
    "cli.main": ("splicekit.cli:main",),
    "cli.emit": ("splicekit.cli:_emit", "splicekit.cli:system_to_json",
                 "splicekit.cli:automaton_to_json"),
    "decide.decide_splicing": ("splicekit.cli:decide_splicing",
                               "splicekit.decide:decide_splicing",
                               "splicekit:decide_splicing"),
    "decide.canonical_rules": ("splicekit.decide:canonical_rules",),
    "monoid.syntactic_monoid": ("splicekit.cli:syntactic_monoid",
                                "splicekit.decide:syntactic_monoid",
                                "splicekit:syntactic_monoid"),
    "closure.build_closure": ("splicekit.cli:build_closure", "splicekit.decide:build_closure",
                              "splicekit.closure:build_closure"),
    "closure.closure_dfa": ("splicekit.decide:closure_dfa", "splicekit.closure:closure_dfa"),
    "closure.closure_language": ("splicekit:closure_language",
                                 "splicekit.closure:closure_language"),
    "automata.determinize": ("splicekit.cli:determinize", "splicekit.closure:determinize"),
    "automata.minimize": ("splicekit.cli:minimize", "splicekit.decide:minimize",
                          "splicekit.closure:minimize"),
    "automata.intersect": ("splicekit.decide:intersect",),
    "automata.compare": ("splicekit.decide:equivalent", "splicekit.decide:difference_witness"),
    "automata.enumerate_words": ("splicekit:enumerate_words",
                                 "splicekit.automata:enumerate_words"),
    "splicing.bounded_closure": ("splicekit:bounded_closure", "splicekit.splicing:bounded_closure",
                                 "splicekit.cli:bounded_closure"),
}

COUNTER_SITES = {
    "respect.queries": "splicekit.respect:RespectContext.respects",
    "splicing.splice_calls": "splicekit.splicing:splice_words",
}

# per-layer metric -> the spans and counters it needs
METRIC_NEEDS = {
    "decide.rules_s": ("decide.canonical_rules",),
    "decide.candidates": ("decide.canonical_rules",),
    "decide.rule_yield": ("decide.canonical_rules", "decide.candidates"),
    "decide.self_s": ("decide.decide_splicing",),
    "respect.queries": ("respect.queries",),
    "respect.class_tuples": ("respect.queries",),
    "respect.cache_hit_ratio": ("respect.queries", "respect.class_tuples"),
    "closure.build_s": ("closure.build_closure",),
    "closure.calls": ("closure.build_closure",),
    "closure.states": ("closure.build_closure",),
    "closure.rounds": ("closure.build_closure",),
    "closure.eps_added": ("closure.build_closure",),
    "closure.dfa_s": ("closure.closure_dfa",),
    "closure.self_s": ("closure.build_closure",),
    "closure.rss_rise_mb": ("closure.build_closure",),
    "automata.determinize_s": ("automata.determinize",),
    "automata.subsets": ("automata.determinize", "closure.closure_dfa"),
    "automata.minimize_s": ("automata.minimize",),
    "automata.compare_s": ("automata.compare",),
    "automata.enumerate_s": ("automata.enumerate_words",),
    "automata.self_s": ("automata.determinize",),
    "automata.rss_rise_mb": ("automata.determinize",),
    "monoid.s": ("monoid.syntactic_monoid",),
    "monoid.calls": ("monoid.syntactic_monoid",),
    "cli.self_s": ("cli.main",),
    "cli.emit_s": ("cli.emit",),
    "cli.emit_bytes": (),
    "splicing.oracle_s": ("splicing.bounded_closure",),
    "splicing.oracle_calls": ("splicing.bounded_closure",),
    "splicing.splice_calls": ("splicing.splice_calls",),
    "splicing.self_s": ("splicing.bounded_closure",),
}


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _words_shorter_than(alphabet_size: int, bound: int) -> int:
    return sum(alphabet_size ** n for n in range(bound))


def _rule_counts(fn, args, kwargs, result) -> dict:
    """Candidate word tuples (from the bounds argument) and rules returned."""
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    out = {"rules": len(result)}
    alphabet, bounds = bound.get("alphabet"), bound.get("bounds")
    lts = getattr(bounds, "component_lts", None)
    if alphabet is not None and lts is not None:
        total = 1
        for lt in lts:
            total *= _words_shorter_than(len(alphabet), lt)
        out["candidates"] = total
    return out


def _closure_counts(fn, args, kwargs, result) -> dict:
    out = {}
    base = getattr(result, "base", None)
    if base is not None:
        out["states"] = base.state_count
    if hasattr(result, "rounds"):
        out["rounds"] = result.rounds
    if hasattr(result, "added"):
        out["eps_added"] = len(result.added)
    return out


def _dfa_states(fn, args, kwargs, result) -> dict:
    return {"states": result.state_count}


EXTRACTORS = {
    "decide.canonical_rules": _rule_counts,
    "closure.build_closure": _closure_counts,
    "automata.determinize": _dfa_states,
}


def _resolve(site: str):
    """(owner object, attribute name) for "module:attr.attr", or None."""
    module_name, path = site.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Spans and counters for the ops of one process."""

    def __init__(self):
        # span: [name, start, end, parent index, op, rss_kb_start, rss_kb_end, counts]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self.counts: Counter = Counter()
        self.op_counts: dict = {}
        self._contexts: dict[int, tuple] = {}
        self.absent: list[str] = []
        self.missing: set[str] = set()

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for name, sites in SPAN_SITES.items():
            found = 0
            for site in sites:
                target = _resolve(site)
                if target is None:
                    self.absent.append(site)
                    continue
                owner, attr = target
                setattr(owner, attr, self._span(name, getattr(owner, attr)))
                found += 1
            if not found:
                self.missing.add(name)
        for name, site in COUNTER_SITES.items():
            target = _resolve(site)
            if target is None:
                self.absent.append(site)
                self.missing.add(name)
                continue
            owner, attr = target
            make = self._respect_counter if name == "respect.queries" else self._counter
            setattr(owner, attr, make(name, getattr(owner, attr)))

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        extract = EXTRACTORS.get(name)

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                      _peak_rss_kb(), 0, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                record[6] = _peak_rss_kb()
                stack.pop()
            if extract is not None:
                record[7] = extract(fn, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _respect_counter(self, name, fn):
        """Counts queries and remembers each context with its cache size when
        first queried in this op, for class tuples and cache hits."""
        counts, contexts = self.counts, self._contexts

        def wrapper(ctx, *args, **kwargs):
            counts[name] += 1
            if id(ctx) not in contexts:
                cache = getattr(ctx, "cache", None)
                contexts[id(ctx)] = (ctx, None if cache is None else len(cache))
            return fn(ctx, *args, **kwargs)

        return wrapper

    # -- ops -----------------------------------------------------------------

    def begin_op(self, op) -> None:
        self.op = op
        self.counts.clear()
        self._contexts.clear()

    def end_op(self, extra: dict) -> None:
        counts = dict(self.counts)
        counts.update(extra)
        tuples = misses = 0
        for ctx, start in self._contexts.values():
            if start is None:
                tuples = misses = None
                break
            tuples += len(ctx.cache)
            misses += len(ctx.cache) - start
        if tuples is not None:
            counts["respect.class_tuples"] = tuples
            counts["respect.misses"] = misses
        self.op_counts[self.op] = counts
        self._contexts.clear()
        self.op = None

    # -- results -------------------------------------------------------------

    def metrics(self, ops) -> dict[str, float]:
        """Per-layer metrics over the given op ids; any with an unmet need is
        left out."""
        ops = set(ops)
        missing = set(self.missing)
        child_s = defaultdict(float)
        child_kb = defaultdict(float)
        for span in self.spans:
            if span[3] >= 0:
                child_s[span[3]] += span[2] - span[1]
                child_kb[span[3]] += span[6] - span[5]
        total_s = defaultdict(float)
        self_s = defaultdict(float)
        self_kb = defaultdict(float)
        calls = Counter()
        largest_closure: dict = {}
        candidates = rules = subsets = 0
        for index, (name, start, end, _parent, op, kb0, kb1, counts) in enumerate(self.spans):
            if op not in ops:
                continue
            layer = name.split(".")[0]
            total_s[name] += end - start
            calls[name] += 1
            self_s[name] += end - start - child_s[index]
            self_s[layer] += end - start - child_s[index]
            self_kb[layer] += kb1 - kb0 - child_kb[index]
            if name == "decide.canonical_rules":
                rules += counts["rules"]
                if "candidates" not in counts:
                    missing.add("decide.candidates")
                candidates += counts.get("candidates", 0)
            elif name == "closure.build_closure":
                best = largest_closure.get(op)
                if best is None or counts.get("states", 0) > best.get("states", 0):
                    largest_closure[op] = counts
            elif name == "automata.determinize" and self._under(index, "closure.closure_dfa"):
                subsets += counts["states"]
        op_counts = Counter()
        for op in ops:
            counts = self.op_counts.get(op, {})
            if counts.get("respect.queries") and "respect.class_tuples" not in counts:
                missing.add("respect.class_tuples")
            op_counts.update(counts)
        closure = {}
        for key in ("states", "rounds", "eps_added"):
            if any(key not in c for c in largest_closure.values()):
                missing.add(f"closure.{key}")
            closure[key] = sum(c.get(key, 0) for c in largest_closure.values())
        queries = op_counts["respect.queries"]
        out = {
            "decide.rules_s": total_s["decide.canonical_rules"],
            "decide.candidates": candidates,
            "decide.rule_yield": rules / candidates if candidates else 0.0,
            "decide.self_s": self_s["decide"],
            "respect.queries": queries,
            "respect.class_tuples": op_counts["respect.class_tuples"],
            "respect.cache_hit_ratio":
                (queries - op_counts["respect.misses"]) / queries if queries else 0.0,
            "closure.build_s": total_s["closure.build_closure"],
            "closure.calls": calls["closure.build_closure"],
            "closure.states": closure["states"],
            "closure.rounds": closure["rounds"],
            "closure.eps_added": closure["eps_added"],
            "closure.dfa_s": total_s["closure.closure_dfa"],
            "closure.self_s": self_s["closure"],
            "closure.rss_rise_mb": self_kb["closure"] / 1024,
            "automata.determinize_s": total_s["automata.determinize"],
            "automata.subsets": subsets,
            "automata.minimize_s": total_s["automata.minimize"],
            "automata.compare_s": total_s["automata.compare"],
            "automata.enumerate_s": total_s["automata.enumerate_words"],
            "automata.self_s": self_s["automata"],
            "automata.rss_rise_mb": self_kb["automata"] / 1024,
            "monoid.s": total_s["monoid.syntactic_monoid"],
            "monoid.calls": calls["monoid.syntactic_monoid"],
            "cli.self_s": self_s["cli.main"],
            "cli.emit_s": total_s["cli.emit"],
            "cli.emit_bytes": op_counts["cli.emit_bytes"],
            "splicing.oracle_s": total_s["splicing.bounded_closure"],
            "splicing.oracle_calls": calls["splicing.bounded_closure"],
            "splicing.splice_calls": op_counts["splicing.splice_calls"],
            "splicing.self_s": self_s["splicing"],
        }
        return {
            name: value for name, value in out.items()
            if name not in missing and not any(need in missing for need in METRIC_NEEDS[name])
        }

    def _under(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, kb0, kb1, counts in self.spans:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "op": op, "peak_rss_kb": [kb0, kb1], "counts": counts,
                }) + "\n")
