"""Outside-in tracing of fatwedge: spans recorded by wrapping public names.

The program is not modified.  ``install`` replaces each traced public name in
every ``fatwedge`` module namespace that binds the same object, so calls made
from inside the package are caught as well as the benchmark's own calls (for
example ``full_subcomplex`` is bound in six modules).  Spans live in memory
as flat arrays and are written out once, at the end of the process.

A span's self time is its duration minus the time its wrapped children
cover.  Work done by the tracer itself after a call (reading argument and
result shapes) is charged to no span and reported as ``bookkeeping_s``.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

#: public names traced, per defining module
TRACED = {
    "complexes": ("full_subcomplex", "minimal_nonfaces", "alexander_dual",
                  "flag_complex", "perfect_elimination_order",
                  "max_neighborliness", "join"),
    "homology": ("ChainComplex", "simplicial_chain_complex",
                 "reduced_homology", "full_subcomplex_homology",
                 "chain_homology", "HomologyBasis", "is_zero_on_homology",
                 "dK"),
    "snf": ("complex_rank_divisors", "smith_normal_form",
            "sparse_rank_divisors"),
    "rmac": ("build_rmac", "cubical_chain_complex", "cubical_homology",
             "hochster_identity_check"),
    "tor": ("build_tor", "golod_via_tor", "golod_via_join", "torsion_primes"),
    "criteria": ("shelling_search", "collapse_search", "fill_search",
                 "is_dual_shellable", "is_dual_scm", "is_scm",
                 "is_homology_fillable"),
    "certify": ("certify_fwf_trivial", "golod_report"),
    "cli": ("run_command",),
}

#: names whose spans are named after the calling module, because the same
#: object does different work there: ChainComplex builds simplicial chains in
#: homology, the cubical complex (with its d^2 check) in rmac and Koszul
#: pieces in tor
BY_CALLER = frozenset({"ChainComplex", "chain_homology"})

#: rule of the certifier that owns a call made from certify's namespace,
#: as the name of the rule constant in fatwedge.certify
RULE_OF_CALL = {
    "is_dual_shellable": "RULE_DUAL_SHELLABLE",
    "is_dual_scm": "RULE_DUAL_SCM",
    "fill_search": "RULE_FILLABLE",
    "is_homology_fillable": "RULE_HOMOLOGY_FILLABLE",
    "dK": "RULE_NEIGHBORLY",
    "max_neighborliness": "RULE_NEIGHBORLY",
    "perfect_elimination_order": "RULE_FLAG",
    "flag_complex": "RULE_FLAG",
    "minimal_nonfaces": "RULE_LOW_DUAL",
}

OP = "op"


def _search_counts(c, name, result):
    c[name + ".nodes"] += result.nodes
    c[name + ".found"] += result.status == "found"
    c[name + ".exhausted"] += result.status == "exhausted"


def _rank_divisors_in(c, name, args):
    boundaries, dims = args[0], args[1]
    c[name + ".cells_in"] += sum(dims.values())
    c[name + ".nonzeros_in"] += sum(len(col) for cols in boundaries.values()
                                    for col in cols)


def _residue_shape(c, name, args):
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    c[name + ".residue_entries"] += rows * cols
    c.maxima[name + ".residue_max_side"] = max(
        c.maxima.get(name + ".residue_max_side", 0), rows, cols)


#: span name -> hook(counters, span name, positional args, result); the
#: program passes these arguments positionally
HOOKS = {
    "criteria.shelling_search": lambda c, n, a, r: _search_counts(c, n, r),
    "criteria.collapse_search": lambda c, n, a, r: _search_counts(c, n, r),
    "criteria.fill_search": lambda c, n, a, r: _search_counts(c, n, r),
    "criteria.is_homology_fillable":
        lambda c, n, a, r: c.add(n + ".certified", r.certified),
    "snf.complex_rank_divisors": lambda c, n, a, r: _rank_divisors_in(c, n, a),
    "snf.smith_normal_form": lambda c, n, a, r: _residue_shape(c, n, a),
    "rmac.build_rmac": lambda c, n, a, r: c.add(n + ".cells", r.total_faces()),
}


class Counters(defaultdict):
    """Summed counters plus a separate table of maxima."""

    def __init__(self):
        super().__init__(int)
        self.maxima: dict[str, float] = {}

    def add(self, key, value):
        self[key] += value


class Tracer:
    """In-memory span store; one per process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.counters = Counters()
        self.bookkeeping_s = 0.0
        self._stack: list[list] = []     # [span index, time covered by children]
        self.op_id = -1
        #: wrappers record only while an op runs, not during setup or checks
        self.active = False
        self.bindings = 0

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def enter(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.op_of.append(self.op_id)
        self.end.append(0.0)
        self.self_s.append(0.0)
        self._stack.append([i, 0.0])
        self.start.append(time.perf_counter())
        return i

    def exit(self, i: int) -> None:
        t = time.perf_counter()
        top = self._stack.pop()
        assert top[0] == i, "span stack out of order"
        dur = t - self.start[i]
        self.end[i] = t
        self.self_s[i] = dur - top[1]
        if self._stack:
            self._stack[-1][1] += dur

    def charge_bookkeeping(self, t0: float) -> None:
        """Exclude tracer work since t0 from the enclosing span's self time."""
        dt = time.perf_counter() - t0
        self.bookkeeping_s += dt
        if self._stack:
            self._stack[-1][1] += dt

    def op(self, op_id: int):
        """Root span of one op; wrappers record only inside it."""
        self.op_id = op_id
        return _Span(self, self.name_id(OP))

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    # -- output -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, plus counters."""
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(len(self.start)):
            n = self.name[i]
            calls[n] += 1
            total[n] += self.end[i] - self.start[i]
            self_s[n] += self.self_s[i]
        spans = {name: {"calls": calls[n], "total_s": total[n],
                        "self_s": self_s[n]}
                 for n, name in enumerate(self.names) if calls[n]}
        counters = dict(self.counters)
        counters.update(self._parent_counts())
        return {"spans": spans, "counters": counters,
                "maxima": dict(self.counters.maxima),
                "bookkeeping_s": self.bookkeeping_s,
                "span_count": len(self.start), "bindings": self.bindings}

    def _parent_counts(self) -> dict:
        """chain_homology calls made directly under reduced_homology."""
        ch = self._ids.get("homology.chain_homology")
        rh = self._ids.get("homology.reduced_homology")
        if ch is None or rh is None:
            return {}
        n = sum(1 for i in range(len(self.start)) if self.name[i] == ch
                and self.parent[i] >= 0 and self.name[self.parent[i]] == rh)
        return {"homology.chain_homology.under_reduced_homology": n}

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.start)):
                fh.write(json.dumps([self.name[i], self.start[i], self.end[i],
                                     self.parent[i], self.op_of[i]]) + "\n")


class _Span:
    __slots__ = ("tracer", "nid", "i", "outer")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.outer = self.tracer.active
        self.tracer.active = True
        self.i = self.tracer.enter(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.exit(self.i)
        self.tracer.active = self.outer
        return False


def _wrap(tracer: Tracer, fn, span_name: str, rule_counter: str | None):
    nid = tracer.name_id(span_name)
    hook = HOOKS.get(span_name)
    counters = tracer.counters

    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        i = tracer.enter(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(i)
        if hook is not None or rule_counter is not None:
            t0 = time.perf_counter()
            if hook is not None:
                hook(counters, span_name, args, result)
            if rule_counter is not None:
                counters[rule_counter] += tracer.end[i] - tracer.start[i]
            tracer.charge_bookkeeping(t0)
        return result

    traced.__name__ = getattr(fn, "__name__", span_name)
    traced.__qualname__ = getattr(fn, "__qualname__", span_name)
    traced.__doc__ = fn.__doc__
    traced.__wrapped__ = fn
    return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced name in every fatwedge namespace bound to it.

    Modules must already be imported; the benchmark imports them before
    tracing starts.  ``tracer.bindings`` counts the replaced bindings.
    """
    certify = sys.modules["fatwedge.certify"]
    targets = {}
    for mod, names in TRACED.items():
        module = sys.modules.get(f"fatwedge.{mod}")
        if module is None:
            continue
        for name in names:
            targets[id(getattr(module, name))] = (mod, name)
    for modname, module in sorted(sys.modules.items()):
        if not (modname == "fatwedge" or modname.startswith("fatwedge.")):
            continue
        caller = modname.rpartition(".")[2] if "." in modname else None
        for attr, obj in list(vars(module).items()):
            key = targets.get(id(obj))
            if key is None or key[1] != attr:
                continue
            defmod, name = key
            owner = caller if (name in BY_CALLER and caller) else defmod
            rule = None
            if caller == "certify" and name in RULE_OF_CALL:
                rule = f"certify.rule.{getattr(certify, RULE_OF_CALL[name])}.self_s"
            setattr(module, attr, _wrap(tracer, obj, f"{owner}.{name}", rule))
            tracer.bindings += 1
