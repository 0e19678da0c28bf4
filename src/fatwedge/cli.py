"""Command-line interface: JSON complexes in, deterministic JSON reports out.

Exit codes: 0 = computed, 1 = negative verdict on a check command (not Golod,
nontrivial/refuted/none), 2 = usage or parse error, 3 = search budget
exhausted (fill, shell; certify never searches), 4 = internal error (an
uncaught exception, reported as {"error": "<Type>: <message>"}).  Output is
byte-identical for identical input and flags: keys are sorted and all
list-valued fields use canonical orderings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .complexes import (SimplicialComplex, alexander_dual, make_complex,
                        minimal_nonfaces, run, verts)
from .certify import (SpacePoincare, bbcg_summands, certify_fwf_trivial,
                      golod_report)
from .criteria import (DEFAULT_BUDGET, fill_search, is_dual_scm,
                       is_dual_shellable, is_scm, shelling_search,
                       strong_gcd_search)
from .homology import reduced_homology, ring_from_string
from .rmac import DEFAULT_MAX_M, hochster_identity_check
from . import corpus


class ParseError(ValueError):
    """Schema violation with a path-addressed message."""


@dataclass(frozen=True)
class ComplexDocument:
    name: str
    m: int
    generators: tuple[tuple[int, ...], ...]
    expected: dict | None = None

    def complex(self) -> SimplicialComplex:
        return make_complex(self.m, self.generators)

    def to_json(self) -> dict:
        out = {"name": self.name, "m": self.m,
               "generators": [list(g) for g in self.generators]}
        if self.expected is not None:
            out["expected"] = self.expected
        return out


def parse_complex(text: str) -> ComplexDocument:
    """Parse and validate a complex document; errors carry JSON paths."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"$: invalid JSON ({e.msg} at line {e.lineno})")
    if not isinstance(raw, dict):
        raise ParseError("$: document must be an object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError("$.name: required non-empty string")
    m = raw.get("m")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ParseError("$.m: must be a positive integer")
    gens_raw = raw.get("generators")
    if not isinstance(gens_raw, list):
        raise ParseError("$.generators: required list of vertex lists")
    gens = []
    for i, g in enumerate(gens_raw):
        if not isinstance(g, list):
            raise ParseError(f"$.generators[{i}]: must be a list of vertices")
        for j, v in enumerate(g):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ParseError(f"$.generators[{i}][{j}]: vertices are integers >= 1")
            if v > m:
                raise ParseError(f"$.generators[{i}][{j}]: vertex {v} > m={m}")
        if len(set(g)) != len(g):
            raise ParseError(f"$.generators[{i}]: repeated vertex")
        gens.append(tuple(sorted(g)))
    # deduplicate, canonical order
    gens = sorted(set(gens))
    expected = raw.get("expected")
    if expected is not None and not isinstance(expected, dict):
        raise ParseError("$.expected: must be an object when present")
    return ComplexDocument(name, m, tuple(gens), expected)


def _load(path: str) -> ComplexDocument:
    if path == "-":
        return parse_complex(sys.stdin.read())
    names = corpus.corpus_names()
    if path in names:
        return corpus.load(path)
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read())


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


# -- subcommand implementations ----------------------------------------------

def _cmd_homology(args) -> int:
    doc = _load(args.complex)
    ring = ring_from_string(args.coeff)
    prof = reduced_homology(doc.complex(), ring)
    _emit({"name": doc.name, "command": "homology", "ring": repr(ring),
           "reduced_homology": prof.to_json()})
    return 0


def _cmd_rmac(args) -> int:
    doc = _load(args.complex)
    ring = ring_from_string(args.coeff)
    rep = hochster_identity_check(doc.complex(), ring, max_m=args.max_m)
    _emit({"name": doc.name, "command": "rmac",
           "face_counts": {str(d): n for d, n in rep.face_counts.items()},
           "total_faces": sum(rep.face_counts.values()),
           "homology": rep.lhs.to_json(),
           "hochster_identity": rep.equal,
           "ring": repr(ring)})
    return 0


def _cmd_dual(args) -> int:
    doc = _load(args.complex)
    K = doc.complex()
    ambient = args.ambient if args.ambient is not None else K.m
    dual = alexander_dual(K, ambient)
    _emit({"name": doc.name, "command": "dual", "ambient": ambient,
           "m": dual.m, "facets": [list(verts(f)) for f in dual.facets]})
    return 0


def _cmd_nonfaces(args) -> int:
    doc = _load(args.complex)
    mnf = minimal_nonfaces(doc.complex())
    _emit({"name": doc.name, "command": "nonfaces",
           "minimal_nonfaces": [list(verts(M)) for M in mnf]})
    return 0


def _cmd_golod(args) -> int:
    doc = _load(args.complex)
    rep = golod_report(doc.complex())
    _emit({"name": doc.name, "command": "golod", **rep.to_json()})
    return 0 if rep.golod else 1


def _cmd_certify(args) -> int:
    doc = _load(args.complex)
    cert = certify_fwf_trivial(doc.complex(), all_rules=args.all_rules)
    _emit({"name": doc.name, "command": "certify", **cert.to_json()})
    return 1 if cert.verdict == "nontrivial" else 0


def _cmd_bbcg(args) -> int:
    doc = _load(args.complex)
    K = doc.complex()
    ring = ring_from_string(args.coeff)
    if args.betti is not None:
        polys = [SpacePoincare.from_string(s) for s in args.betti.split(";")]
        if len(polys) == 1:
            polys = polys * K.m
        if len(polys) != K.m:
            raise ParseError(f"$.betti: need 1 or {K.m} polynomials, "
                             f"got {len(polys)}")
    else:
        polys = [SpacePoincare.sphere(args.pair - 1)] * K.m
    rep = bbcg_summands(K, polys, ring)
    _emit({"name": doc.name, "command": "bbcg",
           "pair": None if args.betti is not None else args.pair,
           "betti": [p.poly_string() for p in polys],
           **rep.to_json()})
    return 0


def _cmd_fill(args) -> int:
    doc = _load(args.complex)
    if args.mode == "contractible":
        res = fill_search(doc.complex(), budget=args.budget_nodes)
    elif args.mode.startswith("p:"):
        res = fill_search(doc.complex(), p=int(args.mode[2:]),
                          budget=args.budget_nodes)
    else:
        raise ParseError("$.mode: expected 'contractible' or 'p:<prime>'")
    payload = {"name": doc.name, "command": "fill", "mode": args.mode,
               "status": res.status, "nodes": res.nodes}
    if res.found:
        cert = res.certificate
        payload["filling"] = [list(t) for t in cert.nonface_tuples()]
        if cert.collapse is not None:
            payload["collapse_of"] = cert.collapse_target
            payload["collapse_steps"] = len(cert.collapse.steps)
    _emit(payload)
    return {"found": 0, "refuted": 1, "exhausted": 3}[res.status]


def _cmd_shell(args) -> int:
    doc = _load(args.complex)
    K = doc.complex()
    res = is_dual_shellable(K, args.budget_nodes) if args.dual \
        else shelling_search(K, args.budget_nodes)
    payload = {"name": doc.name, "command": "shell", "dual": args.dual,
               "status": res.status, "nodes": res.nodes}
    if res.found:
        payload["shelling"] = [list(f) for f in res.certificate.facet_tuples()]
    _emit(payload)
    return {"found": 0, "none": 1, "exhausted": 3}[res.status]


def _cmd_scm(args) -> int:
    doc = _load(args.complex)
    K = doc.complex()
    ring = ring_from_string(args.coeff)
    if args.dual:
        verdict = is_dual_scm(K, ring)
        payload = {"name": doc.name, "command": "scm", "dual": True,
                   "ring": repr(ring), "scm": verdict}
    else:
        verdict = is_scm(K, ring)
        payload = {"name": doc.name, "command": "scm", "dual": False,
                   "ring": repr(ring), "scm": verdict,
                   "cm": verdict and K.is_pure, "pure": K.is_pure}
    _emit(payload)
    return 0 if verdict else 1


def _cmd_gcd(args) -> int:
    doc = _load(args.complex)
    res = strong_gcd_search(doc.complex())
    payload = {"name": doc.name, "command": "gcd", "status": res.status}
    if res.found:
        payload["order"] = [list(t) for t in res.certificate.nonface_tuples()]
    _emit(payload)
    return 0 if res.found else 1


def _cmd_corpus(args) -> int:
    if args.name:
        doc = corpus.load(args.name)
        if args.verify:
            results = corpus.verify_expected(doc)
            _emit({"command": "corpus", "name": doc.name,
                   "checks": [{"key": k, "ok": ok, "got": got}
                              for k, ok, got in results],
                   "all_ok": all(ok for _, ok, _ in results)})
            return 0 if all(ok for _, ok, _ in results) else 1
        _emit({"command": "corpus", **doc.to_json()})
        return 0
    if args.verify:
        summary = []
        all_ok = True
        for name in corpus.corpus_names():
            results = corpus.verify_expected(corpus.load(name))
            ok = all(r[1] for r in results)
            all_ok = all_ok and ok
            summary.append({"name": name, "ok": ok,
                            "failed": [k for k, good, _ in results if not good]})
        _emit({"command": "corpus", "verified": summary, "all_ok": all_ok})
        return 0 if all_ok else 1
    listing = []
    for name in corpus.corpus_names():
        doc = corpus.load(name)
        listing.append({"name": name, "m": doc.m,
                        "generators": len(doc.generators)})
    _emit({"command": "corpus", "complexes": listing})
    return 0


def _at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n
    parse.__name__ = "int"    # argparse names the type when int() fails
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fatwedge",
        description="Invariants of simplicial complexes and their real "
                    "moment-angle complexes: homology, Golodness, wedge "
                    "decompositions, and certified filtration triviality.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        return p

    def arg_complex(p):
        p.add_argument("complex",
                       help="path to a complex JSON file, '-' for stdin, "
                            "or a bundled corpus name")

    p = add("homology", _cmd_homology, "reduced simplicial homology")
    arg_complex(p)
    p.add_argument("--coeff", default="Z", help="Z | Q | Zp:<p>")

    p = add("rmac", _cmd_rmac, "real moment-angle complex: cells, homology, "
                               "subcomplex-sum identity")
    arg_complex(p)
    p.add_argument("--coeff", default="Z")
    p.add_argument("--max-m", type=_at_least(1), default=DEFAULT_MAX_M)

    p = add("dual", _cmd_dual, "Alexander dual facets")
    arg_complex(p)
    p.add_argument("--ambient", type=_at_least(1), default=None)

    p = add("nonfaces", _cmd_nonfaces, "minimal non-faces")
    arg_complex(p)

    p = add("golod", _cmd_golod, "Golodness report (two oracles)")
    arg_complex(p)

    p = add("certify", _cmd_certify, "certify fat wedge filtration triviality")
    arg_complex(p)
    p.add_argument("--all-rules", action="store_true")

    p = add("bbcg", _cmd_bbcg, "wedge decomposition report")
    arg_complex(p)
    p.add_argument("--coeff", default="Z")
    pair_or_betti = p.add_mutually_exclusive_group()
    pair_or_betti.add_argument("--pair", type=_at_least(1), default=1,
                               help="n for the pair (D^n, S^(n-1)); default 1")
    pair_or_betti.add_argument("--betti", default=None,
                               help="semicolon-separated Betti polynomials, "
                                    "one per vertex (or one for all)")

    p = add("fill", _cmd_fill, "search for a filling by minimal non-faces")
    arg_complex(p)
    p.add_argument("--mode", default="contractible",
                   help="'contractible' or 'p:<prime>'")
    p.add_argument("--budget-nodes", type=_at_least(0), default=DEFAULT_BUDGET)

    p = add("shell", _cmd_shell, "shelling order search")
    arg_complex(p)
    p.add_argument("--dual", action="store_true",
                   help="search the Alexander dual instead")
    p.add_argument("--budget-nodes", type=_at_least(0), default=DEFAULT_BUDGET)

    p = add("scm", _cmd_scm, "sequential Cohen-Macaulay check")
    arg_complex(p)
    p.add_argument("--coeff", default="Z")
    p.add_argument("--dual", action="store_true")

    p = add("gcd", _cmd_gcd, "strong gcd-condition search")
    arg_complex(p)

    p = add("corpus", _cmd_corpus, "list, dump, or verify bundled complexes")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--verify", action="store_true")
    return ap


@run()
def run_command(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, ValueError) as e:
        _emit({"error": str(e)})
        return 2
    except OSError as e:
        _emit({"error": f"cannot read {e.filename}"})
        return 2
    except Exception as e:
        # a crash (a failed soundness assertion, RecursionError, ...) must
        # not read as the negative verdict that exit code 1 stands for
        _emit({"error": f"{type(e).__name__}: {e}"})
        return 4


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
