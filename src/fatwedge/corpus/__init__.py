"""Bundled corpus of named complexes with regression expectations.

Each data file carries an "expected" block whose keys name checks the
verifier knows how to run; a corpus file is therefore a self-contained
regression test.  The 6-vertex projective plane facet list is transcribed
from its standard hexagonal diagram and is itself validated by the expected
homology (H~_1 = Z/2), not trusted blindly; the 10-vertex Golod complex is
reconstructed from its six minimal non-faces through a double Alexander dual.
"""

from __future__ import annotations

import json
from importlib import resources

from ..complexes import (alexander_dual, make_complex, max_neighborliness,
                        minimal_nonfaces, run, shared, verts)
from ..criteria import (collapse_search, fill_search, is_dual_scm,
                       is_dual_shellable, strong_gcd_search)
from ..homology import ZZ, dK, reduced_homology
from ..rmac import hochster_identity_check


def corpus_names() -> tuple[str, ...]:
    files = resources.files("fatwedge.corpus")
    return tuple(sorted(p.name[:-5] for p in files.iterdir()
                        if p.name.endswith(".json")))


def load(name: str):
    """The bundled complex called name; any other name raises ValueError."""
    from ..cli import parse_complex
    if name not in corpus_names():
        raise ValueError(f"no corpus complex named {name!r}")
    files = resources.files("fatwedge.corpus")
    return parse_complex(files.joinpath(f"{name}.json").read_text("utf-8"))


def _check_homology(K, want: dict):
    prof = reduced_homology(K, ZZ)
    got = {str(q): {"free": prof.betti(q), "torsion": list(prof.torsion_at(q))}
           for q in prof.nonzero_degrees()}
    return got == want, got


_CHECKS = {}


def _register(key):
    def deco(fn):
        _CHECKS[key] = fn
        return fn
    return deco


@_register("homology_Z")
def _c_homology(K, want):
    return _check_homology(K, want)


@_register("minimal_nonfaces")
def _c_mnf(K, want):
    got = [list(verts(M)) for M in minimal_nonfaces(K)]
    return got == sorted(map(sorted, want)), got


@_register("max_neighborliness")
def _c_nb(K, want):
    got = max_neighborliness(K)
    return got == want, got


@_register("dK")
def _c_dk(K, want):
    d = dK(K)
    got = "acyclic" if d is None else d
    return got == want, got


@_register("golod")
def _c_golod(K, want):
    """The certificate's Golod report, built here only when it has none
    (a complex with a ghost on which a rule fired)."""
    from ..certify import golod_report
    report = _certificate(K).golod
    if report is None:
        report = golod_report(K)
    got = report.golod
    return got == want, got


@_register("chordal")
def _c_chordal(K, want):
    from ..complexes import is_chordal
    got = is_chordal(K.skeleton(1))
    return got == want, got


def _certificate(K):
    """One certificate per complex, shared by the two checks that read it."""
    from ..certify import certify_fwf_trivial
    return shared(("certificate", K), lambda: certify_fwf_trivial(K))


@_register("certify_verdict")
def _c_verdict(K, want):
    got = _certificate(K).verdict
    return got == want, got


@_register("certify_rule")
def _c_rule(K, want):
    got = _certificate(K).rule
    return got == want, got


@_register("dual_scm_Z")
def _c_dual_scm(K, want):
    got = is_dual_scm(K, ZZ)
    return got == want, got


@_register("dual_shellable")
def _c_dual_shell(K, want):
    got = is_dual_shellable(K).status
    return got == want, got


@_register("strong_gcd")
def _c_gcd(K, want):
    got = strong_gcd_search(K).status
    return got == want, got


@_register("fill_contractible")
def _c_fill(K, want):
    got = fill_search(K).status
    return got == want, got


@_register("collapse")
def _c_collapse(K, want):
    got = collapse_search(K).status
    return got == want, got


def _hochster_report(K):
    """One Hochster report per complex, shared by the two checks that read it."""
    return shared(("hochster", K), lambda: hochster_identity_check(K, ZZ))


@_register("hochster_identity")
def _c_hochster(K, want):
    got = _hochster_report(K).equal
    return got == want, got


@_register("rmac_counts")
def _c_rmac_counts(K, want):
    got = {str(d): n for d, n in _hochster_report(K).face_counts.items()}
    return got == want, got


def verify_expected(doc) -> list[tuple[str, bool, object]]:
    """Run every expected-block check; returns (key, ok, got) triples."""
    K = doc.complex()
    results = []
    with run():
        for key, want in sorted((doc.expected or {}).items()):
            fn = _CHECKS.get(key)
            if fn is None:
                results.append((key, False, f"unknown check {key!r}"))
                continue
            ok, got = fn(K, want)
            results.append((key, bool(ok), got))
    return results


def berglund_complex():
    """The 10-vertex 2-neighborly Golod complex, from its minimal non-faces."""
    mnf = [{1, 2, 6, 7}, {2, 3, 7, 8}, {3, 4, 8, 9}, {4, 5, 9, 10},
           {1, 5, 6, 10}, {6, 7, 8, 9, 10}]
    dual = make_complex(10, [set(range(1, 11)) - M for M in mnf])
    return alexander_dual(dual, 10)
