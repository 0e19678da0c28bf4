"""Bundled corpus of named complexes with regression expectations.

Each data file carries an "expected" block whose keys name checks the
verifier knows how to run; a corpus file is therefore a self-contained
regression test.  The 6-vertex projective plane facet list is transcribed
from its standard hexagonal diagram and is itself validated by the expected
homology (H~_1 = Z/2), not trusted blindly; the 10-vertex Golod complex is
reconstructed from its six minimal non-faces through a double Alexander dual.
"""

from __future__ import annotations

from importlib import resources

from ..complexes import (alexander_dual, is_chordal, make_complex,
                         max_neighborliness, minimal_nonfaces, run, shared,
                         verts)
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


def _homology(K):
    prof = reduced_homology(K, ZZ)
    return {str(q): {"free": prof.betti(q), "torsion": list(prof.torsion_at(q))}
            for q in prof.nonzero_degrees()}


def _dk(K):
    d = dK(K)
    return "acyclic" if d is None else d


def _certificate(K):
    """One certificate per complex, shared by the two checks that read it."""
    from ..certify import certify_fwf_trivial
    return shared(("certificate", K), lambda: certify_fwf_trivial(K))


def _golod(K):
    """The certificate's Golod report, built here only when it has none
    (a complex with a ghost on which a rule fired)."""
    from ..certify import golod_report
    report = _certificate(K).golod
    if report is None:
        report = golod_report(K)
    return report.golod


def _hochster_report(K):
    """One Hochster report per complex, shared by the two checks that read it."""
    return shared(("hochster", K), lambda: hochster_identity_check(K, ZZ))


#: check key of the "expected" block -> the value the complex gives
_CHECKS = {
    "homology_Z": _homology,
    "minimal_nonfaces": lambda K: [list(verts(M)) for M in minimal_nonfaces(K)],
    "max_neighborliness": max_neighborliness,
    "dK": _dk,
    "golod": _golod,
    "chordal": lambda K: is_chordal(K.skeleton(1)),
    "certify_verdict": lambda K: _certificate(K).verdict,
    "certify_rule": lambda K: _certificate(K).rule,
    "dual_scm_Z": lambda K: is_dual_scm(K, ZZ),
    "dual_shellable": lambda K: is_dual_shellable(K).status,
    "strong_gcd": lambda K: strong_gcd_search(K).status,
    "fill_contractible": lambda K: fill_search(K).status,
    "collapse": lambda K: collapse_search(K).status,
    "hochster_identity": lambda K: _hochster_report(K).equal,
    "rmac_counts": lambda K: {str(d): n for d, n
                              in _hochster_report(K).face_counts.items()},
}


def verify_expected(doc) -> list[tuple[str, bool, object]]:
    """Run every expected-block check; returns (key, ok, got) triples.
    Minimal non-faces are compared in canonical order."""
    K = doc.complex()
    results = []
    with run():
        for key, want in sorted((doc.expected or {}).items()):
            check = _CHECKS.get(key)
            if check is None:
                results.append((key, False, f"unknown check {key!r}"))
                continue
            got = check(K)
            if key == "minimal_nonfaces":
                want = sorted(map(sorted, want))
            results.append((key, got == want, got))
    return results


def berglund_complex():
    """The 10-vertex 2-neighborly Golod complex, from its minimal non-faces."""
    mnf = [{1, 2, 6, 7}, {2, 3, 7, 8}, {3, 4, 8, 9}, {4, 5, 9, 10},
           {1, 5, 6, 10}, {6, 7, 8, 9, 10}]
    dual = make_complex(10, [set(range(1, 11)) - M for M in mnf])
    return alexander_dual(dual, 10)
