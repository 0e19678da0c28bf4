"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines; every stated tolerance is exact and every stated wall-clock budget is
asserted.  Random inputs use fixed seeds, so the suite is reproducible.
"""

import itertools
import random
import time

from fatwedge.certify import (SpacePoincare, bbcg_summands, certify_fwf_trivial,
                              golod_report)
from fatwedge.complexes import (alexander_dual, boundary_of_simplex, is_chordal,
                                full_subcomplex, make_complex, mask_of, run)
from fatwedge.corpus import corpus_names, load
from fatwedge.criteria import (collapse_search, fill_search,
                               filling_from_dual_shelling, is_dual_scm,
                               is_dual_shellable, is_homology_fillable,
                               strong_gcd_search)
from fatwedge.homology import (DD_ZERO_CHECKS, GF, QQ, ZZ,
                               build_simplicial_chain_complex, dK,
                               reduced_homology)
from fatwedge.rmac import (build_rmac, cubical_chain_complex, cubical_homology,
                           hochster_identity_check)
from fatwedge.snf import smith_normal_form
from fatwedge.tor import (golod_via_join, golod_via_tor, hochster_tor_check,
                          koszul_piece)

from helpers import (naive_snf_divisors, random_complex, random_graph,
                     random_matrix)

C4 = make_complex(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


def _report(num: int, name: str, started: float) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.monotonic() - started:.1f}s)")


def corpus_complexes():
    return [(name, load(name).complex()) for name in corpus_names()]


def test_criterion_01_torus():
    t0 = time.monotonic()
    prof = cubical_homology(build_rmac(C4), ZZ)
    assert prof.betti(0) + 1 == 1
    assert prof.free == {1: 2, 2: 1}
    assert not prof.torsion
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, "rmac of the 4-cycle is a torus", t0)


def test_criterion_02_spheres():
    t0 = time.monotonic()
    for m in (2, 3, 4, 5):
        prof = cubical_homology(build_rmac(boundary_of_simplex(m)), ZZ)
        assert prof.free == {m - 1: 1} and not prof.torsion
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(2, "rmac of boundary simplices are spheres", t0)


def test_criterion_03_hochster_identity():
    t0 = time.monotonic()
    rng = random.Random(1003)
    for _ in range(200):
        K = random_complex(rng, max_m=7)
        assert hochster_identity_check(K, ZZ).equal
    for name, K in corpus_complexes():
        assert hochster_identity_check(K, ZZ).equal, name
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(3, "Hochster identity, 200 random + corpus (with torsion)", t0)


def test_criterion_04_alexander_duality():
    t0 = time.monotonic()
    rng = random.Random(1004)
    count = 0
    while count < 200:
        K = random_complex(rng, max_m=7)
        try:
            dual = alexander_dual(K)
        except ValueError:
            continue  # full simplex has a void dual
        count += 1
        s = K.m
        for ring in (QQ, GF(2), GF(3)):
            pk = reduced_homology(K, ring)
            pd = reduced_homology(dual, ring)
            for i in range(-1, s + 1):
                assert pk.betti(i) == pd.betti(s - i - 3)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(4, "Alexander duality over Q, Z/2, Z/3 on 200 random complexes", t0)


def test_criterion_05_tor_hochster_formula():
    # one run per complex: both fields share its Koszul pieces and its K_I
    t0 = time.monotonic()
    rng = random.Random(1005)
    for _ in range(60):
        K = random_complex(rng, max_m=6)
        with run():
            for ring in (QQ, GF(2)):
                assert hochster_tor_check(K, ring).equal
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(5, "Tor dimensions match the full-subcomplex cohomology sum", t0)


def test_criterion_06_golod_double_oracle():
    # one run per complex: both rings share its Koszul pieces and its K_I
    t0 = time.monotonic()
    for name, K in corpus_complexes():
        with run():
            for ring in (QQ, GF(2)):
                assert golod_via_tor(K, ring).golod == \
                    golod_via_join(K, ring).golod, (name, ring)
    rng = random.Random(1006)
    for _ in range(100):
        K = random_complex(rng, max_m=6)
        with run():
            for ring in (QQ, GF(2)):
                assert golod_via_tor(K, ring).golod == \
                    golod_via_join(K, ring).golod
    _report(6, "Golod oracles agree on corpus and 100 random complexes", t0)


def test_criterion_07_graph_golod_equals_chordal():
    t0 = time.monotonic()
    rng = random.Random(1007)
    for _ in range(100):
        G = random_graph(rng, max_m=8)
        assert golod_report(G).golod == is_chordal(G)
    _report(7, "graph Golodness equals chordality on 100 random graphs", t0)


def test_criterion_08_rp2_worked_example():
    t0 = time.monotonic()
    K = load("rp2_6").complex()
    prof = reduced_homology(K, ZZ)
    assert prof.free == {} and prof.torsion == {1: (2,)}
    S = {(3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5), (2, 3, 5), (1, 5, 6),
         (1, 4, 5), (1, 3, 4), (1, 2, 6), (1, 2, 3)}
    # the ten triangle subsets and every 4- and 5-subset carry a single
    # circle: H~_1 = Z and nothing else (the criterion's stated degree 0 is a
    # typo for degree 1: these full subcomplexes are connected)
    subsets = list(S) + [I for size in (4, 5)
                         for I in itertools.combinations(range(1, 7), size)]
    for I in subsets:
        p = reduced_homology(full_subcomplex(K, mask_of(I)), ZZ)
        assert p.free == {1: 1} and not p.torsion, I
    cert = certify_fwf_trivial(K)
    assert cert.verdict == "trivial" and cert.rule == "NEIGHBORLY_DK"
    rep = bbcg_summands(K, [SpacePoincare.sphere(0)] * 6, ZZ, certificate=cert)
    by_subset = {s.subset: s.profile for s in rep.summands}
    assert set(by_subset) == S | set(itertools.combinations(range(1, 7), 4)) \
        | set(itertools.combinations(range(1, 7), 5)) | {tuple(range(1, 7))}
    for I in subsets:
        assert by_subset[tuple(sorted(I))].free == {2: 1}
    top = by_subset[tuple(range(1, 7))]
    assert top.free == {} and top.torsion == {2: (2,)}
    assert rep.desuspended
    _report(8, "6-vertex projective plane worked example", t0)


@run()
def test_criterion_09_berglund_worked_example():
    # one run: every question below is asked of the same complex and its K_I
    t0 = time.monotonic()
    K = load("berglund_10").complex()
    assert reduced_homology(K, ZZ).is_trivial()
    for I in itertools.combinations(range(1, 11), 8):
        p = reduced_homology(full_subcomplex(K, mask_of(I)), ZZ)
        assert p.is_trivial() or (p.free == {4: 1} and not p.torsion), I
    assert dK(K) == 4
    from fatwedge.complexes import max_neighborliness
    assert max_neighborliness(K) == 2
    rep = golod_report(K)
    assert rep.golod
    assert not is_dual_scm(K, ZZ)
    cert = certify_fwf_trivial(K)
    assert cert.verdict == "trivial" and cert.rule == "NEIGHBORLY_DK"
    assert strong_gcd_search(K).found
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(9, "10-vertex Golod complex worked example", t0)


def test_criterion_10_negative_certificate():
    t0 = time.monotonic()
    cert = certify_fwf_trivial(C4)
    assert cert.verdict == "nontrivial"
    assert cert.golod.join_over_Z.witness == ((1, 3), (2, 4), 1)
    assert fill_search(C4).status == "refuted"
    assert strong_gcd_search(C4).status == "none"
    assert collapse_search(C4).status == "none"
    _report(10, "4-cycle negative certificate", t0)


def test_criterion_11_implication_chain_on_corpus():
    t0 = time.monotonic()
    hits = []
    for name, K in corpus_complexes():
        res = is_dual_shellable(K)
        if not res.found:
            continue
        hits.append(name)
        assert is_dual_scm(K, ZZ), name
        assert fill_search(K).found, name
        cert = filling_from_dual_shelling(K, res.certificate)
        assert cert is not None, name
        assert is_homology_fillable(K).certified, name
        assert strong_gcd_search(K).found, name
    assert len(hits) >= 8  # the corpus is built to exercise this chain
    _report(11, f"implication chain on {len(hits)} dual-shellable members", t0)


def test_criterion_12_snf_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(1012)
    for _ in range(500):
        A = random_matrix(rng, max_n=8, lo=-9, hi=9)
        assert smith_normal_form(A).divisors == naive_snf_divisors(A)
    _report(12, "Smith normal form agrees with the naive oracle (500 cases)", t0)


def test_criterion_13_boundary_squared_zero_everywhere():
    t0 = time.monotonic()
    # construction-time verification raises on any violation, so building
    # without an error means d^2 = 0 held; build enough complexes here that
    # the checks provably ran, then re-verify them independently.  The
    # run's store is bypassed so that every call constructs a new chain
    # complex, Koszul pieces included.
    chain_before = DD_ZERO_CHECKS["chain_complexes"]
    rng = random.Random(1013)
    samples = [build_simplicial_chain_complex(random_complex(rng, max_m=6))
               for _ in range(101)]
    assert DD_ZERO_CHECKS["chain_complexes"] - chain_before > 100
    koszul_before = DD_ZERO_CHECKS["chain_complexes"]
    K7 = make_complex(7, [[1, 2, 3], [3, 4, 5], [5, 6, 7], [7, 1], [2, 6]])
    samples.extend(koszul_piece(K7, imask) for imask in range(1 << 7))
    assert DD_ZERO_CHECKS["chain_complexes"] - koszul_before == 1 << 7
    samples.append(cubical_chain_complex(build_rmac(C4)))
    for cc in samples:
        for q, cols in cc.boundary.items():
            lower = cc.boundary.get(q - 1)
            if lower is None:
                continue
            for col in cols:
                acc = {}
                for i, v in col.items():
                    for i2, v2 in lower[i].items():
                        acc[i2] = acc.get(i2, 0) + v * v2
                assert not any(acc.values())
    _report(13, "boundary squared is zero on every constructed complex", t0)
