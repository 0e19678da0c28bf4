import gc
import random
import weakref
from types import SimpleNamespace

import pytest

from fatwedge.certify import (RULE_DIM, RULE_FLAG, RULE_LOW_DUAL,
                              RULE_NEIGHBORLY, RULE_NON_GOLOD, SpacePoincare,
                              bbcg_summands, certify_fwf_trivial,
                              golod_report)
from fatwedge import certify, criteria, homology
from fatwedge.complexes import (SimplicialComplex, boundary_of_simplex,
                                core_mask, flag_complex, full_subcomplex,
                                is_chordal, make_complex, run, simplex)
from fatwedge.corpus import berglund_complex, corpus_names, load
from fatwedge.criteria import (fill_search, is_dual_scm, is_dual_shellable,
                               is_homology_fillable)
from fatwedge.homology import (GF, QQ, ZZ, full_subcomplex_profiles,
                               reduced_homology)
from fatwedge.rmac import build_rmac, cubical_homology, hochster_identity_check
from fatwedge.tor import golod_via_tor, torsion_primes

from helpers import (random_complex, random_graph, random_two_complex,
                     with_ground)

C4 = make_complex(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
PATH = make_complex(4, [[1, 2], [2, 3], [3, 4]])
RP2 = make_complex(6, [[2, 3, 4], [3, 4, 5], [1, 3, 5], [1, 2, 5], [2, 5, 6],
                       [2, 3, 6], [1, 3, 6], [1, 4, 6], [1, 2, 4], [4, 5, 6]])
#: m = 6; every rule declines and the complex is Golod, so the verdict is
#: "unknown"
UNKNOWN = make_complex(6, [[1, 2, 4, 6], [1, 3, 4, 5], [1, 5, 6], [2, 4, 5],
                           [2, 5, 6], [3, 5, 6]])


class TestCertify:
    def test_simplex_by_dimension(self):
        cert = certify_fwf_trivial(simplex(4))
        assert cert.verdict == "trivial" and cert.rule == RULE_DIM

    def test_rp2_by_neighborliness(self):
        cert = certify_fwf_trivial(RP2)
        assert cert.verdict == "trivial" and cert.rule == RULE_NEIGHBORLY
        assert cert.evidence == {"dK": 2, "required_neighborliness": 1,
                                 "max_neighborliness": 1}

    def test_berglund_by_neighborliness(self):
        cert = certify_fwf_trivial(berglund_complex())
        assert cert.verdict == "trivial" and cert.rule == RULE_NEIGHBORLY
        assert cert.evidence["dK"] == 4

    def test_four_cycle_nontrivial_with_witness(self):
        cert = certify_fwf_trivial(C4)
        assert cert.verdict == "nontrivial" and cert.rule == RULE_NON_GOLOD
        assert not cert.golod.golod
        assert cert.golod.join_over_Z.witness == ((1, 3), (2, 4), 1)

    def test_path_by_flag_chordal(self):
        cert = certify_fwf_trivial(PATH)
        assert cert.rule == RULE_FLAG

    def test_skeleton_by_low_dual_dim(self):
        cert = certify_fwf_trivial(simplex(5).skeleton(1))
        assert cert.verdict == "trivial" and cert.rule == RULE_LOW_DUAL

    def test_soundness_assertion_runs(self):
        cert = certify_fwf_trivial(RP2)
        assert cert.golod is not None and cert.golod.golod

    def test_soundness_violation_raises(self, monkeypatch):
        # a rule that fires on a complex the Golod report calls non-Golod;
        # only all_rules runs a rule on a ghost-free non-Golod complex
        monkeypatch.setattr(certify, "golod_report", lambda K: SimpleNamespace(
            golod=False, witness_text="planted"))
        with pytest.raises(AssertionError, match="rule FLAG_CHORDAL .*planted"):
            certify_fwf_trivial(PATH, all_rules=True)

    def test_ghost_element_attaches_no_report(self, monkeypatch):
        # a ghost carries a degree -1 class the attaching maps cannot see,
        # so triviality says nothing about Golodness and no report is made
        reports = []
        monkeypatch.setattr(certify, "golod_report", reports.append)
        cert = certify_fwf_trivial(with_ground(PATH, 5))
        assert cert.verdict == "trivial" and cert.golod is None
        assert reports == []

    def test_non_golod_complex_runs_no_rule(self, monkeypatch):
        def refuse(K):
            raise AssertionError("a rule ran")

        monkeypatch.setattr(certify, "_RULES",
                            tuple((name, refuse) for name, _ in certify._RULES))
        cert = certify_fwf_trivial(load("c4").complex())
        assert cert.verdict == "nontrivial" and cert.rule == RULE_NON_GOLOD
        assert cert.rules_run == ()

    def test_golod_report_built_once_per_call(self, monkeypatch):
        built = []
        real = certify.golod_report

        def counted(K):
            built.append(K)
            return real(K)

        monkeypatch.setattr(certify, "golod_report", counted)
        for K, verdict in ((PATH, "trivial"), (load("c4").complex(), "nontrivial"),
                           (UNKNOWN, "unknown")):
            for all_rules in (False, True):
                built.clear()
                cert = certify_fwf_trivial(K, all_rules=all_rules)
                assert cert.verdict == verdict and built == [K]
                assert cert.golod is not None

    def test_default_order_matches_all_rules(self):
        # seeded complexes, every third with a ghost element, and the
        # corpus: the report-first default gives the same certificate as
        # running every rule first, whose soundness check then runs on every
        # ghost-free non-Golod complex here
        rng = random.Random(1601)
        cases = []
        for k in range(300):
            K = random_complex(rng, max_m=6)
            cases.append(with_ground(K, K.m + 1) if k % 3 == 0 else K)
        cases += [load(name).complex() for name in corpus_names()]
        verdicts = set()
        for K in cases:
            want = certify_fwf_trivial(K, all_rules=True).to_json()
            del want["rules_run"]
            assert certify_fwf_trivial(K).to_json() == want, K
            verdicts.add(want["verdict"])
        assert verdicts == {"trivial", "nontrivial"}


def _seeded_complexes(seed: int, count: int) -> list[SimplicialComplex]:
    """Flag complexes and 2-complexes with m <= 6; every third one below
    m = 6 gets a ghost element."""
    rng = random.Random(seed)
    cases = []
    for i in range(count):
        if i % 2:
            K = flag_complex(random_graph(rng, max_m=6, min_m=3))
        else:
            K = random_two_complex(rng, max_m=6, min_m=3)
        if i % 3 == 0 and K.m < 6:
            K = with_ground(K, K.m + 1)
        cases.append(K)
    return cases


class TestRetiredSearchRules:
    """A shelling of the dual, or a filling of every full subcomplex (to a
    contractible or a homology-acyclic complex), is sufficient for a trivial
    filtration.  certify runs none of these searches, so its exact rules
    must decide every such complex."""

    def test_searches_imply_a_trivial_verdict(self):
        shellable = fillable = homology_fillable = neither = 0
        for K in _seeded_complexes(1801, 120):
            with run():
                subs = [full_subcomplex(K, i) for i in range(1, 1 << K.m)]
                shelled = is_dual_shellable(K, 20000).found
                filled = all(fill_search(L, budget=2000).found for L in subs)
                homology_filled = all(is_homology_fillable(L).certified
                                      for L in subs)
                if shelled or filled or homology_filled:
                    assert certify_fwf_trivial(K).verdict == "trivial", K
                if shelled:
                    # Bjorner and Wachs: a shellable complex is SCM over Z
                    assert is_dual_scm(K, ZZ), K
            shellable += shelled
            fillable += filled
            homology_fillable += homology_filled
            neither += not (shelled or filled or homology_filled)
        assert min(shellable, fillable, homology_fillable) >= 100
        assert neither >= 5

    def test_certify_runs_no_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("certify ran a search")

        for name in ("shelling_search", "collapse_search", "fill_search",
                     "is_homology_fillable"):
            monkeypatch.setattr(criteria, name, refuse)
        cases = [load(name).complex() for name in corpus_names()]
        for K in cases + _seeded_complexes(1801, 120):
            with run():
                certify_fwf_trivial(K)
                certify_fwf_trivial(K, all_rules=True)


class TestGolodReport:
    def test_chordal_graph(self):
        rep = golod_report(PATH)
        assert rep.golod and rep.oracles_agree

    def test_four_cycle(self):
        rep = golod_report(C4)
        assert not rep.golod and rep.oracles_agree
        assert rep.witness_text is not None

    def test_berglund_primes(self):
        # no K_I has torsion, so no prime field is checked
        rep = golod_report(berglund_complex())
        assert rep.golod
        assert rep.primes == () and rep.tor_mod_p == ()

    def test_rp2_includes_torsion_prime(self):
        rep = golod_report(RP2)
        assert 2 in rep.primes and rep.golod

    def test_one_table_reduces_each_core_once(self, monkeypatch):
        # one integral table per complex serves the torsion primes, the join
        # oracle over Z, the Tor oracle over Q and each torsion prime, dK,
        # the rules and the BBCG summands; the SCM rule builds the table of
        # each complex Delta_j it makes, once too.  A table makes complexes
        # and chains only for K_I with no dominated vertex and no ghost, and
        # no complex has its chains built, or reduced, twice in a run
        spy = _table_spy(monkeypatch)
        for K in (C4, PATH, RP2, UNKNOWN, berglund_complex()):
            circles = [SpacePoincare.sphere(1)] * K.m
            for call in (lambda: certify_fwf_trivial(K),
                         lambda: certify_fwf_trivial(K, all_rules=True),
                         lambda: golod_report(K),
                         lambda: bbcg_summands(K, circles)):
                for seen in vars(spy).values():
                    seen.clear()
                call()
                assert spy.tables.count(K) == 1, K
                assert len(set(spy.tables)) == len(spy.tables), K
                assert spy.made and all(core_mask(L) == (1 << L.m) - 1
                                        for L in spy.made), K
                assert len(set(spy.chains)) == len(spy.chains), K
                assert len(set(map(id, spy.reduced))) == len(spy.reduced), K

    def test_prime_fields_follow_q_without_torsion(self):
        # with no p-torsion in any K_I the Z/p table is the Q table, and
        # Golod over Q implies Golod over Z/p (golod_report's docstring);
        # on these seeds the converse holds too
        rng = random.Random(23)
        verdicts = []
        for _ in range(80):
            for K in (random_complex(rng, max_m=7), random_two_complex(rng),
                      flag_complex(random_graph(rng, max_m=7))):
                with run():
                    if torsion_primes(K):
                        continue
                    over_q = full_subcomplex_profiles(K, QQ)
                    for p in (2, 3):
                        over_p = full_subcomplex_profiles(K, GF(p))
                        assert over_p.keys() == over_q.keys(), K
                        assert all(over_p[I].free == prof.free
                                   for I, prof in over_q.items()), K
                    rep = golod_report(K)
                    assert rep.primes == () and rep.tor_mod_p == (), K
                    for p in (2, 3):
                        v = golod_via_tor(K, GF(p))
                        assert v.golod == rep.tor_over_Q.golod, K
                verdicts.append(rep.tor_over_Q.golod)
        assert len(verdicts) >= 200 and 30 <= verdicts.count(False) < 200


def _table_spy(monkeypatch) -> SimpleNamespace:
    """Lists filled as a run goes: the complexes whose integral table is
    built (tables), the complexes made while one is built (made), the
    complexes whose chains the run builds (chains) and the boundaries of
    every chain complex reduced (reduced)."""
    spy = SimpleNamespace(tables=[], made=[], chains=[], reduced=[])
    building = []
    real_table = homology._integral_profiles
    real_chains = homology.build_simplicial_chain_complex
    real_reduce = homology.complex_rank_divisors
    real_init = SimplicialComplex.__init__

    def table(K):
        spy.tables.append(K)
        building.append(K)
        try:
            return real_table(K)
        finally:
            building.pop()

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        if building:
            spy.made.append(self)

    def chains(K):
        spy.chains.append(K)
        return real_chains(K)

    def reduce(boundary, dims):
        spy.reduced.append(boundary)
        return real_reduce(boundary, dims)

    monkeypatch.setattr(homology, "_integral_profiles", table)
    monkeypatch.setattr(homology, "build_simplicial_chain_complex", chains)
    monkeypatch.setattr(homology, "complex_rank_divisors", reduce)
    monkeypatch.setattr(SimplicialComplex, "__init__", init)
    return spy


class TestSpacePoincare:
    def test_sphere(self):
        assert SpacePoincare.sphere(0).betti == (1,)
        assert SpacePoincare.sphere(2).betti == (0, 0, 1)

    def test_negative_sphere_rejected(self):
        # (1,) would be S^0, not a sphere of negative dimension
        for n in (-1, -2):
            with pytest.raises(ValueError, match="sphere dimension"):
                SpacePoincare.sphere(n)

    def test_parse(self):
        assert SpacePoincare.from_string("t^2").betti == (0, 0, 1)
        assert SpacePoincare.from_string("1+2t^3").betti == (1, 0, 0, 2)
        assert SpacePoincare.from_string("2*t").betti == (0, 2)
        assert SpacePoincare.from_string("1 + 2*t^3").betti == (1, 0, 0, 2)
        # "*" stands only between a coefficient and t
        for bad in ("t^-1", "2*", "*t", "2*3", "t*"):
            with pytest.raises(ValueError, match="cannot parse"):
                SpacePoincare.from_string(bad)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            SpacePoincare((1, -1))


class TestBBCG:
    def test_boundary_d2_single_circle(self):
        rep = bbcg_summands(boundary_of_simplex(2), [SpacePoincare.sphere(0)] * 2)
        assert rep.sphere_list == (1,)
        assert [s.subset for s in rep.summands] == [(1, 2)]
        assert rep.desuspended

    def test_four_cycle_with_disk_pair(self):
        rep = bbcg_summands(C4, [SpacePoincare.sphere(1)] * 4)
        assert rep.sphere_list == (3, 3, 6)
        assert rep.wedge_string() == "S^3 v S^3 v S^6"
        assert not rep.desuspended

    def test_rp2_pattern(self):
        rep = bbcg_summands(RP2, [SpacePoincare.sphere(0)] * 6)
        assert rep.desuspended
        assert rep.sphere_list is None  # torsion in the top summand
        S = {(3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5), (2, 3, 5), (1, 5, 6),
             (1, 4, 5), (1, 3, 4), (1, 2, 6), (1, 2, 3)}
        by_subset = {s.subset: s.profile for s in rep.summands}
        # ten sphere summands from the missing triangles, suspended once
        for I in S:
            assert by_subset[I].free == {2: 1} and not by_subset[I].torsion
        # every 4- and 5-element subset contributes one suspended circle
        import itertools
        for size in (4, 5):
            for I in itertools.combinations(range(1, 7), size):
                assert by_subset[I].free == {2: 1} and not by_subset[I].torsion
        top = by_subset[(1, 2, 3, 4, 5, 6)]
        assert top.free == {} and top.torsion == {2: (2,)}
        assert len(rep.summands) == 10 + 15 + 6 + 1

    def test_ghost_is_not_desuspended(self):
        # two points and a ghost certify trivial, but RZ_K = S^1 x S^0 is two
        # circles, not the wedge S^0 v S^1 v S^1
        K = make_complex(3, [[1], [2]])
        rep = bbcg_summands(K, [SpacePoincare.sphere(0)] * 3)
        assert rep.certificate.verdict == "trivial"
        assert rep.wedge_string() == "S^0 v S^1 v S^1"
        assert not rep.desuspended
        rng = random.Random(5)
        trivial = 0
        for _ in range(150):
            K = random_complex(rng, max_m=6)
            if K.support == (1 << K.m) - 1:
                continue
            rep = bbcg_summands(K, [SpacePoincare.sphere(0)] * K.m)
            trivial += rep.certificate.verdict == "trivial"
            assert not rep.desuspended, K
        assert trivial >= 20

    def test_aggregate_matches_rmac_homology(self):
        for K in (C4, RP2, boundary_of_simplex(4)):
            rep = bbcg_summands(K, [SpacePoincare.sphere(0)] * K.m, ZZ)
            assert rep.aggregate == cubical_homology(build_rmac(K), ZZ)

    def test_dual_scm_inputs_yield_sphere_lists(self):
        from fatwedge.criteria import is_dual_scm
        checked = 0
        for name in corpus_names():
            K = load(name).complex()
            if K.m > 6 or not is_dual_scm(K, ZZ):
                continue
            checked += 1
            for n in (1, 2):
                rep = bbcg_summands(K, [SpacePoincare.sphere(n - 1)] * K.m, ZZ)
                assert rep.sphere_list is not None, name
        assert checked >= 8

    def test_generic_betti_polynomials(self):
        rep = bbcg_summands(boundary_of_simplex(2),
                            [SpacePoincare.from_string("t + t^3")] * 2)
        # join of two copies of (S^1 v S^3): degrees 1+1+1, 1+3+1, 3+3+1
        assert rep.aggregate.free == {3: 1, 5: 2, 7: 1}

    def test_wrong_space_count(self):
        with pytest.raises(ValueError):
            bbcg_summands(C4, [SpacePoincare.sphere(0)] * 3)


class TestGraphGolodEqualsChordal:
    def test_small_sweep(self):
        rng = random.Random(77)
        for _ in range(15):
            G = random_graph(rng, max_m=6)
            assert golod_report(G).golod == is_chordal(G)


class TestRunScopedStore:
    def test_chain_complexes_die_with_the_run(self, monkeypatch):
        refs = []
        build = homology.build_simplicial_chain_complex

        def tracked(K):
            cc = build(K)
            refs.append(weakref.ref(cc))
            return cc

        monkeypatch.setattr(homology, "build_simplicial_chain_complex", tracked)
        cert = certify_fwf_trivial(RP2)
        assert cert.verdict == "trivial" and refs
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_answers_equal_inside_and_outside_a_run(self):
        rng = random.Random(808)
        cases = [random_complex(rng, max_m=5) for _ in range(12)] + [C4, PATH]

        def answers(K):
            return (reduced_homology(K, ZZ),
                    [full_subcomplex(K, i) for i in range(1, 1 << K.m)],
                    is_homology_fillable(K), hochster_identity_check(K, ZZ),
                    golod_report(K).to_json(),
                    certify_fwf_trivial(K, budget=2000).to_json())

        outside = [answers(K) for K in cases]
        with run():
            # twice, the second time from the store, and once more through
            # an equal complex held in another object
            for _ in range(2):
                assert [answers(K) for K in cases] == outside
            assert [answers(SimplicialComplex(K.m, K.facets))
                    for K in cases] == outside
