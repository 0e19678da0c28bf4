import gc
import inspect
import itertools
import random
import sys

import pytest
from hypothesis import given, settings

from fatwedge.complexes import (_STORE, alexander_dual, boundary_of_simplex,
                                flag_complex, make_complex, minimal_nonfaces,
                                run, simplex, verts)
from fatwedge.corpus import berglund_complex, corpus_names, load
from fatwedge.criteria import (_face_set, _fillings, _free_pairs,
                               _shelling_ok, collapse_search, fill_search,
                               filling_from_dual_shelling,
                               is_collapse_sequence, is_dual_scm,
                               is_dual_shellable, is_homology_fillable, is_scm,
                               is_shelling, shelling_search,
                               spanning_facets, strong_gcd_search)
from fatwedge.homology import GF, QQ, ZZ, reduced_homology

from helpers import (is_cm, is_strong_gcd_order, is_weak_shelling,
                     random_complex, random_graph, random_two_complex,
                     reference_collapse_search, reference_free_pairs,
                     reference_is_scm, reference_shelling_ok,
                     reference_shelling_search, rp2_with_cones,
                     weak_shelling_search)
from test_complexes import complexes

C4 = make_complex(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
PATH = make_complex(4, [[1, 2], [2, 3], [3, 4]])
TWO_EDGES = make_complex(4, [[1, 2], [3, 4]])
THREE_PTS = make_complex(3, [[1], [2], [3]])
RP2 = make_complex(6, [[2, 3, 4], [3, 4, 5], [1, 3, 5], [1, 2, 5], [2, 5, 6],
                       [2, 3, 6], [1, 3, 6], [1, 4, 6], [1, 2, 4], [4, 5, 6]])


class TestShelling:
    def test_skeleta_of_simplices_are_shellable(self):
        for m, k in ((4, 1), (5, 1), (5, 2), (4, 2)):
            res = shelling_search(simplex(m).skeleton(k))
            assert res.found
            assert is_shelling(simplex(m).skeleton(k), res.certificate.facets)

    def test_four_cycle_shellable(self):
        res = shelling_search(C4)
        assert res.found and is_shelling(C4, res.certificate.facets)

    def test_two_disjoint_edges_not_shellable(self):
        assert shelling_search(TWO_EDGES).status == "none"

    def test_rp2_dual_not_shellable(self):
        assert shelling_search(alexander_dual(RP2)).status == "none"

    def test_budget_exhaustion_reported(self):
        res = shelling_search(alexander_dual(RP2), budget=5)
        assert res.status == "exhausted"

    def test_discrete_points_shellable(self):
        assert shelling_search(THREE_PTS).found

    def test_spanning_facets_three_points(self):
        res = shelling_search(THREE_PTS)
        span = spanning_facets(THREE_PTS, res.certificate.facets)
        assert len(span) == 2  # H~_0 has rank 2

    def test_spanning_facets_of_sphere(self):
        B = boundary_of_simplex(3)
        res = shelling_search(B)
        span = spanning_facets(B, res.certificate.facets)
        assert len(span) == 1  # one H~_1 class


class TestShellingAgainstReference:
    @pytest.mark.parametrize("budget", [1, 7, 50, 60, 2000])
    @given(complexes(max_m=6))
    @settings(max_examples=400, deadline=None)
    def test_matches_pairwise_reference(self, budget, K):
        facets = K.facets
        for k, f in enumerate(facets):
            others = facets[:k] + facets[k + 1:]
            for size in range(1, len(others) + 1):
                for placed in itertools.combinations(others, size):
                    assert (_shelling_ok(f, list(placed))
                            == reference_shelling_ok(f, placed))
        res = shelling_search(K, budget)
        facets_found = res.certificate.facets if res.found else None
        assert ((res.status, res.nodes, facets_found)
                == reference_shelling_search(K, budget))
        try:
            dual = alexander_dual(K)
        except ValueError:
            expected = ("found", 0, ())
        else:
            expected = reference_shelling_search(dual, budget)
        res = is_dual_shellable(K, budget)
        facets_found = res.certificate.facets if res.found else None
        assert (res.status, res.nodes, facets_found) == expected


class TestSCM:
    def test_four_cycle_scm(self):
        assert is_scm(C4, QQ)
        assert is_cm(C4, QQ)

    def test_two_disjoint_edges_not_scm(self):
        assert not is_scm(TWO_EDGES, QQ)

    def test_berglund_dual_not_scm_over_Z(self):
        assert not is_dual_scm(berglund_complex(), ZZ)

    def test_nonpure_scm_is_not_cm(self):
        K = make_complex(4, [[1, 2, 3], [3, 4]])
        assert is_scm(K, QQ)
        assert not is_cm(K, QQ)

    def test_full_simplex_vacuous(self):
        assert is_dual_scm(simplex(3), ZZ)
        assert is_dual_shellable(simplex(3)).found

    def test_hochster_form_matches_the_link_criterion(self):
        # is_dual_scm reads Hochster's formula off one complex per degree;
        # the link criterion on the dual is its reference
        rng = random.Random(22)
        pool = [alexander_dual(RP2)]
        for k in range(100):
            pool += [random_complex(rng, max_m=6), random_two_complex(rng, 6),
                     flag_complex(random_graph(rng, max_m=6))]
            if k % 5 == 0:
                pool.append(rp2_with_cones(rng, cones=1))
        rings = (ZZ, QQ, GF(2), GF(3))
        # on the dual of RP2 it asks about RP2 itself, whose H~_1 is Z/2
        assert [is_dual_scm(pool[0], ring) for ring in rings] == \
            [False, True, False, True]
        seen = set()
        for K in pool:
            try:
                dual = alexander_dual(K)
            except ValueError:
                dual = None
            with run():
                got = [is_dual_scm(K, ring) for ring in rings]
                assert got == [dual is None or reference_is_scm(dual, ring)
                               for ring in rings], K
                got_scm = [is_scm(K, ring) for ring in rings]
                assert got_scm == [reference_is_scm(K, ring)
                                   for ring in rings], K
            seen.update((tuple(got), tuple(got_scm)))
        # both answers, and answers that depend on the ring, were exercised
        assert {(True,) * 4, (False,) * 4, (False, True, False, True)} <= seen

    def test_shellable_implies_scm_over_Z(self):
        rng = random.Random(8)
        checked = 0
        for _ in range(40):
            K = random_complex(rng, max_m=5)
            res = shelling_search(K, budget=20000)
            if res.found:
                checked += 1
                assert is_scm(K, ZZ)
        assert checked > 10


class TestCollapse:
    def test_simplex_collapses(self):
        res = collapse_search(simplex(4))
        assert res.found
        assert is_collapse_sequence(simplex(4), res.certificate)

    def test_path_collapses(self):
        res = collapse_search(PATH)
        assert res.found and is_collapse_sequence(PATH, res.certificate)

    def test_cycle_has_no_free_face(self):
        assert collapse_search(C4).status == "none"

    def test_collapsible_implies_acyclic(self):
        rng = random.Random(17)
        for _ in range(30):
            K = random_complex(rng, max_m=5)
            if collapse_search(K, budget=30000).found:
                assert reduced_homology(K, ZZ).is_trivial()


class TestCollapseAgainstReference:
    @pytest.mark.parametrize("budget", [1, 7, 50, 60, 2000])
    @given(complexes(max_m=6))
    @settings(max_examples=400, deadline=None)
    def test_matches_recursive_reference(self, budget, K):
        res = collapse_search(K, budget)
        ref = reference_collapse_search(K, budget)
        steps = res.certificate.steps if res.found else None
        ref_steps = ref.certificate.steps if ref.found else None
        assert (res.status, res.nodes, steps) == (ref.status, ref.nodes,
                                                  ref_steps)


def test_free_pairs_match_the_definition():
    # at every step of a collapse, not only on the starting face sets
    rng = random.Random(29)
    for _ in range(500):
        faces = _face_set(random_complex(rng, max_m=6))
        while True:
            pairs = _free_pairs(faces)
            assert pairs == reference_free_pairs(faces)
            if not pairs:
                break
            faces = faces - set(pairs[0])


def path_complex(edges: int):
    return make_complex(edges + 1, [[v, v + 1] for v in range(1, edges + 1)])


class TestDeepSearches:
    def test_long_path_shells(self):
        # one step per edge: a recursive search would need 1,200 frames
        res = shelling_search(path_complex(1200))
        assert res.status == "found" and res.nodes == 1200

    def test_long_path_collapses(self):
        # one step per edge, each finding the free pairs without comparing
        # every pair of faces
        P = path_complex(400)
        res = collapse_search(P)
        assert res.status == "found" and res.nodes == 400
        assert is_collapse_sequence(P, res.certificate)

    def test_searches_do_not_use_the_interpreter_stack(self):
        P = path_complex(80)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 40)
        try:
            shelled = shelling_search(P)
            collapsed = collapse_search(P)
        finally:
            sys.setrecursionlimit(limit)
        assert shelled.found and shelled.nodes == 80
        assert collapsed.found
        assert is_collapse_sequence(P, collapsed.certificate)


def test_searches_leave_no_reference_cycles():
    # a recursive search closure refers to itself; unless the cycle is
    # broken, its failed-state memo lives until the next cyclic collection
    gc.collect()
    gc.disable()
    try:
        for search in (shelling_search, collapse_search):
            for K in (RP2, boundary_of_simplex(4)):
                search(K, budget=2000)
                assert gc.collect() == 0, (search.__name__, K)
    finally:
        gc.enable()


class TestFill:
    def test_boundary_fills_to_simplex(self):
        for m in (2, 3, 4):
            res = fill_search(boundary_of_simplex(m))
            assert res.found
            assert res.certificate.nonface_tuples() == [tuple(range(1, m + 1))]

    def test_four_cycle_mod_two_refuted(self):
        assert fill_search(C4, p=2).status == "refuted"

    def test_four_cycle_contractible_refuted(self):
        assert fill_search(C4).status == "refuted"

    def test_three_points_filling(self):
        res = fill_search(THREE_PTS)
        assert res.found
        cert = res.certificate
        assert len(cert.nonfaces) == 2     # two edges complete a tree
        filled = make_complex(3, [list(verts(f)) for f in cert.nonfaces]
                              + [[1], [2], [3]])
        assert reduced_homology(filled, ZZ).is_trivial()

    def test_full_simplex_trivially_filled(self):
        res = fill_search(simplex(3))
        assert res.found and res.certificate.nonfaces == ()

    def test_fillings_stay_out_of_the_store(self):
        # the pentagon's 5 minimal non-faces are edges, so no filling is
        # acyclic and all 2^5 are tried in each mode; the store would keep
        # every one of them until the run ends
        pentagon = make_complex(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
        fillings = {filled for chosen, filled
                    in _fillings(pentagon, minimal_nonfaces(pentagon)) if chosen}
        with run():
            for p in (None, 2):
                assert fill_search(pentagon, p=p).status == "refuted"
            keys = list(_STORE.get())
        assert len(fillings) == 31
        assert not any(part in fillings for key in keys for part in key[1:])

    def test_exhausted_search_reports_budget_plus_one(self):
        # an overrun collapse search ends the whole search: the dual search
        # after it and the next filling of the same size charge nothing
        for name in corpus_names():
            K = load(name).complex()
            for budget in range(40):
                res = fill_search(K, budget=budget)
                assert res.nodes <= budget + 1, (name, budget, res)
                if res.status == "exhausted":
                    assert res.nodes == budget + 1, (name, budget, res)


class TestHomologyFillable:
    def test_rp2_refuted_at_two(self):
        verdict = is_homology_fillable(RP2)
        assert verdict.status == "refuted"
        assert verdict.components[0].refuted_at == "p=2"

    def test_path_certified_with_empty_filling(self):
        verdict = is_homology_fillable(PATH)
        assert verdict.certified
        assert verdict.components[0].fillings_by_prime[0] == ("Q", [])

    def test_dual_shellable_member_certified(self):
        assert is_homology_fillable(simplex(4).skeleton(1)).certified

    def test_four_cycle_refuted(self):
        assert is_homology_fillable(C4).status == "refuted"

    def test_disconnected_components_handled(self):
        verdict = is_homology_fillable(TWO_EDGES)
        assert verdict.certified and len(verdict.components) == 2

    def test_fillings_stay_out_of_the_chain_memo(self):
        # the pentagon has r = 5 minimal non-faces, so 2^5 fillings are
        # tried; they must skip the run's store, which keeps the report
        pentagon = make_complex(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
        with run():
            verdict = is_homology_fillable(pentagon)
            store = _STORE.get()
            chains = [key for key in store if key[0] == "chains"]
            reports = [key for key in store if key[0] == "fill_report"]
        assert verdict.status == "refuted"
        assert len(chains) <= 1 and len(reports) == 1

    def test_equal_components_share_one_report(self):
        # four disjoint edges: four equal components, one report per run
        edges = make_complex(8, [[1, 2], [3, 4], [5, 6], [7, 8]])
        with run():
            verdict = is_homology_fillable(edges)
            reports = [key for key in _STORE.get() if key[0] == "fill_report"]
        assert verdict.certified and len(verdict.components) == 4
        assert len(reports) == 1
        assert all(c is verdict.components[0] for c in verdict.components)


class TestGcdAndWeakShelling:
    def test_berglund_found(self):
        res = strong_gcd_search(berglund_complex())
        assert res.found
        assert is_strong_gcd_order(berglund_complex(), res.certificate.nonfaces)

    def test_boundary_vacuous(self):
        assert strong_gcd_search(boundary_of_simplex(4)).found

    def test_four_cycle_none(self):
        assert strong_gcd_search(C4).status == "none"

    @given(complexes(max_m=5))
    @settings(max_examples=50, deadline=None)
    def test_duality_bridge(self, K):
        try:
            dual = alexander_dual(K)
        except ValueError:
            return
        a = strong_gcd_search(K)
        b = weak_shelling_search(dual)
        assert a.found == b.found
        if a.found:
            # reversed complements of a strong gcd order form a weak shelling
            full = (1 << K.m) - 1
            rev = tuple(full ^ M for M in reversed(a.certificate.nonfaces))
            assert is_weak_shelling(dual, rev)


class TestImplicationChain:
    def test_dual_shellable_implies_chain(self):
        # the chain of implications assumes every element of [m] is a vertex;
        # ghost vertices give empty full subcomplexes whose degree -1 classes
        # break Golodness while the dual stays shellable
        rng = random.Random(23)
        checked = 0
        for _ in range(60):
            K = random_complex(rng, max_m=5)
            if K.support != (1 << K.m) - 1:
                continue
            res = is_dual_shellable(K, budget=20000)
            if not res.found:
                continue
            checked += 1
            assert is_dual_scm(K, ZZ)
            assert strong_gcd_search(K).found
            assert is_homology_fillable(K).certified
            cert = filling_from_dual_shelling(K, res.certificate)
            assert cert is not None
        assert checked > 10
