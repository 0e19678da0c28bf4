import itertools
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from fatwedge.complexes import (_STORE, SimplicialComplex, _compress,
                                _full_subcomplex_facets, _maximal,
                                _restricted_facets, alexander_dual,
                                boundary_of_simplex, core_mask,
                                dominated_vertex, empty_complex, flag_complex,
                                full_subcomplex, is_chordal, join,
                                make_complex, mask_of,
                                max_neighborliness, minimal_nonfaces, run,
                                shared, simplex, verts)
from fatwedge.corpus import berglund_complex, load

from helpers import (brute_force_faces, deletion, dominated_vertices,
                     generated_subcomplex, link, naive_core, random_complex,
                     random_graph, random_two_complex, rp2_with_cones, star,
                     with_ground)


@st.composite
def complexes(draw, max_m=5):
    m = draw(st.integers(1, max_m))
    gens = draw(st.lists(
        st.lists(st.integers(1, m), min_size=1, max_size=m, unique=True),
        max_size=8))
    return make_complex(m, gens)


C4 = make_complex(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


def facet_tuples(K):
    return [verts(f) for f in K.facets]


def _verts_bit_by_bit(mask):
    out = []
    v = 1
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def _compress_bit_by_bit(mask, imask):
    out = 0
    pos = 0
    while imask:
        low = imask & -imask
        if mask & low:
            out |= 1 << pos
        pos += 1
        imask ^= low
    return out


class TestBitmasks:
    def test_verts_matches_a_walk_over_every_bit(self):
        rng = random.Random(2500)
        masks = [0, 1, (1 << 2500) - 1, 1 << 2499, (1 << 2499) | 1]
        for _ in range(200):
            n = rng.randint(1, 2500)
            density = rng.choice((0.001, 0.05, 0.5, 0.95))
            masks.append(sum(1 << i for i in range(n) if rng.random() < density))
        for mask in masks:
            assert verts(mask) == _verts_bit_by_bit(mask)

    def test_compress_matches_a_walk_over_every_bit_of_i(self):
        # every (mask, I) pair on [7], masks with bits outside I included
        for imask in range(1 << 7):
            for mask in range(1 << 7):
                assert _compress(mask, imask) == \
                    _compress_bit_by_bit(mask, imask), (mask, imask)


class TestNoMaximalityPass:
    """join, flag_complex and skeleton build their facets directly; the
    families they pass are already antichains."""

    def test_join_facets_are_maximal(self):
        rng = random.Random(2601)
        for _ in range(60):
            A, B = random_complex(rng, max_m=4), random_complex(rng, max_m=4)
            products = [f | g << A.m for f in A.facets for g in B.facets]
            assert join(A, B) == SimplicialComplex(A.m + B.m, products)

    def test_flag_complex_is_generated_by_every_clique(self):
        rng = random.Random(2602)
        for _ in range(60):
            G = random_graph(rng, max_m=8)
            edges = set(G.faces(1))
            cliques = [c for c in range(1, 1 << G.m)
                       if all(e in edges for e in _pairs(c))]
            assert flag_complex(G) == SimplicialComplex(G.m, cliques)

    def test_skeleton_facets_are_maximal(self):
        rng = random.Random(2603)
        for _ in range(60):
            K = random_complex(rng, max_m=7)
            for k in range(-1, K.dim):
                faces = [s for s in range(1 << K.m)
                         if K.has_face(s) and s.bit_count() <= k + 1]
                assert K.skeleton(k) == SimplicialComplex(K.m, faces), (K, k)


def _pairs(mask):
    vs = verts(mask)
    return [mask_of(p) for p in itertools.combinations(vs, 2)]


class TestMakeComplex:
    def test_cycle_generators_already_maximal(self):
        assert facet_tuples(C4) == [(1, 2), (1, 4), (2, 3), (3, 4)]

    def test_nested_generators_absorbed(self):
        K = make_complex(3, [[1, 2], [1], [2]])
        assert facet_tuples(K) == [(1, 2)]

    def test_empty_generators_give_empty_complex(self):
        K = make_complex(3, [])
        assert facet_tuples(K) == [()]
        assert K.dim == -1

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError):
            make_complex(2, [[3]])
        with pytest.raises(ValueError):
            make_complex(0, [])

    def test_void_complex_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(2, ())


class TestFullSubcomplex:
    def test_nonface_pair_gives_two_points(self):
        sub = full_subcomplex(C4, mask_of([1, 3]))
        assert facet_tuples(sub) == [(1,), (2,)]

    def test_edge(self):
        assert facet_tuples(full_subcomplex(C4, mask_of([1, 2]))) == [(1, 2)]

    def test_whole_ground_set_is_identity(self):
        assert full_subcomplex(C4, mask_of([1, 2, 3, 4])) == C4

    def test_brute_force_filter(self):
        rng = random.Random(0)
        for _ in range(25):
            K = random_complex(rng, max_m=5)
            I = sorted(rng.sample(range(1, K.m + 1), rng.randint(1, K.m)))
            sub = full_subcomplex(K, mask_of(I))
            relabel = {v: i + 1 for i, v in enumerate(I)}
            want = {tuple(relabel[v] for v in f)
                    for f in brute_force_faces(K) if set(f) <= set(I)}
            assert brute_force_faces(sub) == want


    def test_restricted_facets_are_the_maximal_ones(self):
        # every I, and 20 sampled disjoint (I, J), on 200 seeded complexes,
        # every third with a ghost vertex added
        rng = random.Random(2020)
        for k in range(200):
            K = random_complex(rng, max_m=7)
            if k % 3 == 0:
                K = with_ground(K, K.m + 1)
            full = (1 << K.m) - 1
            masks = list(range(1 << K.m))
            for _ in range(20):
                imask = rng.randrange(1, 1 << K.m)
                masks.append(imask | rng.randrange(1 << K.m) & full & ~imask)
            for mask in masks:
                got = _restricted_facets(K, mask)
                assert len(got) == len(set(got))
                assert set(got) == set(_maximal(f & mask for f in K.facets)), \
                    (K, verts(mask))

    def test_table_facets_are_the_maximal_ones(self):
        # the facets the full-subcomplex table derives for every I of 200
        # seeded complexes of four kinds, every third with a ghost vertex
        # added, and their relabelling onto 1..|I|
        for K in _seeded_cores()[1][:200]:
            walked = []
            for imask, facets, relabelled in _full_subcomplex_facets(K):
                walked.append(imask)
                assert len(facets) == len(set(facets))
                assert set(facets) == set(_maximal(f & imask
                                                   for f in K.facets)), \
                    (K, verts(imask))
                assert relabelled == [_compress(f, imask) for f in facets]
            assert walked == list(range(1, 1 << K.m)), K


def _core(K):
    return full_subcomplex(K, core_mask(K))


def _seeded_cores():
    """400 seeded complexes of four kinds, every third with a ghost vertex
    added, then rp2_6 and berglund_10."""
    rng = random.Random(2012)
    cases = []
    for _ in range(100):
        cases += [random_complex(rng, max_m=7), random_two_complex(rng),
                  flag_complex(random_graph(rng)), rp2_with_cones(rng)]
    cases = [with_ground(K, K.m + 1) if k % 3 == 0 else K
             for k, K in enumerate(cases)]
    return rng, cases + [load("rp2_6").complex(), berglund_complex()]


class TestStrongCollapseCore:
    def test_core_is_a_full_subcomplex_with_no_dominated_vertex(self):
        # and its f-vector is that of a core found by rescanning after every
        # deletion, so the worklist reached a core, and the same one up to
        # isomorphism
        for K in _seeded_cores()[1]:
            J = core_mask(K)
            assert J & ~K.support == 0
            core = _core(K)
            assert dominated_vertices(core) == [], K
            assert core.f_vector() == naive_core(K).f_vector(), K

    def test_dominated_vertex_is_the_lowest_one(self):
        # on the maximal faces of K, and of every K_I in K's labels
        for K in _seeded_cores()[1][:200]:
            want = dominated_vertices(K)
            got = dominated_vertex(K.facets, K.support)
            assert got == (1 << want[0] - 1 if want else 0), K
            for imask in range(1, 1 << K.m):
                facets = _restricted_facets(K, imask)
                support = mask_of(v for f in facets for v in verts(f))
                want = dominated_vertices(full_subcomplex(K, imask))
                got = verts(dominated_vertex(facets, support))
                assert got == tuple(verts(imask)[v - 1] for v in want[:1]), \
                    (K, verts(imask))

    def test_a_face_that_is_not_maximal_hides_a_domination(self):
        # every vertex of the triangle {1, 2, 3} is dominated, but with its
        # edges listed too the AND through each vertex is that vertex
        assert dominated_vertex([0b111], 0b111) == 0b001
        assert dominated_vertex([0b111, 0b011, 0b101, 0b110], 0b111) == 0

    def test_relabelling_gives_a_core_of_the_same_f_vector(self):
        rng, cases = _seeded_cores()
        for K in cases[:150]:
            want = _core(K).f_vector()
            for _ in range(3):
                perm = list(range(1, K.m + 1))
                rng.shuffle(perm)
                L = make_complex(K.m, [[perm[v - 1] for v in verts(f)]
                                       for f in K.facets])
                assert _core(L).f_vector() == want, (K, perm)

    def test_named_cores(self):
        rng = random.Random(5)
        for _ in range(20):
            cone = join(random_complex(rng, max_m=5), simplex(1))
            assert core_mask(cone).bit_count() == 1, cone
        rp2 = load("rp2_6").complex()
        assert core_mask(rp2) == (1 << 6) - 1
        assert _core(with_ground(rp2, 8)) == rp2
        assert core_mask(C4) == 0b1111 and _core(C4) == C4
        assert core_mask(empty_complex(3)) == 0
        assert _core(empty_complex(3)) == empty_complex(1)
        n = 2401
        path = make_complex(n, [[v, v + 1] for v in range(1, n)])
        assert core_mask(path).bit_count() == 1
        # two points with a ghost: nothing to delete but the ghost
        assert core_mask(make_complex(3, [[1], [3]])) == 0b101


class TestLinkDeletionStar:
    def test_link_of_vertex_in_triangle_boundary(self):
        assert facet_tuples(link(boundary_of_simplex(3), mask_of([1]))) == [(1,), (2,)]

    def test_link_outside_raises(self):
        with pytest.raises(ValueError):
            link(C4, mask_of([1, 3]))

    def test_deletion_of_cycle_vertex_is_path(self):
        assert facet_tuples(deletion(C4, [1])) == [(1, 2), (2, 3)]

    def test_berglund_link_is_cone(self):
        B = berglund_complex()
        lk = link(B, mask_of([7, 8, 9, 10]))
        assert lk.m == 6
        assert [verts(M) for M in minimal_nonfaces(lk)] == \
            [(2, 3), (3, 4), (4, 5), (6,)]
        # a cone with apex 1: every facet contains vertex 1
        assert all(f & 1 for f in lk.facets)

    def test_star(self):
        st_ = star(C4, 1)
        assert facet_tuples(st_) == [(1, 2), (1, 4)]


class TestJoin:
    def test_two_points_join_two_points_is_square(self):
        two = make_complex(2, [[1], [2]])
        sq = join(two, two)
        assert facet_tuples(sq) == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_cone_and_suspension_shapes(self):
        c = join(simplex(1), C4)
        assert c.m == 5 and c.dim == 2
        s = join(boundary_of_simplex(2), C4)
        assert s.m == 6 and s.dim == 2

    def test_join_of_boundaries(self):
        K = join(boundary_of_simplex(2), boundary_of_simplex(3))
        want = sorted((i, j, k) for i in (1, 2) for j, k in [(3, 4), (3, 5), (4, 5)])
        assert facet_tuples(K) == want

    @given(complexes(max_m=4), complexes(max_m=3))
    @settings(max_examples=40, deadline=None)
    def test_f_vector_convolution(self, K1, K2):
        f1, f2 = K1.f_vector(), K2.f_vector()
        f12 = join(K1, K2).f_vector()
        for n in range(len(f12)):
            conv = sum(f1[a] * f2[n - a]
                       for a in range(len(f1)) if 0 <= n - a < len(f2))
            assert f12[n] == conv


class TestMinimalNonfaces:
    def test_boundary_of_simplex(self):
        for m in (2, 3, 4):
            assert [verts(M) for M in minimal_nonfaces(boundary_of_simplex(m))] \
                == [tuple(range(1, m + 1))]

    def test_four_cycle_brute_force(self):
        got = [verts(M) for M in minimal_nonfaces(C4)]
        brute = []
        for mask in range(1, 1 << 4):
            if not C4.has_face(mask):
                if all(C4.has_face(mask ^ (1 << (v - 1))) for v in verts(mask)):
                    brute.append(verts(mask))
        assert got == sorted(brute)

    def test_berglund(self):
        B = berglund_complex()
        assert [set(verts(M)) for M in minimal_nonfaces(B)] == \
            [{1, 2, 6, 7}, {1, 5, 6, 10}, {2, 3, 7, 8}, {3, 4, 8, 9},
             {4, 5, 9, 10}, {6, 7, 8, 9, 10}]

    @given(complexes(max_m=5))
    @settings(max_examples=50, deadline=None)
    def test_adding_any_nonface_is_still_a_complex(self, K):
        for M in minimal_nonfaces(K):
            filled = SimplicialComplex(K.m, list(K.facets) + [M])
            assert filled.has_face(M)


class TestAlexanderDual:
    def test_four_cycle(self):
        assert facet_tuples(alexander_dual(C4)) == [(1, 3), (2, 4)]

    def test_empty_complex_dualizes_to_boundary(self):
        assert alexander_dual(empty_complex(3), 3) == boundary_of_simplex(3)

    def test_berglund_facets_are_complements(self):
        B = berglund_complex()
        dual = alexander_dual(B, 10)
        assert set(map(verts, dual.facets)) == {
            (3, 4, 5, 8, 9, 10), (1, 4, 5, 6, 9, 10), (2, 3, 4, 7, 8, 9),
            (1, 2, 3, 6, 7, 8), (1, 2, 5, 6, 7, 10), (1, 2, 3, 4, 5)}

    def test_full_simplex_raises(self):
        with pytest.raises(ValueError):
            alexander_dual(simplex(3))

    @given(complexes(max_m=5), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_double_dual(self, K, extra):
        s = K.m + extra
        lifted = with_ground(K, s)
        try:
            dual = alexander_dual(lifted, s)
        except ValueError:
            return  # full simplex
        assert alexander_dual(dual, s) == lifted

    @given(complexes(max_m=5))
    @settings(max_examples=60, deadline=None)
    def test_facets_of_dual_are_nonface_complements(self, K):
        try:
            dual = alexander_dual(K)
        except ValueError:
            return
        full = (1 << K.m) - 1
        assert sorted(dual.facets) == sorted(full ^ M for M in minimal_nonfaces(K))

    @given(complexes(max_m=5))
    @settings(max_examples=60, deadline=None)
    def test_deletion_link_duality(self, K):
        try:
            dual = alexander_dual(K)
        except ValueError:
            return
        for v in verts(dual.support):
            lhs = alexander_dual(deletion(K, [v]), K.m - 1)
            rhs = link(dual, mask_of([v]))
            assert lhs == rhs


class TestGeneratedSubcomplex:
    def test_cycle_is_fixed(self):
        assert generated_subcomplex(C4, 1) == C4

    def test_drops_isolated_vertex(self):
        K = make_complex(6, [[1, 5], [2, 5], [1, 2], [3]])
        got = generated_subcomplex(K, 1)
        assert facet_tuples(got) == [(1, 2), (1, 5), (2, 5)]

    def test_dim_zero_keeps_everything_solid(self):
        got = generated_subcomplex(C4, 0)
        assert got == C4

    def test_empty_result(self):
        got = generated_subcomplex(make_complex(3, [[1]]), 1)
        assert facet_tuples(got) == [()]


class TestFlagAndChordal:
    def test_four_cycle(self):
        assert flag_complex(C4) == C4
        assert not is_chordal(C4)

    def test_complete_graph(self):
        K4 = simplex(4).skeleton(1)
        assert flag_complex(K4) == simplex(4)
        assert is_chordal(K4)

    def test_path(self):
        P = make_complex(4, [[1, 2], [2, 3], [3, 4]])
        assert flag_complex(P) == P
        assert is_chordal(P)

    def test_rejects_two_faces(self):
        with pytest.raises(ValueError):
            flag_complex(simplex(3))

    def test_longer_cycle_not_chordal(self):
        C5 = make_complex(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
        assert not is_chordal(C5)
        chorded = make_complex(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5],
                                   [1, 3], [1, 4]])
        assert is_chordal(chorded)


class TestNeighborliness:
    def test_berglund_two_not_three(self):
        B = berglund_complex()
        assert max_neighborliness(B) == 2

    def test_simplex(self):
        assert max_neighborliness(simplex(4)) == 3

    def test_four_cycle(self):
        assert max_neighborliness(C4) == 0

    @given(complexes(max_m=5))
    @settings(max_examples=50, deadline=None)
    def test_formula_vs_subset_scan(self, K):
        mn = max_neighborliness(K)
        # direct scan: largest k such that every (k+1)-subset is a face
        direct = K.m - 1
        for k in range(K.m):
            size = k + 1
            from itertools import combinations
            if not all(K.has_face(mask_of(c))
                       for c in combinations(range(1, K.m + 1), size)):
                direct = k - 1
                break
        assert mn == direct


class TestRunScopedStore:
    def test_outside_a_run_nothing_is_kept(self):
        assert shared(("test", 1), object) is not shared(("test", 1), object)

    def test_nested_runs_share_one_store(self):
        with run():
            first = shared(("test", 1), object)
            with run():
                assert shared(("test", 1), object) is first
                inner = shared(("test", 2), object)
            # the inner run joined the outer one, so its results stay
            assert shared(("test", 2), object) is inner
            assert shared(("test", 1), object) is first
        assert _STORE.get() is None
        with run():
            assert shared(("test", 1), object) is not first

    def test_decorator_opens_a_run_per_call(self):
        @run()
        def two_lookups():
            return shared(("test", 1), object), shared(("test", 1), object)

        a, b = two_lookups()
        assert a is b and two_lookups()[0] is not a

    def test_a_new_thread_does_not_see_the_run(self):
        seen = []
        with run():
            mine = shared(("test", 1), object)
            t = threading.Thread(target=lambda: seen.append(
                (_STORE.get(), shared(("test", 1), object))))
            t.start()
            t.join(timeout=10)
        assert not t.is_alive()
        assert seen[0][0] is None and seen[0][1] is not mine

    def test_equal_complexes_share_one_full_subcomplex(self):
        K = berglund_complex()
        twin = SimplicialComplex(K.m, K.facets)
        I = mask_of((1, 2, 5))
        with run():
            assert full_subcomplex(twin, I) is full_subcomplex(K, I)
        assert full_subcomplex(K, I) == full_subcomplex(twin, I)
