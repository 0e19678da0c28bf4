import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from fatwedge.complexes import (SimplicialComplex, alexander_dual,
                                boundary_of_simplex, empty_complex,
                                flag_complex, full_subcomplex, join,
                                make_complex, mask_of, run, simplex, verts)
from fatwedge.corpus import berglund_complex, load
from fatwedge import homology
from fatwedge.homology import (GF, QQ, ZZ, HomologyBasis, HomologyProfile,
                               are_boundaries,
                               build_simplicial_chain_complex, chain_homology,
                               dK, full_subcomplex_homology,
                               full_subcomplex_profiles, hodim,
                               is_zero_on_homology, reduced_homology,
                               simplicial_chain_complex)
from fatwedge.snf import complex_rank_divisors
from fatwedge.tor import torsion_primes

from helpers import (dense_boundary, is_i_acyclic, naive_homology,
                     naive_is_boundary, naive_rank_mod_p, random_complex,
                     random_graph, random_two_complex, rp2_with_cones,
                     with_ground)
from test_complexes import complexes

C4 = make_complex(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
RP2 = make_complex(6, [[2, 3, 4], [3, 4, 5], [1, 3, 5], [1, 2, 5], [2, 5, 6],
                       [2, 3, 6], [1, 3, 6], [1, 4, 6], [1, 2, 4], [4, 5, 6]])


class TestRings:
    def test_prime_checked(self):
        with pytest.raises(ValueError):
            GF(4)
        with pytest.raises(ValueError):
            GF(1)
        assert repr(GF(7)) == "Z/7"

    def test_field_flags(self):
        assert not ZZ.is_field
        assert QQ.is_field and GF(2).is_field


class TestReducedHomology:
    def test_circle(self):
        prof = reduced_homology(boundary_of_simplex(3), ZZ)
        assert prof.betti(1) == 1 and prof.nonzero_degrees() == (1,)

    def test_rp2(self):
        prof = reduced_homology(RP2, ZZ)
        assert prof.free == {} and prof.torsion == {1: (2,)}
        assert reduced_homology(RP2, QQ).is_trivial()
        p2 = reduced_homology(RP2, GF(2))
        assert p2.betti(1) == 1 and p2.betti(2) == 1

    def test_empty_complex(self):
        prof = reduced_homology(empty_complex(3), ZZ)
        assert prof.betti(-1) == 1 and prof.nonzero_degrees() == (-1,)

    def test_spheres(self):
        for m in (2, 3, 4, 5):
            prof = reduced_homology(boundary_of_simplex(m), ZZ)
            assert prof.free == {m - 2: 1} and not prof.torsion

    def test_simplex_acyclic(self):
        for ring in (ZZ, QQ, GF(2), GF(5)):
            assert reduced_homology(simplex(4), ring).is_trivial()

    @given(complexes(max_m=5))
    @settings(max_examples=50, deadline=None)
    def test_euler_characteristic(self, K):
        prof = reduced_homology(K, QQ)
        f = K.f_vector()
        chi_chain = sum((-1) ** (d - 1) * f[d] for d in range(len(f)))
        chi_hom = sum((-1) ** q * prof.betti(q)
                      for q in prof.nonzero_degrees())
        assert chi_chain == chi_hom

    @given(complexes(max_m=5), st.sampled_from([2, 3, 5]))
    @settings(max_examples=50, deadline=None)
    def test_universal_coefficients(self, K, p):
        z = reduced_homology(K, ZZ)
        fp = reduced_homology(K, GF(p))
        for q in range(-1, K.dim + 1):
            want = (z.betti(q)
                    + sum(1 for d in z.torsion_at(q) if d % p == 0)
                    + sum(1 for d in z.torsion_at(q - 1) if d % p == 0))
            assert fp.betti(q) == want

    @given(complexes(max_m=4), complexes(max_m=3), st.sampled_from([QQ, GF(2)]))
    @settings(max_examples=40, deadline=None)
    def test_kunneth_for_joins(self, K1, K2, ring):
        pj = reduced_homology(join(K1, K2), ring)
        p1 = reduced_homology(K1, ring)
        p2 = reduced_homology(K2, ring)
        for n in range(-1, K1.dim + K2.dim + 3):
            want = sum(p1.betti(a) * p2.betti(n - 1 - a)
                       for a in range(-1, n + 2))
            assert pj.betti(n) == want

    def test_mod_p_betti_against_naive_ranks(self):
        # both sides of the Z/p Hochster identity read the integral profiles
        # by universal coefficients; this checks that reading, for K and for
        # every K_I of the Z/p table, against dense ranks mod p
        rng = random.Random(17)
        cases = [random_complex(rng, max_m=6) for _ in range(40)]
        cases += [rp2_with_cones(rng) for _ in range(6)]
        cases.append(load("rp2_6").complex())
        assert sum(bool(reduced_homology(K).torsion) for K in cases) >= 4

        def naive_betti(K, p, q):
            return (len(K.faces(q))
                    - naive_rank_mod_p(dense_boundary(K, q), p)
                    - naive_rank_mod_p(dense_boundary(K, q + 1), p))

        for K in cases:
            for p in (2, 3, 5):
                prof = reduced_homology(K, GF(p))
                for q in range(-1, K.dim + 1):
                    assert prof.betti(q) == naive_betti(K, p, q), (K, p, q)
                table = full_subcomplex_profiles(K, GF(p))
                for imask in range(1, 1 << K.m):
                    KI = full_subcomplex(K, imask)
                    want = {q: naive_betti(KI, p, q)
                            for q in range(-1, KI.dim + 1)}
                    got = table[imask].free if imask in table else {}
                    assert got == {q: b for q, b in want.items() if b}, \
                        (K, p, verts(imask))


def _core_cases():
    """1,100 seeded complexes of four kinds (RP^2 with cones for torsion),
    every third with a ghost vertex added."""
    rng = random.Random(2012)
    cases = []
    for _ in range(275):
        cases += [random_complex(rng, max_m=7), random_two_complex(rng),
                  flag_complex(random_graph(rng)), rp2_with_cones(rng)]
    return [with_ground(K, K.m + 1) if k % 3 == 0 else K
            for k, K in enumerate(cases)]


class TestHomologyOnTheCore:
    rings = (ZZ, QQ, GF(2), GF(3))

    def test_profile_equals_that_of_the_cells_of_K(self):
        torsion = 0
        for K in _core_cases():
            cc = build_simplicial_chain_complex(K)
            for ring in self.rings:
                assert reduced_homology(K, ring) == chain_homology(cc, ring), \
                    (K, ring)
            torsion += bool(chain_homology(cc, ZZ).torsion)
        assert torsion >= 50

    def test_profile_matches_naive_dense_ranks(self):
        for K in _core_cases()[:120]:
            for ring in self.rings:
                assert reduced_homology(K, ring) == naive_homology(K, ring), \
                    (K, ring)

    def test_a_run_builds_chains_once_per_distinct_core(self, monkeypatch):
        # the full subcomplexes of a path on six vertices are forests of
        # paths, whose cores are one, two or three points
        calls, real = [], homology.build_simplicial_chain_complex

        def counted(K):
            calls.append(K)
            return real(K)

        monkeypatch.setattr(homology, "build_simplicial_chain_complex", counted)
        path = make_complex(6, [[v, v + 1] for v in range(1, 6)])
        with run():
            profiles = [full_subcomplex_homology(path, imask, ZZ)
                        for imask in range(1, 1 << 6)]
        assert {p.betti(0) for p in profiles} == {0, 1, 2}
        assert sorted(K.m for K in calls) == [1, 2, 3]


def _reference_table(K, ring, chains):
    """{I: H~(K_I)} from the cells of every K_I, with no core; ``chains``
    keeps one chain complex per distinct K_I across calls."""
    table = {}
    for imask in range(1, 1 << K.m):
        KI = full_subcomplex(K, imask)
        if KI not in chains:
            chains[KI] = build_simplicial_chain_complex(KI)
        prof = chain_homology(chains[KI], ring)
        if not prof.is_trivial():
            table[imask] = prof
    return table


class TestFullSubcomplexTable:
    rings = (ZZ, QQ, GF(2), GF(3))

    def _check(self, K, chains):
        with run():
            for ring in self.rings:
                table = full_subcomplex_profiles(K, ring)
                assert table == _reference_table(K, ring, chains), (K, ring)
                assert list(table) == sorted(table), K

    def test_table_matches_the_cells_of_every_full_subcomplex(self):
        # 1,000 seeded complexes of four kinds, every third with a ghost
        # vertex added; RP^2 with a cone carries torsion
        rng = random.Random(2023)
        cases = []
        for _ in range(250):
            cases += [random_complex(rng, max_m=7),
                      random_two_complex(rng, max_m=6),
                      flag_complex(random_graph(rng, max_m=7)),
                      rp2_with_cones(rng, cones=1)]
        cases = [with_ground(K, K.m + 1) if k % 3 == 0 else K
                 for k, K in enumerate(cases)]
        chains = {}
        for K in cases:
            self._check(K, chains)
        assert sum(K.support != (1 << K.m) - 1 for K in cases) >= 333
        assert sum(bool(reduced_homology(K).torsion) for K in cases) >= 200

    def test_edge_cases(self):
        chains = {}
        ghost = make_complex(3, [[1, 2]])
        for K in (ghost, empty_complex(4), simplex(5),
                  load("rp2_6").complex()):
            self._check(K, chains)
        z = HomologyProfile(ZZ, {-1: 1})
        # a ghost-only K_I is {()}, with H~_{-1} = Z, not a point
        assert full_subcomplex_profiles(ghost)[0b100] == z
        assert 0b101 not in full_subcomplex_profiles(ghost)
        assert full_subcomplex_profiles(empty_complex(4)) == \
            {I: z for I in range(1, 16)}
        assert full_subcomplex_profiles(simplex(5)) == {}
        rp2 = full_subcomplex_profiles(load("rp2_6").complex())
        assert rp2[(1 << 6) - 1].torsion_at(1) == (2,)

    def test_equal_entries_share_one_profile(self):
        # a path's full subcomplexes are forests of paths: a K_I with a
        # dominated vertex copies the entry of K_{I - v}, and the forests
        # of points left share their chains, so every I with two components
        # holds one profile object
        path = make_complex(6, [[v, v + 1] for v in range(1, 6)])
        with run():
            table = full_subcomplex_profiles(path)
        two = [prof for prof in table.values() if prof.betti(0) == 1]
        assert len(two) > 1 and all(prof is two[0] for prof in two)

    def test_relabelling_permutes_the_table(self):
        # a permutation pi of [m] moves every entry from I to pi(I) and
        # changes no profile, dK or torsion prime; the ghost of every third
        # case lands anywhere in [m]
        rng = random.Random(2029)
        for K in _core_cases()[:200]:
            perm = list(range(1, K.m + 1))
            rng.shuffle(perm)

            def move(mask):
                return mask_of(perm[v - 1] for v in verts(mask))

            L = SimplicialComplex(K.m, [move(f) for f in K.facets])
            with run():
                want = {move(I): prof
                        for I, prof in full_subcomplex_profiles(K).items()}
                assert full_subcomplex_profiles(L) == want, (K, perm)
                assert dK(L) == dK(K), (K, perm)
                assert torsion_primes(L) == torsion_primes(K), (K, perm)


class TestOneReductionPerComplex:
    # RP^2 on six vertices with a triangle hung on the edge {1, 2}: Z/2 in
    # H_1, so the four rings give four different profiles
    K = make_complex(7, [[2, 3, 4], [3, 4, 5], [1, 3, 5], [1, 2, 5], [2, 5, 6],
                         [2, 3, 6], [1, 3, 6], [1, 4, 6], [1, 2, 4], [4, 5, 6],
                         [1, 2, 7]])
    rings = (ZZ, QQ, GF(2), GF(3))

    def test_every_ring_shares_one_reduction(self, monkeypatch):
        fresh = build_simplicial_chain_complex
        want = {ring: chain_homology(fresh(self.K), ring) for ring in self.rings}
        assert want[ZZ].torsion_at(1) == (2,) and want[GF(2)].betti(2) == 1
        calls = []

        def counted(*args):
            calls.append(args)
            return complex_rank_divisors(*args)

        monkeypatch.setattr(homology, "complex_rank_divisors", counted)
        for order in (self.rings, self.rings[::-1]):
            calls.clear()
            cc = fresh(self.K)
            for ring in order + order:
                assert chain_homology(cc, ring) == want[ring]
            assert len(calls) == 1

    def test_field_basis_checks_its_rank(self, monkeypatch):
        # a Smith form that loses a class must trip the rank check of the
        # basis against the sparse reduction, over Z and over fields: it
        # reports its largest divisor as 1, or one unit divisor too many.
        # The first case is the Z/2 of H_2(K; Z/2), the Tor(H_1, Z/2) part;
        # in the others the cycles of C4 are one free class and there are
        # no boundaries
        exact = homology.smith_normal_form

        def lossy(matrix):
            res = exact(matrix)
            ds = res.divisors
            if ds and ds[-1] > 1:
                ds = ds[:-1] + (1,)
            elif res.rank < min(res.shape):
                ds += (1,)
            return dataclasses.replace(res, divisors=ds)

        monkeypatch.setattr(homology, "smith_normal_form", lossy)
        for K, ring, q in ((self.K, GF(2), 2), (C4, QQ, 1), (C4, ZZ, 1)):
            cc = build_simplicial_chain_complex(K)
            with pytest.raises(AssertionError, match="rank mismatch"):
                HomologyBasis(cc, ring, q)
        monkeypatch.setattr(homology, "smith_normal_form", exact)
        for K, ring, q in ((self.K, GF(2), 2), (self.K, ZZ, 1), (C4, QQ, 1), (C4, ZZ, 1)):
            cc = build_simplicial_chain_complex(K)
            assert HomologyBasis(cc, ring, q).rank == 1


class TestAcyclicity:
    def test_two_points(self):
        two = make_complex(2, [[1], [2]])
        assert is_i_acyclic(two, ZZ, -1)
        assert not is_i_acyclic(two, ZZ, 0)

    def test_empty_complex_is_not_minus_one_acyclic(self):
        assert not is_i_acyclic(empty_complex(2), ZZ, -1)

    def test_berglund_acyclic(self):
        assert reduced_homology(berglund_complex(), ZZ).is_trivial()


class TestHodim:
    def test_rp2(self):
        assert hodim(RP2) == 2
        assert dK(RP2) == 2

    def test_simplex_sentinel(self):
        assert hodim(simplex(3)) is None
        assert dK(simplex(3)) is None

    def test_berglund(self):
        assert dK(berglund_complex()) == 4

    def test_circle(self):
        assert hodim(boundary_of_simplex(3)) == 1


class TestAlexanderDuality:
    @given(complexes(max_m=5), st.sampled_from([QQ, GF(2), GF(3)]))
    @settings(max_examples=60, deadline=None)
    def test_field_duality(self, K, ring):
        try:
            dual = alexander_dual(K)
        except ValueError:
            return
        s = K.m
        pk = reduced_homology(K, ring)
        pd = reduced_homology(dual, ring)
        for i in range(-1, s + 1):
            assert pk.betti(i) == pd.betti(s - i - 3)

    def test_integral_duality_with_torsion(self):
        # RP2 vs its dual over [6]: H~_i(K) = H~^{3-i}(K^dual), and by
        # universal coefficients H~^n has the free rank of H~_n and the
        # torsion of H~_{n-1}
        dual = reduced_homology(alexander_dual(RP2), ZZ)
        prof = reduced_homology(RP2, ZZ)
        for i in range(-1, 7):
            assert prof.betti(i) == dual.betti(6 - i - 3)
            assert prof.torsion_at(i) == dual.torsion_at(6 - i - 4)


def zero_on_homology(A, B, ring, **kw):
    """is_zero_on_homology on the simplicial chains of A and B."""
    return is_zero_on_homology(simplicial_chain_complex(A),
                               simplicial_chain_complex(B), ring, **kw)


class TestInducedMaps:
    """Maps on homology induced by inclusions of subcomplexes."""

    def test_identity_map(self):
        assert not zero_on_homology(C4, C4, ZZ)
        assert not zero_on_homology(RP2, RP2, ZZ)     # the Z/2 in H_1

    def test_two_points_merge_in_cycle(self):
        A = make_complex(4, [[1], [3]])
        assert zero_on_homology(A, C4, QQ)

    def test_torsion_detected_over_Z(self):
        # RP2 into the cone over RP2 kills everything
        cone7 = make_complex(7, [list(verts(f)) + [7] for f in RP2.facets])
        assert zero_on_homology(RP2, cone7, ZZ)

    def test_non_simplicial_map_rejected(self):
        # C4 is not a subcomplex of the path 1-2-3-4 (no edge 14), and the
        # boundary of a triangle is not one of three points (no edges)
        path = make_complex(4, [[1, 2], [2, 3], [3, 4]])
        with pytest.raises(ValueError, match="not a subcomplex"):
            zero_on_homology(C4, path, ZZ)
        with pytest.raises(ValueError, match="not a subcomplex"):
            zero_on_homology(boundary_of_simplex(3),
                             make_complex(3, [[1], [2], [3]]), ZZ)

    def test_subcomplex_inclusion_rank(self):
        # boundary of a triangle inside the 1-skeleton of the simplex on [4]
        A = with_ground(boundary_of_simplex(3), 4)
        B = simplex(4).skeleton(1)
        assert not zero_on_homology(A, B, QQ)
        assert zero_on_homology(A, B, QQ, degrees=(0,))


class TestSplitFullSubcomplex:
    def test_subcomplex_of_the_join_with_the_homology_of_K_IJ(self):
        # 150 seeded complexes, every third with a ghost vertex added, each
        # split at random into disjoint I, J; the labels are checked against
        # I onto 1..|I| and J above it, each in order
        rng = random.Random(1412)
        for k in range(150):
            K = random_complex(rng, max_m=6)
            if k % 3 == 0:
                K = with_ground(K, K.m + 1)
            side = [rng.randrange(3) for _ in range(K.m)]
            side[rng.randrange(K.m)] = 0
            I = [v for v in range(1, K.m + 1) if side[v - 1] == 0]
            J = [v for v in range(1, K.m + 1) if side[v - 1] == 1]
            S = full_subcomplex(K, mask_of(I), mask_of(J))
            union = full_subcomplex(K, mask_of(I + J))
            label = {v: n for n, v in enumerate(I + J, start=1)}
            want = {mask_of(label[v] for v in verts(f))
                    for f in range(1 << K.m)
                    if K.has_face(f) and set(verts(f)) <= set(I + J)}
            assert set(S.all_faces()) == want, (K, I, J)
            assert S.f_vector() == union.f_vector()
            assert reduced_homology(S, ZZ) == reduced_homology(union, ZZ)
            if J:
                B = join(full_subcomplex(K, mask_of(I)),
                         full_subcomplex(K, mask_of(J)))
                assert all(B.has_face(f) for f in S.facets), (K, I, J)
            else:
                assert S == full_subcomplex(K, mask_of(I))

    def test_overlapping_or_out_of_range_sets_rejected(self):
        for imask, jmask in ((0b011, 0b110), (0b10000, 0), (0, 0b10000)):
            with pytest.raises(ValueError):
                full_subcomplex(C4.skeleton(0), imask, jmask)
        # both empty is the degenerate K_{} = {()} on [1]
        assert full_subcomplex(C4, 0, 0) == empty_complex(1)


class TestHomologyBases:
    """Bases over Z, Q, Z/2 and Z/3 against the naive dense oracles: the
    number of classes, and that sum c_i g_i plus a random boundary is a
    boundary exactly when each c_i is zero mod the order of g_i (mod p over
    Z/p).  ``are_boundaries`` must give the naive answer for each chain,
    and for several chains at once the AND of their answers."""

    rings = (ZZ, QQ, GF(2), GF(3))

    def _check(self, K, ring, q, rng):
        cc = simplicial_chain_complex(K)
        hb = HomologyBasis(cc, ring, q)
        if ring.kind == "Zp":
            want = (cc.dim(q) - naive_rank_mod_p(dense_boundary(K, q), ring.p)
                    - naive_rank_mod_p(dense_boundary(K, q + 1), ring.p))
            assert hb.rank == want
        up = cc.boundary.get(q + 1, ())
        chains, answers = [], []
        for trial in range(6):
            if trial == 0:
                c = [0] * hb.rank
            elif trial <= hb.rank:
                c = [int(i == trial - 1) for i in range(hb.rank)]
            else:
                c = [rng.randint(-5, 5) for _ in range(hb.rank)]
            z = [sum(ci * g[i] for ci, g in zip(c, hb.generators))
                 for i in range(cc.dim(q))]
            for col in up:
                a = rng.randint(-2, 2)
                for i, v in col.items():
                    z[i] += a * v
            want = [ci % (ring.p or d) if ring.p or d else ci
                    for ci, d in zip(c, hb.orders)]
            chain = {i: v for i, v in enumerate(z) if v}
            naive = naive_is_boundary(K, q, z, ring)
            assert naive == (not any(want)), (K, ring, q, c)
            assert are_boundaries(cc, q, [chain], ring) == naive, \
                (K, ring, q, c)
            chains.append(chain)
            answers.append(naive)
        assert are_boundaries(cc, q, chains, ring) == all(answers)
        assert are_boundaries(
            cc, q, [ch for ch, a in zip(chains, answers) if a], ring)

    def test_rp2(self):
        rng = random.Random(7)
        K = load("rp2_6").complex()
        for ring in self.rings:
            for q in range(-1, K.dim + 1):
                self._check(K, ring, q, rng)
        cc = simplicial_chain_complex(K)
        assert HomologyBasis(cc, ZZ, 1).orders == [2]
        assert HomologyBasis(cc, ZZ, 2).rank == 0
        assert HomologyBasis(cc, QQ, 1).rank == 0
        # the Z/2 class in H_2(RP^2; Z/2) is a Tor(H_1, Z/2) class: a cycle
        # mod 2 only, so no integral cycle represents it
        hb = HomologyBasis(cc, GF(2), 2)
        assert hb.rank == 1
        assert any(sum(v * x for v, x in zip(row, hb.generators[0]))
                   for row in dense_boundary(K, 2))

    def test_random_complexes(self):
        # 150 random complexes, then 20 with torsion: RP^2 with a few
        # random simplices added on a seventh vertex
        rng = random.Random(20140)
        pool = [random_complex(rng, max_m=7) for _ in range(150)]
        for _ in range(20):
            extra = [rng.sample(range(1, 8), rng.randint(1, 3))
                     for _ in range(rng.randint(1, 3))]
            pool.append(make_complex(7, [verts(f) for f in RP2.facets] + extra))
        for K in pool:
            with run():    # one chain complex per K, for every ring and degree
                for ring in self.rings:
                    for q in range(-1, K.dim + 1):
                        self._check(K, ring, q, rng)

    def test_rp2_with_cones(self):
        # RP^2 with cones hung on its faces: the Z/2 in H_1, alone or next
        # to free classes the cones add, and dominated apexes
        rng = random.Random(2013)
        pool = [rp2_with_cones(rng, cones=2) for _ in range(12)]
        assert all(reduced_homology(K).torsion_at(1) == (2,) for K in pool)
        assert any(reduced_homology(K).betti(1) for K in pool)
        for K in pool:
            with run():
                for ring in self.rings:
                    for q in range(-1, K.dim + 1):
                        self._check(K, ring, q, rng)


class TestNeighborlyAcyclicity:
    @given(complexes(max_m=5))
    @settings(max_examples=30, deadline=None)
    def test_k_neighborly_subcomplexes_are_low_acyclic(self, K):
        from fatwedge.complexes import max_neighborliness
        k = max_neighborliness(K)
        if k < 1:
            return
        for imask in range(1, 1 << K.m):
            sub = full_subcomplex(K, imask)
            assert is_i_acyclic(sub, ZZ, k - 1)
