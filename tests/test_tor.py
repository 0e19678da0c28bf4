import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from fatwedge.complexes import (_STORE, boundary_of_simplex, empty_complex,
                                join, make_complex, run, simplex, verts)
from fatwedge.corpus import berglund_complex, load
from fatwedge.certify import golod_report
from fatwedge import homology, tor
from fatwedge.homology import (GF, QQ, ZZ, HomologyProfile, chain_homology,
                               full_subcomplex_homology,
                               full_subcomplex_profiles, reduced_homology)
from fatwedge.tor import (build_tor, golod_via_join, golod_via_tor,
                          hochster_tor_check, tor_dimensions, torsion_primes)

from helpers import (TorBasisElement, basis_product, nested_disjoint_pairs,
                     random_complex, reference_golod_via_join, rp2_with_cones,
                     verify_leibniz, with_ground)
from test_complexes import complexes

C4 = make_complex(4, [[1, 2], [2, 3], [3, 4], [1, 4]])
PATH = make_complex(4, [[1, 2], [2, 3], [3, 4]])
RP2 = make_complex(6, [[2, 3, 4], [3, 4, 5], [1, 3, 5], [1, 2, 5], [2, 5, 6],
                       [2, 3, 6], [1, 3, 6], [1, 4, 6], [1, 2, 4], [4, 5, 6]])
GOLOD7 = make_complex(7, [[1, 5, 7], [2, 6], [3, 4, 5], [3, 6, 7], [4, 6],
                          [5, 6]])


def _count_calls(monkeypatch, name):
    """Record the calls made from tor to tor.<name>."""
    calls = []
    real = getattr(tor, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tor, name, counted)
    return calls


class TestBuild:
    def test_simplex_has_unit_only(self):
        assert tor_dimensions(simplex(4), QQ) == {0: 1}

    def test_four_cycle_dims(self):
        assert tor_dimensions(C4, QQ) == {0: 1, 3: 2, 6: 1}

    def test_two_points_mod_two(self):
        two = make_complex(2, [[1], [2]])
        assert tor_dimensions(two, GF(2)) == {0: 1, 3: 1}

    def test_needs_field(self):
        with pytest.raises(ValueError):
            build_tor(C4, ZZ)

    def test_basis_element_grading(self):
        e = TorBasisElement(0b101, 0b010)
        assert e.total_degree == 2 + 2
        assert e.multidegree == 0b111
        assert str(e) == "u[1,3]*v[2]"


class TestHochsterFormula:
    def test_four_cycle(self):
        rep = hochster_tor_check(C4, QQ)
        assert rep.equal
        assert dict(rep.rhs) == {0: 1, 3: 2, 6: 1}

    def test_simplex(self):
        assert hochster_tor_check(simplex(3), QQ).equal

    def test_rp2_mod_2_vs_rational(self):
        assert hochster_tor_check(RP2, GF(2)).equal
        assert hochster_tor_check(RP2, QQ).equal
        # torsion makes the dimensions field-dependent
        assert tor_dimensions(RP2, GF(2)) != tor_dimensions(RP2, QQ)

    def test_field_independence_iff_torsion_free(self):
        for K in (C4, PATH, boundary_of_simplex(4)):
            assert torsion_primes(K) == ()
            assert tor_dimensions(K, QQ) == tor_dimensions(K, GF(2))
        assert torsion_primes(RP2) == (2,)

    def test_field_independence_on_corpus(self):
        from fatwedge.corpus import corpus_names, load
        for name in corpus_names():
            K = load(name).complex()
            if K.m > 6:
                continue
            primes = torsion_primes(K)
            dims_q = tor_dimensions(K, QQ)
            same = all(tor_dimensions(K, GF(p)) == dims_q
                       for p in set(primes) | {2, 3})
            assert same == (primes == ()), name

    def test_random(self):
        rng = random.Random(12)
        for _ in range(20):
            K = random_complex(rng, max_m=5)
            for ring in (QQ, GF(2)):
                assert hochster_tor_check(K, ring).equal

    def test_each_piece_matches_its_full_subcomplex(self):
        # hochster_tor_check compares sums over I; the Tor oracle relies on
        # the identity for each I and t separately
        from fatwedge.corpus import corpus_names, load
        rng = random.Random(29)
        cases = [load(name).complex() for name in corpus_names()]
        cases += [random_complex(rng, max_m=6) for _ in range(30)]
        assert any(K.support != (1 << K.m) - 1 for K in cases)
        for K in cases:
            with run():
                for field in (QQ, GF(2), GF(3)):
                    alg = build_tor(K, field)
                    for imask in range(1, 1 << K.m):
                        got = chain_homology(alg.piece(imask), field)
                        prof = full_subcomplex_homology(K, imask, field)
                        shift = imask.bit_count() + 1
                        # H^t of the piece sits in degree q = -t
                        assert got.free == {-q - shift: b for q, b
                                            in prof.free.items()}, \
                            (K, field, imask)


class TestDifferentialAlgebra:
    @given(complexes(max_m=4), st.integers(0, 255), st.integers(0, 255),
           st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_leibniz_on_random_monomials(self, K, o1, s1, o2, s2):
        full = (1 << K.m) - 1
        o1, s1 = o1 & full, s1 & full & ~o1
        o2, s2 = o2 & full, s2 & full & ~o2
        if not (K.has_face(s1) and K.has_face(s2)):
            return
        assert verify_leibniz(K, TorBasisElement(o1, s1),
                              TorBasisElement(o2, s2))


class TestGradedCommutativity:
    @given(complexes(max_m=4), st.integers(0, 255), st.integers(0, 255),
           st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=60, deadline=None)
    def test_basis_products_commute_up_to_sign(self, K, o1, s1, o2, s2):
        full = (1 << K.m) - 1
        o1, s1 = o1 & full, s1 & full & ~o1
        o2, s2 = o2 & full, s2 & full & ~o2
        if not (K.has_face(s1) and K.has_face(s2)):
            return
        e1, e2 = TorBasisElement(o1, s1), TorBasisElement(o2, s2)
        xy = basis_product(K, e1, e2)
        yx = basis_product(K, e2, e1)
        assert bool(xy) == bool(yx)
        if xy:
            sgn = -1 if (e1.total_degree * e2.total_degree) % 2 else 1
            assert xy[0][1] == yx[0][1]
            assert xy[0][0] == sgn * yx[0][0]


class TestGolodOracles:
    def test_path_is_golod(self):
        assert golod_via_tor(PATH, QQ).golod
        assert golod_via_join(PATH, ZZ).golod

    def test_four_cycle_witness(self):
        v = golod_via_tor(C4, QQ)
        assert not v.golod
        (i_set, t1, _, j_set, t2, _) = v.witness
        assert {i_set, j_set} == {(1, 3), (2, 4)}
        assert t1 == t2 == 3
        w = golod_via_join(C4, ZZ)
        assert not w.golod
        assert w.witness == ((1, 3), (2, 4), 1)

    def test_simplex_vacuously_golod(self):
        assert golod_via_join(simplex(4), ZZ).golod
        assert golod_via_tor(simplex(4), QQ).golod

    def test_chordal_vs_nonchordal_graphs(self):
        chordal = make_complex(5, [[1], [2], [3], [4], [5], [1, 2], [2, 3],
                                   [1, 3], [3, 4], [4, 5]])
        assert golod_via_join(chordal, ZZ).golod
        c5 = make_complex(5, [[1, 2], [2, 3], [3, 4], [4, 5], [1, 5]])
        assert not golod_via_join(c5, ZZ).golod

    def test_ghost_vertices_obstruct(self):
        # two ghost vertices force a nonzero exterior product
        assert not golod_via_tor(empty_complex(2), QQ).golod
        assert not golod_via_join(empty_complex(2), ZZ).golod

    def test_berglund_over_fields(self):
        B = berglund_complex()
        with run():
            assert golod_via_tor(B, GF(2)).golod
            assert golod_via_join(B, GF(2)).golod

    def test_golod_report_builds_each_piece_once(self, monkeypatch):
        # the Koszul pieces are integral, so Z/2 and Z/3 reuse the pieces
        # that Q built, and a second report in the same run builds none;
        # the oracle builds only the pieces its products touch
        pieces = _count_calls(monkeypatch, "koszul_piece")
        with run():
            golod_via_tor(GOLOD7, QQ)
            built = len(pieces)
            assert 0 < built < 2 ** 7 - 1
            report = golod_report(GOLOD7)
            assert report.golod and report.primes == ()
            assert len(pieces) == built
            assert golod_report(GOLOD7) == report
            assert all(golod_via_tor(GOLOD7, GF(p)).golod for p in (2, 3))
            assert len(pieces) == built

    def test_second_call_in_a_run_builds_no_piece_or_basis(self, monkeypatch):
        # the run's store keeps the pieces and, per field, the cohomology
        # bases, so a repeated oracle or report reads them back
        pieces = _count_calls(monkeypatch, "koszul_piece")
        bases = _count_calls(monkeypatch, "HomologyBasis")
        with run():
            first = golod_via_tor(GOLOD7, GF(2))
            assert pieces and bases
            built = (len(pieces), len(bases))
            assert golod_via_tor(GOLOD7, GF(2)) == first
            assert (len(pieces), len(bases)) == built
            report = golod_report(GOLOD7)
            built = (len(pieces), len(bases))
            assert golod_report(GOLOD7) == report
            assert (len(pieces), len(bases)) == built

    def test_golod_report_builds_no_piece_on_berglund(self, monkeypatch):
        # no product of two nonzero classes has a nonzero Hochster target
        pieces = _count_calls(monkeypatch, "koszul_piece")
        assert golod_report(berglund_complex()).golod
        assert pieces == []

    def test_inflated_hochster_dimension_raises(self, monkeypatch):
        # the field tables are read off the integral table, which
        # homology._integral_profiles builds
        real = homology._integral_profiles

        def inflated(K):
            table = dict(real(K))
            table[0b0101] = HomologyProfile(
                ZZ, {q: b + 1 for q, b in table[0b0101].free.items()})
            return table

        monkeypatch.setattr(homology, "_integral_profiles", inflated)
        with pytest.raises(AssertionError, match="Hochster gives 2"):
            golod_via_tor(C4, QQ)

    def test_inflated_target_dimension_raises(self, monkeypatch):
        # K_{1234} of C4 is only ever the target of a product, which gets
        # no basis: its cohomology is checked against Hochster all the same
        real = homology._integral_profiles

        def inflated(K):
            table = dict(real(K))
            table[0b1111] = HomologyProfile(ZZ, {1: 2})
            return table

        monkeypatch.setattr(homology, "_integral_profiles", inflated)
        with pytest.raises(AssertionError,
                           match=r"piece \(1, 2, 3, 4\) has rank 1 in degree 6, "
                                 "Hochster gives 2"):
            golod_via_tor(C4, QQ)

    def test_oracles_agree_on_random_complexes(self):
        rng = random.Random(4)
        for _ in range(30):
            K = random_complex(rng, max_m=5)
            for ring in (QQ, GF(2)):
                assert golod_via_tor(K, ring).golod == \
                    golod_via_join(K, ring).golod


class TestConeFactors:
    def test_cones_and_their_joins_are_acyclic(self):
        # so the join oracle's walk over pairs of factors with homology
        # leaves out every pair with a cone factor
        rng = random.Random(31)
        for _ in range(40):
            L = join(simplex(1), random_complex(rng, max_m=4))
            M = random_complex(rng, max_m=3)
            for X in (L, join(L, M), join(M, L)):
                assert reduced_homology(X, ZZ).is_trivial(), X

    def test_join_oracle_skips_cone_pairs(self, monkeypatch):
        B = berglund_complex()
        joins = []
        real_join = tor.join

        def counted(K1, K2):
            joins.append((K1, K2))
            return real_join(K1, K2)

        monkeypatch.setattr(tor, "join", counted)
        with run():
            verdict = golod_via_join(B, ZZ)
            subsets = range(1, 1 << B.m)
            hot = sum(1 for i in subsets for j in subsets
                      if i < j and not i & j and not
                      full_subcomplex_homology(B, i | j, ZZ).is_trivial())
        # every pair of berglund_10 with source homology has a factor
        # without homology or a Kunneth target of zero, so no join is built
        assert verdict.golod
        assert hot > 0 and joins == []


class TestKunnethGate:
    @staticmethod
    def pairs():
        rng = random.Random(1603)
        out = [(random_complex(rng, max_m=4), random_complex(rng, max_m=4))
               for _ in range(40)]
        out += [(RP2, RP2), (empty_complex(1), RP2), (C4, empty_complex(2)),
                (empty_complex(1), empty_complex(1))]
        return out

    def test_prediction_matches_built_joins(self):
        for A, B in self.pairs():
            for ring in (ZZ, QQ, GF(2)):
                want = reduced_homology(join(A, B), ring)
                got = tor.kunneth_join(reduced_homology(A, ring),
                                       reduced_homology(B, ring))
                assert got == want, (A, B, ring)

    def test_rp2_join_rp2_has_tensor_and_tor_torsion(self):
        # H~_1(RP2) = Z/2: Z/2 (x) Z/2 lands in degree 3, Tor(Z/2, Z/2) in 4
        prof = tor.kunneth_join(reduced_homology(RP2, ZZ),
                                reduced_homology(RP2, ZZ))
        assert prof.free == {} and prof.torsion == {3: (2,), 4: (2,)}
        assert prof == reduced_homology(join(RP2, RP2), ZZ)
        # {()} * L = L
        assert tor.kunneth_join(reduced_homology(empty_complex(1), ZZ),
                                reduced_homology(RP2, ZZ)) == \
            reduced_homology(RP2, ZZ)

    def test_join_pair_reaches_the_tor_term(self):
        # K = RP2 * RP2 on 12 vertices, I and J the two copies: K_{I u J} = K
        # has H~_3 = Z/2 and H~_4 = Z/2, and the group in degree 4 comes only
        # from Tor(H~_1(K_I), H~_1(K_J)); the first nonzero degree is 3
        RP2_6 = load("rp2_6").complex()
        K = join(RP2_6, RP2_6)
        with run():
            profiles = full_subcomplex_profiles(K)
            assert profiles[(1 << 12) - 1].torsion == {3: (2,), 4: (2,)}
            assert tor._join_pair_nonzero(K, 0b111111, 0b111111 << 6,
                                          profiles, ZZ) == 3

    def test_planted_wrong_prediction_raises(self, monkeypatch):
        real = tor.kunneth_join

        def inflated(a, b):
            prof = real(a, b)
            return HomologyProfile(prof.ring, {q: r + 1 for q, r in prof.free.items()},
                                   prof.torsion)

        monkeypatch.setattr(tor, "kunneth_join", inflated)
        with pytest.raises(AssertionError, match="Kunneth gives"):
            golod_via_join(C4, ZZ)

    def test_built_joins_stay_out_of_the_store(self, monkeypatch):
        # a join equal to some K_{I u J} may be stored as that complex, so
        # the joins themselves are tracked: none outlives its pair
        built = []
        real_join, real_chains = tor.join, tor.build_simplicial_chain_complex

        def tracked_join(K1, K2):
            B = real_join(K1, K2)
            built.append(weakref.ref(B))
            return B

        def tracked_chains(B):
            cc = real_chains(B)
            built.append(weakref.ref(cc))
            return cc

        monkeypatch.setattr(tor, "join", tracked_join)
        monkeypatch.setattr(tor, "build_simplicial_chain_complex",
                            tracked_chains)
        rng = random.Random(1605)
        cases = [C4, RP2, with_ground(RP2, 7)]
        cases += [random_complex(rng, max_m=6) for _ in range(20)]
        with run():
            for K in cases:
                for ring in (ZZ, GF(2)):
                    golod_via_join(K, ring)
            assert built and _STORE.get()
            gc.collect()
            assert all(ref() is None for ref in built)


class TestNoBasisWhereClassesLand:
    def test_golod_report_builds_no_basis_on_a_join_or_a_tor_target(
            self, monkeypatch):
        # a join or a Tor target is only asked whether chains are
        # boundaries: bases are built on the source of a join inclusion and
        # on the factors of a Tor product, so none receives a join's chains,
        # and every Koszul piece basis is one a product reads as a factor.
        # The join's chains are still built once per pair that passes the
        # Kunneth gate, for the Kunneth check
        join_side, tor_side, joins, gated = [], [], [], []
        factors, targets = set(), set()     # (piece, degree q = -t)
        real_basis = homology.HomologyBasis

        def spy(calls):
            def basis(cc, ring, q):
                calls.append((cc, q))
                return real_basis(cc, ring, q)
            return basis

        monkeypatch.setattr(homology, "HomologyBasis", spy(join_side))
        monkeypatch.setattr(tor, "HomologyBasis", spy(tor_side))
        real_chains = tor.build_simplicial_chain_complex

        def chains(B):
            joins.append(real_chains(B))
            return joins[-1]

        monkeypatch.setattr(tor, "build_simplicial_chain_complex", chains)
        real_pair = tor._join_pair_nonzero

        def pair(K, imask, jmask, profiles, ring):
            target = tor.kunneth_join(profiles[imask], profiles[jmask])
            if any(target.betti(q) or target.torsion_at(q)
                   for q in profiles[imask | jmask].nonzero_degrees()):
                gated.append((imask, jmask))
            return real_pair(K, imask, jmask, profiles, ring)

        monkeypatch.setattr(tor, "_join_pair_nonzero", pair)
        real_product = tor.TorAlgebra.product_class_is_zero

        def product(alg, imask, t1, gen1, jmask, t2, gen2):
            factors.update({(alg.piece(imask), -t1), (alg.piece(jmask), -t2)})
            targets.add((alg.piece(imask | jmask), -(t1 + t2)))
            return real_product(alg, imask, t1, gen1, jmask, t2, gen2)

        monkeypatch.setattr(tor.TorAlgebra, "product_class_is_zero", product)
        rng = random.Random(2707)
        cases = [GOLOD7, RP2] + [rp2_with_cones(rng) for _ in range(20)]
        for K in cases:
            with run():
                golod_report(K)
        built = {id(cc) for cc in joins}
        assert joins and len(joins) == len(gated)
        assert join_side and not any(id(cc) in built for cc, _ in join_side)
        assert targets - factors and set(tor_side) <= factors

    def test_each_boundary_test_reduces_once(self, monkeypatch):
        # the invariant of d_{q+1} alone is read off the complex's kept
        # reduction, so a boundary test reduces only d_{q+1} with the chains
        tests, reductions = [], []
        real_test = homology.are_boundaries
        real_reduce = homology.sparse_rank_divisors

        def test(*args):
            tests.append(len(reductions))
            result = real_test(*args)
            assert len(reductions) == tests[-1] + 1
            return result

        def reduce(*args):
            reductions.append(args)
            return real_reduce(*args)

        monkeypatch.setattr(homology, "are_boundaries", test)
        monkeypatch.setattr(tor, "are_boundaries", test)
        monkeypatch.setattr(homology, "sparse_rank_divisors", reduce)
        for K in (GOLOD7, RP2):
            with run():
                golod_report(K)
        assert tests and len(reductions) == len(tests)


class TestDisjointPairWalk:
    def test_pairs_match_the_nested_walk(self):
        # sparse and dense families, so both sources of J are walked
        rng = random.Random(1300)
        for _ in range(300):
            m = rng.randint(1, 9)
            k = rng.randint(1, (1 << m) - 1)
            hot = sorted(rng.sample(range(1, 1 << m), k), key=verts)
            assert list(tor._disjoint_pairs(hot, m)) == \
                list(nested_disjoint_pairs(hot)), (m, hot)

    def test_verdicts_and_witnesses_match_the_nested_walk(self, monkeypatch):
        # 300 seeded complexes, every third with a ghost vertex added: Tor
        # over Q and Z/2, join over Z
        rng = random.Random(1301)
        cases = []
        for k in range(300):
            K = random_complex(rng, max_m=7)
            cases.append(with_ground(K, K.m + 1) if k % 3 == 0 else K)

        def verdicts():
            out = []
            for K in cases:
                with run():
                    vs = (golod_via_tor(K, QQ), golod_via_tor(K, GF(2)),
                          golod_via_join(K, ZZ))
                out.append([(v.golod, v.witness_text) for v in vs])
            return out

        got = verdicts()
        monkeypatch.setattr(tor, "_disjoint_pairs",
                            lambda hot, m: nested_disjoint_pairs(hot))
        assert got == verdicts()
        assert sum(not golod for row in got for golod, _ in row) >= 100


class TestJoinOracleReference:
    def test_verdicts_and_witnesses_match_the_reference(self):
        # 300 seeded complexes, every third with a ghost vertex added, then
        # four from the corpus and RP^2 with a ghost; the reference runs in
        # a store of its own
        rng = random.Random(1412)
        cases = []
        for k in range(300):
            K = random_complex(rng, max_m=6)
            cases.append(with_ground(K, K.m + 1) if k % 3 == 0 else K)
        cases += [load(name).complex()
                  for name in ("c4", "kite5", "rp2_6", "two_disjoint_edges")]
        cases.append(with_ground(RP2, 7))
        witnesses = set()
        for K in cases:
            for ring in (ZZ, QQ, GF(2)):
                v = golod_via_join(K, ring)
                with run():
                    want = reference_golod_via_join(K, ring)
                assert (v.golod, v.witness_text) == want, (K, ring)
                witnesses.add(v.witness and v.witness[2])
        assert witnesses >= {None, -1, 0, 1}
