import random
from math import comb

import pytest
from hypothesis import given, settings

from fatwedge import homology, rmac
from fatwedge.complexes import (boundary_of_simplex, empty_complex, join,
                                make_complex, run, simplex)
from fatwedge.homology import (DD_ZERO_CHECKS, GF, QQ, ZZ, ChainComplex,
                               HomologyProfile, full_subcomplex_profiles)
from fatwedge.rmac import (CubicalComplex, build_rmac, cubical_chain_complex,
                           cubical_homology, hochster_identity_check,
                           rmac_filtration)
from fatwedge.corpus import corpus_names, load

from helpers import (RP2_6, random_complex, rmac_face_counts_of_join,
                     rp2_with_cones, with_ground)
from test_complexes import complexes

C4 = make_complex(4, [[1, 2], [2, 3], [3, 4], [1, 4]])


def decode(code: int, m: int) -> tuple[int, int]:
    """The (sigma, tau) pair of a cell code (sigma << m) | tau."""
    return code >> m, code & ((1 << m) - 1)


class TestBuild:
    def test_two_points_gives_circle(self):
        C = build_rmac(make_complex(2, [[1], [2]]))
        assert C.counts() == {0: 4, 1: 4}
        prof = cubical_homology(C, ZZ)
        assert prof.free == {1: 1} and not prof.torsion

    def test_four_cycle_gives_torus_cells(self):
        C = build_rmac(C4)
        assert C.counts() == {0: 16, 1: 32, 2: 16}
        f = C.counts()
        assert f[0] - f[1] + f[2] == 0

    def test_full_simplex_gives_full_cube(self):
        for m in (1, 2, 3):
            C = build_rmac(simplex(m))
            assert C.total_faces() == 3 ** m
            assert cubical_homology(C, ZZ).is_trivial()

    def test_empty_complex_gives_isolated_vertices(self):
        C = build_rmac(empty_complex(2))
        assert C.counts() == {0: 4}
        assert cubical_homology(C, ZZ).betti(0) == 3

    def test_size_guardrail(self):
        K = empty_complex(13)
        with pytest.raises(ValueError, match="max_m=12 \\(--max-m\\).*"
                                             "allow_large=True"):
            build_rmac(K)
        assert build_rmac(K, allow_large=True).counts() == {0: 2 ** 13}

    def test_codes_decode_to_the_cells_of_rz_k(self):
        # codes sort like (sigma, tau) pairs; each is a cube face with
        # sigma <= tau, tau - sigma a face of K of the cell's dimension
        for name in corpus_names():
            K = load(name).complex()
            if K.m > 8:
                continue
            C = build_rmac(K)
            assert C.total_faces() == sum(
                f * 2 ** (K.m - d) for d, f in enumerate(K.f_vector()))
            for d, cells in C.faces.items():
                pairs = [decode(c, K.m) for c in cells]
                assert pairs == sorted(pairs), name
                for s, t in pairs:
                    assert s & ~t == 0, name
                    assert K.has_face(t ^ s) and (t ^ s).bit_count() == d


class TestFiltration:
    def test_level_zero_is_base_vertex(self):
        assert rmac_filtration(C4, 0).counts() == {0: 1}

    def test_level_one_of_cycle_is_tree(self):
        F = rmac_filtration(C4, 1)
        assert F.counts() == {0: 5, 1: 4}
        assert cubical_homology(F, ZZ).is_trivial()

    def test_top_level_is_whole_complex(self):
        assert rmac_filtration(C4, 4).faces == build_rmac(C4).faces

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rmac_filtration(C4, 5)

    @given(complexes(max_m=4))
    @settings(max_examples=30, deadline=None)
    def test_monotone_and_union_description(self, K):
        faces = [set()]
        for i in range(K.m + 1):
            Fi = rmac_filtration(K, i)
            flat = {st for cells in Fi.faces.values() for st in cells}
            assert faces[-1] <= flat
            faces.append(flat)
        # top level minus previous level counts the faces of K
        top, prev = faces[-1], faces[-2]
        assert len(top) - len(prev) == sum(K.f_vector())

    @given(complexes(max_m=4))
    @settings(max_examples=25, deadline=None)
    def test_level_is_union_over_subsets(self, K):
        # level i is the union of the embedded complexes of the full
        # subcomplexes K_I over |I| = i; the embedding pins [m] - I at -1
        from itertools import combinations
        from fatwedge.complexes import full_subcomplex, mask_of, verts
        for i in {1, K.m - 1, K.m}:
            if not 1 <= i <= K.m:
                continue
            want = set()
            for I in combinations(range(1, K.m + 1), i):
                imask = mask_of(I)
                rest = ((1 << K.m) - 1) ^ imask
                sub = full_subcomplex(K, imask)
                lift = sorted(I)
                for cells in build_rmac(sub).faces.values():
                    for c in cells:
                        s, t = decode(c, sub.m)
                        s_lift = mask_of(lift[v - 1] for v in verts(s))
                        t_lift = mask_of(lift[v - 1] for v in verts(t))
                        want.add((s_lift | rest, t_lift | rest))
            Fi = rmac_filtration(K, i)
            got = {decode(c, K.m) for cells in Fi.faces.values()
                   for c in cells}
            assert got == want


class TestHomology:
    def test_torus(self):
        prof = cubical_homology(build_rmac(C4), ZZ)
        assert prof.free == {1: 2, 2: 1} and not prof.torsion

    def test_spheres(self):
        for m in (2, 3, 4, 5):
            prof = cubical_homology(build_rmac(boundary_of_simplex(m)), ZZ)
            assert prof.free == {m - 1: 1} and not prof.torsion

    def test_single_vertex_filtration(self):
        prof = cubical_homology(rmac_filtration(C4, 0), ZZ)
        assert prof.is_trivial()

    def test_boundary_closed_and_dd_zero(self):
        C = build_rmac(C4)
        cubical_chain_complex(C)  # raises if boundary squared is nonzero

    def test_missing_facet_is_reported_not_a_key_error(self):
        full = build_rmac(C4)
        for d in (0, 1):
            faces = dict(full.faces)
            faces[d] = faces[d][1:]
            C = CubicalComplex(4, faces)
            with pytest.raises(ValueError, match="not boundary-closed"):
                cubical_chain_complex(C)

    def test_chain_complex_runs_one_dd_check(self):
        C = build_rmac(C4)
        before = DD_ZERO_CHECKS["chain_complexes"]
        cubical_chain_complex(C)
        assert DD_ZERO_CHECKS["chain_complexes"] - before == 1

    @staticmethod
    def _both_dd_paths(monkeypatch):
        # the d^2 check sorts signed rows only on maps with enough columns;
        # pin each path in turn so that both see every case
        for least in (0, 10**9):
            monkeypatch.setattr(homology, "_SPLIT_MIN_COLUMNS", least)
            yield

    def test_flipped_sign_fails_dd_check(self, monkeypatch):
        cc = cubical_chain_complex(build_rmac(C4))
        for _ in self._both_dd_paths(monkeypatch):
            for q in (1, 2):
                boundary = {d: list(cols) for d, cols in cc.boundary.items()}
                col = dict(boundary[q][0])
                i = next(iter(col))
                col[i] = -col[i]
                boundary[q][0] = col
                with pytest.raises(ValueError, match="d\\^2 != 0"):
                    ChainComplex(cc.basis, boundary)

    @pytest.mark.parametrize("lower, col, ok", [
        # +-1 entries: the signed row multisets must agree
        ([{0: 1}, {0: 1}], {0: 1, 1: -1}, True),
        ([{0: 1}, {0: 1}], {0: 1, 1: 1}, False),
        # any other coefficient is summed, above or below
        ([{0: 1}, {0: 1}], {0: 2, 1: -1}, False),
        ([{0: 1}, {0: 1}], {0: 2, 1: -2}, True),
        ([{0: 2}, {0: 1}], {0: 1, 1: -1}, False),
        ([{0: 2}, {0: 1}], {0: 1, 1: -2}, True),
    ])
    def test_dd_check_on_one_pair_of_columns(self, lower, col, ok,
                                             monkeypatch):
        basis = {0: ("v",), 1: ("x", "y"), 2: ("z",)}
        for _ in self._both_dd_paths(monkeypatch):
            if ok:
                ChainComplex(basis, {1: lower, 2: [col]})
            else:
                with pytest.raises(ValueError, match="d\\^2 != 0"):
                    ChainComplex(basis, {1: lower, 2: [col]})


class TestCoreduction:
    """cubical_homology coreduces the cells on their codes and hands only the
    survivors to the eliminator; the full cellular chains are its reference."""

    def test_profiles_match_the_full_chains(self):
        rng = random.Random(2808)
        cases = [RP2_6, empty_complex(1), empty_complex(2)]
        cases += [rp2_with_cones(rng, cones=1) for _ in range(3)]
        for i in range(150):
            K = random_complex(rng, max_m=6)
            cases.append(with_ground(K, K.m + 1) if i % 3 == 0 else K)
        torsion = 0
        for K in cases:
            for X in [build_rmac(K)] + [rmac_filtration(K, i)
                                        for i in range(K.m + 1)]:
                cc = cubical_chain_complex(X)
                for ring in (ZZ, QQ, GF(2), GF(3)):
                    got = cubical_homology(X, ring)
                    assert got == homology.chain_homology(cc, ring), (K, ring)
                    torsion += bool(got.torsion)
        assert torsion

    def test_no_cells_is_the_empty_cell_alone(self):
        prof = cubical_homology(CubicalComplex(3, {}), ZZ)
        assert prof.free == {-1: 1} and not prof.torsion

    def test_eliminator_gets_only_the_survivors(self, monkeypatch):
        # RZ of sk_2 Delta^6 has 1,808 cells and H~_3 = Z^209; the full
        # chains would hand the eliminator every cell and the empty one
        sizes = []
        real = homology.complex_rank_divisors

        def spy(boundaries, dims):
            sizes.append(sum(dims.values()))
            return real(boundaries, dims)

        monkeypatch.setattr(homology, "complex_rank_divisors", spy)
        C = build_rmac(simplex(7).skeleton(2))
        assert C.total_faces() == 1808
        prof = cubical_homology(C, ZZ)
        assert prof.free == {3: 209} and not prof.torsion
        assert sizes and max(sizes) <= 209

    def test_missing_facet_is_reported(self):
        full = build_rmac(C4)
        for d in (0, 1):
            faces = dict(full.faces)
            faces[d] = faces[d][1:]
            with pytest.raises(ValueError, match="not boundary-closed"):
                cubical_homology(CubicalComplex(4, faces), ZZ)

    def test_cell_in_the_wrong_dimension_is_reported(self):
        # the counts of live facets start at 2d, so d must be the cell's
        full = build_rmac(C4)
        faces = dict(full.faces)
        faces[1], faces[2] = faces[1][1:], (faces[1][0], *faces[2])
        with pytest.raises(ValueError, match="listed in dimension 2"):
            cubical_homology(CubicalComplex(4, faces), ZZ)

    def test_flipped_sign_in_one_block_fails_the_block_check(
            self, monkeypatch):
        # the cascade deletes every cell of the block {1, 2} of the torus,
        # so only the check on the compact form can see the wrong sign
        real = rmac._face_offsets

        def flipped(mu, m):
            offsets = real(mu, m)
            if mu != 0b11:
                return offsets
            (o, s), *rest = offsets
            return ((o, -s), *rest)

        monkeypatch.setattr(rmac, "_face_offsets", flipped)
        with pytest.raises(ValueError, match="d\\^2 != 0"):
            cubical_homology(build_rmac(C4), ZZ)


class TestProductRule:
    def test_face_counts_multiply(self):
        two = make_complex(2, [[1], [2]])
        assert rmac_face_counts_of_join(two, two)
        assert rmac_face_counts_of_join(C4, two)

    @given(complexes(max_m=3), complexes(max_m=3))
    @settings(max_examples=20, deadline=None)
    def test_join_kunneth_over_Q(self, K1, K2):
        pj = cubical_homology(
            build_rmac(join(K1, K2), allow_large=True), QQ)
        p1 = cubical_homology(build_rmac(K1), QQ)
        p2 = cubical_homology(build_rmac(K2), QQ)
        b1 = {q: p1.betti(q) for q in range(K1.m + 1)}
        b2 = {q: p2.betti(q) for q in range(K2.m + 1)}
        b1[0] += 1
        b2[0] += 1  # unreduced Kunneth needs total H_0
        for n in range(K1.m + K2.m + 1):
            want = sum(b1.get(a, 0) * b2.get(n - a, 0) for a in range(n + 1))
            got = pj.betti(n) + (1 if n == 0 else 0)
            assert got == want


class TestHochsterIdentity:
    def test_four_cycle(self):
        rep = hochster_identity_check(C4, ZZ)
        assert rep.equal
        assert rep.rhs.betti(1) == 2 and rep.rhs.betti(2) == 1

    def test_simplex(self):
        rep = hochster_identity_check(simplex(3), ZZ)
        assert rep.equal and rep.lhs.is_trivial()

    def test_rp2_with_torsion(self):
        RP2 = make_complex(6, [[2, 3, 4], [3, 4, 5], [1, 3, 5], [1, 2, 5],
                               [2, 5, 6], [2, 3, 6], [1, 3, 6], [1, 4, 6],
                               [1, 2, 4], [4, 5, 6]])
        rep = hochster_identity_check(RP2, ZZ)
        assert rep.equal
        assert rep.lhs.torsion_at(2) == (2,)

    def test_random_over_fields(self):
        rng = random.Random(21)
        for _ in range(15):
            K = random_complex(rng, max_m=5)
            for ring in (ZZ, GF(2), QQ):
                assert hochster_identity_check(K, ring).equal

    def test_random_at_m_7_and_8(self):
        rng = random.Random(8)
        for _ in range(20):
            K = random_complex(rng, max_m=8, min_m=7)
            with run():    # both rings share the chain complexes of the K_I
                for ring in (ZZ, GF(2)):
                    assert hochster_identity_check(K, ring).equal

    def test_skeleta_against_closed_form(self):
        # K_I of sk_k Delta^{m-1} is sk_k of a simplex on |I| = j vertices,
        # whose H~_k is free of rank C(j - 1, k + 1)
        for m, k in ((7, 1), (8, 2)):
            rank = sum(comb(m, j) * comb(j - 1, k + 1) for j in range(1, m + 1))
            for ring in (ZZ, GF(2)):
                rep = hochster_identity_check(simplex(m).skeleton(k), ring)
                assert rep.equal
                assert rep.lhs.free == {k + 1: rank} and not rep.lhs.torsion

    def test_every_stage_of_the_filtration(self):
        """H~_q(RZ_K^i) = sum over 0 < |I| <= i of H~_{q-1}(K_I), for every
        stage i of the fat wedge filtration.

        An empirical cross-check, not a cited theorem: at i = m it is the
        Hochster identity above, and the BBCG splitting of RZ_K, with
        RZ_K^i the union of the RZ_{K_I} over |I| = i, suggests it at every
        stage.  300 seeded complexes with m <= 6, every third with a ghost
        vertex added.
        """
        rng = random.Random(14)
        checks = 0
        for k in range(300):
            if k % 3 == 0:
                K = random_complex(rng, max_m=5)
                K = with_ground(K, K.m + 1)
            else:
                K = random_complex(rng, max_m=6)
            with run():
                table = full_subcomplex_profiles(K)
                for i in range(1, K.m + 1):
                    rhs = HomologyProfile.direct_sum(
                        (prof.shifted(1) for I, prof in table.items()
                         if I.bit_count() <= i), ZZ)
                    lhs = cubical_homology(rmac_filtration(K, i), ZZ)
                    assert lhs == rhs, (K, i)
                    checks += 1
        assert checks >= 1000
