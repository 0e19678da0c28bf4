import copy
import heapq
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from fatwedge import snf
from fatwedge.complexes import make_complex, simplex
from fatwedge.homology import ChainComplex, build_simplicial_chain_complex
from fatwedge.rmac import build_rmac, cubical_chain_complex
from fatwedge.snf import (complex_rank_divisors, invariant_factors, is_prime,
                          prime_factors, smith_normal_form,
                          sparse_rank_divisors)

from helpers import (minor_gcd_divisors, naive_rank_mod_p, naive_snf_divisors,
                     random_complex, random_matrix,
                     reference_invariant_factors)


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_worked_example():
    res = smith_normal_form([[2, 4], [6, 8]])
    assert res.divisors == (2, 4)


def test_identity_and_zero():
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).divisors == (1, 1, 1)
    res = smith_normal_form([[0, 0], [0, 0]])
    assert res.divisors == ()
    assert res.rank == 0


def _assert_transforms(A, res):
    n, m = res.shape
    # A V = U^-1 D, with D the diagonal form
    D = [[res.divisors[i] if i == j and i < res.rank else 0
          for j in range(m)] for i in range(n)]
    assert matmul(A, [list(r) for r in res.V]) == \
        matmul([list(r) for r in res.u_inv], D)
    # the inverse of V really inverts
    eye_m = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    assert matmul([list(r) for r in res.V], [list(r) for r in res.v_inv]) == eye_m


def test_transforms_are_unimodular_and_exact():
    rng = random.Random(5)
    for _ in range(50):
        A = random_matrix(rng, max_n=6)
        _assert_transforms(A, smith_normal_form(A))


@pytest.mark.parametrize("A, divisors", [
    # the pivot 2 clears its row and column at once but does not divide 3,
    # so row 2 is added to row 1 and the pivot shrinks to gcd(2, 3)
    ([[2, 0], [0, 3]], (1, 6)),
    # 2 divides the block below it: nothing to fold
    ([[2, 0], [0, 4]], (2, 4)),
    # non-unit diagonal entries that are pairwise coprime
    ([[6, 0, 0], [0, 10, 0], [0, 0, 15]], (1, 30, 30)),
    ([[5, 0, 0], [0, 3, 0], [0, 0, 2]], (1, 1, 30)),
])
def test_divisibility_kept_while_pivoting(A, divisors):
    res = smith_normal_form(A)
    assert res.divisors == divisors == naive_snf_divisors(A)
    _assert_transforms(A, res)


def test_divisibility_chain():
    rng = random.Random(11)
    for _ in range(200):
        res = smith_normal_form(random_matrix(rng, max_n=6))
        ds = res.divisors
        assert all(d > 0 for d in ds)
        assert all(ds[i + 1] % ds[i] == 0 for i in range(len(ds) - 1))


def test_against_naive_oracle_sample():
    rng = random.Random(99)
    for _ in range(100):
        A = random_matrix(rng, max_n=6)
        assert smith_normal_form(A).divisors == naive_snf_divisors(A)


def test_against_minor_gcd_oracle():
    rng = random.Random(7)
    for _ in range(60):
        A = random_matrix(rng, max_n=5)
        assert smith_normal_form(A).divisors == minor_gcd_divisors(A)


@given(st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=5),
                min_size=1, max_size=5).filter(
                    lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=60, deadline=None)
def test_sparse_matches_dense(rows):
    cols = [{i: rows[i][j] for i in range(len(rows)) if rows[i][j]}
            for j in range(len(rows[0]))]
    rank, divisors = sparse_rank_divisors(cols, len(rows))
    dense = smith_normal_form(rows)
    assert rank == dense.rank
    assert invariant_factors(divisors) == invariant_factors(dense.divisors)


def test_complex_reducer_matches_per_matrix():
    rng = random.Random(3)
    for _ in range(40):
        # arbitrary matrices as one-map complexes; real multi-degree
        # complexes are checked in test_complex_reducer_on_multidegree_chains
        A = random_matrix(rng, max_n=5)
        cols = [{i: A[i][j] for i in range(len(A)) if A[i][j]}
                for j in range(len(A[0]))]
        ranks, divisors = complex_rank_divisors({1: cols}, {0: len(A), 1: len(A[0])})
        dense = smith_normal_form(A)
        assert ranks[1] == dense.rank
        assert invariant_factors(divisors[1]) == invariant_factors(dense.divisors)


def _dense(cols, nrows):
    A = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            A[i][j] = v
    return A


def _assert_reducer_matches_naive(cc):
    """Every d_q of the whole complex against the naive oracle on d_q alone."""
    before = copy.deepcopy(cc.boundary)
    ranks, divisors = complex_rank_divisors(cc.boundary,
                                            {q: cc.dim(q) for q in cc.basis})
    assert cc.boundary == before    # the columns are read, never modified
    for q, cols in cc.boundary.items():
        want = naive_snf_divisors(_dense(cols, cc.dim(q - 1)))
        assert divisors[q] == want, q
        assert ranks[q] == len(want), q
    return ranks, divisors


class _EngineSpy:
    """Watch calls of ``complex_rank_divisors`` through its heap and the
    dense Smith form.

    seeds holds the columns (q, b) pushed before the first pop: the
    survivors of the zero-cost pivots that hold a unit.  residues holds the
    matrices handed to the dense routine.  Only a fill-in pivot kills a
    seeded column, so a residue with fewer columns than there are seeds
    shows that one was taken.  ``reset`` starts the record of a new call.
    """

    def __init__(self, monkeypatch):
        self.reset()
        real_snf = snf.smith_normal_form

        def heappush(heap, item):
            if not self.popped:
                self.seeds.add(item[1::2])
            heapq.heappush(heap, item)

        def heappop(heap):
            self.popped = True
            return heapq.heappop(heap)

        def dense(matrix):
            self.residues.append(matrix)
            return real_snf(matrix)

        monkeypatch.setattr(snf, "heapq", SimpleNamespace(
            heappush=heappush, heappop=heappop))
        monkeypatch.setattr(snf, "smith_normal_form", dense)

    def reset(self):
        self.seeds, self.residues, self.popped = set(), [], False

    def filled_in(self) -> bool:
        return sum(len(m[0]) for m in self.residues) < len(self.seeds)


RP2_6 = make_complex(6, [[2, 3, 4], [3, 4, 5], [1, 3, 5], [1, 2, 5],
                         [2, 5, 6], [2, 3, 6], [1, 3, 6], [1, 4, 6],
                         [1, 2, 4], [4, 5, 6]])


def test_complex_reducer_on_multidegree_chains(monkeypatch):
    # the worklist of zero-cost pivots cascades across degrees (a pivot in
    # d_q deletes a row of d_{q+1} and a column of d_{q-1}), which one-map
    # complexes never exercise
    rng = random.Random(17)
    for _ in range(25):
        K = random_complex(rng, max_m=5)
        _assert_reducer_matches_naive(cubical_chain_complex(build_rmac(K)))
    for _ in range(40):
        K = random_complex(rng, max_m=7)
        _assert_reducer_matches_naive(build_simplicial_chain_complex(K))
    # RZ_K of the 6-vertex RP^2 has Z/2 in H~_2, a divisor 2 in d_3; it
    # takes a fill-in pivot and the dense residue to find it
    spy = _EngineSpy(monkeypatch)
    _, divisors = _assert_reducer_matches_naive(
        cubical_chain_complex(build_rmac(RP2_6)))
    assert divisors[3][-1] == 2
    assert spy.filled_in() and spy.residues


def test_worklist_takes_the_pivots_of_a_cubical_complex(monkeypatch):
    # on RZ_K of sk_2 of the 6-simplex every pivot has zero fill-in; they
    # must cascade through the worklist (each one exposing the next in the
    # adjacent degrees) and leave nothing for the Markowitz heap
    spy = _EngineSpy(monkeypatch)
    cc = cubical_chain_complex(build_rmac(simplex(7).skeleton(2)))
    cells = sum(cc.dim(q) for q in cc.basis)
    ranks, divisors = complex_rank_divisors(cc.boundary,
                                            {q: cc.dim(q) for q in cc.basis})
    # H~_3 of that RZ_K is free of rank sum_j C(7, j) C(j - 1, 3) = 209
    assert cells == 1809 and cells - 2 * sum(ranks.values()) == 209
    assert all(set(ds) == {1} for ds in divisors.values())
    assert not spy.seeds and not spy.residues


def test_reducer_matches_naive_on_random_one_map_complexes(monkeypatch):
    # small entries leave many unit pivots with fill-in and many non-unit
    # residues, so the heap and the dense routine both run; explicit zero
    # entries must be skipped without touching the caller's columns
    spy = _EngineSpy(monkeypatch)
    rng = random.Random(23)
    filled = seeded = residues = 0
    for _ in range(200):
        A = random_matrix(rng, max_n=6, lo=-3, hi=3)
        cols = [{i: A[i][j] for i in range(len(A)) if A[i][j] or i == j}
                for j in range(len(A[0]))]
        cc = ChainComplex({0: range(len(A)), 1: range(len(A[0]))}, {1: cols})
        spy.reset()
        assert _assert_reducer_matches_naive(cc)[1][1] == naive_snf_divisors(A)
        filled += spy.filled_in()
        seeded += bool(spy.seeds)
        residues += len(spy.residues)
    assert seeded > 100 and filled > 50 and residues > 50


def test_reducer_unit_pivots_that_all_fill_in(monkeypatch):
    # every unit has a second entry in its row and in its column, so the
    # worklist takes nothing and every column seeds the heap
    spy = _EngineSpy(monkeypatch)
    cols = [{0: 1, 1: 1}, {0: 1, 1: -1, 2: 2}, {1: 2, 2: 1, 3: 1},
            {2: 1, 3: -1}]
    cc = ChainComplex({0: range(4), 1: range(4)}, {1: cols})
    ranks, divisors = _assert_reducer_matches_naive(cc)
    assert spy.seeds == {(1, b) for b in range(4)}
    assert divisors[1] == naive_snf_divisors(_dense(cols, 4))
    assert divisors[1][-1] > 1 and spy.residues


def test_fill_in_that_cancels_an_entry_exposes_a_zero_cost_pivot(monkeypatch):
    # the cheapest pivot (0, 0) clears row 0 by subtracting column 0 from
    # column 1, which cancels the entry (1, 1); row 1 is then left with
    # only column 2 and column 1 with only row 2, two zero-cost pivots
    # that must be read from the updated transpose and counts
    spy = _EngineSpy(monkeypatch)
    cols = [{0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}, {1: 1, 2: 2}]
    cc = ChainComplex({0: range(3), 1: range(3)}, {1: cols})
    ranks, divisors = _assert_reducer_matches_naive(cc)
    assert divisors[1] == naive_snf_divisors(_dense(cols, 3)) == (1, 1, 1)
    assert spy.seeds == {(1, b) for b in range(3)} and spy.filled_in()


def test_reducer_checks_dims():
    cols = [{0: 1, 1: -1}, {1: 1}]
    assert complex_rank_divisors({1: cols}, {0: 2, 1: 2}) == (
        {1: 2}, {1: (1, 1)})
    with pytest.raises(ValueError, match="row index"):
        complex_rank_divisors({1: cols}, {0: 1, 1: 2})


def test_complex_reducer_first_pivot_from_a_one_entry_row():
    # unaugmented 2-simplex: every column has two or three entries, and the
    # edge rows of d_2 have one entry each, so the first zero-cost pivot is
    # a one-entry row; its elimination leaves one-entry rows in d_1
    cols1 = [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]   # 12, 13, 23
    cols2 = [{0: 1, 1: -1, 2: 1}]                            # 123
    cc = ChainComplex({0: (1, 2, 3), 1: (12, 13, 23), 2: (123,)},
                      {1: cols1, 2: cols2})
    assert all(len(c) > 1 for cols in cc.boundary.values() for c in cols)
    ranks, divisors = _assert_reducer_matches_naive(cc)
    assert ranks == {1: 2, 2: 1} and divisors == {1: (1, 1), 2: (1,)}
    # a twisted variant: d_2 = 2 * (12 - 13 + 23) leaves a one-entry row
    # whose entry is not a unit, so the torsion must survive to the residue
    cc2 = ChainComplex({0: (1, 2, 3), 1: (12, 13, 23), 2: (123,)},
                       {1: cols1, 2: [{0: 2, 1: -2, 2: 2}]})
    assert _assert_reducer_matches_naive(cc2)[1][2] == (2,)


def test_invariant_factors_normalization():
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([2, 4]) == (2, 4)
    assert invariant_factors([6, 4]) == (2, 12)
    assert invariant_factors([1, 1, 5]) == (5,)
    assert invariant_factors([]) == ()


def test_invariant_factors_match_the_prime_power_reference():
    # orders from small primes and their powers, with 0 and 1 (dropped) and
    # repeats, so several orders share each prime
    rng = random.Random(1412)
    pool = [0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 25, 27, 30, 49, 60]
    for _ in range(2000):
        ds = [rng.choice(pool) for _ in range(rng.randint(0, 7))]
        assert invariant_factors(ds) == reference_invariant_factors(ds), ds


def test_prime_factors_and_is_prime_by_sieve():
    n = 2000
    sieve = bytearray([1]) * n
    sieve[:2] = b"\x00\x00"
    for p in range(2, n):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    primes = [p for p in range(n) if sieve[p]]
    for k in range(-3, n):
        assert is_prime(k) == (k >= 0 and bool(sieve[k])), k
        assert prime_factors(k) == tuple(p for p in primes
                                         if k > 1 and k % p == 0), k


def rank_mod_p(divisors, p: int) -> int:
    """U A V = D with U, V unimodular stays an equivalence mod p, so the rank
    mod p counts the divisors that p does not divide."""
    return sum(1 for d in divisors if d % p)


def test_mod_p_rank():
    # [[2,4],[6,8]] over Z/2 is the zero matrix
    cols = [{0: 2, 1: 6}, {0: 4, 1: 8}]
    assert rank_mod_p(sparse_rank_divisors(cols, 2)[1], 2) == 0
    assert rank_mod_p(sparse_rank_divisors(cols, 2)[1], 3) == 2


@given(st.lists(st.lists(st.integers(-4, 4), min_size=1, max_size=6),
                min_size=1, max_size=6).filter(
                    lambda rows: len({len(r) for r in rows}) == 1),
       st.sampled_from([2, 3, 5]))
@settings(max_examples=200, deadline=None)
def test_rank_mod_p_matches_naive_oracle(rows, p):
    # entries -4..4 put multiples of 2 and 3 in the matrix, so non-unit
    # divisors occur and the rank mod p can fall below the rank over Q
    cols = [{i: rows[i][j] for i in range(len(rows)) if rows[i][j]}
            for j in range(len(rows[0]))]
    want = naive_rank_mod_p(rows, p)
    assert rank_mod_p(sparse_rank_divisors(cols, len(rows))[1], p) == want
    assert rank_mod_p(smith_normal_form(rows).divisors, p) == want
