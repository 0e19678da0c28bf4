import random

from hypothesis import given, settings, strategies as st

from fatwedge.snf import (complex_rank_divisors, invariant_factors,
                          rank_mod_p, smith_normal_form, sparse_rank_divisors)

from helpers import (minor_gcd_divisors, naive_rank_mod_p, naive_snf_divisors,
                     random_matrix)


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


def test_transforms_are_unimodular_and_exact():
    rng = random.Random(5)
    for _ in range(50):
        A = random_matrix(rng, max_n=6)
        res = smith_normal_form(A)
        n, m = res.shape
        # U A V is the diagonal form
        uav = matmul(matmul([list(r) for r in res.U], A), [list(r) for r in res.V])
        for i in range(n):
            for j in range(m):
                want = res.divisors[i] if i == j and i < res.rank else 0
                assert uav[i][j] == want
        # inverses really invert
        eye_n = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        eye_m = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        assert matmul([list(r) for r in res.U], [list(r) for r in res.u_inv]) == eye_n
        assert matmul([list(r) for r in res.V], [list(r) for r in res.v_inv]) == eye_m


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
        # random two-step complex d1 d2 with d1 d2 = 0: build from a random
        # d2 and take d1 = 0 rows mixed with compatible relations is fiddly;
        # instead compare on independent matrices placed in separate degrees
        A = random_matrix(rng, max_n=5)
        cols = [{i: A[i][j] for i in range(len(A)) if A[i][j]}
                for j in range(len(A[0]))]
        ranks, divisors = complex_rank_divisors({1: cols}, {0: len(A), 1: len(A[0])})
        dense = smith_normal_form(A)
        assert ranks[1] == dense.rank
        assert invariant_factors(divisors[1]) == invariant_factors(dense.divisors)


def test_invariant_factors_normalization():
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([2, 4]) == (2, 4)
    assert invariant_factors([6, 4]) == (2, 12)
    assert invariant_factors([1, 1, 5]) == (5,)
    assert invariant_factors([]) == ()


def test_mod_p_rank():
    # [[2,4],[6,8]] over Z/2 is the zero matrix
    cols = [{0: 2, 1: 6}, {0: 4, 1: 8}]
    assert sparse_rank_divisors(cols, 2, p=2)[0] == 0
    assert sparse_rank_divisors(cols, 2, p=3)[0] == 2


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
    assert sparse_rank_divisors(cols, len(rows), p)[0] == want
    assert rank_mod_p(smith_normal_form(rows).divisors, p) == want
