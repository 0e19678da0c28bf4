"""Shared test utilities: seeded random inputs and independent oracles.

The oracles here deliberately avoid the library's optimized code paths: the
naive Smith reduction is a textbook smallest-entry elimination with an
explicit gcd/lcm chain repair, and the minor-gcd divisors come straight from
the determinant-divisor definition d_k = gcd of all k x k minors.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd
from typing import Iterable

from fatwedge.complexes import (SimplicialComplex, _compress, _maximal,
                                empty_complex, full_subcomplex, join,
                                make_complex, mask_of, minimal_nonfaces, verts)
from fatwedge.criteria import (CollapseSequence, SearchResult, ShellingOrder,
                               _Budget, _face_set, _has_gcd_witnesses)
from fatwedge.homology import (QQ, ZZ, CoefficientRing, HomologyBasis,
                               HomologyProfile, reduced_homology,
                               simplicial_chain_complex)
from fatwedge.rmac import build_rmac
from fatwedge.tor import _merge_sign


def random_complex(rng: random.Random, max_m: int = 7, min_m: int = 1):
    """Random complex on 1..max_m vertices, ghosts and empty complex allowed."""
    m = rng.randint(min_m, max_m)
    n_gens = rng.randint(0, 2 * m)
    gens = []
    for _ in range(n_gens):
        size = rng.randint(1, max(1, rng.randint(1, m)))
        gens.append(rng.sample(range(1, m + 1), size))
    return make_complex(m, gens)


def random_graph(rng: random.Random, max_m: int = 8, min_m: int = 2):
    """Random graph (all singletons present, so the vertex set is [m])."""
    m = rng.randint(min_m, max_m)
    p = rng.uniform(0.15, 0.9)
    gens = [[v] for v in range(1, m + 1)]
    for a, b in itertools.combinations(range(1, m + 1), 2):
        if rng.random() < p:
            gens.append([a, b])
    return make_complex(m, gens)


def random_two_complex(rng: random.Random, max_m: int = 7, min_m: int = 3):
    """Random complex of dimension at most 2 with vertex set [m]."""
    m = rng.randint(min_m, max_m)
    gens = [[v] for v in range(1, m + 1)]
    for _ in range(rng.randint(1, 2 * m)):
        gens.append(rng.sample(range(1, m + 1), rng.choice((2, 3))))
    return make_complex(m, gens)


RP2_6 = make_complex(6, [[2, 3, 4], [3, 4, 5], [1, 3, 5], [1, 2, 5],
                         [2, 5, 6], [2, 3, 6], [1, 3, 6], [1, 4, 6],
                         [1, 2, 4], [4, 5, 6]])


def rp2_with_cones(rng: random.Random, cones: int = 3) -> SimplicialComplex:
    """RP^2 on six vertices with up to ``cones`` new apexes, each coned over
    a few random faces of what is there so far: torsion that cones may kill,
    keep or move, and dominated vertices around a core with torsion."""
    gens = [list(verts(f)) for f in RP2_6.facets]
    m = 6
    for _ in range(rng.randint(0, cones)):
        m += 1
        for _ in range(rng.randint(1, 4)):
            face = rng.choice(gens)
            gens.append(rng.sample(face, rng.randint(1, len(face))) + [m])
    return make_complex(m, gens)


def with_ground(K: SimplicialComplex, m: int) -> SimplicialComplex:
    """The same facets viewed on a larger ground set [m] (adds ghost vertices)."""
    if m < K.m and (K.support & ~((1 << m) - 1)):
        raise ValueError("new ground set drops actual vertices")
    return SimplicialComplex(m, K.facets, _trusted=True)


def random_matrix(rng: random.Random, max_n: int = 8, lo: int = -9, hi: int = 9):
    rows = rng.randint(1, max_n)
    cols = rng.randint(1, max_n)
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def naive_snf_divisors(matrix) -> tuple[int, ...]:
    """Textbook Smith reduction: repeatedly move a smallest-magnitude entry to
    the pivot, subtract multiples along its row and column until both are
    clear, then repair the divisibility chain pairwise via gcd/lcm."""
    A = [list(map(int, row)) for row in matrix]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    t = 0
    while t < min(nrows, ncols):
        piv = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if A[i][j] and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        A[t], A[piv[0]] = A[piv[0]], A[t]
        for row in A:
            row[t], row[piv[1]] = row[piv[1]], row[t]
        while True:
            done = True
            for i in range(t + 1, nrows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    for k in range(t, ncols):
                        A[i][k] -= q * A[t][k]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        done = False
                        break
            if not done:
                continue
            for j in range(t + 1, ncols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    for k in range(t, nrows):
                        A[k][j] -= q * A[k][t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        done = False
                        break
            if done:
                break
        t += 1
    diag = [abs(A[k][k]) for k in range(t)]
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
        diag.sort()
    return tuple(diag)


def reference_invariant_factors(divisors) -> tuple[int, ...]:
    """Invariant factors by prime powers: split each order > 1 into prime
    powers, sort each prime's powers, and multiply the k-th largest powers
    of every prime into the k-th largest factor."""
    powers: dict[int, list[int]] = {}
    for d in divisors:
        n = int(d)
        p = 2
        while n > 1:
            if p * p > n:
                p = n
            if n % p == 0:
                q = 1
                while n % p == 0:
                    q *= p
                    n //= p
                powers.setdefault(p, []).append(q)
            p += 1
    depth = max((len(qs) for qs in powers.values()), default=0)
    chain = []
    for k in range(depth):
        d = 1
        for qs in powers.values():
            qs.sort(reverse=True)
            if k < len(qs):
                d *= qs[k]
        chain.append(d)
    return tuple(reversed(chain))


def naive_rank_mod_p(matrix, p: int) -> int:
    """Rank over Z/p by plain dense Gaussian elimination on the rows."""
    A = [[x % p for x in row] for row in matrix]
    ncols = len(A[0]) if A else 0
    rank = 0
    for j in range(ncols):
        piv = next((i for i in range(rank, len(A)) if A[i][j]), None)
        if piv is None:
            continue
        A[rank], A[piv] = A[piv], A[rank]
        inv = pow(A[rank][j], -1, p)
        for i in range(len(A)):
            if i != rank and A[i][j]:
                c = A[i][j] * inv
                A[i] = [(x - c * y) % p for x, y in zip(A[i], A[rank])]
        rank += 1
    return rank


def minor_gcd_divisors(matrix) -> tuple[int, ...]:
    """Divisors from the determinant-divisor definition (small matrices only):
    d_k = gcd of all k x k minors, and the k-th invariant factor is
    d_k / d_{k-1}."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    gcds = [1]
    for k in range(1, min(nrows, ncols) + 1):
        g = 0
        for rows in itertools.combinations(range(nrows), k):
            for cols in itertools.combinations(range(ncols), k):
                sub = [[matrix[i][j] for j in cols] for i in rows]
                g = gcd(g, _det(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        gcds.append(g)
    return tuple(gcds[k] // gcds[k - 1] for k in range(1, len(gcds)))


def _det(a) -> int:
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j]:
            minor = [row[:j] + row[j + 1:] for row in a[1:]]
            total += (-1) ** j * a[0][j] * _det(minor)
    return total


def brute_force_faces(K) -> set[tuple[int, ...]]:
    """All faces by scanning every subset of the ground set."""
    out = set()
    for mask in range(1 << K.m):
        if K.has_face(mask):
            out.add(verts(mask))
    return out


def reference_shelling_ok(f: int, placed) -> bool:
    """The shelling condition compared cap by wall: every cap f & g must lie
    in some cap of size |f| - 1."""
    size = f.bit_count()
    caps = [f & g for g in placed]
    walls = [c for c in caps if c.bit_count() == size - 1]
    for c in caps:
        if not any(c & ~w == 0 for w in walls):
            return False
    return True


def reference_shelling_search(K, budget: int):
    """Shelling backtrack with the pairwise condition and an explicit
    (overlap, vertex tuple) candidate key; returns (status, nodes, facets)."""
    facets = list(K.facets)
    t = len(facets)
    if t == 1:
        return "found", 1, (facets[0],)
    left = budget
    failed = set()
    order = []
    budget_hit = False

    def extend(placed_set, union):
        nonlocal left, budget_hit
        if len(order) == t:
            return True
        if placed_set in failed:
            return False
        cands = [f for f in facets if f not in placed_set]
        cands.sort(key=lambda f: (-(f & union).bit_count(), verts(f)))
        for f in cands:
            left -= 1
            if left < 0:
                budget_hit = True
                return False
            if order and not reference_shelling_ok(f, order):
                continue
            order.append(f)
            if extend(placed_set | {f}, union | f):
                return True
            order.pop()
            if budget_hit:
                return False
        failed.add(placed_set)
        return False

    if extend(frozenset(), 0):
        return "found", budget - left, tuple(order)
    return ("exhausted" if budget_hit else "none"), budget - left, None


def reference_free_pairs(faces) -> list[tuple[int, int]]:
    """Free pairs by the definition: s is free when exactly one other face
    contains it.  Compares every pair of faces, in the library's sort order."""
    pairs = []
    for s in faces:
        if s == 0:
            continue
        cofaces = [t for t in faces if t != s and s & ~t == 0]
        if len(cofaces) == 1:
            pairs.append((s, cofaces[0]))
    pairs.sort(key=lambda p: (-p[1].bit_count(), verts(p[1]), verts(p[0])))
    return pairs


def reference_collapse_search(K, budget: int) -> SearchResult:
    """Collapse search written as a recursive closure over the definitional
    free pairs: the reference that pins the nodes and steps of the library's
    explicit-stack engine and its coface count."""
    start = _face_set(K)
    if len(start) == 2 and 0 in start:
        return SearchResult("found", CollapseSequence(()), 0)
    b = _Budget(budget)
    failed: set[frozenset[int]] = set()
    steps: list[tuple[int, int]] = []
    budget_hit = False

    def dfs(faces: frozenset[int]) -> bool:
        nonlocal budget_hit
        if len(faces) == 2 and 0 in faces:
            return True
        if faces in failed:
            return False
        for s, t in reference_free_pairs(faces):
            if not b.spend():
                budget_hit = True
                return False
            steps.append((s, t))
            if dfs(faces - {s, t}):
                return True
            steps.pop()
            if budget_hit:
                return False
        failed.add(faces)
        return False

    found = dfs(start)
    del dfs    # break the closure's self-reference
    if found:
        return SearchResult("found", CollapseSequence(tuple(steps)), budget - b.left)
    return SearchResult("exhausted" if budget_hit else "none", None, budget - b.left)


def weak_shelling_search(K) -> SearchResult:
    """Weak shelling of the facets, or none; implemented directly on the
    facet family for cross-validation against the dual gcd search."""
    facets = list(K.facets)
    full = (1 << K.m) - 1
    r = len(facets)
    nodes = 0
    for i in range(r):
        for j in range(i + 1, r):
            if facets[i] | facets[j] != full:
                continue
            nodes += 1
            cap = facets[i] & facets[j]
            if not any(k != i and k != j and cap & ~facets[k] == 0
                       for k in range(r)):
                return SearchResult("none", None, nodes)
    return SearchResult("found", ShellingOrder(tuple(facets)), nodes)


def is_weak_shelling(K, order) -> bool:
    """Validate a weak shelling: whenever two facets cover the whole ground
    set, a third facet must contain their intersection (position-free; this
    is the Alexander-dual mirror of the strong gcd witness condition)."""
    ms = list(order)
    if sorted(ms) != sorted(K.facets):
        return False
    full = (1 << K.m) - 1
    r = len(ms)
    for j in range(r):
        for i in range(j):
            if ms[i] | ms[j] == full:
                cap = ms[i] & ms[j]
                if not any(k != i and k != j and cap & ~ms[k] == 0
                           for k in range(r)):
                    return False
    return True


def is_strong_gcd_order(K: SimplicialComplex, order) -> bool:
    """Validate a strong gcd-order: every disjoint pair of minimal non-faces
    must have a third minimal non-face inside its union.  The witness may sit
    anywhere else in the order."""
    ms = list(order)
    return (sorted(ms) == sorted(minimal_nonfaces(K))
            and _has_gcd_witnesses(ms)[0])


def rmac_face_counts_of_join(K1, K2) -> bool:
    """Product rule: |faces(RZ_{K1*K2})| = |faces(RZ_K1)| * |faces(RZ_K2)|."""
    a = build_rmac(K1).total_faces()
    b = build_rmac(K2).total_faces()
    c = build_rmac(join(K1, K2), max_m=K1.m + K2.m, allow_large=True).total_faces()
    return a * b == c


@dataclass(frozen=True)
class TorBasisElement:
    """Monomial u_omega v_sigma; omega and sigma are disjoint vertex masks."""

    omega: int
    sigma: int

    @property
    def total_degree(self) -> int:
        return self.omega.bit_count() + 2 * self.sigma.bit_count()

    @property
    def multidegree(self) -> int:
        return self.omega | self.sigma

    def __str__(self) -> str:
        u = ",".join(map(str, verts(self.omega)))
        v = ",".join(map(str, verts(self.sigma)))
        out = []
        if u:
            out.append(f"u[{u}]")
        if v:
            out.append(f"v[{v}]")
        return "*".join(out) if out else "1"


def verify_leibniz(K, e1: TorBasisElement, e2: TorBasisElement) -> bool:
    """d(xy) = (dx)y + (-1)^deg(x) x(dy) on basis monomials of the Koszul
    model of K, computed monomial by monomial."""
    lhs = _sum_terms((c * c2, ee) for c, e in basis_product(K, e1, e2)
                     for c2, ee in _d(K, e))
    rhs: dict[TorBasisElement, int] = {}
    for c, e in _d(K, e1):
        for c2, ee in basis_product(K, e, e2):
            rhs[ee] = rhs.get(ee, 0) + c * c2
    sgn = -1 if e1.total_degree % 2 else 1
    for c, e in _d(K, e2):
        for c2, ee in basis_product(K, e1, e):
            rhs[ee] = rhs.get(ee, 0) + sgn * c * c2
    return lhs == {k: v for k, v in rhs.items() if v}


def _d(K, e: TorBasisElement) -> list[tuple[int, TorBasisElement]]:
    out = []
    k = 0
    rem = e.omega
    while rem:
        low = rem & -rem
        rem ^= low
        s2 = e.sigma | low
        if K.has_face(s2):
            out.append((1 if k % 2 == 0 else -1,
                        TorBasisElement(e.omega ^ low, s2)))
        k += 1
    return out


def basis_product(K, e1: TorBasisElement, e2: TorBasisElement):
    if e1.omega & e2.omega or e1.sigma & e2.sigma:
        return []
    om = e1.omega | e2.omega
    sg = e1.sigma | e2.sigma
    if om & sg or not K.has_face(sg):
        return []
    return [(_merge_sign(e1.omega, e2.omega), TorBasisElement(om, sg))]


def _sum_terms(terms) -> dict:
    acc: dict[TorBasisElement, int] = {}
    for c, e in terms:
        acc[e] = acc.get(e, 0) + c
    return {k: v for k, v in acc.items() if v}


# -- the join Golod oracle through vertex maps and dense boundary tests ------

def dense_boundary(K: SimplicialComplex, q: int) -> list[list[int]]:
    """Dense d_q of the augmented simplicial chains, rows indexed by the
    (q-1)-faces and columns by the q-faces, both in K.faces order."""
    rows = {f: i for i, f in enumerate(K.faces(q - 1))}
    mat = [[0] * len(K.faces(q)) for _ in rows]
    for j, f in enumerate(K.faces(q)):
        for i, v in enumerate(verts(f)):
            mat[rows[f ^ (1 << (v - 1))]][j] = (-1) ** i
    return mat


def naive_is_boundary(K: SimplicialComplex, q: int, z: list[int],
                      ring: CoefficientRing) -> bool:
    """Whether the dense q-chain z is a boundary over ring, by a rank oracle:
    appending z to d_{q+1} keeps its rank over a field and, over Z, its
    Smith divisors (a lattice and a finite-index superlattice differ in
    the product of their divisors)."""
    up = dense_boundary(K, q + 1)
    both = [row + [x] for row, x in zip(up, z)]
    if ring == ZZ:
        return naive_snf_divisors(both) == naive_snf_divisors(up)
    if ring == QQ:
        return len(naive_snf_divisors(both)) == len(naive_snf_divisors(up))
    return naive_rank_mod_p(both, ring.p) == naive_rank_mod_p(up, ring.p)


def naive_homology(K: SimplicialComplex, ring: CoefficientRing):
    """Reduced homology of K's own cells from dense boundary matrices: ranks
    by the naive Smith reduction over Z and Q, by Gaussian elimination over
    Z/p, and torsion from the divisors of d_{q+1} over Z."""
    def rank(q):
        mat = dense_boundary(K, q)
        if ring.kind == "Zp":
            return naive_rank_mod_p(mat, ring.p)
        return len(naive_snf_divisors(mat))

    free, torsion = {}, {}
    for q in range(-1, K.dim + 1):
        free[q] = len(K.faces(q)) - rank(q) - rank(q + 1)
        if ring == ZZ:
            torsion[q] = [d for d in naive_snf_divisors(dense_boundary(K, q + 1))
                          if d > 1]
    return HomologyProfile(ring, free, torsion)


def dominated_vertices(K: SimplicialComplex) -> list[int]:
    """Vertices v such that some other vertex lies in every facet through v."""
    out = []
    for v in K.vertices:
        common = (1 << K.m) - 1
        for f in K.facets:
            if f >> (v - 1) & 1:
                common &= f
        if common != 1 << (v - 1):
            out.append(v)
    return out


def naive_core(K: SimplicialComplex) -> SimplicialComplex:
    """A strong-collapse core by repeated deletion of the first dominated
    vertex, with a fresh scan after each deletion."""
    while True:
        dominated = dominated_vertices(K)
        if not dominated:
            return K
        K = deletion(K, [dominated[0]])


def nested_disjoint_pairs(hot: list[int]):
    """Each pair (I, J) of hot with J after I and disjoint from it, by the
    nested walk over every pair."""
    for ai, imask in enumerate(hot):
        for jmask in hot[ai + 1:]:
            if not imask & jmask:
                yield imask, jmask


def _permutation_sign(seq) -> int:
    inv = sum(1 for i, j in itertools.combinations(range(len(seq)), 2)
              if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def reference_golod_via_join(K: SimplicialComplex,
                             ring: CoefficientRing) -> tuple[bool, str | None]:
    """(golod, witness text) of the join oracle, computed the long way.

    K_{I u J} keeps its own labels 1..|I u J|, and a vertex map with
    permutation signs carries each generator of its homology into
    K_I * K_J, where the dense naive oracles decide whether the image is a
    boundary.  No pair or degree is skipped for a cone factor or a trivial
    target; a degree with trivial source homology has no generator.
    """
    subsets = sorted(range(1, 1 << K.m), key=verts)
    for ai, imask in enumerate(subsets):
        for jmask in subsets[ai + 1:]:
            if imask & jmask:
                continue
            q = _reference_join_pair(K, imask, jmask, ring)
            if q is not None:
                return False, (f"inclusion of K_I(union)J into K_I * K_J is "
                               f"nonzero on H~_{q} for I={verts(imask)}, "
                               f"J={verts(jmask)}")
    return True, None


def _reference_join_pair(K, imask: int, jmask: int, ring) -> int | None:
    """First degree where K_{I u J} -> K_I * K_J is nonzero, else None."""
    A = full_subcomplex(K, imask | jmask)
    src = reduced_homology(A, ring)
    if src.is_trivial():
        return None
    B = join(full_subcomplex(K, imask), full_subcomplex(K, jmask))
    # position of each vertex of I u J -> its label in K_I * K_J
    rank_i = {v: k for k, v in enumerate(verts(imask), start=1)}
    rank_j = {v: imask.bit_count() + k
              for k, v in enumerate(verts(jmask), start=1)}
    vmap = {pos: rank_i.get(v) or rank_j[v]
            for pos, v in enumerate(verts(imask | jmask), start=1)}
    for q in src.nonzero_degrees():
        hb = HomologyBasis(simplicial_chain_complex(A), ring, q)
        index = {f: i for i, f in enumerate(B.faces(q))}
        for gen in hb.generators:
            z = [0] * len(index)
            for cell, c in zip(A.faces(q), gen):
                if c:
                    imgs = [vmap[v] for v in verts(cell)]
                    z[index[mask_of(imgs)]] += _permutation_sign(imgs) * c
            if not naive_is_boundary(B, q, z, ring):
                return q
    return None


# -- constructions with no caller in the library ----------------------------

def deletion(K: SimplicialComplex, sigma: Iterable[int]) -> SimplicialComplex:
    """dl_K(sigma) = K restricted to [m] - sigma (re-indexed onto 1..m-|sigma|)."""
    rest = ((1 << K.m) - 1) & ~mask_of(sigma)
    if not rest:
        raise ValueError("deletion of the whole ground set")
    return full_subcomplex(K, rest)


def star(K: SimplicialComplex, v: int) -> SimplicialComplex:
    """st_K(v) = lk_K(v) * {v}, kept as a subcomplex of K on the same ground set."""
    if not K.has_face(1 << (v - 1)):
        raise ValueError(f"{v} is not a vertex of the complex")
    return SimplicialComplex(K.m, tuple(f for f in K.facets if f & (1 << (v - 1))),
                             _trusted=True)


def is_cm(K: SimplicialComplex, ring: CoefficientRing = ZZ) -> bool:
    return K.is_pure and reference_is_scm(K, ring)


# -- the link criterion, the reference for criteria.is_scm ------------------

def link(K: SimplicialComplex, smask: int) -> SimplicialComplex:
    """lk_K(sigma) for the face sigma with vertex mask smask, on the ground
    set [m] - sigma re-indexed onto 1..m-|sigma|."""
    if not K.has_face(smask):
        raise ValueError(f"{verts(smask)} is not a face, link undefined")
    if smask == (1 << K.m) - 1:
        raise ValueError("link of the full ground set has an empty ambient set")
    rest = ((1 << K.m) - 1) ^ smask
    gens = _maximal(f & ~smask for f in K.facets if smask & ~f == 0)
    return SimplicialComplex(rest.bit_count(),
                             tuple(_compress(f, rest) for f in gens), _trusted=True)


def generated_subcomplex(K: SimplicialComplex, i: int) -> SimplicialComplex:
    """Downward closure of the faces of dimension >= i."""
    if i < 0:
        raise ValueError("generating dimension must be >= 0")
    gens = [f for f in K.facets if f.bit_count() - 1 >= i]
    if not gens:
        return empty_complex(K.m)
    return SimplicialComplex(K.m, _maximal(gens), _trusted=True)


def is_i_acyclic(K: SimplicialComplex, ring: CoefficientRing, i: int) -> bool:
    """No reduced homology in degrees <= i (degree -1 included)."""
    prof = reduced_homology(K, ring)
    return all(q > i for q in (*prof.free, *prof.torsion))


def reference_is_scm(K: SimplicialComplex, ring: CoefficientRing = ZZ) -> bool:
    """Sequentially Cohen-Macaulay over the ring, by the link criterion: for
    every face s and every 0 <= i <= dim lk(s), the subcomplex of the link
    generated by faces of dimension >= i is (i-1)-acyclic."""
    full = (1 << K.m) - 1
    for s in K.all_faces():
        if s == full:
            continue
        lk = link(K, s)
        for i in range(0, lk.dim + 1):
            if not is_i_acyclic(generated_subcomplex(lk, i), ring, i - 1):
                return False
    return True
