"""Exact integer linear algebra: Smith normal form and sparse elimination.

Two engines share this module.  ``smith_normal_form`` is a dense
reduction carrying the column transform and the inverse row transform,
used only where homology generators over Z, Q and Z/p are named; entries
are Python ints, so there is no overflow.  ``complex_rank_divisors`` is the
one sparse eliminator, over Z and divisors-only, for the bulk homology
computations and every boundary test (``homology.are_boundaries``), where
boundary matrices are large but almost all pivots are units: unit pivots
are eliminated and split off, and whatever remains is handed to the dense
routine.  It keeps one set of live-cell flags, entry counts and transpose
lists.  Zero-cost pivots (a unit alone in its column or row) come from a
FIFO worklist, the coreduction cascade of Mrozek and Batko; they only
delete entries, so they read the caller's columns in place.  When none is
left, the surviving columns are copied and the cheapest unit by Markowitz
cost comes off a heap and is eliminated with fill-in.  Its divisors give
the integral homology of a complex, and ``homology`` reads every field off
that by universal coefficients.  ``sparse_rank_divisors`` runs it on one
matrix.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class SNFResult:
    """A @ V = u_inv @ diag(divisors), with V and u_inv unimodular.

    divisors is the nonzero diagonal d_1 | d_2 | ... | d_r (all positive);
    rank = r.  V, its inverse v_inv and u_inv, the inverse of the row
    transform, are accumulated during the reduction, so no caller inverts.
    """

    shape: tuple[int, int]
    divisors: tuple[int, ...]
    V: tuple[tuple[int, ...], ...]
    u_inv: tuple[tuple[int, ...], ...]
    v_inv: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.divisors)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(matrix) -> SNFResult:
    """Smith normal form of an integer matrix (list of rows).

    Pivots on a smallest-magnitude nonzero entry and fully reduces its row and
    column before clearing, which keeps coefficient growth tame at desk scale.
    A pivot p > 1 is kept only once it divides every entry of the block below
    it, so the chain d_1 | d_2 | ... holds as the pivots are taken and the
    rank is their number.
    """
    A = [list(map(int, row)) for row in matrix]
    nrows = len(A)
    ncols = len(A[0]) if nrows else 0
    if any(len(row) != ncols for row in A):
        raise ValueError("ragged matrix")
    Uinv = _identity(nrows)
    V = _identity(ncols)
    Vinv = _identity(ncols)

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        for r in Uinv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def row_add(dst, src, c):
        # row_dst += c * row_src
        Ad, As = A[dst], A[src]
        for k in range(ncols):
            Ad[k] += c * As[k]
        for r in Uinv:
            r[src] -= c * r[dst]

    def col_add(dst, src, c):
        # col_dst += c * col_src
        for r in A:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]
        Vd, Vs = Vinv[dst], Vinv[src]
        for k in range(ncols):
            Vs[k] -= c * Vd[k]

    def row_negate(i):
        A[i] = [-x for x in A[i]]
        for r in Uinv:
            r[i] = -r[i]

    t = 0
    n = min(nrows, ncols)
    while t < n:
        # locate smallest nonzero entry in the trailing block
        best = None
        for i in range(t, nrows):
            Ai = A[i]
            for j in range(t, ncols):
                x = Ai[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
                    if abs(x) == 1:
                        break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        if A[t][t] < 0:
            row_negate(t)
        # reduce until the pivot divides its whole row and column and every
        # entry of the block below it; a row of the block with an entry the
        # pivot does not divide is added to row t, and the pivot shrinks to a
        # gcd on the next round
        while True:
            p = A[t][t]
            dirty = False
            for i in range(t + 1, nrows):
                if A[i][t]:
                    q = A[i][t] // p
                    row_add(i, t, -q)
                    if A[i][t]:
                        row_swap(t, i)
                        if A[t][t] < 0:
                            row_negate(t)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, ncols):
                if A[t][j]:
                    q = A[t][j] // p
                    col_add(j, t, -q)
                    if A[t][j]:
                        col_swap(t, j)
                        dirty = True
                        break
            if not dirty and p != 1:
                for i in range(t + 1, nrows):
                    if any(x % p for x in A[i][t + 1:]):
                        row_add(t, i, 1)
                        dirty = True
                        break
            if not dirty:
                break
        t += 1

    divisors = tuple(A[k][k] for k in range(t))
    return SNFResult(
        shape=(nrows, ncols),
        divisors=divisors,
        V=tuple(tuple(r) for r in V),
        u_inv=tuple(tuple(r) for r in Uinv),
        v_inv=tuple(tuple(r) for r in Vinv),
    )


# -- sparse elimination over Z ----------------------------------------------

def complex_rank_divisors(boundaries, dims):
    """Ranks and divisors of every boundary matrix of a chain complex at once.

    boundaries maps degree q to the sparse integer columns of d_q (entries
    over the (q-1)-basis); dims maps degree to basis size, and a row index
    of d_q at or above dims[q - 1] raises ValueError.
    Returns (ranks, divisors) dicts indexed by degree: ranks[q] is the rank
    of d_q over Q and divisors[q] its invariant divisors over Z, so ranks[q]
    == len(divisors[q]) and the rank over Z/p is the number of divisors
    that p does not divide.  The columns are read, never modified.

    A unit entry <d(b), a> = +-1 is eliminated by column operations inside
    d_q alone; the cells a and b then split off as an acyclic summand, so row
    b of d_{q+1} and column a of d_{q-1} are deleted outright (their entries
    vanish in the adjusted basis because d^2 = 0).  This preserves all ranks
    and the homology.

    One set of structures serves every pivot: a flag per cell, an entry
    count per row and column, and the transpose of every d_q as lists of
    columns per row.  A unit pivot that is alone in its column or in its
    row costs nothing: the column operations that clear its row subtract
    multiples of a column that has no other entry, or there are no other
    columns in its row to clear.  Eliminating it only deletes entries,
    namely every entry of the cells a and b, in d_q, d_{q+1} and d_{q-1},
    so ``kill`` updates the counts and flags and never computes an entry.
    Such pivots come from a FIFO worklist seeded with every one present at
    the start (on an augmented complex, the augmentation columns of the
    vertices, and the free faces); each kill appends the pivots it leaves
    behind.  On cell complexes this is the coreduction cascade of Mrozek and
    Batko ("Coreduction homology algorithm", Discrete Comput. Geom. 41,
    2009) together with ordinary free face collapses, and it reads the
    caller's columns in place.

    When the worklist runs dry, each surviving column with an entry is
    copied, filtered to live rows, and its unit entries go on a heap keyed
    by their Markowitz cost (r - 1)(c - 1).  The cheapest is eliminated with
    fill-in: ``fill_in`` clears its row in those copies, keeping counts and
    transpose exact, and the worklist takes the zero-cost pivots that
    exposes before the next heap pivot.  Whatever survives, typically a
    small non-unit residue, goes to the dense Smith reduction.
    """
    cols: dict[int, Sequence[dict[int, int]]] = {}
    rows: dict[int, list[list[int]]] = {}
    ccount: dict[int, list[int]] = {}
    rcount: dict[int, list[int]] = {}
    alive: dict[int, bytearray] = {}
    for q, cq in boundaries.items():
        n = dims.get(q - 1, 0)
        rq: list[list[int]] = [[] for _ in range(n)]
        try:
            for b, col in enumerate(cq):
                if 0 in col.values():
                    if cq is boundaries[q]:
                        cq = list(cq)
                    col = cq[b] = {a: v for a, v in col.items() if v}
                for a in col:
                    rq[a].append(b)
        except IndexError:
            raise ValueError(f"d_{q} has a row index >= dims[{q - 1}] = "
                             f"{n}") from None
        cols[q] = cq
        rows[q] = rq
        ccount[q] = [len(col) for col in cq]
        rcount[q] = [len(r) for r in rq]
        for d, size in ((q, len(cq)), (q - 1, n)):
            if d not in alive:
                alive[d] = bytearray(b"\x01") * size
    pivots: dict[int, int] = dict.fromkeys(boundaries, 0)
    work: deque[tuple[int, int, int]] = deque()
    heap: list[tuple[int, int, int, int]] = []

    def offer_col(q: int, b: int) -> None:
        lo = alive[q - 1]
        for a, v in cols[q][b].items():
            if lo[a]:
                if v == 1 or v == -1:
                    work.append((q, a, b))
                return

    def offer_row(q: int, a: int) -> None:
        hi = alive[q]
        cq = cols[q]
        for b in rows[q][a]:
            if hi[b]:
                v = cq[b][a]
                if v == 1 or v == -1:
                    work.append((q, a, b))
                return

    def kill(q: int, a: int, b: int) -> None:
        pivots[q] += 1
        hi, lo = alive[q], alive[q - 1]
        hi[b] = lo[a] = 0
        rc = rcount[q]
        for x in cols[q][b]:
            if lo[x]:
                rc[x] -= 1
                if rc[x] == 1:
                    offer_row(q, x)
        cc = ccount[q]
        for c in rows[q][a]:
            if hi[c]:
                cc[c] -= 1
                if cc[c] == 1:
                    offer_col(q, c)
        up = rows.get(q + 1)
        if up is not None:
            top, cc = alive[q + 1], ccount[q + 1]
            for e in up[b]:
                if top[e]:
                    cc[e] -= 1
                    if cc[e] == 1:
                        offer_col(q + 1, e)
        down = cols.get(q - 1)
        if down is not None:
            low, rc = alive[q - 2], rcount[q - 1]
            for y in down[a]:
                if low[y]:
                    rc[y] -= 1
                    if rc[y] == 1:
                        offer_row(q - 1, y)

    def drain() -> None:
        while work:
            q, a, b = work.popleft()
            if (alive[q][b] and alive[q - 1][a]
                    and (ccount[q][b] == 1 or rcount[q][a] == 1)):
                kill(q, a, b)

    def push_col(q: int, b: int) -> None:
        lo, rc = alive[q - 1], rcount[q]
        cb = ccount[q][b] - 1
        for a, v in cols[q][b].items():
            if lo[a] and (v == 1 or v == -1):
                heapq.heappush(heap, ((rc[a] - 1) * cb, q, a, b))

    def fill_in(q: int, a: int, b: int, u: int) -> None:
        # clear row a of d_q with the unit u at (a, b), then kill a and b;
        # the columns change first, so every pivot kill offers is current
        cq, rq, cc, rc = cols[q], rows[q], ccount[q], rcount[q]
        hi, lo = alive[q], alive[q - 1]
        colb = [(x, w) for x, w in cq[b].items() if lo[x] and x != a]
        for c in rq[a]:
            if hi[c] and c != b:
                colc = cq[c]
                factor = colc[a] * u    # u = +-1 is its own inverse
                for x, w in colb:
                    nv = colc.get(x, 0) - factor * w
                    if not nv:
                        del colc[x]
                        cc[c] -= 1
                        rc[x] -= 1
                        rq[x].remove(c)
                        continue
                    if x not in colc:
                        cc[c] += 1
                        rc[x] += 1
                        rq[x].append(c)
                    colc[x] = nv
        kill(q, a, b)
        for c in rq[a]:
            if hi[c] and cc[c]:
                push_col(q, c)

    for q in sorted(cols):
        for b, n in enumerate(ccount[q]):
            if n == 1:
                offer_col(q, b)
        for a, n in enumerate(rcount[q]):
            if n == 1:
                offer_row(q, a)
    drain()

    survivors: list[tuple[int, int]] = []
    for q, cq in cols.items():
        hi, lo, cc = alive[q], alive[q - 1], ccount[q]
        for b in range(len(cq)):
            if hi[b] and cc[b]:
                if cq is boundaries[q]:
                    cq = cols[q] = list(cq)
                cq[b] = {a: v for a, v in cq[b].items() if lo[a]}
                survivors.append((q, b))
                push_col(q, b)
    while heap:
        cost, q, a, b = heapq.heappop(heap)
        u = cols[q][b].get(a)
        if not (alive[q][b] and alive[q - 1][a]) or (u != 1 and u != -1):
            continue
        true_cost = (rcount[q][a] - 1) * (ccount[q][b] - 1)
        if true_cost > cost and true_cost > 16:
            heapq.heappush(heap, (true_cost, q, a, b))
            continue
        fill_in(q, a, b, u)
        drain()

    residue: dict[int, list[dict[int, int]]] = {}
    for q, b in survivors:
        if alive[q][b] and ccount[q][b]:
            residue.setdefault(q, []).append(
                {a: v for a, v in cols[q][b].items() if alive[q - 1][a]})

    ranks: dict[int, int] = {}
    divisors: dict[int, tuple[int, ...]] = {}
    for q in boundaries:
        r = pivots[q]
        ds: tuple[int, ...] = (1,) * r
        cq = residue.get(q)
        if cq:
            rows_left = sorted({a for colb in cq for a in colb})
            apos = {a: i for i, a in enumerate(rows_left)}
            dense = [[0] * len(cq) for _ in rows_left]
            for j, colb in enumerate(cq):
                for a, v in colb.items():
                    dense[apos[a]][j] = v
            res = smith_normal_form(dense)
            r += res.rank
            ds = ds + res.divisors
        ranks[q] = r
        divisors[q] = ds
    return ranks, divisors


def sparse_rank_divisors(columns, nrows: int):
    """Rank over Q and invariant divisors over Z of a sparse integer matrix.

    columns is a sequence of {row: value} dicts, reduced as the one-map
    complex d_1 by ``complex_rank_divisors``; the rank over Z/p is the
    number of divisors that p does not divide.
    """
    ranks, divisors = complex_rank_divisors({1: columns}, {0: nrows, 1: len(columns)})
    return ranks[1], divisors[1]


def invariant_factors(divisors) -> tuple[int, ...]:
    """Canonical invariant-factor chain d_1 | d_2 | ... of the direct sum of
    Z/d over a multiset of cyclic orders; orders <= 1 are dropped.

    Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b), taken pairwise in order: after
    position i has met every later one it divides all of them.  Used when
    direct sums of torsion groups must be compared structurally.
    """
    ds = [d for d in map(int, divisors) if d > 1]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            g = gcd(ds[i], ds[j])
            ds[i], ds[j] = g, ds[i] * ds[j] // g
    return tuple(d for d in ds if d > 1)


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n, ascending; () for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == (n,)
