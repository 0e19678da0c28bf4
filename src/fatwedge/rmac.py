"""The real moment-angle complex of K as an explicit cubical complex.

A face of the cube (D^1)^m is a pair sigma <= tau of subsets of [m]:
coordinates in sigma are pinned at -1, coordinates outside tau at +1, and the
|tau| - |sigma| coordinates in between are free.  The real moment-angle
complex consists of the faces with tau - sigma a face of K, and its fat wedge
filtration level i keeps the faces with |sigma| >= m - i.

A cell is stored as the integer code (sigma << m) | tau.  Since tau < 2^m,
codes sort exactly like (sigma, tau) pairs.  No geometric coordinates are
ever materialized, since homology only needs the cellular chain complex.
The facets of a cell sit at code offsets that depend only on its free set
tau - sigma, so ``cubical_homology`` coreduces the cells on their codes
(Mrozek and Batko, "Coreduction homology algorithm", Discrete Comput. Geom.
41, 2009) and builds boundary columns only for the cells that survive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import repeat

from .complexes import SimplicialComplex, run, subsets_of
from .homology import (ChainComplex, CoefficientRing, HomologyProfile, ZZ,
                       chain_homology, full_subcomplex_profiles)

#: 3^m faces add up fast; refuse larger ground sets unless told otherwise.
DEFAULT_MAX_M = 12


@dataclass
class CubicalComplex:
    """Boundary-closed set of cube faces: faces[d] holds the sorted codes
    (sigma << m) | tau of the d-dimensional cells."""

    m: int
    faces: dict[int, tuple[int, ...]]

    def counts(self) -> dict[int, int]:
        return {d: len(cells) for d, cells in sorted(self.faces.items())}

    def total_faces(self) -> int:
        return sum(len(cells) for cells in self.faces.values())


def build_rmac(K: SimplicialComplex, max_m: int = DEFAULT_MAX_M,
               allow_large: bool = False) -> CubicalComplex:
    """All cube faces C_{sigma <= tau} with tau - sigma a face of K."""
    if K.m > max_m and not allow_large:
        raise ValueError(f"m={K.m} exceeds the guardrail max_m={max_m} "
                         f"(--max-m); raise max_m or pass allow_large=True")
    m = K.m
    full = (1 << m) - 1
    by_dim: dict[int, list[int]] = {}
    for mu in K.all_faces():
        bucket = by_dim.setdefault(mu.bit_count(), [])
        for s in subsets_of(full & ~mu):
            bucket.append((s << m) | s | mu)
    faces = {d: tuple(sorted(cells)) for d, cells in by_dim.items()}
    return CubicalComplex(m, faces)


def rmac_filtration(K: SimplicialComplex, i: int, max_m: int = DEFAULT_MAX_M,
                    allow_large: bool = False) -> CubicalComplex:
    """Fat wedge filtration level i: the faces of RZ_K with |sigma| >= m - i.

    Level 0 is the single vertex (-1, ..., -1); level m is all of RZ_K.
    """
    if not 0 <= i <= K.m:
        raise ValueError(f"filtration level {i} out of range 0..{K.m}")
    ambient = build_rmac(K, max_m=max_m, allow_large=allow_large)
    m, cut = K.m, K.m - i
    faces = {}
    for d, cells in ambient.faces.items():
        kept = tuple(c for c in cells if (c >> m).bit_count() >= cut)
        if kept:
            faces[d] = kept
    return CubicalComplex(m, faces)


def _face_offsets(mu: int, m: int) -> tuple[tuple[int, int], ...]:
    """(offset, sign) of each facet of a cell with free set mu.

    The k-th smallest free coordinate b gives the facets code - b (b leaves
    tau) with sign (-1)^(k-1) and code + (b << m) (b joins sigma) with the
    opposite sign.  The offsets depend on mu alone, so one tuple serves
    every cell with that free set.
    """
    out: list[tuple[int, int]] = []
    sign = 1
    while mu:
        b = mu & -mu
        mu ^= b
        out += ((-b, sign), (b << m, -sign))
        sign = -sign
    return tuple(out)


def cubical_chain_complex(C: CubicalComplex) -> ChainComplex:
    """Augmented cellular chains of a cubical complex, every cell a column.

    The boundary of C_{sigma <= tau} alternates over the free coordinates in
    ascending order: the k-th smallest free coordinate j contributes
    (-1)^(k-1) * (C_{sigma <= tau-j} - C_{sigma+j <= tau})
    (``_face_offsets``).  ``cubical_homology`` reduces only the cells that
    survive coreduction; these full chains are its reference.
    """
    m = C.m
    full = (1 << m) - 1
    index = {d: {c: i for i, c in enumerate(cells)}
             for d, cells in C.faces.items()}
    boundary: dict[int, list[dict[int, int]]] = {}
    if 0 in C.faces:
        boundary[0] = [{0: 1} for _ in C.faces[0]]
    offsets: dict[int, tuple[tuple[int, int], ...]] = {}
    for d, cells in C.faces.items():
        if d == 0:
            continue
        low = index.get(d - 1, {})
        cols = []
        for c in cells:
            mu = c & full & ~(c >> m)
            offs = offsets.get(mu)
            if offs is None:
                offs = offsets[mu] = _face_offsets(mu, m)
            # the facets (s, t - b) and (s + b, t) differ for every free b,
            # so no two terms of the column land on the same row
            col: dict[int, int] = {}
            for o, s in offs:
                i = low.get(c + o)
                if i is None:
                    raise ValueError("cubical complex is not boundary-closed")
                col[i] = s
            cols.append(col)
        boundary[d] = cols
    return ChainComplex({-1: (0,), **C.faces}, boundary)


def cubical_homology(C: CubicalComplex, ring: CoefficientRing = ZZ) -> HomologyProfile:
    """Reduced homology of the cubical complex (degree -1 materialized).

    C is coreduced on its cell codes before any column exists (Mrozek and
    Batko, "Coreduction homology algorithm", Discrete Comput. Geom. 41,
    2009).  The empty cell is paired with the first vertex; then a FIFO
    worklist takes every cell left with one live facet and deletes it with
    that facet.  A pair with a unit entry alone in its column only deletes
    entries, as in ``snf.complex_rank_divisors``, so the cells that survive,
    with their boundaries restricted to surviving cells, have the homology
    of C.  Only they become a ``ChainComplex``, reduced by the one sparse
    eliminator (torsion, and any component the cascade never reached).

    Checks run on the compact form: every facet of every cell must be a
    cell of C, and for every free set mu in C the facets of facets, summed
    as code offsets, must cancel, which is d^2 = 0 on each cell with free
    set mu since c -> c + x is injective.  The survivors' chain complex runs
    its own d^2 check.
    """
    m = C.m
    full = (1 << m) - 1
    blocks: dict[int, list[int]] = {}     # free set -> its cells
    live: dict[int, int] = {}       # live cell -> number of live facets
    for d, cells in C.faces.items():
        # a vertex's one facet is the empty cell, which is paired below
        live.update(zip(cells, repeat(2 * d)))
        here: dict[int, list[int]] = {}
        for c in cells:
            mu = c & full & ~(c >> m)
            block = here.get(mu)
            if block is None:
                block = here[mu] = []
            block.append(c)
        for mu in here:
            if mu.bit_count() != d:
                raise ValueError(f"a cell of dimension {mu.bit_count()} "
                                 f"is listed in dimension {d}")
        blocks.update(here)
    offsets = {mu: _face_offsets(mu, m) for mu in blocks}
    # every facet of every cell is a cell (of the dimension below, as every
    # cell's dimension was checked), so the counts of live facets are exact
    for mu, offs in offsets.items():
        for o, _ in offs:
            if not all(map(live.__contains__, map(o.__add__, blocks[mu]))):
                raise ValueError("cubical complex is not boundary-closed")
    del blocks
    for mu, offs in offsets.items():
        acc: dict[int | None, int] = {}
        for o, s in offs:
            facet = mu ^ (-o if o < 0 else o >> m)
            if not facet:
                acc[None] = acc.get(None, 0) + s    # d(vertex) = empty cell
                continue
            for o2, s2 in offsets[facet]:
                acc[o + o2] = acc.get(o + o2, 0) + s * s2
        if any(acc.values()):
            raise ValueError(f"d^2 != 0 on the cells with free set {mu:#b}")
    # a coface of a cell adds a bit j to its free set mu, taken from sigma
    # or from outside tau, and mu | j must be a free set of C
    up = {mu: [(1 << k, 1 << (k + m)) for k in range(m)
               if not mu >> k & 1 and mu | 1 << k in offsets]
          for mu in offsets}
    work: deque[int] = deque()

    def drop(x: int) -> None:
        # x has died, so each live coface (which counted x) loses a facet
        for j, js in up[x & full & ~(x >> m)]:
            y = x - js if x & js else x + j
            n = live.get(y)
            if n:
                live[y] = n - 1
                if n == 2:
                    work.append(y)

    if C.faces.get(0):
        v0 = C.faces[0][0]
        del live[v0]    # paired with the empty cell
        drop(v0)
    while work:
        c = work.popleft()
        if live.get(c) != 1:
            continue
        for o, _ in offsets[c & full & ~(c >> m)]:
            if c + o in live:
                break
        del live[c], live[c + o]
        drop(c)
        drop(c + o)
    basis = {d: tuple(c for c in cells if c in live)
             for d, cells in C.faces.items()}
    del live
    if not C.faces.get(0):
        basis[-1] = (0,)    # no vertex to pair the empty cell with
    boundary: dict[int, list[dict[int, int]]] = {}
    for d, cells in basis.items():
        low = {c: i for i, c in enumerate(basis.get(d - 1, ()))}
        if d > 0 and low:
            boundary[d] = [
                {low[c + o]: s for o, s in offsets[c & full & ~(c >> m)]
                 if c + o in low} for c in cells]
    return chain_homology(ChainComplex(basis, boundary), ring)


@dataclass(frozen=True)
class HochsterReport:
    """Comparison of H~_*(RZ_K) with the full-subcomplex homology sum, and
    the cell counts of the RZ_K that was reduced (not the cells themselves,
    which would outlive the check)."""

    ring: CoefficientRing
    lhs: HomologyProfile
    rhs: HomologyProfile
    equal: bool
    face_counts: dict[int, int]

    def to_json(self) -> dict:
        return {"ring": repr(self.ring), "equal": self.equal,
                "rmac_homology": self.lhs.to_json(),
                "subcomplex_sum": self.rhs.to_json()}


@run()
def hochster_identity_check(K: SimplicialComplex, ring: CoefficientRing = ZZ,
                            max_m: int = DEFAULT_MAX_M,
                            allow_large: bool = False) -> HochsterReport:
    """H~_q(RZ_K) vs the direct sum of H~_{q-1}(K_I) over nonempty I.

    Both sides are computed independently: the left from the cubical cell
    structure, coreduced on the cell codes (Mrozek and Batko) before the
    survivors go to the sparse eliminator (``cubical_homology``), the right
    from the table of full-subcomplex homology.
    """
    C = build_rmac(K, max_m=max_m, allow_large=allow_large)
    counts = C.counts()
    lhs = cubical_homology(C, ring)
    del C     # free the cells before the full subcomplexes are reduced
    rhs = HomologyProfile.direct_sum(
        (prof.shifted(1) for prof in full_subcomplex_profiles(K, ring).values()),
        ring)
    return HochsterReport(ring, lhs, rhs, lhs == rhs, counts)
