"""The real moment-angle complex of K as an explicit cubical complex.

A face of the cube (D^1)^m is a pair sigma <= tau of subsets of [m]:
coordinates in sigma are pinned at -1, coordinates outside tau at +1, and the
|tau| - |sigma| coordinates in between are free.  The real moment-angle
complex consists of the faces with tau - sigma a face of K, and its fat wedge
filtration level i keeps the faces with |sigma| >= m - i.

Cells are stored as (sigma, tau) bitmask pairs; no geometric coordinates are
ever materialized, since homology only needs the cellular chain complex.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import SimplicialComplex, run, subsets_of
from .homology import (ChainComplex, CoefficientRing, HomologyProfile, ZZ,
                       chain_homology, full_subcomplex_homology)

#: 3^m faces add up fast; refuse larger ground sets unless told otherwise.
DEFAULT_MAX_M = 12


@dataclass
class CubicalComplex:
    """Boundary-closed set of cube faces with a provenance tag."""

    m: int
    faces: dict[int, tuple[tuple[int, int], ...]]
    provenance: str
    _chain: ChainComplex | None = field(default=None, repr=False, compare=False)

    def counts(self) -> dict[int, int]:
        return {d: len(cells) for d, cells in sorted(self.faces.items())}

    def total_faces(self) -> int:
        return sum(len(cells) for cells in self.faces.values())


def build_rmac(K: SimplicialComplex, max_m: int = DEFAULT_MAX_M,
               allow_large: bool = False) -> CubicalComplex:
    """All cube faces C_{sigma <= tau} with tau - sigma a face of K."""
    if K.m > max_m and not allow_large:
        raise ValueError(f"m={K.m} exceeds the guardrail max_m={max_m}; "
                         f"pass allow_large=True to override")
    full = (1 << K.m) - 1
    by_dim: dict[int, list[tuple[int, int]]] = {}
    for mu in K.all_faces():
        d = mu.bit_count()
        rest = full & ~mu
        bucket = by_dim.setdefault(d, [])
        for s in subsets_of(rest):
            bucket.append((s, s | mu))
    faces = {d: tuple(sorted(cells)) for d, cells in by_dim.items()}
    return CubicalComplex(K.m, faces, provenance=f"rmac(m={K.m})")


def rmac_filtration(K: SimplicialComplex, i: int, max_m: int = DEFAULT_MAX_M,
                    allow_large: bool = False) -> CubicalComplex:
    """Fat wedge filtration level i: the faces of RZ_K with |sigma| >= m - i.

    Level 0 is the single vertex (-1, ..., -1); level m is all of RZ_K.
    """
    if not 0 <= i <= K.m:
        raise ValueError(f"filtration level {i} out of range 0..{K.m}")
    ambient = build_rmac(K, max_m=max_m, allow_large=allow_large)
    cut = K.m - i
    faces = {}
    for d, cells in ambient.faces.items():
        kept = tuple(st for st in cells if st[0].bit_count() >= cut)
        if kept:
            faces[d] = kept
    return CubicalComplex(K.m, faces, provenance=f"rmac_filtration(m={K.m}, i={i})")


def cubical_chain_complex(C: CubicalComplex) -> ChainComplex:
    """Augmented cellular chains of a cubical complex.

    The boundary of C_{sigma <= tau} alternates over the free coordinates in
    ascending order: the k-th smallest free coordinate j contributes
    (-1)^(k-1) * (C_{sigma <= tau-j} - C_{sigma+j <= tau}).
    """
    if C._chain is not None:
        return C._chain
    basis: dict[int, tuple] = {-1: (0,)}
    for d, cells in C.faces.items():
        basis[d] = cells
    m = C.m
    index = {d: {(s << m) | t: i for i, (s, t) in enumerate(cells)}
             for d, cells in C.faces.items()}
    boundary: dict[int, list[dict[int, int]]] = {}
    if 0 in C.faces:
        boundary[0] = [{0: 1} for _ in C.faces[0]]
    for d in sorted(C.faces):
        if d == 0 or (d - 1) not in C.faces:
            continue
        low = index[d - 1]
        cols = []
        for s, t in C.faces[d]:
            # the facets (s, t - b) and (s + b, t) differ for every free b,
            # so no two terms of the column land on the same row
            col: dict[int, int] = {}
            key = (s << m) | t
            free = t & ~s
            sign = 1
            while free:
                b = free & -free
                free ^= b
                i1 = low.get(key ^ b)
                i2 = low.get(key | (b << m))
                if i1 is None or i2 is None:
                    raise ValueError("cubical complex is not boundary-closed")
                col[i1] = sign
                col[i2] = -sign
                sign = -sign
            cols.append(col)
        boundary[d] = cols
    cc = ChainComplex(basis, boundary)
    C._chain = cc
    return cc


def cubical_homology(C: CubicalComplex, ring: CoefficientRing = ZZ) -> HomologyProfile:
    """Reduced homology of the cubical complex (degree -1 materialized)."""
    return chain_homology(cubical_chain_complex(C), ring)


@dataclass(frozen=True)
class HochsterReport:
    """Comparison of H~_*(RZ_K) with the full-subcomplex homology sum."""

    ring: CoefficientRing
    lhs: HomologyProfile
    rhs: HomologyProfile
    equal: bool

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
    structure, the right from simplicial chains of every full subcomplex.
    """
    lhs = cubical_homology(build_rmac(K, max_m=max_m, allow_large=allow_large), ring)
    parts = []
    for imask in range(1, 1 << K.m):
        parts.append(full_subcomplex_homology(K, imask, ring).shifted(1))
    rhs = HomologyProfile.direct_sum(parts, ring)
    return HochsterReport(ring, lhs, rhs, lhs == rhs)
