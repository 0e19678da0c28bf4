"""The real moment-angle complex of K as an explicit cubical complex.

A face of the cube (D^1)^m is a pair sigma <= tau of subsets of [m]:
coordinates in sigma are pinned at -1, coordinates outside tau at +1, and the
|tau| - |sigma| coordinates in between are free.  The real moment-angle
complex consists of the faces with tau - sigma a face of K, and its fat wedge
filtration level i keeps the faces with |sigma| >= m - i.

A cell is stored as the integer code (sigma << m) | tau.  Since tau < 2^m,
codes sort exactly like (sigma, tau) pairs.  No geometric coordinates are
ever materialized, since homology only needs the cellular chain complex.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def cubical_chain_complex(C: CubicalComplex) -> ChainComplex:
    """Augmented cellular chains of a cubical complex.

    The boundary of C_{sigma <= tau} alternates over the free coordinates in
    ascending order: the k-th smallest free coordinate j contributes
    (-1)^(k-1) * (C_{sigma <= tau-j} - C_{sigma+j <= tau}).
    """
    basis: dict[int, tuple] = {-1: (0,)}
    for d, cells in C.faces.items():
        basis[d] = cells
    m = C.m
    full = (1 << m) - 1
    index = {d: {c: i for i, c in enumerate(cells)}
             for d, cells in C.faces.items()}
    boundary: dict[int, list[dict[int, int]]] = {}
    if 0 in C.faces:
        boundary[0] = [{0: 1} for _ in C.faces[0]]
    for d in sorted(C.faces):
        if d == 0 or (d - 1) not in C.faces:
            continue
        low = index[d - 1]
        cols = []
        for key in C.faces[d]:
            # the facets (s, t - b) and (s + b, t) differ for every free b,
            # so no two terms of the column land on the same row
            col: dict[int, int] = {}
            free = key & full & ~(key >> m)
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
    return ChainComplex(basis, boundary)


def cubical_homology(C: CubicalComplex, ring: CoefficientRing = ZZ) -> HomologyProfile:
    """Reduced homology of the cubical complex (degree -1 materialized)."""
    return chain_homology(cubical_chain_complex(C), ring)


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
    structure, the right from the table of full-subcomplex homology.
    """
    C = build_rmac(K, max_m=max_m, allow_large=allow_large)
    counts = C.counts()
    lhs = cubical_homology(C, ring)
    del C     # free the cells before the full subcomplexes are reduced
    rhs = HomologyProfile.direct_sum(
        (prof.shifted(1) for prof in full_subcomplex_profiles(K, ring).values()),
        ring)
    return HochsterReport(ring, lhs, rhs, lhs == rhs, counts)
