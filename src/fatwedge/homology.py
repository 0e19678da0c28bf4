"""Exact reduced simplicial/cellular homology over Z, Q and Z/p.

Chain complexes are augmented: degree -1 holds the empty cell and the
augmentation boundary of every vertex is [empty], so every profile is reduced
homology and degree -1 genuinely exists (the empty complex has nontrivial
H in degree -1, which Hochster-type sums rely on).

Boundary matrices are kept column-sparse.  Bulk invariants go through the
one sparse integral eliminator in ``snf``: one reduction gives the Smith
divisors of every boundary map, hence the integral profile, which the
complex keeps; every field is read off it by universal coefficients
(``HomologyProfile.over``).  The same eliminator tests whether chains are
boundaries (``are_boundaries``), all the inclusion test and the Tor
products ask where a class lands.  Homology bases with representative
cycles, read off two dense Smith forms over Z, name the classes where they
live, over Z, Q and Z/p alike; each checks its rank against the profile.

The homology of a simplicial complex K is read off its strong-collapse core
K_J (``complexes.core_mask``), kept by the run under ("core", K): deleting a
dominated vertex is a strong deformation retraction (Barmak and Minian,
"Strong homotopy types, nerves and collapses", Discrete Comput. Geom. 47
(2012)), so the core has the homology of K over every ring, and every
contractible complex has a point for its core.  The homology of all full
subcomplexes is one table per complex and ring, ``full_subcomplex_profiles``,
which every loop over the 2^m subsets reads (hodim and dK, torsion primes,
both Golod oracles, the simplicial sides of both Hochster identities, the
BBCG summands, the sequential Cohen-Macaulay test).  The integral table is
one pass over the subsets in increasing order: a K_I equal after
relabelling to one built earlier copies its entry, and any other K_I with a
dominated vertex v or a ghost g copies the entry of K_{I - v} or K_{I - g},
so only the new K_I that are their own cores are built and reduced.
Homology bases and the inclusion test need the cells of K itself and take
its own chain complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, Mapping, Sequence

from .complexes import (SimplicialComplex, _full_subcomplex_facets,
                        core_mask, dominated_vertex, full_subcomplex, run,
                        shared, verts)
from .snf import (complex_rank_divisors, invariant_factors, is_prime,
                  prime_factors, smith_normal_form, sparse_rank_divisors)

# Tally of boundary-squared verifications, one per chain complex constructed
# (simplicial, cubical or Koszul); the acceptance suite reads this to confirm
# the d^2 = 0 invariant was actually exercised everywhere.
DD_ZERO_CHECKS = {"chain_complexes": 0}

# The d^2 check sorts signed rows only where d_{q-1} has at least this many
# columns; on smaller maps (most full subcomplexes at m <= 8) building the
# split costs more than the dict sums it saves.
_SPLIT_MIN_COLUMNS = 64


@dataclass(frozen=True)
class CoefficientRing:
    """Z, Q, or the prime field Z/p."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Zp"):
            raise ValueError(f"unknown coefficient ring kind {self.kind!r}")
        if self.kind == "Zp":
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")
        elif self.p is not None:
            raise ValueError("p only makes sense for Zp")

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    def __repr__(self) -> str:
        return {"Z": "Z", "Q": "Q"}.get(self.kind) or f"Z/{self.p}"


ZZ = CoefficientRing("Z")
QQ = CoefficientRing("Q")


def GF(p: int) -> CoefficientRing:
    return CoefficientRing("Zp", p)


def ring_from_string(s: str) -> CoefficientRing:
    """Parse Z | Q | Zp:<p> (also accepts Z/<p>)."""
    s = s.strip()
    if s == "Z":
        return ZZ
    if s == "Q":
        return QQ
    for prefix in ("Zp:", "Z/"):
        if s.startswith(prefix):
            return GF(int(s[len(prefix):]))
    raise ValueError(f"cannot parse coefficient ring {s!r}")


class ChainComplex:
    """Finite chain complex with sparse integer boundary columns.

    basis[q] is the tuple of cell labels in degree q; boundary[q][j] maps the
    j-th cell of degree q to a {row: coeff} combination of degree q-1 cells.
    d(d(x)) = 0 is verified at construction and a violation raises.
    The integral profile and the rank of every d_q are computed on first
    use by ``chain_homology`` and kept.
    """

    __slots__ = ("basis", "boundary", "_index", "_profile", "_ranks",
                 "__weakref__")

    def __init__(self, basis: Mapping[int, Sequence], boundary: Mapping[int, Sequence[dict]]):
        self.basis = {q: tuple(cells) for q, cells in basis.items() if len(cells) > 0}
        self.boundary = {q: tuple(cols) for q, cols in boundary.items()
                         if q in self.basis and (q - 1) in self.basis}
        self._index: dict[int, dict] = {}
        self._profile: HomologyProfile | None = None
        self._ranks: dict[int, int] = {}
        for q, cols in self.boundary.items():
            if len(cols) != len(self.basis[q]):
                raise ValueError(f"boundary in degree {q} has wrong column count")
        self._verify_dd_zero()
        DD_ZERO_CHECKS["chain_complexes"] += 1

    def _verify_dd_zero(self) -> None:
        """Raise unless d_{q-1} d_q = 0 in every degree, exactly.

        Where both maps have only +-1 entries (simplicial and cubical
        chains), d_{q-1} d_q x is zero exactly when the rows reached with a
        plus sign and those reached with a minus sign form equal multisets,
        so each column is checked by sorting two lists of row indices.  Any
        other coefficient, or a d_{q-1} with fewer than _SPLIT_MIN_COLUMNS
        columns, is summed in a dict.  The +-1 split is held for one degree
        at a time.
        """
        split = None    # +-1 rows of each column of d_{q-1}, or None
        for q in sorted(self.boundary):
            cols = self.boundary[q]
            lower = self.boundary.get(q - 1)
            if lower is not None:
                for j, col in enumerate(cols):
                    if split is not None:
                        pos: list[int] = []
                        neg: list[int] = []
                        for i, v in col.items():
                            plus, minus = split[i]
                            if v == 1:
                                pos += plus
                                neg += minus
                            elif v == -1:
                                pos += minus
                                neg += plus
                            else:
                                break
                        else:
                            pos.sort()
                            neg.sort()
                            if pos == neg:
                                continue
                            raise ValueError(f"d^2 != 0 at degree {q}, column {j}")
                    acc: dict[int, int] = {}
                    for i, v in col.items():
                        for i2, v2 in lower[i].items():
                            acc[i2] = acc.get(i2, 0) + v * v2
                    if any(acc.values()):
                        raise ValueError(f"d^2 != 0 at degree {q}, column {j}")
            split = None
            if q + 1 in self.boundary and len(cols) >= _SPLIT_MIN_COLUMNS:
                split = _signed_rows(cols)

    def dim(self, q: int) -> int:
        return len(self.basis.get(q, ()))

    def index(self, q: int) -> dict:
        """Position of each cell label in basis[q], built on first use."""
        idx = self._index.get(q)
        if idx is None:
            idx = self._index[q] = {lab: i for i, lab
                                    in enumerate(self.basis.get(q, ()))}
        return idx


def _signed_rows(cols: Sequence[dict]) -> list[tuple[list[int], list[int]]] | None:
    """(rows with entry +1, rows with entry -1) of each column, or None when
    some entry is neither."""
    out = []
    for col in cols:
        plus = [i for i, v in col.items() if v == 1]
        minus = [i for i, v in col.items() if v == -1]
        if len(plus) + len(minus) != len(col):
            return None
        out.append((plus, minus))
    return out


class HomologyProfile:
    """Reduced homology, per degree: free rank plus invariant-factor torsion."""

    __slots__ = ("ring", "free", "torsion")

    def __init__(self, ring: CoefficientRing,
                 free: Mapping[int, int] | None = None,
                 torsion: Mapping[int, Iterable[int]] | None = None):
        self.ring = ring
        self.free = {q: int(r) for q, r in (free or {}).items() if r}
        tors = {}
        for q, ds in (torsion or {}).items():
            chain = invariant_factors(ds)
            if chain:
                if ring.is_field:
                    raise ValueError("torsion is empty over a field")
                tors[q] = chain
        self.torsion = tors

    def betti(self, q: int) -> int:
        return self.free.get(q, 0)

    def torsion_at(self, q: int) -> tuple[int, ...]:
        return self.torsion.get(q, ())

    def is_trivial(self) -> bool:
        return not self.free and not self.torsion

    def nonzero_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.free) | set(self.torsion)))

    def shifted(self, k: int) -> "HomologyProfile":
        return HomologyProfile(self.ring,
                               {q + k: r for q, r in self.free.items()},
                               {q + k: ds for q, ds in self.torsion.items()})

    @staticmethod
    def direct_sum(parts: Iterable["HomologyProfile"],
                   ring: CoefficientRing) -> "HomologyProfile":
        free: dict[int, int] = {}
        tors: dict[int, list[int]] = {}
        for p in parts:
            if p.ring != ring:
                raise ValueError("direct sum of profiles over different rings")
            for q, r in p.free.items():
                free[q] = free.get(q, 0) + r
            for q, ds in p.torsion.items():
                tors.setdefault(q, []).extend(ds)
        return HomologyProfile(ring, free, tors)

    def torsion_primes(self) -> tuple[int, ...]:
        ps: set[int] = set()
        for ds in self.torsion.values():
            for d in ds:
                ps.update(prime_factors(d))
        return tuple(sorted(ps))

    def over(self, ring: CoefficientRing) -> "HomologyProfile":
        """This integral profile over ``ring`` by universal coefficients:
        over Q the free part; over Z/p also, for each invariant factor of H_q
        that p divides, one class in degree q and one in degree q + 1."""
        if ring == self.ring:
            return self
        if self.ring != ZZ:
            raise ValueError(f"cannot read {self.ring} homology over {ring}")
        free = dict(self.free)
        if ring.kind == "Zp":
            for q, ds in self.torsion.items():
                k = sum(1 for d in ds if d % ring.p == 0)
                free[q] = free.get(q, 0) + k
                free[q + 1] = free.get(q + 1, 0) + k
        return HomologyProfile(ring, free)

    def hodim(self) -> int | None:
        """Largest q with H~_q(-; A) != 0 for some finitely generated A, or
        None: by universal coefficients the largest free degree or torsion
        degree + 1."""
        return max([*self.free, *(q + 1 for q in self.torsion)], default=None)

    def to_json(self) -> list[dict]:
        out = []
        for q in self.nonzero_degrees():
            out.append({"degree": q, "free": self.betti(q),
                        "torsion": list(self.torsion_at(q))})
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HomologyProfile) and self.ring == other.ring
                and self.free == other.free and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.free.items())),
                     tuple(sorted(self.torsion.items()))))

    def __repr__(self) -> str:
        if self.is_trivial():
            return f"HomologyProfile({self.ring}: trivial)"
        bits = []
        for q in self.nonzero_degrees():
            parts = []
            if self.betti(q):
                parts.append(f"{self.ring}^{self.betti(q)}" if self.betti(q) > 1
                             else f"{self.ring}")
            parts.extend(f"Z/{d}" for d in self.torsion_at(q))
            bits.append(f"H~{q}=" + "+".join(parts))
        return f"HomologyProfile({'; '.join(bits)})"


# -- profiles of chain complexes --------------------------------------------

def chain_homology(cc: ChainComplex, ring: CoefficientRing) -> HomologyProfile:
    """Reduced homology profile of an augmented chain complex over ring.

    The integral profile comes from one sparse reduction, made on first use
    and kept by the complex with the rank of every boundary map; every field
    is read off it (``over``).
    """
    prof = cc._profile
    if prof is None:
        ranks, divisors = complex_rank_divisors(
            cc.boundary, {q: cc.dim(q) for q in cc.basis})
        cc._ranks = ranks
        prof = cc._profile = HomologyProfile(
            ZZ, {q: cc.dim(q) - ranks.get(q, 0) - ranks.get(q + 1, 0)
                 for q in cc.basis},
            {q: [d for d in divisors.get(q + 1, ()) if d > 1]
             for q in cc.basis})
    return prof.over(ring)


def build_simplicial_chain_complex(K: SimplicialComplex) -> ChainComplex:
    """Augmented simplicial chains; d[v0..vq] = sum (-1)^i [v0..^vi..vq]."""
    basis: dict[int, tuple[int, ...]] = {}
    for d in range(-1, K.dim + 1):
        cells = K.faces(d)
        if cells:
            basis[d] = cells
    boundary: dict[int, list[dict[int, int]]] = {}
    for d in range(0, K.dim + 1):
        if d not in basis:
            continue
        lower_index = {f: i for i, f in enumerate(basis[d - 1])}
        cols = []
        for f in basis[d]:
            col: dict[int, int] = {}
            vs = verts(f)
            for i, v in enumerate(vs):
                sub = f ^ (1 << (v - 1))
                col[lower_index[sub]] = 1 if i % 2 == 0 else -1
            cols.append(col)
        boundary[d] = cols
    return ChainComplex(basis, boundary)


def simplicial_chain_complex(K: SimplicialComplex) -> ChainComplex:
    """The run's simplicial chain complex of K (see ``complexes.run``)."""
    return shared(("chains", K), lambda: build_simplicial_chain_complex(K))


def reduced_homology(K: SimplicialComplex, ring: CoefficientRing = ZZ) -> HomologyProfile:
    """Reduced homology of K, computed on the chains of its strong-collapse
    core K_J (``complexes.core_mask``), which has the homotopy type of K.

    The run keeps the core under ("core", K); a complex with no dominated
    vertex and no ghost is its own core, so it shares its chains with every
    caller that needs the cells of K itself.
    """
    return chain_homology(simplicial_chain_complex(
        shared(("core", K), lambda: _core(K))), ring)


def _core(K: SimplicialComplex) -> SimplicialComplex:
    J = core_mask(K)
    return K if J == (1 << K.m) - 1 else full_subcomplex(K, J)


def full_subcomplex_homology(K: SimplicialComplex, imask: int,
                             ring: CoefficientRing = ZZ) -> HomologyProfile:
    """H~(K_I) for one I, read off the strong-collapse core of K_I like
    every reduced homology; equal full subcomplexes share one core and one
    reduction.  Loops over all I read ``full_subcomplex_profiles``."""
    return reduced_homology(full_subcomplex(K, imask), ring)


@run()
def full_subcomplex_profiles(K: SimplicialComplex,
                             ring: CoefficientRing = ZZ) -> dict[int, HomologyProfile]:
    """{I: H~(K_I; ring)} over the nonempty I with nonzero homology, in
    increasing mask order, kept by the run (callers must not change it, and
    equal entries may be one object).  The table over a field is read off
    the integral one (``HomologyProfile.over``), which is built in one pass
    (``_integral_profiles``).
    """
    def build() -> dict[int, HomologyProfile]:
        if ring == ZZ:
            return _integral_profiles(K)
        table = {I: prof.over(ring)
                 for I, prof in full_subcomplex_profiles(K).items()}
        return {I: prof for I, prof in table.items() if not prof.is_trivial()}

    return shared(("profiles", K, ring), build)


def _integral_profiles(K: SimplicialComplex) -> dict[int, HomologyProfile]:
    """{I: H~(K_I; Z)} over the nonempty I with nonzero homology, from one
    pass over the subsets I in increasing mask order.

    The facets of each K_I, in the labels of K and relabelled onto 1..|I|,
    are derived from those of K_{I - v} for the lowest v in I
    (``complexes._full_subcomplex_facets``).  The relabelled K_I, |I| with
    its sorted facets, is looked up first among the K_I the table has
    built, and a K_I equal to one of them copies its entry.  Otherwise,
    when some vertex v is dominated, K_I retracts onto K_{I - v}
    (``complexes.core_mask``), whose entry is already made and is copied;
    else a ghost g in I adds no face, so the entry of I - g is copied (that
    of I = 0 is the entry of {()}, H~_{-1} = Z).  Only a K_I with neither
    is built as a complex, and it is its own strong-collapse core: its
    chains come from the run (``simplicial_chain_complex``), so equal K_I
    are reduced once in a run, whichever table or oracle asks.

    The built K_I are kept per size |I|, each as one int: a 1, then each
    facet in |I| bits.  Copied ones are not kept: at m = 16 nearly every
    K_I is new after relabelling and most copy a smaller entry, so their
    keys would cost more memory than the domination test they save.
    """
    entries = [HomologyProfile(ZZ, {-1: 1})]     # K_0 = {()}
    built: list[dict[int, HomologyProfile]] = [{} for _ in range(K.m + 1)]
    support = K.support
    for imask, facets, relabelled in _full_subcomplex_facets(K):
        n = imask.bit_count()
        relabelled = sorted(relabelled)
        key = 1
        for c in relabelled:
            key = key << n | c
        prof = built[n].get(key)
        if prof is None:
            v = dominated_vertex(facets, imask & support)
            if not v:
                ghosts = imask & ~support
                v = ghosts & -ghosts
            if v:
                prof = entries[imask ^ v]
            else:
                prof = built[n][key] = chain_homology(simplicial_chain_complex(
                    SimplicialComplex(n, relabelled, _trusted=True)), ZZ)
        entries.append(prof)
    return {I: prof for I, prof in enumerate(entries)
            if I and not prof.is_trivial()}


# -- homology dimension ------------------------------------------------------

def hodim(K: SimplicialComplex) -> int | None:
    """Largest q with H~_q(K; A) != 0 for some finitely generated A, or None
    (``HomologyProfile.hodim``)."""
    return reduced_homology(K, ZZ).hodim()


def dK(K: SimplicialComplex) -> int | None:
    """max over nonempty I of hodim(K_I); None when every K_I is acyclic."""
    return max((prof.hodim() for prof in full_subcomplex_profiles(K).values()),
               default=None)


# -- homology bases, boundaries and inclusions ------------------------------

def _dense_boundary(cc: ChainComplex, q: int) -> list[list[int]]:
    nrows = cc.dim(q - 1)
    cols = cc.boundary.get(q, ())
    mat = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            mat[i][j] = v
    return mat


class HomologyBasis:
    """Generators with representative cycles for H_q(cc; ring) and their
    orders: 0 when free (always over a field), else the torsion order.

    One construction serves Z, Q and Z/p, on two integral Smith forms: that
    of d_q, d_q V = U^-1 D with divisors d_j (j < r), and that of d_{q+1} in
    the cycle coordinates y_{r:} of y = V^-1 x, with divisors e_i (0 past
    its rank) and inverse row transform W.  Slot j < r carries (d_j, 0) and
    slot r + i carries (0, e_i); it gives a class when its d is zero in the
    ring and its e is not a unit: over Z the torsion e > 1 and the free
    slots past the rank; over Q the free slots only; over Z/p every e that p
    divides, and every d_j that p divides, the Tor(H_{q-1}, Z/p) part of
    universal coefficients.  The generator is column j of V, or V times
    column i of W in the cycle coordinates.
    """

    def __init__(self, cc: ChainComplex, ring: CoefficientRing, q: int):
        def is_zero(x: int) -> bool:
            return x % ring.p == 0 if ring.p else x == 0

        n = cc.dim(q)
        if q in cc.boundary:
            dq = smith_normal_form(_dense_boundary(cc, q))
            V, v_inv, ds = dq.V, dq.v_inv, dq.divisors
        else:
            V = v_inv = [[int(i == j) for j in range(n)] for i in range(n)]
            ds = ()
        r = len(ds)
        rows: list[list[int]] = [[] for _ in range(r, n)]
        for col in cc.boundary.get(q + 1, ()):
            # y_{r:} of y = V^-1 x
            for row, v_row in zip(rows, v_inv[r:]):
                row.append(sum(v_row[i] * v for i, v in col.items()))
        bq = smith_normal_form(rows)
        es = bq.divisors + (0,) * (n - r - bq.rank)
        self.generators = []
        self.orders = []
        for s, (d, e) in enumerate([(d, 0) for d in ds] + [(0, e) for e in es]):
            unit = e == 1 if ring.kind == "Z" else not is_zero(e)
            if unit or not is_zero(d):
                continue
            self.orders.append(0 if ring.is_field else e)
            if s < r:
                self.generators.append([row[s] for row in V])
            else:
                c = [row[s - r] for row in bq.u_inv]
                self.generators.append([sum(row[r + k] * ck for k, ck in enumerate(c) if ck)
                                        for row in V])
        prof = chain_homology(cc, ring)
        if (self.orders.count(0), tuple(e for e in self.orders if e)) != \
                (prof.betti(q), prof.torsion_at(q)):
            raise AssertionError("homology basis rank mismatch")

    @property
    def rank(self) -> int:
        return len(self.orders)


def are_boundaries(cc: ChainComplex, q: int,
                   chains: Sequence[Mapping[int, int]],
                   ring: CoefficientRing) -> bool:
    """Whether the q-cycles in chains (sparse) are all boundaries of cc over
    ring, by the sparse eliminator on d_{q+1} with them appended.

    The boundaries B lie in the span B' of d_{q+1} and the chains.  B = B'
    exactly when the rank is unchanged over Q, the count of divisors that p
    does not divide over Z/p, and over Z the rank and the product of the
    divisors: lattices of equal rank share one saturation, where each has
    that product as index.  The invariant of B is read off the complex's
    kept reduction: the rank r of d_{q+1}, whose divisors past the units are
    the torsion of H_q, so over Z/p it is r less the torsion factors that p
    divides.
    """
    tors = chain_homology(cc, ZZ).torsion_at(q)
    rank = cc._ranks.get(q + 1, 0)
    spanned, divisors = sparse_rank_divisors(
        [*cc.boundary.get(q + 1, ()), *chains], cc.dim(q))
    if ring.kind == "Q":
        return spanned == rank
    if ring.kind == "Zp":
        return (sum(1 for d in divisors if d % ring.p)
                == rank - sum(1 for d in tors if d % ring.p == 0))
    return (spanned, prod(divisors)) == (rank, prod(tors))


def is_zero_on_homology(ccA: ChainComplex, ccB: ChainComplex,
                        ring: CoefficientRing,
                        degrees: Iterable[int] | None = None) -> bool:
    """True iff the inclusion of ccA in ccB vanishes on H_q for every (given) q.

    ccA must be a subcomplex of ccB cell for cell, with the same labels in
    each degree; the generators of H_q(ccA) are carried into ccB unchanged
    and tested there at once (``are_boundaries``).  A cell of a pushed cycle
    that ccB lacks raises ValueError.
    """
    src = chain_homology(ccA, ring)
    for q in src.nonzero_degrees() if degrees is None else degrees:
        if src.betti(q) == 0 and not src.torsion_at(q):
            continue
        cells = ccA.basis[q]
        index = ccB.index(q)
        gens = HomologyBasis(ccA, ring, q).generators
        try:
            pushed = [{index[cells[i]]: v for i, v in enumerate(gen) if v}
                      for gen in gens]
        except KeyError:
            raise ValueError(f"source is not a subcomplex of the target in "
                             f"degree {q}") from None
        if not are_boundaries(ccB, q, pushed, ring):
            return False
    return True
