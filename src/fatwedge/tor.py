"""Finite Koszul-type model of the Tor algebra of a Stanley-Reisner ring.

The model has basis u_omega v_sigma with omega a subset of [m], sigma a face
of K disjoint from omega; deg u_i = 1, deg v_i = 2, so the total degree is
|omega| + 2|sigma| and the multidegree is omega + sigma.  The differential
d(u_omega v_sigma) = sum over i in omega of +-u_{omega-i} v_{sigma+i}, with
terms dropped when sigma+i is not a face, and the product is
u_omega v_sigma . u_omega' v_sigma' = +-u_{omega+omega'} v_{sigma+sigma'}
when the four supports are pairwise disjoint and sigma+sigma' is a face,
else zero.  Both preserve the multidegree, so the algebra splits into one
finite cochain complex per subset I of [m], whose basis is just the faces of
K contained in I.  Each piece is an ordinary ChainComplex (``koszul_piece``)
and is checked for d^2 = 0 like any other.  The pieces are integral, so one
piece and its reduction serve every field; only the cocycle bases used for
products depend on the field.  The run's store keeps the pieces under
("pieces", K) and the bases under ("bases", K, field).

Golodness has two independent oracles here: vanishing of all products of
positive-degree cohomology classes in this model, and triviality in homology
of every inclusion of a full subcomplex into the join of two complementary
pieces.  They compute the same pairing through entirely different chain data.
Both oracles, the torsion primes and the Hochster check read one table of
full-subcomplex homology per complex and ring (``full_subcomplex_profiles``),
and both oracles walk its disjoint pairs with homology through one generator,
``_disjoint_pairs``.  The join oracle builds a join only for a source degree
where the Kunneth formula gives the join nonzero homology there, checks it
against that prediction and keeps none in the run's store.  The Tor oracle
builds only the pieces its products touch, and checks each basis and
target against the dimension Hochster's formula gives.  Neither oracle
builds a basis where a class lands: it tests chains for boundaries there.
The Hochster check (tor_dimensions) builds every piece, so its Koszul side
never reads simplicial chains.  The table is reduced on strong-collapse
cores, so these checks, and the cubical side of the Hochster identity,
never read a core and check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .complexes import (SimplicialComplex, full_subcomplex, join, run, shared,
                        subsets_of, verts)
from .homology import (ChainComplex, CoefficientRing, ZZ, HomologyBasis,
                       HomologyProfile, are_boundaries,
                       build_simplicial_chain_complex, chain_homology,
                       full_subcomplex_profiles, is_zero_on_homology,
                       simplicial_chain_complex)


def _merge_sign(mask_a: int, mask_b: int) -> int:
    """Koszul sign for sorting u_a u_b into ascending order; masks disjoint."""
    inv = 0
    b = mask_b
    while b:
        low = b & -b
        b ^= low
        inv += (mask_a & ~(low - 1) & ~low).bit_count()
    return -1 if inv % 2 else 1


def koszul_piece(K: SimplicialComplex, imask: int) -> ChainComplex:
    """The multidegree-I part: a cochain complex on the faces of K inside I.

    The face s stands for u_{I-s} v_s in total degree t = |I| + |s|, stored
    in degree q = -t so the homology machinery (which lowers degree)
    applies verbatim; each degree lists its faces in increasing mask order.
    The complex is integral, so one piece serves every field.
    """
    isize = imask.bit_count()
    basis: dict[int, list[int]] = {}
    for s in K.all_faces():
        if s & ~imask == 0:
            basis.setdefault(-isize - s.bit_count(), []).append(s)
    for ss in basis.values():
        ss.sort()
    boundary: dict[int, list[dict[int, int]]] = {}
    for q, ss in basis.items():
        # d raises t, so degree q = -t maps into q - 1 = -(t + 1)
        if q - 1 not in basis:
            continue
        up = {s: i for i, s in enumerate(basis[q - 1])}
        cols = []
        for s in ss:
            col: dict[int, int] = {}
            k = 0
            rem = imask & ~s
            while rem:
                low = rem & -rem
                rem ^= low
                j = up.get(s | low)
                if j is not None:
                    col[j] = 1 if k % 2 == 0 else -1
                k += 1
            cols.append(col)
        boundary[q] = cols
    return ChainComplex(basis, boundary)


class TorAlgebra:
    """Bigraded cohomology of the Koszul-type model, with products."""

    def __init__(self, K: SimplicialComplex, field: CoefficientRing):
        if not field.is_field:
            raise ValueError(f"Tor model needs a field, got {field}")
        self.K = K
        self.field = field
        # the pieces built so far, by multidegree, shared by every field
        self._pieces: dict[int, ChainComplex] = shared(("pieces", K), dict)
        # cohomology bases over this field, by (multidegree, total degree)
        self._bases: dict[tuple[int, int], HomologyBasis] = \
            shared(("bases", K, field), dict)

    def piece(self, imask: int) -> ChainComplex:
        pc = self._pieces.get(imask)
        if pc is None:
            pc = self._pieces[imask] = koszul_piece(self.K, imask)
        return pc

    def basis(self, imask: int, t: int) -> HomologyBasis:
        """Classes of H^t of piece I, with representative cocycles."""
        hb = self._bases.get((imask, t))
        if hb is None:
            hb = self._bases[imask, t] = HomologyBasis(self.piece(imask),
                                                       self.field, -t)
        return hb

    def dimensions(self) -> dict[int, int]:
        """Total cohomology dimension per degree, all multidegrees summed."""
        dims: dict[int, int] = {}
        for imask in range(0, 1 << self.K.m):
            for q, d in chain_homology(self.piece(imask), self.field).free.items():
                dims[-q] = dims.get(-q, 0) + d
        return dims

    def product_class_is_zero(self, imask: int, t1: int, gen1: list,
                              jmask: int, t2: int, gen2: list) -> bool:
        """Whether the product of two cocycle representatives is a coboundary.

        gen1, gen2 are coefficient vectors over the piece bases at t1, t2.
        Multidegrees must be disjoint; the basis-level product of
        u_{I-s} v_s and u_{J-s'} v_s' survives exactly when s+s' is a face.
        """
        target = self.piece(imask | jmask)
        tt = t1 + t2
        if -tt not in target.basis:
            return True
        tgt_index = target.index(-tt)
        b1 = self.piece(imask).basis.get(-t1, ())
        b2 = self.piece(jmask).basis.get(-t2, ())
        p = self.field.p if self.field.kind == "Zp" else None
        prod: dict[int, int] = {}
        for i1, s1 in enumerate(b1):
            a = gen1[i1]
            if not a:
                continue
            om1 = imask & ~s1
            for i2, s2 in enumerate(b2):
                b = gen2[i2]
                if not b:
                    continue
                s12 = s1 | s2
                if not self.K.has_face(s12):
                    continue
                om2 = jmask & ~s2
                sign = _merge_sign(om1, om2)
                idx = tgt_index[s12]
                val = prod.get(idx, 0) + sign * a * b
                if p is not None:
                    val %= p
                prod[idx] = val
        prod = {i: v for i, v in prod.items() if v}
        if not prod:
            return True
        return are_boundaries(target, -tt, [prod], self.field)


def build_tor(K: SimplicialComplex, field: CoefficientRing) -> TorAlgebra:
    return TorAlgebra(K, field)


def tor_dimensions(K: SimplicialComplex, field: CoefficientRing) -> dict[int, int]:
    return build_tor(K, field).dimensions()


@dataclass(frozen=True)
class HochsterTorReport:
    lhs: tuple[tuple[int, int], ...]
    rhs: tuple[tuple[int, int], ...]
    equal: bool


def hochster_tor_check(K: SimplicialComplex, field: CoefficientRing) -> HochsterTorReport:
    """Koszul-model dimensions vs the sum of full-subcomplex cohomology.

    The right side is read off the full-subcomplex table, plus the unit in
    degree 0 for I = empty; over a field cohomology and homology dimensions
    coincide.
    """
    lhs = tor_dimensions(K, field)
    rhs = {0: 1}
    for imask, prof in full_subcomplex_profiles(K, field).items():
        for q, b in prof.free.items():
            t = q + imask.bit_count() + 1
            rhs[t] = rhs.get(t, 0) + b
    eq = lhs == rhs
    return HochsterTorReport(tuple(sorted(lhs.items())), tuple(sorted(rhs.items())), eq)


@dataclass(frozen=True)
class GolodVerdict:
    golod: bool
    ring: CoefficientRing
    oracle: str
    witness: tuple | None = None
    witness_text: str | None = None

    def to_json(self) -> dict:
        return {"golod": self.golod, "ring": repr(self.ring),
                "oracle": self.oracle, "witness": self.witness_text}


def golod_via_tor(K: SimplicialComplex, field: CoefficientRing) -> GolodVerdict:
    """Golodness oracle on the Koszul model: all products of positive-degree
    cohomology classes must vanish.

    Products across intersecting multidegrees vanish at the cochain level, so
    only disjoint nonempty pairs are inspected; the lexicographically first
    failing pair of basis classes is reported.  Piece I has dim H^t =
    b_{t-|I|-1}(K_I) by Hochster's formula, read off the full-subcomplex
    table.  A piece is built only for a product whose target has
    cohomology, and each basis and target must have the rank Hochster gives.
    """
    alg = build_tor(K, field)
    dims = {imask: {q + imask.bit_count() + 1: prof.betti(q)
                    for q in prof.nonzero_degrees()}
            for imask, prof in full_subcomplex_profiles(K, field).items()}

    def check(imask: int, t: int, rank: int) -> None:
        if rank != dims[imask][t]:
            raise AssertionError(f"piece {verts(imask)} has rank {rank} in "
                                 f"degree {t}, Hochster gives {dims[imask][t]}")

    hot = sorted(dims, key=verts)
    # (t, dim) pairs in ascending t, as nonzero_degrees lists them
    degrees = {imask: tuple(dims[imask].items()) for imask in hot}
    for imask, jmask in _disjoint_pairs(hot, K.m):
        target = dims.get(imask | jmask)
        if target is None:
            continue
        for t1, n1 in degrees[imask]:
            for t2, n2 in degrees[jmask]:
                if not target.get(t1 + t2):
                    continue
                hb1, hb2 = alg.basis(imask, t1), alg.basis(jmask, t2)
                check(imask, t1, hb1.rank)
                check(jmask, t2, hb2.rank)
                check(imask | jmask, t1 + t2, chain_homology(
                    alg.piece(imask | jmask), field).betti(-(t1 + t2)))
                for g1 in range(n1):
                    for g2 in range(n2):
                        if not alg.product_class_is_zero(
                                imask, t1, hb1.generators[g1],
                                jmask, t2, hb2.generators[g2]):
                            w = (verts(imask), t1, g1, verts(jmask), t2, g2)
                            txt = (f"class {g1} of multidegree {verts(imask)} "
                                   f"(degree {t1}) times class {g2} of "
                                   f"multidegree {verts(jmask)} (degree {t2}) "
                                   f"is nonzero in degree {t1 + t2}")
                            return GolodVerdict(False, field, "tor", w, txt)
    return GolodVerdict(True, field, "tor")


@run()
def golod_via_join(K: SimplicialComplex, ring: CoefficientRing = ZZ) -> GolodVerdict:
    """Golodness oracle via joins: for every pair of disjoint nonempty
    I, J the inclusion K_{I u J} -> K_I * K_J must vanish in homology.

    Works over Z as well as fields.  The full-subcomplex table is read
    once, and only pairs where K_I, K_J and K_{I u J} all carry homology are
    walked, in the order of all pairs, so the first witness is the same: an
    acyclic factor makes the join acyclic (a cone factor among them).  In a
    walked pair a source degree is tested only where the Kunneth formula
    (``kunneth_join``) says H~_q(K_I * K_J) is nonzero; elsewhere the map
    vanishes for free.  The join is built only for a pair with such a degree,
    from chains the oracle owns and drops after the pair, and its homology
    must equal the Kunneth prediction.  K_{I u J} is labelled with I below J
    (``full_subcomplex(K, I, J)``), which makes it a subcomplex of
    K_I * K_J cell for cell, so each source generator is tested in the join
    unchanged.
    """
    profiles = full_subcomplex_profiles(K, ring)
    degrees = {imask: prof.nonzero_degrees() for imask, prof in profiles.items()}
    hot = sorted(profiles, key=verts)
    for imask, jmask in _disjoint_pairs(hot, K.m):
        src = degrees.get(imask | jmask)
        a, b = degrees[imask], degrees[jmask]
        # the Kunneth target lives in degrees a0 + b0 + 1 .. a1 + b1 + 2
        if src is None or src[-1] <= a[0] + b[0] or \
                src[0] > a[-1] + b[-1] + 2:
            continue
        q = _join_pair_nonzero(K, imask, jmask, profiles, ring)
        if q is not None:
            w = (verts(imask), verts(jmask), q)
            txt = (f"inclusion of K_I(union)J into K_I * K_J is nonzero on "
                   f"H~_{q} for I={verts(imask)}, J={verts(jmask)}")
            return GolodVerdict(False, ring, "join", w, txt)
    return GolodVerdict(True, ring, "join")


def _disjoint_pairs(hot: list[int], m: int):
    """Each pair (I, J) of masks in hot with J after I and disjoint from it,
    in the order of I, then of J, in hot.

    For each I the cheaper source of J is walked: the 2^(m - |I|) subsets
    of the complement of I, looked up in hot, or the rest of hot.  So a
    complex whose homology sits on few full subcomplexes does not pay 3^m,
    and one where most carry homology does not test every overlapping pair.
    """
    full = (1 << m) - 1
    position = {mask: k for k, mask in enumerate(hot)}
    for ai, imask in enumerate(hot):
        if 1 << (m - imask.bit_count()) < len(hot) - ai - 1:
            later = sorted(k for k in map(position.get, subsets_of(full ^ imask))
                           if k is not None and k > ai)
            for k in later:
                yield imask, hot[k]
        else:
            for jmask in hot[ai + 1:]:
                if not imask & jmask:
                    yield imask, jmask


def _join_pair_nonzero(K, imask: int, jmask: int, profiles,
                       ring) -> int | None:
    """First degree where the join inclusion is nonzero, else None."""
    target = kunneth_join(profiles[imask], profiles[jmask])
    degrees = [q for q in profiles[imask | jmask].nonzero_degrees()
               if target.betti(q) or target.torsion_at(q)]
    if not degrees:
        return None
    B = join(full_subcomplex(K, imask), full_subcomplex(K, jmask))
    chains = build_simplicial_chain_complex(B)
    built = chain_homology(chains, ring)
    if built != target:
        raise AssertionError(f"join for I={verts(imask)}, J={verts(jmask)} "
                             f"has {built}, Kunneth gives {target}")
    source = simplicial_chain_complex(full_subcomplex(K, imask, jmask))
    for q in degrees:
        if not is_zero_on_homology(source, chains, ring, degrees=(q,)):
            return q
    return None


def kunneth_join(a: HomologyProfile, b: HomologyProfile) -> HomologyProfile:
    """Reduced homology of a join A * B from that of its factors:
    H~_q(A * B) = sum over i + j = q - 1 of H~_i(A) (x) H~_j(B), plus sum
    over i + j = q - 2 of Tor(H~_i(A), H~_j(B)).  {()} has H~_{-1} = Z, so
    {()} * B = B.  Over a field the torsion is empty and only the tensor
    terms remain.
    """
    free: dict[int, int] = {}
    tors: dict[int, list[int]] = {}
    for i in a.nonzero_degrees():
        fa, ta = a.betti(i), a.torsion_at(i)
        for j in b.nonzero_degrees():
            fb, tb = b.betti(j), b.torsion_at(j)
            q = i + j + 1
            free[q] = free.get(q, 0) + fa * fb
            # Z (x) Z/e = Z/e, Z/d (x) Z/e = Tor(Z/d, Z/e) = Z/gcd(d, e)
            t = tors.setdefault(q, [])
            t.extend(ta * fb)
            t.extend(tb * fa)
            cross = [gcd(d, e) for d in ta for e in tb]
            t.extend(cross)
            tors.setdefault(q + 1, []).extend(cross)
    return HomologyProfile(a.ring, free, tors)


def torsion_primes(K: SimplicialComplex) -> tuple[int, ...]:
    """Primes dividing torsion of any full-subcomplex integral homology.

    Join targets contribute no further primes: by the Kunneth formula their
    torsion is built from tensor and Tor of the factors' groups.
    """
    return tuple(sorted({p for prof in full_subcomplex_profiles(K).values()
                         for p in prof.torsion_primes()}))
