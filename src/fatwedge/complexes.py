"""Abstract simplicial complexes on a ground set [m] = {1, ..., m}.

Vertex sets are encoded as bitmasks: vertex i corresponds to bit i-1, so all
face operations are integer bit algebra.  Python ints double as dynamic
bitsets, so there is no size cliff at m = 64.  Simplices appearing in public
output are sorted tuples of vertices; the empty simplex is ().

A complex is stored by its facet family (inclusion-maximal faces).  The empty
complex {()} is legal (its only face is the empty simplex); the void complex,
with no faces at all, is rejected at construction.  Ghost vertices -- elements
of [m] that are not faces -- are allowed and preserved, because Alexander
duality and full-subcomplex bookkeeping are sensitive to the ambient set.

Complexes are immutable after construction and hashable; face enumeration is
memoized per dimension on first use, which is safe to share between threads
under the GIL (worst case the cache is filled twice with equal values).

Results that equal complexes share -- full subcomplexes, strong-collapse
cores, simplicial chain complexes with their integral profiles, the table of
full-subcomplex homology per ring, Koszul pieces and their cohomology bases
per field, component fill reports -- live in one store, keyed by (kind,
complex, ...) tuples, so an equal complex held in another object finds them
too.  The integral table of full-subcomplex homology puts neither full
subcomplexes nor cores there: it derives the facets of each K_I from
those of K_{I - v} (``_full_subcomplex_facets``), looks each relabelled
K_I up among those it has built, and builds a complex, whose chains go to
the store, only for a new K_I with no dominated vertex and no ghost.  The
store lives as long as a run: the outermost ``with run():`` (or ``@run()``
function) opens it, nested runs join it, and it is dropped when that
outermost run ends.  Outside a run ``shared`` just builds.  The store
belongs to the context of the thread that opened it; a new thread starts
outside any run.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Hashable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")

_STORE: ContextVar[dict | None] = ContextVar("fatwedge_store", default=None)


@contextmanager
def run():
    """Open the store for the duration of the block, or join an open one."""
    if _STORE.get() is not None:
        yield
        return
    token = _STORE.set({})
    try:
        yield
    finally:
        _STORE.reset(token)


def shared(key: Hashable, build: Callable[[], T]) -> T:
    """The run's value for key, built on first use; outside a run, build()."""
    store = _STORE.get()
    if store is None:
        return build()
    value = store.get(key)
    if value is None:
        value = store[key] = build()
    return value


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask of a vertex set (vertices are 1-based)."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def verts(mask: int) -> tuple[int, ...]:
    """Sorted vertex tuple of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def subsets_of(mask: int) -> Iterator[int]:
    """All subsets of ``mask``, including ``mask`` itself and 0."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


class SimplicialComplex:
    """Immutable simplicial complex on the ground set [m], given by facets."""

    __slots__ = ("m", "facets", "_faces_by_dim", "_minimal_nonfaces",
                 "_hash", "__weakref__")

    def __init__(self, m: int, facets: Iterable[int], *, _trusted: bool = False):
        if m < 1:
            raise ValueError(f"ground set size must be >= 1, got m={m}")
        fl = list(facets)
        if not fl:
            raise ValueError("void complex rejected: a complex has at least the empty face")
        if not _trusted:
            full = (1 << m) - 1
            for f in fl:
                if f & ~full:
                    raise ValueError(f"facet {verts(f)} not contained in [{m}]")
            fl = _maximal(fl)
        self.m = m
        self.facets = tuple(sorted(set(fl), key=verts))
        self._faces_by_dim: dict[int, tuple[int, ...]] | None = None
        self._minimal_nonfaces: tuple[int, ...] | None = None
        self._hash = hash((self.m, self.facets))

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension; -1 for the empty complex {()}."""
        return max(f.bit_count() for f in self.facets) - 1

    @property
    def support(self) -> int:
        """Mask of vertices that are actually faces."""
        s = 0
        for f in self.facets:
            s |= f
        return s

    @property
    def vertices(self) -> tuple[int, ...]:
        return verts(self.support)

    @property
    def is_pure(self) -> bool:
        sizes = {f.bit_count() for f in self.facets}
        return len(sizes) == 1

    def has_face(self, mask: int) -> bool:
        return any(mask & ~f == 0 for f in self.facets)

    def _face_table(self) -> dict[int, tuple[int, ...]]:
        if self._faces_by_dim is None:
            seen: set[int] = set()
            for f in self.facets:
                for s in subsets_of(f):
                    seen.add(s)
            table: dict[int, list[int]] = {}
            for s in seen:
                table.setdefault(s.bit_count() - 1, []).append(s)
            self._faces_by_dim = {
                d: tuple(sorted(masks, key=verts))
                for d, masks in table.items()
            }
        return self._faces_by_dim

    def faces(self, dim: int) -> tuple[int, ...]:
        """All faces of the given dimension (-1 yields the empty simplex)."""
        return self._face_table().get(dim, ())

    def all_faces(self) -> Iterator[int]:
        table = self._face_table()
        for d in sorted(table):
            yield from table[d]

    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_dim) with f_-1 = 1."""
        return tuple(len(self.faces(d)) for d in range(-1, self.dim + 1))

    def components(self) -> tuple[int, ...]:
        """Vertex masks of the connected components (ghosts belong to none)."""
        parent: dict[int, int] = {v: v for v in verts(self.support)}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for e in self.faces(1):
            a, b = verts(e)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        comps: dict[int, int] = {}
        for v in parent:
            r = find(v)
            comps[r] = comps.get(r, 0) | (1 << (v - 1))
        return tuple(sorted(comps.values(), key=verts))

    def skeleton(self, k: int) -> "SimplicialComplex":
        """Subcomplex of faces of dimension <= k.  Its facets are the facets
        of K with at most k + 1 vertices and the (k + 1)-subsets of the
        others, a family in which no member contains another."""
        if k < -1:
            raise ValueError("skeleton dimension must be >= -1")
        if k >= self.dim:
            return self
        gens: set[int] = set()
        for f in self.facets:
            if f.bit_count() - 1 <= k:
                gens.add(f)
            else:
                for c in itertools.combinations(verts(f), k + 1):
                    gens.add(mask_of(c))
        return SimplicialComplex(self.m, gens, _trusted=True)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SimplicialComplex)
                and self.m == other.m and self.facets == other.facets)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        fac = ",".join("{" + ",".join(map(str, verts(f))) + "}" for f in self.facets)
        return f"SimplicialComplex(m={self.m}, facets=[{fac}])"


def _maximal(masks: Iterable[int]) -> list[int]:
    """Inclusion-maximal elements of a family of masks."""
    ms = sorted(set(masks), key=lambda f: f.bit_count(), reverse=True)
    out: list[int] = []
    for f in ms:
        if not any(f & ~g == 0 for g in out):
            out.append(f)
    return out


# -- constructors ----------------------------------------------------------

def make_complex(m: int, generators: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Complex on [m] generated by the given vertex sets (downward closure)."""
    if m < 1:
        raise ValueError(f"ground set size must be >= 1, got m={m}")
    masks = []
    for g in generators:
        gs = tuple(g)
        for v in gs:
            if not (1 <= v <= m):
                raise ValueError(f"vertex {v} out of range 1..{m}")
        masks.append(mask_of(gs))
    if not masks:
        return empty_complex(m)
    return SimplicialComplex(m, _maximal(masks), _trusted=True)


def simplex(m: int) -> SimplicialComplex:
    """The full simplex on [m]."""
    return SimplicialComplex(m, ((1 << m) - 1,), _trusted=True)


def boundary_of_simplex(m: int) -> SimplicialComplex:
    """Boundary of the full simplex on [m]; for m = 1 this is {()}."""
    if m == 1:
        return empty_complex(1)
    full = (1 << m) - 1
    return SimplicialComplex(m, tuple(full ^ (1 << i) for i in range(m)), _trusted=True)


def empty_complex(m: int) -> SimplicialComplex:
    return SimplicialComplex(m, (0,), _trusted=True)


# -- subcomplex operations -------------------------------------------------

def full_subcomplex(K: SimplicialComplex, imask: int,
                    jmask: int = 0) -> SimplicialComplex:
    """K_{I u J} for disjoint vertex masks I, J, re-indexed with I onto
    1..|I| and J onto |I|+1..|I|+|J|, each in order.

    With J empty this is K_I in its standard labelling; with J nonempty it
    is, cell for cell, a subcomplex of join(K_I, K_J).  I = J = 0 yields {()}
    on a 1-element ground set, so that sums over all subsets have a uniform
    degenerate case.  Overlapping masks, or a vertex outside [m], raise
    ValueError.
    """
    if imask & jmask or (imask | jmask) >> K.m:
        raise ValueError(f"I={verts(imask)}, J={verts(jmask)}: need disjoint "
                         f"subsets of [{K.m}]")
    if not imask | jmask:
        return empty_complex(1)
    return shared(("full_sub", K, imask, jmask), lambda: _restrict(K, imask, jmask))


def _restrict(K: SimplicialComplex, imask: int, jmask: int) -> SimplicialComplex:
    shift = imask.bit_count()
    return SimplicialComplex(
        shift + jmask.bit_count(),
        tuple(_compress(f, imask) | _compress(f, jmask) << shift
              for f in _restricted_facets(K, imask | jmask)), _trusted=True)


def _restricted_facets(K: SimplicialComplex, mask: int) -> list[int]:
    """Facets of K restricted to mask, unrelabelled.

    A facet of K inside mask stays a facet, so only the cut facets f & mask
    are tested, largest first, against the facets kept so far.
    """
    kept = [f for f in K.facets if f & ~mask == 0]
    cut = {f & mask for f in K.facets if f & ~mask}
    for g in sorted(cut, key=int.bit_count, reverse=True):
        if not any(g & ~h == 0 for h in kept):
            kept.append(g)
    return kept


def _full_subcomplex_facets(
        K: SimplicialComplex) -> Iterator[tuple[int, list[int], list[int]]]:
    """(I, facets of K_I in the labels of K, the same relabelled by
    ``_compress``) for every nonempty I, in increasing mask order; callers
    must not change the lists.

    Each K_I is derived from K_J, J = I - v with v the lowest bit of I.  A
    facet h of K_J stays a facet unless h + v is a face of K, and the
    facets through v are the f & I, over the facets f of K through v, with
    no face g + u of K for u in I - g.  Both tests read one table of K's
    faces, each with the mask of vertices u outside it for which face + u is
    a face (at most 2^m entries, like the subsets walked).  Relabelled, the
    facets of K_J move up one place and v becomes 1, so only the facets
    through v are relabelled afresh.  K_J is kept until its last reader,
    J + v for v half of J's lowest bit: about m/2 lists at once.
    """
    link: dict[int, int] = {}
    through: dict[int, list[int]] = {}
    for f in K.facets:
        for s in subsets_of(f):
            link[s] = link.get(s, 0) | f ^ s
        rest = f
        while rest:
            low = rest & -rest
            rest ^= low
            through.setdefault(low, []).append(f)
    kept = {0: ([0], [0])}      # K_0 = {()}
    for imask in range(1, 1 << K.m):
        v = imask & -imask
        rest = imask ^ v
        if v << 1 == rest & -rest:
            old, old_relabelled = kept.pop(rest)
        else:
            old, old_relabelled = kept[rest]
        facets, relabelled = [], []
        for h, c in zip(old, old_relabelled):
            if not link[h] & v:
                facets.append(h)
                relabelled.append(c << 1)
        for g in {f & imask for f in through.get(v, ())}:
            if not link[g] & imask:
                facets.append(g)
                relabelled.append(_compress(g, imask))
        if not imask & 1:
            kept[imask] = facets, relabelled
        yield imask, facets, relabelled


def core_mask(K: SimplicialComplex) -> int:
    """Vertex mask J of a strong-collapse core of K, whose core is K_J.

    A vertex v is dominated when the AND of the facets that contain v has a
    bit other than v: some u lies in every facet through v.  Deleting a
    dominated vertex is a strong deformation retraction (Barmak and Minian,
    "Strong homotopy types, nerves and collapses", Discrete Comput. Geom. 47
    (2012)) and leaves K restricted to the other vertices, so K_J has the
    homotopy type of K and the same homology over every ring.  The core is
    unique up to isomorphism, whatever order the deletions take.

    The facets are kept per vertex.  Deleting v turns each facet f through v
    into f - v, kept only if no facet through the dominator u contains it
    (any facet that does contains u); then only the vertices that shared a
    facet with v are checked again, since no other vertex's facets changed.
    Ghost vertices are never in J, and {()} gives J = 0.
    """
    through: dict[int, set[int]] = {}   # vertex bit -> facets containing it
    for f in K.facets:
        rest = f
        while rest:
            low = rest & -rest
            rest ^= low
            through.setdefault(low, set()).add(f)
    work = sorted(through, reverse=True)    # a stack, lowest vertex on top
    queued = set(work)
    while work:
        v = work.pop()
        queued.discard(v)
        facets = through[v]
        common = _dominators(facets, v)
        if not common:
            continue
        del through[v]
        neighbours = 0
        for f in facets:
            neighbours |= f
            rest = f ^ v
            while rest:
                low = rest & -rest
                rest ^= low
                through[low].discard(f)
        dominating = through[common & -common]
        for f in facets:
            g = f ^ v
            if not any(g & ~h == 0 for h in dominating):
                rest = g
                while rest:
                    low = rest & -rest
                    rest ^= low
                    through[low].add(g)
        neighbours ^= v
        while neighbours:
            low = neighbours & -neighbours
            neighbours ^= low
            if low not in queued:
                queued.add(low)
                work.append(low)
    return sum(through)


def _dominators(facets: Iterable[int], v: int) -> int:
    """Mask of the vertices other than v that lie in every one of
    ``facets``, the maximal faces through the vertex bit v; v is dominated
    exactly when it is nonzero.  A face through v that is not maximal may
    miss a dominator, so the faces passed must be the maximal ones."""
    common = -1
    for f in facets:
        common &= f
    return common ^ v


def dominated_vertex(facets: Sequence[int], support: int) -> int:
    """Lowest dominated vertex, as a bit, of the complex with maximal faces
    ``facets`` on the vertices ``support``, or 0 when none is dominated."""
    rest = support
    while rest:
        v = rest & -rest
        rest ^= v
        if _dominators((f for f in facets if f & v), v):
            return v
    return 0


def _compress(mask: int, imask: int) -> int:
    """Relabel mask & imask onto the low |imask| bits, order preserved: a
    bit of imask goes to the number of imask bits below it."""
    out = 0
    rest = mask & imask
    while rest:
        low = rest & -rest
        rest ^= low
        out |= 1 << (imask & (low - 1)).bit_count()
    return out


def join(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Join K1 * K2 on [m1 + m2]; K2's labels are shifted up by m1.  Its
    facets, products of facets on disjoint vertex sets, are incomparable."""
    return SimplicialComplex(K1.m + K2.m, (f1 | (f2 << K1.m) for f1 in K1.facets
                                           for f2 in K2.facets), _trusted=True)


# -- non-faces and duality -------------------------------------------------

def minimal_nonfaces(K: SimplicialComplex) -> tuple[int, ...]:
    """Inclusion-minimal non-faces, sorted lexicographically by vertex tuple.

    M is a minimal non-face when M is not a face but M - v is one for every
    v in M; adding any returned M to K again yields a simplicial complex.
    """
    if K._minimal_nonfaces is not None:
        return K._minimal_nonfaces
    found: set[int] = set()
    universe = (1 << K.m) - 1
    for s in K.all_faces():
        gaps = universe & ~s
        while gaps:
            low = gaps & -gaps
            gaps ^= low
            cand = s | low
            if cand in found or K.has_face(cand):
                continue
            ok = True
            rem = cand
            while rem:
                b = rem & -rem
                rem ^= b
                if not K.has_face(cand ^ b):
                    ok = False
                    break
            if ok:
                found.add(cand)
    result = tuple(sorted(found, key=verts))
    K._minimal_nonfaces = result
    return result


def alexander_dual(K: SimplicialComplex, ambient: int | None = None) -> SimplicialComplex:
    """Alexander dual over the ambient set [ambient] (default [m]).

    The dual consists of all sigma with [ambient] - sigma not a face of K; its
    facets are the complements of the minimal non-faces of K.  The ambient set
    must contain every vertex of K.  The dual of the full simplex would be the
    void complex, which is not representable, so that case raises.
    """
    s = K.m if ambient is None else ambient
    if s < 1:
        raise ValueError("ambient set too small")
    if K.support & ~((1 << s) - 1):
        raise ValueError(f"ambient set [{s}] does not contain all vertices of K")
    L = K if s == K.m else SimplicialComplex(s, K.facets, _trusted=True)
    mnf = minimal_nonfaces(L)
    if not mnf:
        raise ValueError("Alexander dual of the full simplex is the void complex")
    full = (1 << s) - 1
    return SimplicialComplex(s, tuple(full ^ M for M in mnf), _trusted=True)


# -- graphs: flagness and chordality ----------------------------------------

def _adjacency(G: SimplicialComplex) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in verts(G.support)}
    for e in G.faces(1):
        a, b = verts(e)
        adj[a].add(b)
        adj[b].add(a)
    return adj


def flag_complex(G: SimplicialComplex) -> SimplicialComplex:
    """Flag complex of a graph, whose facets are the maximal cliques, each
    found once by Bron-Kerbosch with pivoting.  Input must have dim <= 1."""
    if G.dim > 1:
        raise ValueError("flag_complex expects a complex of dimension <= 1")
    adj = _adjacency(G)
    if not adj:
        return empty_complex(G.m)
    cliques: list[int] = []

    def extend(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            cliques.append(mask_of(r))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in list(p - adj[pivot]):
            extend(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    extend(set(), set(adj), set())
    return SimplicialComplex(G.m, cliques, _trusted=True)


def perfect_elimination_order(G: SimplicialComplex) -> tuple[int, ...] | None:
    """A perfect elimination order of the underlying graph, or None.

    Maximum cardinality search: repeatedly visit an unvisited vertex with the
    most visited neighbors; the reverse visit order is a perfect elimination
    order iff the graph is chordal.
    """
    if G.dim > 1:
        raise ValueError("chordality is defined for complexes of dimension <= 1")
    adj = _adjacency(G)
    vs = sorted(adj)
    if not vs:
        return ()
    weight = {v: 0 for v in vs}
    visited: set[int] = set()
    visit_order: list[int] = []
    for _ in vs:
        u = max((v for v in vs if v not in visited), key=lambda v: (weight[v], -v))
        visited.add(u)
        visit_order.append(u)
        for w in adj[u]:
            if w not in visited:
                weight[w] += 1
    elim = tuple(reversed(visit_order))
    pos = {v: i for i, v in enumerate(elim)}
    for v in elim:
        later = [w for w in adj[v] if pos[w] > pos[v]]
        if not later:
            continue
        u = min(later, key=lambda w: pos[w])
        if any(w != u and w not in adj[u] for w in later):
            return None
    return elim


def is_chordal(G: SimplicialComplex) -> bool:
    """True iff every minimal cycle of the graph has length at most 3."""
    return perfect_elimination_order(G) is not None


# -- neighborliness ----------------------------------------------------------

def max_neighborliness(K: SimplicialComplex) -> int:
    """Largest k such that every (k+1)-subset of [m] is a face.

    Equals (minimum cardinality of a minimal non-face) - 2; the full simplex
    has no non-face and returns m - 1, a missing singleton gives -1.
    """
    mnf = minimal_nonfaces(K)
    if not mnf:
        return K.m - 1
    return min(M.bit_count() for M in mnf) - 2
