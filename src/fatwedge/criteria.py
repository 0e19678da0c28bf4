"""Combinatorial and homological criteria searches with checkable certificates.

Every search returns a tri-state SearchResult: found (with a certificate that
can be re-validated independently), none (the search space was exhausted and
no certificate exists), or exhausted (the node budget ran out first).
fill_search has a fourth state, refuted: no filling is acyclic over Z, which
rules out every contractible filling.
Contractibility is undecidable, so nothing here ever concludes "not fillable"
from a failed collapse search alone; refutations always come through an
acyclicity obstruction, which is a genuine invariant.
The shelling and collapse searches run on one backtracking engine with an
explicit stack, so their depth is bounded by memory, not by the interpreter's
recursion limit.
Sequential Cohen-Macaulayness is decided, not searched: ``is_dual_scm``
reads Hochster's formula off the full-subcomplex table of one complex per
degree (``homology.full_subcomplex_profiles``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .complexes import (SimplicialComplex, alexander_dual, full_subcomplex,
                        is_chordal, mask_of, minimal_nonfaces, shared, verts)
from .homology import (CoefficientRing, GF, ZZ, HomologyProfile,
                       build_simplicial_chain_complex, chain_homology,
                       full_subcomplex_profiles)

DEFAULT_BUDGET = 10 ** 6

#: a component with r minimal non-faces has 2^r fillings; past this many,
#: is_homology_fillable reports it "unknown" instead of trying them all
MAX_FILL_SUBSETS = 1 << 14


@dataclass(frozen=True)
class ShellingOrder:
    facets: tuple[int, ...]

    def facet_tuples(self) -> list[tuple[int, ...]]:
        return [verts(f) for f in self.facets]


@dataclass(frozen=True)
class CollapseSequence:
    steps: tuple[tuple[int, int], ...]   # (free face, its unique coface)


@dataclass(frozen=True)
class GcdOrder:
    nonfaces: tuple[int, ...]

    def nonface_tuples(self):
        return [verts(M) for M in self.nonfaces]


@dataclass(frozen=True)
class FillingCertificate:
    nonfaces: tuple[int, ...]
    p: int | None = None           # the prime of a Z/p-acyclic filling
    collapse: CollapseSequence | None = None
    collapse_target: str | None = None   # "filled" | "dual_of_filled"
    profile: HomologyProfile | None = None

    def nonface_tuples(self):
        return [verts(M) for M in self.nonfaces]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search and the nodes it spent.  A search that runs out of
    budget reports budget + 1 nodes: the move that overran is counted."""

    status: str                    # "found" | "none" | "exhausted" | "refuted"
    certificate: object | None = None
    nodes: int = 0

    @property
    def found(self) -> bool:
        return self.status == "found"


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int):
        self.left = n

    def spend(self, n: int = 1) -> bool:
        self.left -= n
        return self.left >= 0


def _backtrack(start, done, children, budget: int) -> SearchResult:
    """Depth-first search from start for a state that satisfies done.

    children(state, path) is a generator of (move, next_state) pairs, with
    next_state None for a move that is not allowed; path lists the moves that
    led to state, and holds those same moves whenever the generator resumes.
    Each move tried spends one node of the budget, allowed or not.  A state
    whose moves all failed goes into a memo and is not searched again.  The
    stack of generators is explicit, so the depth is bounded by memory, not
    by the interpreter's recursion limit.  A found certificate is the tuple of
    moves.
    """
    if done(start):
        return SearchResult("found", (), 0)
    left = budget
    failed = set()
    path: list = []
    stack = [(start, children(start, path))]
    while stack:
        state, moves = stack[-1]
        for move, nxt in moves:
            left -= 1
            if left < 0:
                return SearchResult("exhausted", None, budget - left)
            if nxt is None:
                continue
            path.append(move)
            if done(nxt):
                return SearchResult("found", tuple(path), budget - left)
            if nxt in failed:
                path.pop()
                continue
            stack.append((nxt, children(nxt, path)))
            break
        else:
            failed.add(state)
            stack.pop()
            if path:
                path.pop()
    return SearchResult("none", None, budget - left)


# -- shellability -------------------------------------------------------------

def _shelling_ok(f: int, placed: list[int]) -> bool:
    """Is <f> cut down by the placed facets in a pure codimension-one way?

    Every cap f & g must lie in a wall, a cap of size |f| - 1, which is f
    minus one vertex v.  The cap lies in the wall f - v exactly when v is in
    f & ~g.  With W the set of vertices v whose wall f - v is a cap, the
    condition is (f & ~g) & W != 0 for every placed g.
    """
    missed = [f & ~g for g in placed]
    W = 0
    for d in missed:
        if d.bit_count() == 1:
            W |= d
    return all(d & W for d in missed)


def shelling_search(K: SimplicialComplex, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Backtracking search for a shelling order of the facets.

    Candidates are tried in order of decreasing overlap with the union of the
    placed facets, and failed placed-sets are memoized (future feasibility
    only depends on the set, not the order that reached it).
    """
    # K.facets is sorted by vertex tuple, so the stable sort on overlap below
    # breaks ties by vertex tuple
    facets = K.facets
    t = len(facets)

    def children(placed: frozenset[int], order: list[int]):
        union = 0
        for g in order:
            union |= g
        cands = [f for f in facets if f not in placed]
        cands.sort(key=lambda f: -(f & union).bit_count())
        for f in cands:
            ok = not order or _shelling_ok(f, order)
            yield f, (placed | {f} if ok else None)

    res = _backtrack(frozenset(), lambda placed: len(placed) == t, children,
                     budget)
    if res.found:
        return SearchResult("found", ShellingOrder(res.certificate), res.nodes)
    return res


def is_shelling(K: SimplicialComplex, order) -> bool:
    """Validate a facet ordering against the shelling condition."""
    facets = list(order)
    if sorted(facets) != sorted(K.facets):
        return False
    for k in range(1, len(facets)):
        if not _shelling_ok(facets[k], facets[:k]):
            return False
    return True


def spanning_facets(K: SimplicialComplex, order) -> tuple[int, ...]:
    """The facets whose arrival glues along their entire boundary.

    F_k is spanning when the intersection with the earlier complex is all of
    the boundary of F_k; the first facet is spanning only in the degenerate
    single-empty-facet complex.
    """
    facets = list(order)
    out = []
    for k, f in enumerate(facets):
        if k == 0:
            if f == 0:
                out.append(f)
            continue
        size = f.bit_count()
        ok = True
        rem = f
        while rem:
            v = rem & -rem
            rem ^= v
            wall = f ^ v
            if not any(wall & ~g == 0 for g in facets[:k]):
                ok = False
                break
        if ok:
            out.append(f)
    return tuple(out)


# -- sequential Cohen-Macaulayness ---------------------------------------------

def _dual_or_none(K: SimplicialComplex):
    try:
        return alexander_dual(K)
    except ValueError:
        return None   # K is the full simplex; its dual is void


def is_scm(K: SimplicialComplex, ring: CoefficientRing = ZZ) -> bool:
    """Sequentially Cohen-Macaulay over the ring: K is the Alexander dual of
    its own dual (``is_dual_scm``); the full simplex passes vacuously."""
    dual = _dual_or_none(K)
    return dual is None or is_dual_scm(dual, ring)


def is_dual_scm(K: SimplicialComplex, ring: CoefficientRing = ZZ) -> bool:
    """Is the Alexander dual of K sequentially Cohen-Macaulay over ring?

    Over a field, exactly when each ideal I_[j], generated by the j-sets that
    are non-faces of K, has a linear resolution (Herzog, Reiner and Welker,
    Michigan Math. J. 46 (1999); Herzog and Hibi, Nagoya Math. J. 153
    (1999)).  I_[j] is the Stanley-Reisner ideal of Delta_j (``_delta``), so
    by Hochster's formula that asks every full subcomplex of Delta_j for
    homology in degree j - 2 only.  Over Z it must be free too, so that by
    universal coefficients this holds over every field, as SCM over Z does.
    Only j from the larger of 2 and the smallest minimal non-face up to
    dim K + 1 can fail: below, Delta_j is a simplex on the vertices of K
    (its full subcomplexes are simplices or {()}); above, the complete
    (j - 2)-skeleton.
    """
    low = min((M.bit_count() for M in minimal_nonfaces(K)), default=K.dim + 2)
    for j in range(max(low, 2), K.dim + 2):
        table = full_subcomplex_profiles(_delta(K, j), ring)
        if any(prof.torsion or any(q != j - 2 for q in prof.free)
               for prof in table.values()):
            return False
    return True


def _delta(K: SimplicialComplex, j: int) -> SimplicialComplex:
    """Delta_j, the sets whose j-subsets are all faces of K, level by level:
    past size j a set is a face when the sets one smaller in it are, and a
    face is a facet when no face one larger contains it."""
    level = {mask_of(c) for c in itertools.combinations(range(1, K.m + 1), j - 1)}
    up = set(K.faces(j - 1))
    facets: list[int] = []
    while level:
        facets += level - {t ^ (1 << (v - 1)) for t in up for v in verts(t)}
        nxt = set()
        for s in up:
            for w in range(s.bit_length(), K.m):
                t = s | 1 << w
                if all(t ^ (1 << (v - 1)) in up for v in verts(s)):
                    nxt.add(t)
        level, up = up, nxt
    return SimplicialComplex(K.m, facets, _trusted=True)


def is_dual_shellable(K: SimplicialComplex, budget: int = DEFAULT_BUDGET) -> SearchResult:
    dual = _dual_or_none(K)
    if dual is None:
        return SearchResult("found", ShellingOrder(()), 0)
    return shelling_search(dual, budget)


# -- collapsibility -------------------------------------------------------------

def _face_set(K: SimplicialComplex) -> frozenset[int]:
    return frozenset(K.all_faces())


def _free_pairs(faces: frozenset[int]) -> list[tuple[int, int]]:
    """Free faces s with their unique proper coface t, in search order.

    faces is closed under subsets, so a face u > s contains s + v for every
    v in u - s.  Hence s lies in exactly one other face t exactly when it has
    one codimension-one coface t.  One walk over the walls of every face
    counts those cofaces.
    """
    count: dict[int, int] = {}
    coface: dict[int, int] = {}
    for t in faces:
        rem = t
        while rem:
            low = rem & -rem
            rem ^= low
            s = t ^ low
            count[s] = count.get(s, 0) + 1
            coface[s] = t
    pairs = [(s, t) for s, t in coface.items() if s and count[s] == 1]
    pairs.sort(key=lambda p: (-p[1].bit_count(), verts(p[1]), verts(p[0])))
    return pairs


def collapse_search(K: SimplicialComplex, budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Depth-first search for a collapse of K down to a single vertex.

    States (face sets) that failed are memoized.  "none" means full
    exhaustion and proves non-collapsibility, not non-contractibility.
    """
    def children(faces: frozenset[int], steps: list[tuple[int, int]]):
        for s, t in _free_pairs(faces):
            yield (s, t), faces - {s, t}

    res = _backtrack(_face_set(K),
                     lambda faces: len(faces) == 2 and 0 in faces,
                     children, budget)
    if res.found:
        return SearchResult("found", CollapseSequence(res.certificate),
                            res.nodes)
    return res


def is_collapse_sequence(K: SimplicialComplex, seq: CollapseSequence) -> bool:
    faces = set(_face_set(K))
    for s, t in seq.steps:
        if s not in faces or t not in faces or s & ~t:
            return False
        cofaces = [u for u in faces if u != s and s & ~u == 0]
        if cofaces != [t]:
            return False
        faces.discard(s)
        faces.discard(t)
    return len(faces) == 2 and 0 in faces


# -- fillability ----------------------------------------------------------------

def _filled(K: SimplicialComplex, chosen) -> SimplicialComplex:
    gens = list(K.facets) + list(chosen)
    return SimplicialComplex(K.m, gens)


def _fillings(K: SimplicialComplex, mnf):
    """(chosen, filled) for every subset of the minimal non-faces mnf, in
    size-lexicographic order."""
    for size in range(len(mnf) + 1):
        for combo in itertools.combinations(mnf, size):
            yield combo, _filled(K, combo)


def _collapse_filling(chosen, filled: SimplicialComplex, b: _Budget | None = None):
    """A contractible-surrogate certificate for the filling chosen: a collapse
    of the filled complex, else of its Alexander dual.

    With b each search gets the nodes left in b and is charged to it;
    without, each gets DEFAULT_BUDGET.  Once a search overruns b, the dual
    still gets a budget of 0, uncharged: a dual that is a single vertex
    needs no move.  Returns the certificate or None, and whether a search
    ran out of budget.
    """
    exhausted = False
    for target in ("filled", "dual_of_filled"):
        L = filled if target == "filled" else _dual_or_none(filled)
        if L is None:
            break
        res = collapse_search(L, DEFAULT_BUDGET if b is None else max(b.left, 0))
        if b is not None and not exhausted:
            b.spend(res.nodes)
        if res.found:
            return FillingCertificate(chosen, collapse=res.certificate,
                                      collapse_target=target), False
        exhausted = exhausted or res.status == "exhausted"
    return None, exhausted


def fill_search(K: SimplicialComplex, p: int | None = None,
                budget: int = DEFAULT_BUDGET) -> SearchResult:
    """Search for minimal non-faces whose addition makes K Z/p-acyclic for a
    prime p or, with p None, passes the contractible surrogate.

    Subsets are enumerated in size-lexicographic order, so the first hit is
    the canonical certificate.  For the contractible surrogate a filling must
    pass a collapse search, either of the filled complex itself or of its
    Alexander dual (dual collapsibility also certifies contractibility); a
    Z-acyclicity failure on every subset is the only refutation channel.
    """
    b = _Budget(budget)
    unresolved = False
    ring = ZZ if p is None else GF(p)
    for chosen, filled in _fillings(K, minimal_nonfaces(K)):
        if not b.spend():
            return SearchResult("exhausted", None, budget + 1)
        # the fillings skip the run's store, which they would swell
        prof = chain_homology(build_simplicial_chain_complex(filled), ring)
        if not prof.is_trivial():
            continue
        if p is not None:
            return SearchResult("found", FillingCertificate(
                chosen, p=p, profile=prof), budget - b.left)
        cert, exhausted = _collapse_filling(chosen, filled, b)
        if cert is not None:
            return SearchResult("found", cert, budget - b.left)
        if exhausted:
            return SearchResult("exhausted", None, budget + 1)
        unresolved = True
    return SearchResult("exhausted" if unresolved else "refuted", None,
                        budget - b.left)


def filling_from_dual_shelling(K: SimplicialComplex, order: ShellingOrder) -> FillingCertificate | None:
    """Filling by the complements of the spanning facets of a dual shelling,
    validated directly: each complement must be a minimal non-face and the
    filled complex must pass a collapse search (itself or its dual)."""
    dual = _dual_or_none(K)
    if dual is None:
        return FillingCertificate((), collapse=CollapseSequence(()),
                                  collapse_target="filled")
    if not is_shelling(dual, order.facets):
        return None
    full = (1 << K.m) - 1
    fills = tuple(sorted((full ^ f for f in spanning_facets(dual, order.facets)),
                         key=verts))
    mnf = set(minimal_nonfaces(K))
    if any(f not in mnf for f in fills):
        return None
    return _collapse_filling(fills, _filled(K, fills))[0]


# -- homology fillability --------------------------------------------------------

@dataclass(frozen=True)
class ComponentFillReport:
    status: str                       # "certified" | "refuted" | "unknown"
    fillings_by_prime: tuple = ()     # ((label, nonface tuples) ...)
    refuted_at: str | None = None


@dataclass(frozen=True)
class HomologyFillableVerdict:
    status: str                       # "certified" | "refuted" | "unknown"
    components: tuple[ComponentFillReport, ...]

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def is_homology_fillable(K: SimplicialComplex) -> HomologyFillableVerdict:
    """Per connected component: some filling must be Z/p-acyclic for every
    prime, and simple connectivity of the completed component is certified
    by the chordal/flag surrogate.  The first filling in size-lexicographic
    order with no free homology is Z/p-acyclic for every prime outside its
    torsion, so only the primes of that torsion are searched; with no such
    filling the component is refuted at Q.

    The surrogate checks the component completed by its minimal non-faces of
    dimension >= 2: its one-skeleton must be chordal and every 3-clique of
    that skeleton must span a 2-face, which makes the 2-skeleton agree with
    the contractible flag complex of a chordal graph.  A failed surrogate
    yields "unknown", never "refuted"; refutation only comes from homology.
    """
    comps = K.components()
    if not comps:
        # no vertices at all: the geometric realization is empty and there is
        # nothing to fill component-wise
        return HomologyFillableVerdict("certified", ())
    reports = []
    for cmask in comps:
        L = full_subcomplex(K, cmask)
        reports.append(shared(("fill_report", L),
                              lambda: _component_fill_report(L)))
    if any(r.status == "refuted" for r in reports):
        status = "refuted"
    elif any(r.status == "unknown" for r in reports):
        status = "unknown"
    else:
        status = "certified"
    return HomologyFillableVerdict(status, tuple(reports))


def _component_fill_report(L: SimplicialComplex) -> ComponentFillReport:
    mnf = minimal_nonfaces(L)
    if 1 << len(mnf) > MAX_FILL_SUBSETS:
        return ComponentFillReport("unknown")

    def rank_zero():
        # the fillings skip the run's store, which they would swell
        for chosen, filled in _fillings(L, mnf):
            prof = chain_homology(build_simplicial_chain_complex(filled), ZZ)
            if not prof.free:
                yield chosen, prof

    first = next(rank_zero(), None)
    if first is None:
        return ComponentFillReport("refuted", refuted_at="Q")
    # the first Q-acyclic filling is Z/p-acyclic for every p outside its
    # torsion, so only those primes need a search
    fillings = [("Q", [verts(M) for M in first[0]])]
    for p in first[1].torsion_primes():
        pick = next((chosen for chosen, prof in rank_zero()
                     if p not in prof.torsion_primes()), None)
        if pick is None:
            return ComponentFillReport("refuted", refuted_at=f"p={p}")
        fillings.append((f"p={p}", [verts(M) for M in pick]))
    return ComponentFillReport(
        "certified" if _simply_connected_surrogate(L, mnf) else "unknown",
        fillings_by_prime=tuple(fillings))


def _simply_connected_surrogate(L: SimplicialComplex, mnf) -> bool:
    hat = _filled(L, [M for M in mnf if M.bit_count() >= 3])
    sk1 = hat.skeleton(1)
    if not is_chordal(sk1):
        return False
    edges = set(sk1.faces(1))
    for trio in itertools.combinations(verts(hat.support), 3):
        a, b, c = trio
        e1, e2, e3 = mask_of((a, b)), mask_of((a, c)), mask_of((b, c))
        if e1 in edges and e2 in edges and e3 in edges:
            if not hat.has_face(mask_of(trio)):
                return False
    return True


# -- strong gcd-condition -----------------------------------------------------------

def _has_gcd_witnesses(ms) -> tuple[bool, int]:
    """Does every disjoint pair of ms have a third member inside its union?
    Also returns the number of disjoint pairs examined."""
    r = len(ms)
    pairs = 0
    for i in range(r):
        for j in range(i + 1, r):
            if ms[i] & ms[j]:
                continue
            pairs += 1
            union = ms[i] | ms[j]
            if not any(k != i and k != j and ms[k] & ~union == 0
                       for k in range(r)):
                return False, pairs
    return True, pairs


def strong_gcd_search(K: SimplicialComplex) -> SearchResult:
    """Strong gcd-order of the minimal non-faces, or none.

    Since the witness constraint is position-free the condition depends only
    on the family: check all disjoint pairs and report the canonical order.
    A complex with at most one minimal non-face passes vacuously.
    """
    mnf = minimal_nonfaces(K)
    ok, nodes = _has_gcd_witnesses(mnf)
    if ok:
        return SearchResult("found", GcdOrder(mnf), nodes)
    return SearchResult("none", None, nodes)
