"""Certificate pipeline for triviality of the fat wedge filtration, plus
wedge-decomposition reports of the associated polyhedral products.

The certifier tries sufficient conditions cheapest-first; each fired rule
carries machine-checkable evidence.  Every rule is decided exactly and none
searches: the paper's two conditions (the Alexander dual is sequentially
Cohen-Macaulay over Z; K is ceil(dK/2)-neighborly) and three shortcuts.  No
rule asks for a shelling of the dual: a shellable complex, pure or not, is
SCM over Z (Bjorner and Wachs, "Shellable nonpure complexes and posets I",
Trans. AMS 348 (1996)), so the SCM rule fires wherever that one would.
"nontrivial" is only ever concluded from a Golodness obstruction (the
decomposition forces all Tor products to vanish, so a nonzero product is a
genuine obstruction); rules that decline alone yield "unknown", because
every implemented condition is sufficient, not necessary.
On a complex without ghost elements the Golod report is built once, before
any rule: a non-Golod report settles "nontrivial" at once, since no
sufficient rule can fire there, and the same report checks the soundness of
every rule that fires on such a complex.  With all_rules a non-Golod report
still runs every rule, so a rule that fires there raises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .complexes import (SimplicialComplex, flag_complex, max_neighborliness,
                        minimal_nonfaces, perfect_elimination_order, run,
                        verts)
from .criteria import DEFAULT_BUDGET, is_dual_scm
from .homology import (CoefficientRing, GF, QQ, ZZ, HomologyProfile, dK,
                       full_subcomplex_profiles)
from .tor import GolodVerdict, golod_via_join, golod_via_tor, torsion_primes

RULE_DIM = "DIM_GE_M_MINUS_2"
RULE_FLAG = "FLAG_CHORDAL"
RULE_LOW_DUAL = "LOW_DUAL_DIM"
RULE_NEIGHBORLY = "NEIGHBORLY_DK"
RULE_DUAL_SCM = "DUAL_SCM_Z"
RULE_NON_GOLOD = "NON_GOLOD_OBSTRUCTION"


@dataclass(frozen=True)
class GolodReport:
    """Aggregate Golodness verdict: the join oracle over Z plus the Tor
    oracle over Q and every relevant prime field."""

    golod: bool
    join_over_Z: GolodVerdict
    tor_over_Q: GolodVerdict
    tor_mod_p: tuple[tuple[int, GolodVerdict], ...]
    primes: tuple[int, ...]
    oracles_agree: bool
    witness_text: str | None

    def to_json(self) -> dict:
        return {
            "golod_over_Z": self.golod,
            "join_oracle_Z": self.join_over_Z.to_json(),
            "tor_oracle_Q": self.tor_over_Q.to_json(),
            "tor_oracle_mod_p": {str(p): v.to_json() for p, v in self.tor_mod_p},
            "primes_checked": list(self.primes),
            "oracles_agree": self.oracles_agree,
            "witness": self.witness_text,
        }


@run()
def golod_report(K: SimplicialComplex) -> GolodReport:
    """Golodness over Z in the decidable sense: over Q and over Z/p for every
    prime p dividing torsion of some full-subcomplex homology, plus the
    chain-level join oracle over Z.  No other prime is checked, and none
    needs to be.

    Where no H~(K_I; Z) has p-torsion, Z/p cannot fail where Q passes.  By
    universal coefficients the Z/p table of ``full_subcomplex_profiles`` is
    then the Q table, and by Hochster's formula no integral Koszul piece C
    has p-torsion in H(C), so reduction H(C) -> H(C; Z/p) is multiplicative,
    onto, and injective on H(C) (x) Z/p.  A product over Z/p is thus the
    reduction of an integral product xy, which Golod over Q makes torsion of
    order n prime to p: xy (x) 1 = (n xy) (x) a = 0 for an = 1 mod p.
    """
    primes = torsion_primes(K)
    join_z = golod_via_join(K, ZZ)
    tor_q = golod_via_tor(K, QQ)
    tor_p = tuple((p, golod_via_tor(K, GF(p))) for p in primes)
    golod = join_z.golod and tor_q.golod and all(v.golod for _, v in tor_p)
    field_verdict = tor_q.golod and all(v.golod for _, v in tor_p)
    witness = None
    for v in (join_z, tor_q, *(v for _, v in tor_p)):
        if not v.golod:
            witness = v.witness_text
            break
    return GolodReport(golod, join_z, tor_q, tor_p, primes,
                       oracles_agree=(join_z.golod == field_verdict),
                       witness_text=witness)


@dataclass(frozen=True)
class TrivialityCertificate:
    verdict: str                  # "trivial" | "nontrivial" | "unknown"
    rule: str | None
    evidence: dict
    golod: GolodReport | None = None
    rules_run: tuple[tuple[str, str], ...] = ()

    def to_json(self) -> dict:
        out = {"verdict": self.verdict, "rule": self.rule,
               "evidence": self.evidence}
        if self.golod is not None:
            out["golod_report"] = self.golod.to_json()
        if self.rules_run:
            out["rules_run"] = {r: s for r, s in self.rules_run}
        return out


def _try_dim(K: SimplicialComplex):
    if K.dim >= K.m - 2:
        return {"dim": K.dim, "m": K.m}
    return None


def _try_flag_chordal(K: SimplicialComplex):
    one = K.skeleton(1)
    peo = perfect_elimination_order(one)
    if peo is None or flag_complex(one) != K:
        return None
    return {"chordal": True, "elimination_order": list(peo)}


def _try_low_dual_dim(K: SimplicialComplex):
    mnf = minimal_nonfaces(K)
    if not mnf:
        return None   # full simplex; the dimension rule has already fired
    dual_dim = K.m - min(M.bit_count() for M in mnf) - 1
    if 2 * dual_dim + 2 < K.m:
        return {"dual_dim": dual_dim, "m": K.m}
    return None


def _try_neighborly(K: SimplicialComplex):
    d = dK(K)
    required = 0 if d is None else -(-d // 2)
    nb = max_neighborliness(K)
    if required <= 0 or nb >= required:
        return {"dK": d, "required_neighborliness": max(required, 0),
                "max_neighborliness": nb}
    return None


def _try_dual_scm(K: SimplicialComplex):
    if is_dual_scm(K, ZZ):
        return {"dual_scm_over_Z": True}
    return None


#: (rule, check) in evaluation order, cheapest first
_RULES = (
    (RULE_DIM, _try_dim),
    (RULE_FLAG, _try_flag_chordal),
    (RULE_LOW_DUAL, _try_low_dual_dim),
    (RULE_NEIGHBORLY, _try_neighborly),
    (RULE_DUAL_SCM, _try_dual_scm),
)


@run()
def certify_fwf_trivial(K: SimplicialComplex, budget: int = DEFAULT_BUDGET,
                        all_rules: bool = False) -> TrivialityCertificate:
    """Run the sufficient conditions cheapest-first; fall back to a Golodness
    obstruction.  With all_rules=True every rule is force-run and its outcome
    recorded for cross-validation.

    budget is accepted and unused, since no rule searches; it stays for the
    callers that pass it (perfbench/worker.py does, for every screen op).

    On a complex without ghost elements the Golod report comes first, in
    every mode: a trivial filtration forces Golodness, so a non-Golod report
    settles "nontrivial" before any rule runs, and no sufficient rule could
    fire there.  Wherever a rule does fire on such a complex, the verdict is
    sanity-checked against that same report (the decomposition implies
    Golodness); with all_rules=True a non-Golod report still runs every
    rule, so a rule firing there raises.  With a ghost element the rules run
    first, and the report is built only when none fires.
    """
    # triviality implies Golodness only when every element of [m] is a
    # vertex; ghost elements carry degree -1 classes invisible to the
    # (vacuously null) attaching maps
    report = golod_report(K) if K.support == (1 << K.m) - 1 else None
    if report is not None and not report.golod and not all_rules:
        return _non_golod(report, ())
    fired_rule = None
    fired_evidence = None
    rules_run = []
    for name, check in _RULES:
        if fired_rule is not None and not all_rules:
            break
        ev = check(K)
        rules_run.append((name, "fired" if ev is not None else "not_fired"))
        if ev is not None and fired_rule is None:
            fired_rule = name
            fired_evidence = ev
    recorded = tuple(rules_run) if all_rules else ()
    if fired_rule is not None:
        if report is not None and not report.golod:
            raise AssertionError(
                f"soundness violation: rule {fired_rule} fired on a "
                f"non-Golod complex ({report.witness_text})")
        return TrivialityCertificate("trivial", fired_rule, fired_evidence,
                                     golod=report, rules_run=recorded)
    if report is None:
        report = golod_report(K)
    if not report.golod:
        return _non_golod(report, recorded)
    return TrivialityCertificate("unknown", None, {}, golod=report,
                                 rules_run=recorded)


def _non_golod(report: GolodReport,
               recorded: tuple[tuple[str, str], ...]) -> TrivialityCertificate:
    return TrivialityCertificate(
        "nontrivial", RULE_NON_GOLOD, {"witness": report.witness_text},
        golod=report, rules_run=recorded)


# -- wedge decomposition reports ------------------------------------------------

@dataclass(frozen=True)
class SpacePoincare:
    """Reduced Betti polynomial of one factor space (free homology only)."""

    betti: tuple[int, ...]

    def __post_init__(self):
        if any(b < 0 for b in self.betti):
            raise ValueError("Betti coefficients must be nonnegative")

    @staticmethod
    def sphere(n: int) -> "SpacePoincare":
        """S^n: a single reduced class in degree n (n = 0 is two points)."""
        if n < 0:
            raise ValueError(f"sphere dimension must be >= 0, got {n}")
        return SpacePoincare((0,) * n + (1,))

    @staticmethod
    def from_string(s: str) -> "SpacePoincare":
        """Parse polynomials like "t^2", "1 + 2t^3", "2*t"."""
        coeffs: dict[int, int] = {}
        s = s.replace(" ", "")
        if not s:
            raise ValueError("empty Betti polynomial")
        for term in s.split("+"):
            # "*" only between a coefficient and t
            mt = re.fullmatch(r"(?:(\d+)(?:\*(?=t))?)?(t(?:\^(\d+))?)?", term)
            if not mt or not term:
                raise ValueError(f"cannot parse Betti term {term!r}")
            coeff = int(mt.group(1)) if mt.group(1) else 1
            if mt.group(2) is None:
                deg = 0
            elif mt.group(3) is None:
                deg = 1
            else:
                deg = int(mt.group(3))
            coeffs[deg] = coeffs.get(deg, 0) + coeff
        top = max(coeffs)
        return SpacePoincare(tuple(coeffs.get(i, 0) for i in range(top + 1)))

    def poly_string(self) -> str:
        terms = []
        for i, c in enumerate(self.betti):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "t" if i == 1 else f"t^{i}"
                terms.append(base if c == 1 else f"{c}{base}")
        return " + ".join(terms) if terms else "0"


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


@dataclass(frozen=True)
class WedgeSummand:
    subset: tuple[int, ...]
    profile: HomologyProfile

    def to_json(self) -> dict:
        return {"I": list(self.subset), "homology": self.profile.to_json()}


@dataclass(frozen=True)
class WedgeReport:
    """Per-subset homology of the wedge summands (suspension of the full
    subcomplex smashed with the factor spaces), their aggregate, the sphere
    list when everything is free, and whether the wedge decomposition is
    certified to hold before suspension."""

    ring: CoefficientRing
    summands: tuple[WedgeSummand, ...]
    aggregate: HomologyProfile
    sphere_list: tuple[int, ...] | None
    desuspended: bool
    certificate: TrivialityCertificate | None

    def poincare_polynomial(self) -> str:
        terms = []
        for q in self.aggregate.nonzero_degrees():
            b = self.aggregate.betti(q)
            if b:
                terms.append(f"{b}t^{q}" if b > 1 else f"t^{q}")
        return " + ".join(terms) if terms else "0"

    def wedge_string(self) -> str | None:
        if self.sphere_list is None:
            return None
        return " v ".join(f"S^{q}" for q in self.sphere_list) if self.sphere_list else "point"

    def to_json(self) -> dict:
        return {
            "ring": repr(self.ring),
            "summands": [s.to_json() for s in self.summands],
            "aggregate": self.aggregate.to_json(),
            "poincare_polynomial": self.poincare_polynomial(),
            "spheres": list(self.sphere_list) if self.sphere_list is not None else None,
            "wedge": self.wedge_string(),
            "desuspended": self.desuspended,
        }


@run()
def bbcg_summands(K: SimplicialComplex, spaces, ring: CoefficientRing = ZZ,
                  certificate: TrivialityCertificate | None = None) -> WedgeReport:
    """Homology of the wedge summands Sigma|K_I| smash X^I, one per nonempty
    subset I, with torsion of the subcomplex homology carried through the
    degree shifts.  Only the I of the full-subcomplex table (H~(K_I) nonzero)
    are visited; the nonzero summands are listed, and the aggregate sums them.

    spaces is one SpacePoincare per vertex.  The desuspended flag is true
    exactly when a triviality certificate with verdict "trivial" accompanies
    the report (one is computed if not supplied) and K has no ghost element:
    with ghost set G the polyhedral product is the one of K on its support
    times the product of the X_g over G, and a product is not a wedge.
    """
    spaces = list(spaces)
    if len(spaces) != K.m:
        raise ValueError(f"need {K.m} factor spaces, got {len(spaces)}")
    summands = []
    torsion_free = True
    parts = []
    for imask, base in full_subcomplex_profiles(K, ring).items():
        poly: tuple[int, ...] = (1,)
        rem = imask
        while rem:
            low = rem & -rem
            rem ^= low
            poly = _poly_mul(poly, tuple(spaces[low.bit_length() - 1].betti))
        if not any(poly):
            continue
        free: dict[int, int] = {}
        tors: dict[int, list[int]] = {}
        for s, c in enumerate(poly):
            if not c:
                continue
            for q, r in base.free.items():
                deg = q + 1 + s
                free[deg] = free.get(deg, 0) + c * r
            for q, ds in base.torsion.items():
                deg = q + 1 + s
                tors.setdefault(deg, []).extend(list(ds) * c)
        prof = HomologyProfile(ring, free, tors)
        if prof.is_trivial():
            continue
        if prof.torsion:
            torsion_free = False
        summand = WedgeSummand(verts(imask), prof)
        summands.append(summand)
        parts.append(prof)
    aggregate = HomologyProfile.direct_sum(parts, ring)
    spheres = None
    if torsion_free:
        out = []
        for q in aggregate.nonzero_degrees():
            out.extend([q] * aggregate.betti(q))
        spheres = tuple(out)
    if certificate is None:
        certificate = certify_fwf_trivial(K)
    return WedgeReport(ring, tuple(summands), aggregate, spheres,
                       desuspended=(certificate.verdict == "trivial"
                                    and K.support == (1 << K.m) - 1),
                       certificate=certificate)
