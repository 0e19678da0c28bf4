"""Inputs and answer checks for the fatwedge benchmark.

Everything here is plain Python: the inputs are generated and the expected
answers derived without importing fatwedge, so a check never routes both of
its sides through the code under test.  A run's ``--seed`` fixes the order of
its ops; what each op computes is the same for every seed (see DECISIONS.md
for why the screen pool is drawn once).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from math import comb

CORPUS_DIR = os.path.join("src", "fatwedge", "corpus")
CLI_COMMANDS = ("certify", "golod", "rmac")
#: corpus complexes left out of the corpus-cli batch: berglund_10's three
#: commands would take 11 of its 16 s, so a run could time each of them only
#: once; rmac-scale (m = 10 cubes) and screen (Koszul pieces) time that work
CLI_SKIP = ("berglund_10",)

#: how a user calls the console entry point, minus the installed script;
#: at exit the child writes its VmHWM line (see peak_rss_kb) to stderr
CLI_MAIN = ("import atexit, sys; atexit.register(lambda: sys.stderr.write("
            "[l for l in open('/proc/self/status') if l.startswith('VmHWM:')][0]"
            ")); from fatwedge.cli import main; sys.argv[0] = 'fatwedge'; main()")


def peak_rss_kb() -> int:
    """Peak resident set of this process since exec, from /proc/self/status.

    ru_maxrss is no use for a child: Linux carries into it the parent's
    resident set at fork, so every child of a big parent reads big.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def split_peak_rss(stderr: str) -> tuple[int | None, str]:
    """The VmHWM figure a CLI child wrote at exit, and the rest of stderr."""
    peak, rest = None, []
    for line in stderr.splitlines():
        if line.startswith("VmHWM:"):
            peak = int(line.split()[1])
        else:
            rest.append(line)
    return peak, "\n".join(rest)


def digest(obj) -> str:
    """Short stable fingerprint of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def shuffled(items, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out


# -- faces, computed without fatwedge ---------------------------------------------

def closure(generators) -> set[frozenset]:
    """All faces (including the empty one) of the generated complex."""
    faces = set()
    for g in generators:
        g = tuple(g)
        for r in range(len(g) + 1):
            faces.update(frozenset(c) for c in itertools.combinations(g, r))
    return faces


def rmac_face_counts(m: int, generators) -> dict[str, int]:
    """Cells of RZ_K by dimension: a face sigma gives 2^(m-|sigma|) cubes."""
    counts: dict[str, int] = {}
    for f in closure(generators):
        key = str(len(f))
        counts[key] = counts.get(key, 0) + 2 ** (m - len(f))
    return counts


# -- corpus-cli ---------------------------------------------------------------

def corpus_documents(root: str) -> dict[str, dict]:
    """The bundled corpus files, read as JSON."""
    folder = os.path.join(root, CORPUS_DIR)
    docs = {}
    for fn in sorted(os.listdir(folder)):
        if fn.endswith(".json"):
            with open(os.path.join(folder, fn), encoding="utf-8") as fh:
                doc = json.load(fh)
            docs[doc["name"]] = doc
    return docs


def corpus_ops(docs: dict, seed: int) -> list[tuple[str, str]]:
    return shuffled([(cmd, name) for name in sorted(docs)
                     if name not in CLI_SKIP for cmd in CLI_COMMANDS], seed)


def _elementary_divisors(orders) -> list[int]:
    """Prime-power factors of a list of cyclic orders, sorted."""
    out = []
    for n in orders:
        p = 2
        while n > 1:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def _contains_shifted(rmac_homology: list, homology_z: dict) -> bool:
    """H~_q(K) is the I = [m] summand of H~_(q+1)(RZ_K) (Hochster)."""
    by_degree = {e["degree"]: e for e in rmac_homology}
    for q, want in homology_z.items():
        have = by_degree.get(int(q) + 1, {"free": 0, "torsion": []})
        if have["free"] < want["free"]:
            return False
        pool = _elementary_divisors(have["torsion"])
        for d in _elementary_divisors(want["torsion"]):
            if d not in pool:
                return False
            pool.remove(d)
    return True


def check_cli(cmd: str, doc: dict, rc: int, out: str) -> str | None:
    """None when the CLI answer matches the corpus file, else the reason."""
    if not out.strip():
        return f"exit {rc} with empty stdout"
    try:
        got = json.loads(out)
    except json.JSONDecodeError:
        return f"exit {rc} with non-JSON stdout"
    exp = doc["expected"]
    if cmd == "certify":
        want_rc = 1 if exp["certify_verdict"] == "nontrivial" else 0
        if (got.get("verdict"), got.get("rule")) != (exp["certify_verdict"],
                                                     exp["certify_rule"]):
            return f"certify gave {got.get('verdict')}/{got.get('rule')}"
    elif cmd == "golod":
        want_rc = 0 if exp["golod"] else 1
        if got.get("golod_over_Z") != exp["golod"]:
            return f"golod gave {got.get('golod_over_Z')}"
        if got.get("oracles_agree") is not True:
            return "Golod oracles disagree"
    else:
        want_rc = 0
        counts = exp.get("rmac_counts") or rmac_face_counts(doc["m"],
                                                            doc["generators"])
        if got.get("face_counts") != counts:
            return "rmac face counts differ"
        if got.get("hochster_identity") is not exp["hochster_identity"]:
            return "Hochster identity result differs"
        if not _contains_shifted(got.get("homology", []), exp["homology_Z"]):
            return "RZ_K homology lacks the shifted homology of K"
    if rc != want_rc:
        return f"exit code {rc}, documented {want_rc}"
    return None


# -- rmac-scale ---------------------------------------------------------------

#: (name, m, k): the k-skeleton of the simplex on m vertices, or its
#: boundary when k is None
RMAC_CASES = (("sk2_d8", 9, 2), ("boundary_d8", 9, None), ("sk2_d9", 10, 2))


def rmac_case(name: str, m: int, k: int | None) -> dict:
    if k is None:
        gens = list(itertools.combinations(range(1, m + 1), m - 1))
        homology = [{"degree": m - 1, "free": 1, "torsion": []}]
    else:
        gens = list(itertools.combinations(range(1, m + 1), k + 1))
        # K_I = sk_k of a (j-1)-simplex has free H~_k of rank C(j-1, k+1)
        rank = sum(comb(m, j) * comb(j - 1, k + 1) for j in range(k + 2, m + 1))
        homology = [{"degree": k + 1, "free": rank, "torsion": []}]
    counts = rmac_face_counts(m, gens)
    return {"name": name, "m": m, "generators": gens,
            "face_counts": counts, "homology": homology}


def rmac_inputs(seed: int) -> list[dict]:
    return shuffled([rmac_case(*c) for c in RMAC_CASES], seed)


def check_rmac(case: dict, face_counts: dict, equal: bool,
               homology: list) -> str | None:
    if face_counts != case["face_counts"]:
        return f"cells by dimension {face_counts}, expected {case['face_counts']}"
    if not equal:
        return "Hochster identity fails"
    if homology != case["homology"]:
        return f"RZ_K homology {homology}, expected {case['homology']}"
    return None


# -- screen: seeded random complexes -------------------------------------------

SCREEN_MS = (6, 7, 8)
SCREEN_PS = (0.3, 0.5, 0.7)
SCREEN_KINDS = ("flag", "two_complex")
#: every (kind, m, p) stratum appears this many times in the pool
SCREEN_REPEATS = 1
#: seed of the generators that draw the pool
SCREEN_POOL_SEED = 0
#: triangle probability of the random 2-complexes
TRIANGLE_P = 0.5
#: node budget handed to certify_fwf_trivial
SCREEN_BUDGET = 20000


def random_graph_edges(rng: random.Random, m: int, p: float) -> list[tuple[int, int]]:
    """Edges of an Erdos-Renyi graph G(m, p) on the vertices 1..m."""
    return [e for e in itertools.combinations(range(1, m + 1), 2)
            if rng.random() < p]


def random_two_complex(rng: random.Random, m: int, p: float) -> list[tuple[int, ...]]:
    """Generators of a Costa-Farber random 2-complex X(m; 1, p, TRIANGLE_P).

    Every vertex is present, each edge with probability p, and each triangle
    whose three edges are present with probability TRIANGLE_P.
    """
    edges = random_graph_edges(rng, m, p)
    have = set(edges)
    tris = [t for t in itertools.combinations(range(1, m + 1), 3)
            if {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])} <= have
            and rng.random() < TRIANGLE_P]
    return [(v,) for v in range(1, m + 1)] + edges + tris


def screen_pool() -> list[dict]:
    """A stratified pool of random complexes.

    A flag specimen carries the generators of its graph (the program builds
    the flag complex), a 2-complex specimen its own generators.  Every vertex
    is kept, so no ground-set element is a ghost.
    """
    rng = random.Random(SCREEN_POOL_SEED)
    pool = []
    for _ in range(SCREEN_REPEATS):
        for m in SCREEN_MS:
            for p in SCREEN_PS:
                for kind in SCREEN_KINDS:
                    if kind == "flag":
                        gens = ([(v,) for v in range(1, m + 1)]
                                + random_graph_edges(rng, m, p))
                    else:
                        gens = random_two_complex(rng, m, p)
                    pool.append({"id": len(pool), "kind": kind, "m": m,
                                 "p": p, "generators": gens})
    return pool


def screen_inputs(seed: int) -> list[dict]:
    return shuffled(screen_pool(), seed)
