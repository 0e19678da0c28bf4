#!/usr/bin/env python3
"""Random screening: sample complexes, tally certifier rules, and spot-check
the cross-validation invariants (Golod oracle agreement, the subcomplex-sum
identity for the real moment-angle complex, Hochster's formula for the
Koszul model over Q and Z/2, dual-shellable implications).

Usage: python scripts/random_screen.py [--count 100] [--max-m 6] [--seed 0]
"""

import argparse
import random
from collections import Counter

from fatwedge.certify import certify_fwf_trivial
from fatwedge.complexes import make_complex, run
from fatwedge.criteria import is_dual_scm, is_dual_shellable, strong_gcd_search
from fatwedge.homology import GF, QQ, ZZ
from fatwedge.rmac import hochster_identity_check
from fatwedge.tor import golod_via_join, golod_via_tor, hochster_tor_check


def sample(rng: random.Random, max_m: int, ghost_free: bool):
    m = rng.randint(2, max_m)
    gens = [[v] for v in range(1, m + 1)] if ghost_free else []
    for _ in range(rng.randint(0, 2 * m)):
        size = rng.randint(1, m)
        gens.append(rng.sample(range(1, m + 1), size))
    return make_complex(m, gens)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--max-m", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--with-ghosts", action="store_true",
                    help="allow ground-set elements that are not vertices")
    args = ap.parse_args()
    ghost_free = not args.with_ghosts
    rng = random.Random(args.seed)

    rules = Counter()
    verdicts = Counter()
    agreement_failures = 0
    identity_failures = 0
    tor_failures = 0
    chain_checked = 0
    for i in range(args.count):
        K = sample(rng, args.max_m, ghost_free)
        # one run per complex: every check below reads the same full
        # subcomplexes and their homology
        with run():
            cert = certify_fwf_trivial(K)
            verdicts[cert.verdict] += 1
            rules[cert.rule or "none"] += 1
            if not hochster_identity_check(K, ZZ).equal:
                identity_failures += 1
            for ring in (QQ, GF(2)):
                if golod_via_tor(K, ring).golod != golod_via_join(K, ring).golod:
                    agreement_failures += 1
                if not hochster_tor_check(K, ring).equal:
                    tor_failures += 1
            if ghost_free and is_dual_shellable(K, budget=20000).found:
                chain_checked += 1
                assert is_dual_scm(K, ZZ), K
                assert strong_gcd_search(K).found, K

    print(f"screened {args.count} complexes (max m = {args.max_m}, seed {args.seed})")
    print(f"verdicts: {dict(verdicts)}")
    print("rules fired:")
    for rule, n in rules.most_common():
        print(f"  {rule:<28} {n:>4}")
    print(f"subcomplex-sum identity failures: {identity_failures}")
    print(f"Hochster formula failures (Tor):  {tor_failures}")
    print(f"Golod oracle disagreements:       {agreement_failures}")
    print(f"dual-shellable chain checks:      {chain_checked}")


if __name__ == "__main__":
    main()
