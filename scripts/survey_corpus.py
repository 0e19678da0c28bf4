#!/usr/bin/env python3
"""Survey the bundled corpus: one row of invariants per complex.

Usage: python scripts/survey_corpus.py [--all-rules]
"""

import argparse
import time

from fatwedge.certify import certify_fwf_trivial, golod_report
from fatwedge.complexes import max_neighborliness, run
from fatwedge.corpus import corpus_names, load
from fatwedge.criteria import is_dual_scm, is_dual_shellable, strong_gcd_search
from fatwedge.homology import ZZ, dK, reduced_homology


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--all-rules", action="store_true",
                    help="force-run every certifier rule")
    args = ap.parse_args()

    header = (f"{'name':<20} {'m':>2} {'dim':>3} {'homology':<22} {'dK':>3} "
              f"{'nb':>2} {'golod':<5} {'dual':<11} {'gcd':<5} "
              f"{'verdict':<10} {'rule':<24} {'sec':>5}")
    print(header)
    print("-" * len(header))
    for name in corpus_names():
        K = load(name).complex()
        t0 = time.monotonic()
        with run():    # every question below shares the results of K's K_I
            prof = reduced_homology(K, ZZ)
            d = dK(K)
            cert = certify_fwf_trivial(K, all_rules=args.all_rules)
            rep = golod_report(K)
            dual_bits = []
            if is_dual_shellable(K).found:
                dual_bits.append("shell")
            if is_dual_scm(K, ZZ):
                dual_bits.append("scm")
            gcd = strong_gcd_search(K).status
        row = (f"{name:<20} {K.m:>2} {K.dim:>3} {repr(prof)[16:-1]:<22.22} "
               f"{'-' if d is None else d:>3} {max_neighborliness(K):>2} "
               f"{str(rep.golod):<5} {'+'.join(dual_bits) or '-':<11} "
               f"{gcd:<5} "
               f"{cert.verdict:<10} {cert.rule or '-':<24} "
               f"{time.monotonic() - t0:>5.1f}")
        print(row)
        if args.all_rules and cert.rules_run:
            fired = [r for r, s in cert.rules_run if s == "fired"]
            print(f"{'':<20}   rules fired: {', '.join(fired) or 'none'}")


if __name__ == "__main__":
    main()
