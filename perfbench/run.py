#!/usr/bin/env python3
"""Benchmark of fatwedge: one closed-loop client, one op at a time.

  python3 perfbench/run.py --workload corpus-cli --seed 1 --seconds 38 --trace 0

Run it from the root of a checkout; the program is imported from ``src``.
Workloads (DECISIONS.md says why each exists):

  corpus-cli  certify, golod and rmac on the bundled corpus complexes, each
              typed at the CLI in a fresh interpreter
  rmac-scale  hochster_identity_check on skeleta and boundaries of simplices,
              m = 9..10, in one process
  screen      certify_fwf_trivial on a stratified pool of random flag and
              2-complexes, m = 6..8, in one process that shares its caches

A run times ``SETUP_SAMPLES`` fresh set-ups, then repeats the workload's
fixed batch of ops, each batch in fresh processes, while another batch still
fits in ``--seconds``.  Answers are checked outside the timed region.  With
``--trace 1`` one more batch runs under the outside-in tracer (tracer.py) and
the per-layer metrics are reported instead of the end-to-end ones.

Human-readable lines come first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("corpus-cli", "rmac-scale", "screen")
SETUP_SAMPLES = 9
#: op_ms_tail needs this many ops, so that its percentile is p50 or above
TAIL_MIN_OPS = 20
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def start_worker(args, stderr_path):
    with open(stderr_path, "w", encoding="utf-8") as err:
        return subprocess.Popen([sys.executable, WORKER, *args], cwd=ROOT,
                                env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)


def read_ready(proc) -> None:
    """Wait for the worker's first line, printed once its inputs are built."""
    if not proc.stdout.readline():
        proc.wait(CHILD_TIMEOUT_S)
        raise RuntimeError(f"worker exited {proc.returncode} before set-up "
                           f"finished")


def setup_time(workload: str, seed: int, scratch: str) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    t0 = time.perf_counter()
    proc = start_worker(["setup", workload, str(seed)],
                        os.path.join(scratch, "setup.stderr"))
    read_ready(proc)
    dt = time.perf_counter() - t0
    proc.stdout.read()
    proc.wait(CHILD_TIMEOUT_S)
    return dt


# -- one batch -----------------------------------------------------------------

def cli_batch(seed: int, trace_dir: str | None) -> dict:
    docs = inputs.corpus_documents(ROOT)
    ops, answers, certified, summaries, gap, peak_kb = [], {}, [], [], 0.0, 0
    for cmd, name in inputs.corpus_ops(docs, seed):
        if trace_dir is None:
            argv = [sys.executable, "-c", inputs.CLI_MAIN, cmd, name]
        else:
            argv = [sys.executable, WORKER, "cli", cmd, name, "--trace", trace_dir]
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), text=True,
                              capture_output=True, timeout=CHILD_TIMEOUT_S)
        dt = time.perf_counter() - t0
        peak, stderr = inputs.split_peak_rss(proc.stderr)
        error = inputs.check_cli(cmd, docs[name], proc.returncode, proc.stdout)
        if error is None and trace_dir is None and peak is None:
            error = "no VmHWM line on stderr"
        if error and stderr.strip():
            error += ": " + stderr.strip().splitlines()[-1]
        peak_kb = max(peak_kb, peak or 0)
        ops.append({"op": f"{cmd} {name}", "s": dt, "error": error})
        answers[f"{cmd} {name}"] = [proc.returncode, inputs.digest(proc.stdout)]
        if cmd == "certify" and not error:
            got = json.loads(proc.stdout)
            certified.append((got["verdict"], got["rule"]))
        if trace_dir is not None:
            with open(os.path.join(trace_dir, f"{cmd}-{name}.summary.json"),
                      encoding="utf-8") as fh:
                summary = json.load(fh)
            summaries.append(summary)
            gap += dt - summary["spans"]["op"]["total_s"]
    batch = {"ops": ops, "certified": certified,
             "input_digest": inputs.digest(docs),
             "answer_digest": inputs.digest(answers), "peak_rss_kb": peak_kb}
    if trace_dir is not None:
        batch["trace"] = merge(summaries)
        batch["process_gap_s"] = gap
    return batch


def worker_batch(workload: str, seed: int, scratch: str,
                 trace_dir: str | None) -> dict:
    args = ["run", workload, str(seed)]
    if trace_dir is not None:
        args += ["--trace", trace_dir]
    proc = start_worker(args, os.path.join(scratch, "run.stderr"))
    read_ready(proc)
    rest = proc.stdout.read()
    proc.wait(CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not rest.strip():
        with open(os.path.join(scratch, "run.stderr"), encoding="utf-8") as fh:
            tail = fh.read().strip().splitlines()[-1:]
        raise RuntimeError(f"worker exited {proc.returncode}: {tail}")
    return json.loads(rest.strip().splitlines()[-1])


def batch(workload: str, seed: int, scratch: str, trace_dir=None) -> dict:
    if workload == "corpus-cli":
        return cli_batch(seed, trace_dir)
    return worker_batch(workload, seed, scratch, trace_dir)


# -- traces ----------------------------------------------------------------------

def merge(summaries) -> dict:
    """Sum span and counter tables of several traced processes."""
    out = {"spans": {}, "counters": {}, "maxima": {}, "bookkeeping_s": 0.0,
           "span_count": 0, "bindings": 0}
    for s in summaries:
        for name, row in s["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "total_s": 0.0,
                                                 "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for k, v in s["counters"].items():
            out["counters"][k] = out["counters"].get(k, 0) + v
        for k, v in s["maxima"].items():
            out["maxima"][k] = max(out["maxima"].get(k, 0), v)
        out["bookkeeping_s"] += s["bookkeeping_s"]
        out["span_count"] += s["span_count"]
        out["bindings"] = max(out["bindings"], s["bindings"])
    return out


RULES = ("DUAL_SHELLABLE", "DUAL_SCM_Z", "ALL_FULLSUB_FILLABLE",
         "ALL_FULLSUB_HOMOLOGY_FILLABLE", "NEIGHBORLY_DK", "FLAG_CHORDAL",
         "LOW_DUAL_DIM")
SEARCHES = ("shelling_search", "collapse_search", "fill_search")


def _calls_self(*names):
    out = []
    for n in names:
        out += [(f"{n}.calls", "count", "lower"), (f"{n}.self_s", "s", "lower")]
    return out


#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    _calls_self("complexes.full_subcomplex", "complexes.minimal_nonfaces",
                "complexes.alexander_dual", "homology.simplicial_chain_complex",
                "homology.ChainComplex")
    + [("homology.reduced_homology.calls", "count", "lower"),
       ("homology.reduced_homology.recompute_ratio", "ratio", "lower")]
    + _calls_self("homology.chain_homology", "homology.HomologyBasis",
                  "homology.is_zero_on_homology", "snf.complex_rank_divisors")
    + [("snf.complex_rank_divisors.cells_in", "count", "lower"),
       ("snf.complex_rank_divisors.nonzeros_in", "count", "lower")]
    + _calls_self("snf.smith_normal_form")
    + [("snf.smith_normal_form.residue_entries", "count", "lower"),
       ("snf.smith_normal_form.residue_max_side", "count", "lower")]
    + _calls_self("snf.sparse_rank_divisors", "rmac.build_rmac")
    + [("rmac.build_rmac.cells", "count", "lower")]
    + [(f"rmac.{n}.self_s", "s", "lower") for n in
       ("cubical_chain_complex", "ChainComplex", "cubical_homology",
        "hochster_identity_check")]
    + [("tor.pieces_built", "count", "lower"),
       ("tor.ChainComplex.self_s", "s", "lower"),
       ("tor.chain_homology.self_s", "s", "lower")]
    + _calls_self("tor.golod_via_tor", "tor.golod_via_join")
    + [("tor.torsion_primes.self_s", "s", "lower")]
    + [m for n in SEARCHES for m in (
        (f"criteria.{n}.calls", "count", "lower"),
        (f"criteria.{n}.nodes", "count", "lower"),
        (f"criteria.{n}.self_s", "s", "lower"),
        (f"criteria.{n}.found_ratio", "ratio", "higher"),
        (f"criteria.{n}.exhausted_ratio", "ratio", "lower"))]
    + _calls_self("criteria.is_homology_fillable")
    + [("criteria.is_homology_fillable.certified_ratio", "ratio", "higher")]
    + _calls_self("criteria.is_dual_scm")
    + [(f"certify.rule.{r}.self_s", "s", "lower") for r in RULES]
    + _calls_self("certify.golod_report")
    + [("cli.import_s", "s", "lower"), ("cli.run_command.self_s", "s", "lower"),
       ("unattributed_s", "s", "lower"), ("trace.wall_s", "s", "lower"),
       ("trace.overhead_s", "s", "lower"), ("trace.overhead_ratio", "ratio", "lower")]
)


def layer_values(trace: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Every PER_LAYER metric; 0 where the traced batch never reached it."""
    spans, counters, maxima = trace["spans"], trace["counters"], trace["maxima"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "homology.reduced_homology.recompute_ratio": ratio(
            counters.get("homology.chain_homology.under_reduced_homology", 0),
            span("homology.reduced_homology", "calls")),
        "tor.pieces_built": span("tor.ChainComplex", "calls"),
        "cli.import_s": ratio(span("cli.import", "total_s"),
                              span("cli.import", "calls")),
        "unattributed_s": span("op", "self_s"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_ratio": ratio(traced_wall - untraced_wall, untraced_wall),
    }
    values = {}
    for name, _, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif name in counters or name in maxima:
            values[name] = counters.get(name, maxima.get(name))
        elif field.endswith("_ratio"):
            # found_ratio and the like: outcomes over calls
            outcome = field[:-len("_ratio")]
            values[name] = ratio(counters.get(f"{base}.{outcome}", 0),
                                 span(base, "calls"))
        else:
            values[name] = span(base, field)
    return values


# -- the run ---------------------------------------------------------------------

def wall(b: dict) -> float:
    return sum(op["s"] for op in b["ops"])


def median_wall(batches) -> float:
    """Sum over the batch's ops of each op's median latency across batches.

    Each op is timed once per batch; taking the median per op before summing
    keeps one slow stretch of the machine from moving the whole batch.
    """
    samples: dict = {}
    for b in batches:
        for op in b["ops"]:
            samples.setdefault(op["op"], []).append(op["s"])
    return sum(statistics.median(xs) for xs in samples.values())


def tail(latencies_ms):
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(latencies_ms)
    n = len(xs)
    if n < TAIL_MIN_OPS:
        return None
    k = n - 10
    return {"value": xs[k - 1], "percentile": round(100 * k / n, 1),
            "samples": n}


def verdict_counts(certified) -> dict:
    """certify.verdict.<v> and certify.fired.<RULE> from certify answers."""
    counts = {}
    for verdict, rule in certified:
        for key in (f"certify.verdict.{verdict}", f"certify.fired.{rule}"):
            counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, inputs.CORPUS_DIR)):
        print(f"error: no fatwedge sources under {ROOT}/src; run from the "
              f"root of a fatwedge checkout", file=sys.stderr)
        return 2

    scratch = os.path.join(OUT, args.workload)
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)

    setups = [setup_time(args.workload, args.seed, scratch)
              for _ in range(SETUP_SAMPLES)]
    batches = []
    t0 = time.perf_counter()
    while True:
        batches.append(batch(args.workload, args.seed, scratch))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(batches) + 1) / len(batches) > args.seconds:
            break
    peak_rss_mb = max(b["peak_rss_kb"] for b in batches) / 1024
    traced = None
    if args.trace:
        traced = batch(args.workload, args.seed, scratch, trace_dir=scratch)

    runs = batches + ([traced] if traced else [])
    ops = [op for b in runs for op in b["ops"]]
    failures = [op for op in ops if op["error"]]
    digests = {b["answer_digest"] for b in runs}
    latencies = [op["s"] * 1000 for b in batches for op in b["ops"]]
    wall_s = median_wall(batches)
    # the metrics BENCHMARK.json gates; DECISIONS.md says why op_ms_p50,
    # op_ms_tail and fail_ratio are printed but not gated
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    op_p50 = statistics.median(latencies)
    op_tail = tail(latencies)

    print(f"workload {args.workload}  seed {args.seed}  batches {len(batches)}"
          f"  ops/batch {len(batches[0]['ops'])}")
    print(f"input_digest {batches[0]['input_digest']}  answer_digest "
          f"{' '.join(sorted(digests))}")
    for name, (value, unit) in end_to_end.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"op_ms_p50 = {op_p50:.6g} ms  ({len(latencies)} ops)")
    if op_tail:
        print(f"op_ms_tail = {op_tail['value']:.6g} ms  (p{op_tail['percentile']}"
              f" of {op_tail['samples']} ops)")
    else:
        print(f"op_ms_tail omitted: {len(latencies)} ops < {TAIL_MIN_OPS}")
    print(f"fail_ratio = {len(failures)}/{len(ops)} = "
          f"{len(failures) / len(ops):.4g}")
    for op in failures:
        print(f"  FAILED {op['op']}: {op['error']}")
    if len(digests) > 1:
        print("  FAILED: batches of one run gave different answers")

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()}
    report = {"workload": args.workload, "seed": args.seed,
              "end_to_end": metrics, "setup_samples_s": setups,
              "batch_wall_s": [wall(b) for b in batches], "op_ms_p50": op_p50,
              "op_ms_tail": op_tail,
              "ops": [b["ops"] for b in runs]}
    if traced:
        values = layer_values(traced["trace"], wall(traced), wall_s)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        extra = verdict_counts(traced["certified"])
        extra["trace.bookkeeping_s"] = traced["trace"]["bookkeeping_s"]
        extra["trace.span_count"] = traced["trace"]["span_count"]
        extra["trace.bindings_wrapped"] = traced["trace"]["bindings"]
        if "process_gap_s" in traced:
            # interpreter start-up and exit, outside every span of the child
            extra["cli.process_gap_s"] = traced["process_gap_s"]
        print("per-layer (traced batch):")
        for name, m in metrics.items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        for name, v in extra.items():
            print(f"  {name} = {v:.6g}")
        print(f"spans written to {os.path.relpath(scratch, ROOT)}")
        report.update(per_layer=metrics, extra=extra, trace=traced["trace"])
    with open(os.path.join(scratch, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(json.dumps({"correct": not failures and len(digests) == 1,
                      "attempted": len(ops), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
