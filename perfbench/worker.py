"""Child processes of the fatwedge benchmark; run.py starts them.

  worker.py setup <workload> <seed>     import, build inputs, report ready
  worker.py run <workload> <seed> [--trace DIR]
                                        set up, then run one batch of ops
  worker.py cli <command> <name> --trace DIR
                                        one traced CLI call

Each child starts in a fresh interpreter, so the program's module-level
caches start cold.  A child prints one JSON line when it is ready; ``run``
prints a second one with its results.  The program is found on PYTHONPATH,
which run.py points at the checkout's ``src``.
"""

from __future__ import annotations

import json
import os
import sys
import time

import inputs


def _ready() -> None:
    print(json.dumps({"ready": True}), flush=True)


def _setup(workload: str, seed: int):
    """Import the program and build the workload's inputs."""
    import fatwedge
    if workload == "corpus-cli":
        import fatwedge.cli
        from fatwedge import corpus
        docs = [corpus.load(name) for name in corpus.corpus_names()]
        return fatwedge, docs, inputs.digest([d.to_json() for d in docs])
    if workload == "rmac-scale":
        cases = inputs.rmac_inputs(seed)
        for c in cases:
            c["K"] = fatwedge.make_complex(c["m"], c["generators"])
        return fatwedge, cases, inputs.digest([[c["name"], c["m"]] for c in cases])
    if workload == "screen":
        specs = inputs.screen_inputs(seed)
        for s in specs:
            K = fatwedge.make_complex(s["m"], s["generators"])
            s["K"] = fatwedge.flag_complex(K) if s["kind"] == "flag" else K
        return fatwedge, specs, inputs.digest(
            [[s["id"], s["kind"], s["m"], s["generators"]] for s in specs])
    raise SystemExit(f"unknown workload {workload!r}")


def _rmac_answer(fw, case, rep):
    counts = fw.build_rmac(case["K"], allow_large=True).counts()
    face_counts = {str(d): n for d, n in counts.items()}
    homology = rep.lhs.to_json()
    err = inputs.check_rmac(case, face_counts, rep.equal, homology)
    return case["name"], [face_counts, rep.equal, homology], err


def _screen_answer(fw, spec, cert):
    golod = cert.golod
    err = None
    if cert.verdict not in ("trivial", "nontrivial", "unknown"):
        err = f"verdict {cert.verdict!r}"
    elif golod is None:
        err = "no Golod report"
    elif not golod.oracles_agree:
        err = "Golod oracles disagree"
    answer = [cert.verdict, cert.rule, golod and golod.golod]
    return spec["id"], answer, err


#: workload -> (op, answer and check); an op is one public call
OPS = {
    "rmac-scale": (lambda fw, case: fw.hochster_identity_check(
        case["K"], fw.ZZ, allow_large=True), _rmac_answer),
    "screen": (lambda fw, spec: fw.certify_fwf_trivial(
        spec["K"], budget=inputs.SCREEN_BUDGET), _screen_answer),
}


def run(workload: str, seed: int, trace_dir: str | None) -> None:
    fw, items, input_digest = _setup(workload, seed)
    _ready()
    op, answer_of = OPS[workload]
    tracer = None
    if trace_dir is not None:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    ops = []
    answers = {}
    certified = []
    for k, item in enumerate(items):
        error = None
        result = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = op(fw, item)
            else:
                with tracer.op(k):
                    result = op(fw, item)
        except Exception as e:    # a crashing op is a failed op, not a crashed run
            error = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        if error is None:
            key, ans, error = answer_of(fw, item, result)
            answers[str(key)] = ans
            if workload == "screen":
                certified.append((result.verdict, result.rule))
        ops.append({"op": item.get("name", item.get("id")), "s": dt,
                    "error": error})
    out = {"ops": ops, "input_digest": input_digest,
           "answer_digest": inputs.digest(answers), "certified": certified,
           "peak_rss_kb": inputs.peak_rss_kb()}
    if tracer is not None:
        out["trace"] = tracer.summary()
        tracer.write(os.path.join(trace_dir, f"{workload}.spans.jsonl.gz"))
    print(json.dumps(out), flush=True)


def cli(command: str, name: str, trace_dir: str) -> int:
    """One CLI call under the tracer, as a user would type it."""
    import tracer as tracing
    tracer = tracing.Tracer()
    with tracer.op(0):
        with tracer.span("cli.import"):
            import fatwedge.cli
        t0 = time.perf_counter()
        tracing.install(tracer)
        tracer.charge_bookkeeping(t0)
        rc = fatwedge.cli.run_command([command, name])
    sys.stdout.flush()
    stem = os.path.join(trace_dir, f"{command}-{name}")
    tracer.write(stem + ".spans.jsonl.gz")
    with open(stem + ".summary.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return rc


def main(argv) -> None:
    mode = argv[0]
    trace_dir = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    if mode == "setup":
        _setup(argv[1], int(argv[2]))
        _ready()
    elif mode == "run":
        run(argv[1], int(argv[2]), trace_dir)
    elif mode == "cli":
        sys.exit(cli(argv[1], argv[2], trace_dir))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
