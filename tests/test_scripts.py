"""Smoke tests for the command-line scripts under scripts/ and perfbench/."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

from fatwedge.corpus import corpus_names

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_random_screen_runs_and_oracles_agree():
    proc = _run_script("random_screen.py", "--count", "5", "--max-m", "6")
    assert proc.returncode == 0, proc.stderr
    assert "screened 5 complexes" in proc.stdout
    assert "Golod oracle disagreements:       0" in proc.stdout
    assert "subcomplex-sum identity failures: 0" in proc.stdout
    assert "Hochster formula failures (Tor):  0" in proc.stdout


def test_survey_corpus_lists_every_complex():
    proc = _run_script("survey_corpus.py")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert [row.split()[0] for row in rows] == list(corpus_names())


def test_every_traced_name_exists():
    # the benchmark tracer wraps these names by getattr; read them from its
    # source so that a rename fails here rather than in a traced run
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TRACED"])
    assert "tor" in traced and "join" in traced["complexes"]
    for module, names in traced.items():
        mod = importlib.import_module(f"fatwedge.{module}")
        for name in names:
            assert hasattr(mod, name), f"fatwedge.{module}.{name}"
    # a traced call bound in certify is charged to its rule, whose constant
    # the tracer reads from certify
    rule_of_call = next(ast.literal_eval(node.value) for node in tree.body
                        if isinstance(node, ast.Assign)
                        and [t.id for t in node.targets] == ["RULE_OF_CALL"])
    certify = importlib.import_module("fatwedge.certify")
    for name, rule in rule_of_call.items():
        if hasattr(certify, name):
            assert hasattr(certify, rule), f"fatwedge.certify.{rule}"
