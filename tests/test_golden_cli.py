"""Golden CLI outputs: the exit code and the sha256 of stdout of every
corpus complex under every command in ``_per_complex``, plus ``corpus``,
``corpus --verify`` and ``corpus NAME --verify``, 249 outputs in all.

The digests in ``golden_cli.json`` pin the output byte for byte, so a
refactor that changes any answer, witness or report fails here.  After a
deliberate output change, regenerate them from the repository root with

    PYTHONPATH=src python tests/test_golden_cli.py > tests/golden_cli.json

and record the change, with the commands whose digests moved, in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from fatwedge.cli import run_command
from fatwedge.corpus import corpus_names

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _per_complex(name: str) -> list[list[str]]:
    return [
        ["certify", name], ["certify", name, "--all-rules"],
        ["golod", name], ["rmac", name],
        ["homology", name, "--coeff", "Z"],
        ["homology", name, "--coeff", "Q"],
        ["homology", name, "--coeff", "Zp:2"],
        ["bbcg", name, "--pair", "1"], ["bbcg", name, "--pair", "2"],
        ["dual", name], ["nonfaces", name], ["gcd", name],
        ["scm", name], ["scm", name, "--dual"],
        ["shell", name], ["shell", name, "--dual"],
        ["fill", name, "--mode", "contractible"],
        ["fill", name, "--mode", "p:2"],
        ["corpus", name, "--verify"],
    ]


def _commands(group: str) -> list[list[str]]:
    if group == "corpus":
        return [["corpus"], ["corpus", "--verify"]]
    return _per_complex(group)


def _digest(argv: list[str]) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()]


def _groups() -> list[str]:
    return ["corpus", *corpus_names()]


@pytest.mark.parametrize("group", _groups())
def test_outputs_match_golden_digests(group):
    golden = json.loads(GOLDEN.read_text("utf-8"))
    got = {" ".join(argv): _digest(argv) for argv in _commands(group)}
    want = {key: golden.get(key) for key in got}
    assert got == want


def test_golden_table_covers_exactly_the_commands():
    golden = json.loads(GOLDEN.read_text("utf-8"))
    keys = {" ".join(argv) for group in _groups() for argv in _commands(group)}
    assert set(golden) == keys and len(keys) == 249


if __name__ == "__main__":
    table = {" ".join(argv): _digest(argv)
             for group in _groups() for argv in _commands(group)}
    sys.stdout.write("{\n" + ",\n".join(
        f" {json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table))
        + "\n}\n")
