import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fatwedge import certify, corpus, rmac
from fatwedge.cli import ParseError, parse_complex, run_command
from fatwedge.corpus import corpus_names, load


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestParseComplex:
    def test_four_cycle(self):
        doc = parse_complex('{"name":"C4","m":4,'
                            '"generators":[[1,2],[2,3],[3,4],[1,4]]}')
        assert doc.name == "C4" and doc.m == 4
        assert doc.generators == ((1, 2), (1, 4), (2, 3), (3, 4))

    def test_empty_generators(self):
        doc = parse_complex('{"name":"empty","m":3,"generators":[]}')
        K = doc.complex()
        assert K.dim == -1 and K.m == 3

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError, match=r"\$\.generators\[0\]\[0\]: vertex 3 > m=2"):
            parse_complex('{"name":"bad","m":2,"generators":[[3]]}')

    def test_duplicate_generators_deduplicated(self):
        doc = parse_complex('{"name":"x","m":2,"generators":[[1,2],[2,1]]}')
        assert doc.generators == ((1, 2),)

    def test_schema_paths(self):
        with pytest.raises(ParseError, match=r"\$\.m"):
            parse_complex('{"name":"x","m":0,"generators":[]}')
        with pytest.raises(ParseError, match=r"\$\.name"):
            parse_complex('{"m":2,"generators":[]}')
        with pytest.raises(ParseError, match=r"\$: invalid JSON"):
            parse_complex('{')


class TestCommands:
    def test_homology(self, capsys):
        code, out = run(capsys, "homology", "rp2_6", "--coeff", "Z")
        assert code == 0
        assert out["reduced_homology"] == [
            {"degree": 1, "free": 0, "torsion": [2]}]

    def test_homology_mod_p(self, capsys):
        code, out = run(capsys, "homology", "rp2_6", "--coeff", "Zp:2")
        assert code == 0
        assert out["reduced_homology"] == [
            {"degree": 1, "free": 1, "torsion": []},
            {"degree": 2, "free": 1, "torsion": []}]

    def test_certify_exit_codes(self, capsys):
        code, out = run(capsys, "certify", "rp2_6")
        assert code == 0 and out["rule"] == "NEIGHBORLY_DK"
        code, out = run(capsys, "certify", "c4")
        assert code == 1 and out["verdict"] == "nontrivial"

    def test_golod_negative_exit(self, capsys):
        code, out = run(capsys, "golod", "c4")
        assert code == 1 and out["golod_over_Z"] is False
        assert "I=(1, 3)" in out["witness"]

    def test_rmac(self, capsys):
        code, out = run(capsys, "rmac", "c4")
        assert code == 0
        assert out["face_counts"] == {"0": 16, "1": 32, "2": 16}
        assert out["hochster_identity"] is True

    def test_rmac_builds_the_cubical_complex_once(self, capsys, monkeypatch):
        builds, real = [], rmac.build_rmac

        def spy(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(rmac, "build_rmac", spy)
        # also any binding the command module holds of its own
        monkeypatch.setattr("fatwedge.cli.build_rmac", spy, raising=False)
        code, out = run(capsys, "rmac", "c4")
        assert code == 0 and out["total_faces"] == 64
        assert len(builds) == 1

    def test_rmac_max_m_must_be_positive(self, capsys):
        assert run_command(["rmac", "c4", "--max-m", "-1"]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_rmac_guard_names_the_option(self, capsys):
        code, out = run(capsys, "rmac", "c4", "--max-m", "3")
        assert code == 2
        assert "--max-m" in out["error"] and "allow_large" in out["error"]

    def test_dual_and_nonfaces(self, capsys):
        code, out = run(capsys, "dual", "c4")
        assert code == 0 and out["facets"] == [[1, 3], [2, 4]]
        code, out = run(capsys, "nonfaces", "c4")
        assert out["minimal_nonfaces"] == [[1, 3], [2, 4]]

    def test_bbcg_pair(self, capsys):
        code, out = run(capsys, "bbcg", "boundary_d2", "--pair", "1")
        assert code == 0
        assert out["summands"] == [{"I": [1, 2], "homology":
                                    [{"degree": 1, "free": 1, "torsion": []}]}]
        assert out["spheres"] == [1]
        code, out = run(capsys, "bbcg", "c4", "--pair", "2")
        assert out["wedge"] == "S^3 v S^3 v S^6"

    def test_bbcg_pair_below_one_is_a_usage_error(self, capsys):
        # the pair (D^0, S^-1) does not exist; it used to be read as pair 1
        for pair in ("0", "-1"):
            assert run_command(["bbcg", "c4", "--pair", pair]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "must be >= 1" in captured.err

    def test_ambient_below_one_is_a_usage_error(self, capsys):
        # --ambient 0 used to answer for the default ambient m
        for ambient in ("0", "-1"):
            assert run_command(["dual", "c4", "--ambient", ambient]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "must be >= 1" in captured.err
        code, out = run(capsys, "dual", "c4", "--ambient", "5")
        assert code == 0 and out["ambient"] == 5

    def test_negative_budget_is_a_usage_error(self, capsys):
        for cmd in ("fill", "shell"):
            assert run_command([cmd, "c4", "--budget-nodes", "-3"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "must be >= 0" in captured.err
        code, out = run(capsys, "shell", "c4", "--budget-nodes", "0")
        assert code == 3 and out["status"] == "exhausted"

    def test_certify_takes_no_budget(self, capsys):
        # no certifier rule searches, so there is no budget to set
        assert run_command(["certify", "c4", "--budget-nodes", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--budget-nodes" in captured.err

    def test_bbcg_betti(self, capsys):
        code, out = run(capsys, "bbcg", "boundary_d2", "--betti", "t+t^3")
        assert code == 0
        assert out["betti"] == ["t + t^3", "t + t^3"]

    def test_bbcg_pair_and_betti_exclude_each_other(self, capsys):
        # --pair used to be dropped silently next to --betti
        assert run_command(["bbcg", "c4", "--betti", "t^2", "--pair", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with" in captured.err

    def test_bbcg_bad_betti_is_a_usage_error(self, capsys):
        code, out = run(capsys, "bbcg", "c4", "--betti", "2*")
        assert code == 2 and "'2*'" in out["error"]
        # an empty --betti used to fall back to --pair 1
        code, out = run(capsys, "bbcg", "c4", "--betti", "")
        assert code == 2 and "empty Betti polynomial" in out["error"]

    def test_fill_modes(self, capsys):
        code, out = run(capsys, "fill", "c4", "--mode", "p:2")
        assert code == 1 and out["status"] == "refuted"
        code, out = run(capsys, "fill", "boundary_d3")
        assert code == 0 and out["filling"] == [[1, 2, 3]]

    def test_fill_exhausted_reports_budget_plus_one(self, capsys):
        # the empty filling takes the one node; the collapse search of the
        # path then overruns, and neither its dual search nor the next
        # filling is charged
        code, out = run(capsys, "fill", "path4", "--budget-nodes", "1")
        assert code == 3 and out["status"] == "exhausted" and out["nodes"] == 2

    def test_shell(self, capsys):
        code, out = run(capsys, "shell", "two_disjoint_edges")
        assert code == 1 and out["status"] == "none"
        code, out = run(capsys, "shell", "c4")
        assert code == 0 and len(out["shelling"]) == 4
        code, out = run(capsys, "shell", "path4", "--dual")
        assert code == 0

    def test_scm(self, capsys):
        code, out = run(capsys, "scm", "c4", "--coeff", "Q")
        assert code == 0 and out["scm"] and out["cm"]
        code, out = run(capsys, "scm", "berglund_10", "--dual")
        assert code == 1 and out["scm"] is False

    def test_gcd(self, capsys):
        code, out = run(capsys, "gcd", "berglund_10")
        assert code == 0 and len(out["order"]) == 6
        code, out = run(capsys, "gcd", "c4")
        assert code == 1

    def test_parse_error_exit_2(self, capsys):
        code, out = run(capsys, "homology", "/nonexistent/file.json")
        assert code == 2 and "error" in out

    def test_unreadable_path_exit_2(self, capsys, tmp_path):
        # a directory is a bad path, not a crash (it used to exit 4)
        code, out = run(capsys, "homology", str(tmp_path))
        assert code == 2 and out == {"error": f"cannot read {tmp_path}"}

    def test_shell_long_path(self, capsys, tmp_path):
        # 1,200 steps deep: more than the default recursion limit
        doc = {"name": "path_1200", "m": 1201,
               "generators": [[v, v + 1] for v in range(1, 1201)]}
        path = tmp_path / "path_1200.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "shell", str(path))
        assert code == 0 and out["status"] == "found"
        assert len(out["shelling"]) == 1200

    def test_budget_exhausted_exit_3(self, capsys):
        code, out = run(capsys, "shell", "rp2_6", "--dual",
                        "--budget-nodes", "5")
        assert code == 3 and out["status"] == "exhausted"

    def test_crash_exit_4(self, capsys, monkeypatch):
        def crash(*args, **kwargs):
            raise AssertionError("soundness check failed")
        monkeypatch.setattr("fatwedge.cli.certify_fwf_trivial", crash)
        code, out = run(capsys, "certify", "c4")
        assert code == 4
        assert out == {"error": "AssertionError: soundness check failed"}

    def test_corpus_listing(self, capsys):
        code, out = run(capsys, "corpus")
        assert code == 0
        names = [c["name"] for c in out["complexes"]]
        assert "rp2_6" in names and "berglund_10" in names

    def test_corpus_single_verify(self, capsys):
        code, out = run(capsys, "corpus", "c4", "--verify")
        assert code == 0 and out["all_ok"]

    def test_corpus_verify_builds_the_cubical_complex_once(self, capsys,
                                                           monkeypatch):
        builds, real = [], rmac.build_rmac

        def spy(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(rmac, "build_rmac", spy)
        monkeypatch.setattr("fatwedge.corpus.build_rmac", spy, raising=False)
        code, out = run(capsys, "corpus", "c4", "--verify")
        got = {c["key"]: c["got"] for c in out["checks"]}
        assert code == 0 and out["all_ok"]
        assert got["hochster_identity"] is True
        assert got["rmac_counts"] == load("c4").expected["rmac_counts"]
        assert len(builds) == 1

    def test_corpus_verify_certifies_once(self, capsys, monkeypatch):
        # the verdict and rule checks read one certificate
        calls, real = [], certify.certify_fwf_trivial

        def spy(K):
            calls.append(K)
            return real(K)

        monkeypatch.setattr(certify, "certify_fwf_trivial", spy)
        code, out = run(capsys, "corpus", "c4", "--verify")
        keys = {c["key"] for c in out["checks"]}
        assert code == 0 and {"certify_rule", "certify_verdict"} <= keys
        assert len(calls) == 1

    def test_corpus_verify_builds_one_golod_report(self, capsys, monkeypatch):
        # the golod check reads the certificate's report
        calls, real = [], certify.golod_report

        def spy(K):
            calls.append(K)
            return real(K)

        monkeypatch.setattr(certify, "golod_report", spy)
        code, out = run(capsys, "corpus", "c4", "--verify")
        got = {c["key"]: c["got"] for c in out["checks"]}
        assert code == 0 and out["all_ok"] and got["golod"] is False
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["../corpus/c4", "nosuch"])
    def test_corpus_rejects_a_name_outside_the_corpus(self, capsys, name):
        code, out = run(capsys, "corpus", name)
        assert code == 2
        assert out == {"error": f"no corpus complex named {name!r}"}
        with pytest.raises(ValueError, match="no corpus complex named"):
            load(name)


class TestModuleEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run([sys.executable, "-m", "fatwedge.cli", "corpus"],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["command"] == "corpus" and out["complexes"]


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        code1 = run_command(["certify", "rp2_6"])
        out1 = capsys.readouterr().out
        code2 = run_command(["certify", "rp2_6"])
        out2 = capsys.readouterr().out
        assert code1 == code2 and out1 == out2

    def test_round_trip_canonical(self):
        text = '{"name":"x","m":3,"generators":[[2,1],[3],[1,2]]}'
        doc = parse_complex(text)
        canon = json.dumps(doc.to_json(), sort_keys=True)
        doc2 = parse_complex(canon)
        assert doc2 == doc
        assert json.dumps(doc2.to_json(), sort_keys=True) == canon


class TestCorpusData:
    def test_all_members_parse(self):
        for name in corpus_names():
            doc = load(name)
            K = doc.complex()
            assert K.m == doc.m

    def test_expected_blocks_present(self):
        for name in corpus_names():
            assert load(name).expected, f"{name} lacks an expected block"

    def test_every_member_verifies(self):
        for name in corpus_names():
            results = corpus.verify_expected(load(name))
            assert [key for key, ok, _ in results if not ok] == [], name
