"""End-to-end checks of the command-line entry point."""

import json
import os
import re

import pytest

from secantdim import cli
from secantdim.bounds import Statement
from secantdim.certificates import certify_Q
from secantdim.cli import main
from secantdim.prover import ProofNode, check_proof

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_true(capsys):
    code, out, _ = run(capsys, "dim", "--m", "2", "--n", "3", "--s", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"rank": 24, "expected": 24, "defect": 0,
                       "outcome": "true"}


def test_dim_deficient_exit_two(capsys):
    code, out, _ = run(capsys, "dim", "--m", "2", "--n", "3", "--s", "5")
    assert code == 2
    assert json.loads(out)["defect"] == 1


def test_dim_missing_args_usage(capsys):
    code, _, err = run(capsys, "dim", "--m", "2")
    assert code == 64
    assert "required" in err


def test_unknown_subcommand_usage(capsys):
    assert run(capsys, "frobnicate")[0] == 64


def test_certify_known_and_unknown(capsys):
    code, out, _ = run(capsys, "certify", "Q", "--m", "2", "--n", "4")
    assert code == 0
    assert json.loads(out)["outcome"] == "true"

    code, _, err = run(capsys, "certify", "bogus", "--m", "1")
    assert code == 64 and "argument name: invalid choice: 'bogus'" in err

    code, _, err = run(capsys, "certify", "Q", "--m", "2")
    assert code == 64 and "--n" in err


def test_certify_witness(capsys):
    code, out, _ = run(capsys, "certify", "witnessRmm", "--m", "4")
    assert code == 0
    assert json.loads(out) == {"certificate": "witnessRmm", "m": 4,
                               "outcome": "true"}


def test_certify_passes_seed_and_trials_only_when_given(capsys, monkeypatch):
    code, out, _ = run(capsys, "certify", "Q", "--m", "2", "--n", "4",
                       "--seed", "3", "--trials", "2")
    assert code == 0
    want = certify_Q(2, 4, seed=3, trials=2).as_dict()
    assert json.loads(out) == dict(want, certificate="Q",
                                   params={"m": 2, "n": 4})

    calls = []

    def spy(*args, **kwargs):
        calls.append((args, sorted(kwargs)))
        return certify_Q(*args, **kwargs)

    monkeypatch.setitem(cli._CERTS, "Q", (("m", "n"), spy))
    for flags in ((), ("--seed", "3"), ("--trials", "2"),
                  ("--seed", "3", "--trials", "2")):
        assert run(capsys, "certify", "Q", "--m", "2", "--n", "4", *flags)[0] == 0
    assert calls == [((2, 4), ["field"]), ((2, 4), ["field", "seed"]),
                     ((2, 4), ["field", "trials"]),
                     ((2, 4), ["field", "seed", "trials"])]

    code, _, err = run(capsys, "certify", "witnessRmm", "--m", "3", "--seed", "5")
    assert code == 64 and "--seed" in err


@pytest.mark.parametrize("name", list(cli._CERTS))
def test_certify_help_lists_exactly_the_flags_a_certificate_takes(capsys, name):
    code, out, _ = run(capsys, "certify", "--help")
    assert code == 0 and name in out
    code, out, _ = run(capsys, "certify", name, "--help")
    assert code == 0
    required, cert = cli._CERTS[name]
    seeded = cert is not cli.witness_Rmm
    for flag, takes in (("m", "m" in required), ("n", "n" in required),
                        ("seed", seeded), ("trials", seeded)):
        assert (re.search(rf"--{flag}\b", out) is not None) == takes, flag


def test_prove_tree_and_unknown(capsys):
    code, out, _ = run(capsys, "prove", "--m", "2", "--n", "2", "--s", "3")
    assert code == 0
    with open(os.path.join(GOLDEN, "proof_2_2_3.json")) as fh:
        assert json.loads(out) == json.load(fh)

    code, out, _ = run(capsys, "prove", "--m", "2", "--n", "3", "--s", "5")
    assert code == 3
    assert json.loads(out)["outcome"] == "unknown"


def test_prove_degree_one(capsys):
    # the m = 0 leaves of a d = 1 statement are decided by the exact count
    code, out, _ = run(capsys, "prove", "--m", "1", "--n", "2", "--d", "1",
                       "--s", "1")
    assert code == 0

    def to_node(d):
        return ProofNode(Statement(**d["statement"]), d["rule"],
                         tuple(to_node(c) for c in d["children"]))

    check_proof(to_node(json.loads(out)), seed=0)


def test_strassen_decomposable_and_generic(capsys):
    code, out, _ = run(capsys, "strassen", "--k", "2", "--s", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["pfaffian_zero"] and payload["rank_le_2s"]
    assert payload["order"] == 18

    code, out, _ = run(capsys, "strassen", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["full_rank"] and not payload["pfaffian_zero"]

    code, out, _ = run(capsys, "strassen", "--k", "1", "--s", "0")
    assert code == 0 and json.loads(out)["rank"] == 0  # the zero tensor


def test_scan_golden_and_summary(capsys):
    code, out, err = run(capsys, "scan", "--max-m", "3", "--max-n", "3")
    assert code == 0
    with open(os.path.join(GOLDEN, "scan_3_3.jsonl")) as fh:
        golden = [json.loads(line) for line in fh]
    got = [dict(json.loads(line), ms=0) for line in out.splitlines()]
    assert got == golden
    assert "defective (2,3,5)" in err


def test_scan_jobs_matches_serial(capsys):
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(capsys, "scan", "--max-m", "3", "--max-n", "3",
                           "--jobs", jobs)
        assert code == 0
        outs.append([dict(json.loads(line), ms=0) for line in out.splitlines()])
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ("dim", "--m", "1", "--n", "1", "--s", "1", "--format", "csv"),
    ("strassen", "--k", "1", "--trials", "3"),
    ("certify", "strassen", "--k", "1"),
    ("scan", "--max-m", "2", "--max-n", "2", "--trials", "0"),
    ("scan", "--max-m", "2", "--max-n", "3", "--trials", "0"),
    ("scan", "--max-m", "1", "--max-n", "1", "--jobs", "0"),
    ("scan", "--max-m", "1", "--max-n", "1", "--jobs", "-4"),
    ("dim", "--m", "1", "--n", "1", "--s", "1", "--trials", "0"),
    ("prove", "--m", "1", "--n", "1", "--s", "1", "--trials", "0"),
    ("prove", "--m", "2", "--n", "3", "--s", "4", "--trials", "-1"),
    ("certify", "Q", "--m", "1", "--n", "3", "--trials", "0"),
    ("certify", "R2n", "--n", "5", "--m", "7"),
    ("certify", "witnessRmm", "--m", "3", "--n", "9"),
    ("certify", "witnessRmm", "--m", "3", "--seed", "5"),
    ("certify", "witnessRmm", "--m", "3", "--trials", "2"),
    # before the name --prime would be overridden by the certificate's default
    ("certify", "--prime", "2147483659", "Q", "--m", "2", "--n", "4"),
])
def test_flags_a_subcommand_ignores_are_rejected(capsys, argv):
    assert run(capsys, *argv)[0] == 64


@pytest.mark.parametrize("argv, code, message", [
    (("strassen", "--k", "0"), 64, "argument --k: must be at least 1, got 0"),
    (("dim", "--m", "1", "--n", "1", "--s", "1", "--trials", "x"), 64,
     "invalid int value"),
    (("certify", "Q", "--m", "1", "--n", "3", "--prime", "5"), 64,
     "argument --prime: modulus 5 outside supported range"),
    (("strassen", "--k", "1", "--s", "-1"), 64,
     "argument --s: must be at least 0, got -1"),
    (("dim", "--m", "1", "--n", "1", "--s", "-1"), 64,
     "argument --s: must be at least 0, got -1"),
    (("dim", "--m", "-1", "--n", "1", "--s", "1"), 64,
     "argument --m: must be at least 0, got -1"),
    (("dim", "--m", "1", "--n", "-2", "--s", "1"), 64,
     "argument --n: must be at least 0, got -2"),
    (("dim", "--m", "1", "--n", "1", "--s", "1", "--t", "-1"), 64,
     "argument --t: must be at least 0, got -1"),
    (("prove", "--m", "1", "--n", "1", "--s", "-3"), 64,
     "argument --s: must be at least 0, got -3"),
    (("prove", "--m", "-1", "--n", "2", "--s", "1", "--t", "1"), 64,
     "argument --m: must be at least 0, got -1"),
    (("scan", "--max-m", "-1", "--max-n", "2"), 64,
     "argument --max-m: must be at least 0, got -1"),
    (("scan", "--max-m", "2", "--max-n", "-1"), 64,
     "argument --max-n: must be at least 0, got -1"),
    (("dim", "--m", "1", "--n", "1", "--s", "1", "--d", "0"), 64,
     "argument --d: must be at least 1, got 0"),
    (("prove", "--m", "1", "--n", "1", "--s", "1", "--d", "-1"), 64,
     "argument --d: must be at least 1, got -1"),
    # 2147483649 = 3 x 715827883 lies in the supported range
    (("dim", "--m", "1", "--n", "1", "--s", "1", "--prime", "2147483649"), 64,
     "argument --prime: modulus 2147483649 is not prime"),
    (("scan", "--max-m", "1", "--max-n", "1", "--prime", "2147483649"), 64,
     "argument --prime: modulus 2147483649 is not prime"),
    (("strassen", "--k", "1", "--prime", "7"), 64,
     "argument --prime: modulus 7 outside supported range"),
    # parameters outside a certificate's domain get the certificate's message
    (("certify", "Q", "--m", "0", "--n", "3"), 64, "Q certificate needs m >= 1"),
    (("certify", "Q", "--m", "1", "--n", "2"), 64,
     "Q certificate needs n >= 3 (disjoint windows)"),
    (("certify", "Runder", "--m", "3", "--n", "2"), 64,
     "R_under certificate needs 1 <= m <= n"),
    (("certify", "Runder", "--m", "-2", "--n", "3"), 64,
     "R_under certificate needs 1 <= m <= n"),
    (("certify", "Rover", "--m", "1", "--n", "4"), 64,
     "R_over certificate needs m >= 2 and n >= 2"),
    (("certify", "Rover", "--m", "3", "--n", "1"), 64,
     "R_over certificate needs m >= 2 and n >= 2"),
    (("certify", "R2n", "--n", "4"), 64, "R2n certificate needs odd n >= 3"),
    (("certify", "R2n", "--n", "1"), 64, "R2n certificate needs odd n >= 3"),
    (("certify", "witnessRmm", "--m", "1"), 64, "witness needs m >= 2"),
])
def test_bad_values_exit_with_a_message(capsys, argv, code, message):
    got, _, err = run(capsys, *argv)
    assert got == code and message in err


def test_scan_csv_format(capsys):
    code, out, _ = run(capsys, "scan", "--max-m", "1", "--max-n", "1",
                       "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header.startswith("m,n,d,s,t,expected,rank,defect")


def test_out_flag_writes_file(tmp_path, capsys):
    target = str(tmp_path / "result.json")
    code, out, _ = run(capsys, "dim", "--m", "1", "--n", "1", "--s", "1",
                       "--out", target)
    assert code == 0 and out == ""
    with open(target) as fh:
        assert json.load(fh)["rank"] == 3


def test_out_flag_io_error(capsys):
    code, _, err = run(capsys, "dim", "--m", "1", "--n", "1", "--s", "1",
                       "--out", "/nonexistent-dir/x.json")
    assert code == 74 and "i/o error" in err


def test_byte_identical_reruns(tmp_path, capsys):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    for target in (a, b):
        assert main(["scan", "--max-m", "2", "--max-n", "2",
                     "--out", target]) == 0
    capsys.readouterr()
    with open(a) as fa, open(b) as fb:
        ra = [dict(json.loads(x), ms=0) for x in fa]
        rb = [dict(json.loads(x), ms=0) for x in fb]
    assert ra == rb


def test_secondary_prime_flag(capsys):
    code, out, _ = run(capsys, "dim", "--m", "2", "--n", "3", "--s", "5",
                       "--prime", "2147483659")
    assert code == 2
    assert json.loads(out)["rank"] == 29


def test_scan_cache_flag(tmp_path, capsys):
    cache = str(tmp_path / "cache.jsonl")
    assert main(["scan", "--max-m", "2", "--max-n", "2", "--cache", cache]) == 0
    with open(cache) as fh:
        first = sum(1 for _ in fh)
    assert main(["scan", "--max-m", "3", "--max-n", "2", "--cache", cache]) == 0
    capsys.readouterr()
    with open(cache) as fh:
        assert sum(1 for _ in fh) > first


@pytest.mark.parametrize("bad", ['{"m": 1}', "[1, 2]"], ids=["object", "list"])
def test_scan_cache_line_not_a_record(tmp_path, capsys, bad):
    cache = tmp_path / "cache.jsonl"
    cache.write_text(bad + "\n")
    code, _, err = run(capsys, "scan", "--max-m", "1", "--max-n", "1",
                       "--cache", str(cache))
    assert code == 1 and "secantdim: error:" in err and "line 1" in err
    assert "Traceback" not in err
