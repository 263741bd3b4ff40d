"""Grid sweep, record serialization, caching."""

import csv
import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

from secantdim import certificates, scan
from secantdim.bounds import Statement
from secantdim.certificates import eval_statement_checked
from secantdim.field import PrimeField
from secantdim.scan import (RECORD_FIELDS, defective_triples, load_cache,
                            records_to_csv, records_to_jsonl, run_scan,
                            s_values, scan_summary)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_s_values_covers_past_filling():
    vals = list(s_values(2, 3))
    assert vals[0] == 1
    assert max(vals) * (2 + 3 + 1) > 3 * 10  # reaches beyond the fill point


def test_evaluate_cell_known():
    rec, = [r for r in run_scan(2, 3) if (r["m"], r["n"], r["s"]) == (2, 3, 5)]
    assert rec["expected"] == 30 and rec["rank"] == 29 and rec["defect"] == 1
    assert rec["conjecture"] == "defective:b" and rec["agree"] is True
    assert rec["abundance"] == "equi"
    assert set(rec) == set(RECORD_FIELDS)


def test_scan_matches_golden():
    records = run_scan(3, 3, seed=0, trials=3)
    with open(os.path.join(GOLDEN, "scan_3_3.jsonl")) as fh:
        golden = [json.loads(line) for line in fh]
    assert [dict(r, ms=0) for r in records] == golden


@pytest.mark.parametrize("seed", [0, 1])
def test_scan_ranks_match_evaluate_cell(seed):
    # a cell settled by monotonicity has the rank its own measurement gives
    for rec in run_scan(4, 4, seed=seed):
        m, n, s = rec["m"], rec["n"], rec["s"]
        st = Statement(m, n, 2, s, 0)
        assert rec["rank"] == eval_statement_checked(st, seed=seed).rank, st


def test_cells_measured_outward_from_filling(monkeypatch):
    calls, pairs = [], []
    measure, pair = scan.eval_statement_checked, scan.eval_pair

    def counting(st, **kwargs):
        calls.append((st.m, st.n, st.s))
        return measure(st, **kwargs)

    def counting_pairs(st, **kwargs):
        pairs.append((st.m, st.n, st.s))
        return pair(st, **kwargs)

    monkeypatch.setattr(scan, "eval_statement_checked", counting)
    monkeypatch.setattr(scan, "eval_pair", counting_pairs)
    records = run_scan(3, 3, seed=0, trials=3)
    # the pair runs where ceil = floor + 1 and floor >= m + 1, and settles
    # (2, 2, 3), (2, 2, 4), (3, 3, 5) and (3, 3, 6): both of its ranks are full
    assert pairs == [(2, 2, 3), (3, 3, 5)]
    # down from floor(N / (m+n+1)), then up from ceil, each to a true cell;
    # (2, 3, 5) is short, so both walks step past it, and it is measured once
    assert calls == [(1, 1, 2), (1, 2, 3), (1, 3, 4), (2, 1, 2), (2, 1, 3),
                     (2, 3, 5), (2, 3, 4), (2, 3, 6),
                     (3, 1, 2), (3, 1, 3), (3, 2, 4)]
    with open(os.path.join(GOLDEN, "scan_3_3.jsonl")) as fh:
        golden = [json.loads(line) for line in fh]
    assert [dict(r, ms=0) for r in records] == golden


# every cell the walks of run_scan(3, 3, seed=0) measure without the pair
_WALKS_ALONE = [(1, 1, 2), (1, 2, 3), (1, 3, 4), (2, 1, 2), (2, 1, 3),
                (2, 2, 3), (2, 2, 4), (2, 3, 5), (2, 3, 4), (2, 3, 6),
                (3, 1, 2), (3, 1, 3), (3, 2, 4), (3, 3, 5), (3, 3, 6)]


@pytest.mark.parametrize("short, settled", [
    (lambda pair: None, ()),
    (lambda pair: (pair[0] - 1, pair[1] - 1), ()),
    # a full floor rank is kept, and the ceil cell goes to the walk
    (lambda pair: (pair[0], pair[1] - 1), ((2, 2, 3), (3, 3, 5))),
])
def test_short_pair_leaves_its_cells_to_the_walks(monkeypatch, short, settled):
    calls = []
    measure, pair = scan.eval_statement_checked, scan.eval_pair

    def counting(st, **kwargs):
        calls.append((st.m, st.n, st.s))
        return measure(st, **kwargs)

    monkeypatch.setattr(scan, "eval_statement_checked", counting)
    monkeypatch.setattr(scan, "eval_pair",
                        lambda st, **kwargs: short(pair(st, **kwargs)))
    records = run_scan(3, 3, seed=0, trials=3)
    assert calls == [cell for cell in _WALKS_ALONE if cell not in settled]
    with open(os.path.join(GOLDEN, "scan_3_3.jsonl")) as fh:
        golden = [json.loads(line) for line in fh]
    assert _without_ms(records) == golden


def test_resume_between_floor_and_ceil_measures_the_ceil(tmp_path, monkeypatch):
    # the cache holds (2, 2) up to its floor cell 3: the pair is skipped,
    # the floor is read from the cache and the ceil cell 4 is measured
    cache = tmp_path / "cells.jsonl"
    whole = run_scan(3, 3, seed=0, cache_path=str(cache))
    kept = []
    for line in cache.read_text().splitlines(keepends=True):
        rec = json.loads(line)
        if (rec["m"], rec["n"]) != (2, 2) or rec["s"] <= 3:
            kept.append(line)
    assert len(kept) == len(whole) - 2
    cache.write_text("".join(kept))
    calls, pairs = [], []
    measure = scan.eval_statement_checked
    monkeypatch.setattr(scan, "eval_pair",
                        lambda st, **kwargs: pairs.append(st) or (0, 0))

    def counting(st, **kwargs):
        calls.append((st.m, st.n, st.s))
        return measure(st, **kwargs)

    monkeypatch.setattr(scan, "eval_statement_checked", counting)
    resumed = run_scan(3, 3, seed=0, cache_path=str(cache))
    assert pairs == [] and calls == [(2, 2, 4)]
    assert _without_ms(resumed) == _without_ms(whole)


@pytest.mark.parametrize("jobs, drop, want", [
    (1, (), [(3, 3, 6)]),
    (2, (), [(3, 3, 6)]),
    # with a second group left the resume runs in the process pool
    (2, ((1, 1),), [(1, 1, 2), (3, 3, 6)]),
])
def test_resume_reads_cached_cells_of_a_cut_group(tmp_path, monkeypatch, jobs,
                                                  drop, want):
    if drop and multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers see the counting wrapper only when forked")
    cache = tmp_path / "cells.jsonl"
    whole = run_scan(3, 3, seed=0, cache_path=str(cache))
    kept = []
    for line in cache.read_text().splitlines(keepends=True):
        rec = json.loads(line)
        group = (rec["m"], rec["n"])
        if group not in drop and (group != (3, 3) or rec["s"] <= 5):
            kept.append(line)
    cache.write_text("".join(kept))
    # the walk of (3, 3) passes the cached (3, 3, 5) and must not measure it
    # again; calls go to a file, which pool workers append to as well
    log = tmp_path / "calls"
    measure = scan.eval_statement_checked

    def counting(st, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{st.m} {st.n} {st.s}\n")
        return measure(st, **kwargs)

    monkeypatch.setattr(scan, "eval_statement_checked", counting)
    resumed = run_scan(3, 3, seed=0, jobs=jobs, cache_path=str(cache))
    calls = sorted(tuple(map(int, line.split()))
                   for line in log.read_text().splitlines())
    assert calls == want
    assert _without_ms(resumed) == _without_ms(whole)


def test_profile_rank_above_expected_raises(monkeypatch):
    # the scan has no rank path of its own: a rank above the expected
    # dimension raises from the same semicontinuity guard as eval_statement
    monkeypatch.setattr(certificates, "rank", lambda mat: 10**6)
    with pytest.raises(ArithmeticError):
        run_scan(2, 2, seed=0, trials=1)


@pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": -1},
                                    {"jobs": 0}, {"jobs": -4}])
def test_run_scan_rejects_counts_below_one(tmp_path, monkeypatch, kwargs):
    # rejected up front: no cell is measured and no cache file is written
    monkeypatch.setattr(scan, "_scan_group", None)
    cache = tmp_path / "cells.jsonl"
    for grid in ((1, 1), (2, 2), (2, 3)):
        with pytest.raises(ValueError, match="at least 1"):
            run_scan(*grid, seed=0, cache_path=str(cache), **kwargs)
    assert not cache.exists()


def test_serialization_roundtrip():
    records = run_scan(2, 2, seed=0, trials=2)
    lines = records_to_jsonl(records).splitlines()
    assert [json.loads(x) for x in lines] == records

    reader = csv.DictReader(io.StringIO(records_to_csv(records)))
    parsed = list(reader)
    assert len(parsed) == len(records)
    for raw, rec in zip(parsed, records):
        assert int(raw["rank"]) == rec["rank"]
        assert raw["agree"] == ("true" if rec["agree"] else "false")
        assert raw["abundance"] == rec["abundance"]


def test_cache_resume(tmp_path):
    cache = str(tmp_path / "cells.jsonl")
    first = run_scan(2, 2, seed=0, trials=2, cache_path=cache)
    assert len(load_cache(cache)) == len(first)
    # widening the grid reuses the cached cells and appends the rest
    second = run_scan(3, 3, seed=0, trials=2, cache_path=cache)
    assert len(load_cache(cache)) == len(second) == 43
    as_key = lambda r: (r["m"], r["n"], r["s"])
    assert {as_key(r) for r in first} <= {as_key(r) for r in second}
    # cached rows carry the measured values through unchanged
    by_key = {as_key(r): r for r in second}
    for rec in first:
        cached = by_key[as_key(rec)]
        assert cached["rank"] == rec["rank"] and cached["seed"] == rec["seed"]


def test_cache_is_keyed_by_trials(tmp_path, monkeypatch):
    cache = tmp_path / "cells.jsonl"
    first = run_scan(2, 2, seed=0, trials=1, cache_path=str(cache))
    lines = cache.read_text().splitlines()
    assert [json.loads(x)["trials"] for x in lines] == [1] * len(first)
    # cached records carry the record fields only
    assert all(tuple(rec) == RECORD_FIELDS
               for rec in load_cache(str(cache)).values())
    calls = []
    measure = scan.eval_statement_checked

    def counting(st, **kwargs):
        calls.append((st.m, st.n, st.s))
        return measure(st, **kwargs)

    monkeypatch.setattr(scan, "eval_statement_checked", counting)
    # a scan with other trials measures its cells again and appends them
    resumed = run_scan(2, 2, seed=0, trials=3, cache_path=str(cache))
    assert calls and len(cache.read_text().splitlines()) == 2 * len(lines)
    assert _without_ms(resumed) == _without_ms(first)
    calls.clear()
    assert _without_ms(run_scan(2, 2, seed=0, trials=3,
                                cache_path=str(cache))) == _without_ms(first)
    assert calls == []
    # a line written before the cache recorded trials is not reused
    old = [json.dumps({k: v for k, v in json.loads(x).items() if k != "trials"})
           for x in lines]
    cache.write_text("".join(x + "\n" for x in old))
    assert load_cache(str(cache)) == {}
    run_scan(2, 2, seed=0, trials=1, cache_path=str(cache))
    assert len(calls) > 0 and len(load_cache(str(cache))) == len(first)


def _without_ms(records):
    return [dict(r, ms=0) for r in records]


# md5 of run_scan(8, 8, seed=seed)'s JSONL records with ms zeroed.  A seed is
# meant to reproduce a run, and the 8x8 grid measures cells, settles them by
# the filling pair and by monotonicity.
SCAN_8_8_MD5 = {1: "741dc2cde4cf9110e048bcb35a88df2e",
                11: "d2dfe36636c8d543be38293209f02b05"}


@pytest.mark.parametrize("seed", sorted(SCAN_8_8_MD5))
def test_scan_records_are_pinned(seed):
    text = records_to_jsonl(_without_ms(run_scan(8, 8, seed=seed)))
    assert hashlib.md5(text.encode()).hexdigest() == SCAN_8_8_MD5[seed]


def test_scan_at_another_prime_through_pool_and_cache(tmp_path):
    # the field is pickled into the pool's workers and keys the cache
    field = PrimeField(2147483659)
    cache = tmp_path / "cells.jsonl"
    serial = run_scan(3, 3, seed=0, field=field, jobs=1)
    pooled = run_scan(3, 3, seed=0, field=field, jobs=2, cache_path=str(cache))
    assert _without_ms(pooled) == _without_ms(serial)
    assert {rec["prime"] for rec in serial + pooled} == {2147483659}
    lines = cache.read_text().splitlines()
    assert len(lines) == len(serial) == 43
    # the default prime measures its cells again and appends them
    default = run_scan(3, 3, seed=0, cache_path=str(cache))
    assert {rec["prime"] for rec in default} == {PrimeField().p}
    primes = [json.loads(x)["prime"] for x in cache.read_text().splitlines()]
    assert primes == [2147483659] * 43 + [PrimeField().p] * 43


def test_cache_resume_after_torn_last_line(tmp_path, capsys):
    cache = tmp_path / "cells.jsonl"
    whole = run_scan(2, 2, seed=0, trials=2, cache_path=str(cache))
    lines = cache.read_text().splitlines(keepends=True)
    # an interrupted scan: six records written, the seventh cut mid-record
    cache.write_text("".join(lines[:6]) + lines[6][:len(lines[6]) // 2])
    # resume through the process pool, which writes records in grid order too
    resumed = run_scan(2, 2, seed=0, trials=2, jobs=2, cache_path=str(cache))
    assert "torn last line" in capsys.readouterr().err
    assert _without_ms(resumed) == _without_ms(whole)
    # the torn tail was cut, so every line parses and no cell is duplicated
    assert len(cache.read_text().splitlines()) == len(whole)
    assert _without_ms(load_cache(str(cache)).values()) == _without_ms(whole)
    assert capsys.readouterr().err == ""


def test_cache_keeps_a_last_record_missing_only_its_newline(tmp_path):
    cache = tmp_path / "cells.jsonl"
    run_scan(2, 2, seed=1, cache_path=str(cache))
    text = cache.read_text()
    assert len(text.splitlines()) == 16
    cache.write_text(text[:-1])  # interrupted between a record and its newline
    wider = run_scan(2, 3, seed=1, cache_path=str(cache))
    assert len(wider) == 27
    lines = cache.read_text().splitlines()
    assert len(lines) == 27 and lines[15] == text.splitlines()[15]
    cached = sorted(load_cache(str(cache)).values(),
                    key=lambda r: (r["m"], r["n"], r["s"]))
    assert _without_ms(cached) == _without_ms(wider)


def test_cache_bad_inner_line_raises(tmp_path):
    cache = tmp_path / "cells.jsonl"
    run_scan(1, 2, seed=0, trials=2, cache_path=str(cache))
    lines = cache.read_text().splitlines(keepends=True)
    for bad in (lines[0][:10], '{"m": 1}', "[1, 2]"):
        cache.write_text(bad + "\n" + "".join(lines[1:]))
        with pytest.raises(ValueError, match=re.escape(f"{cache} line 1")):
            load_cache(str(cache))
    # a line that parses but is not a record is no torn tail, even when last
    for bad in ('{"m": 1}', "[1, 2]"):
        cache.write_text("".join(lines[1:]) + bad + "\n")
        with pytest.raises(ValueError, match=f"line {len(lines)}: not a scan record"):
            load_cache(str(cache))


def test_defective_triples_and_summary():
    records = run_scan(3, 3, seed=0, trials=3)
    assert defective_triples(records) == [(2, 3, 5)]
    text = scan_summary(records)
    assert "43 statements" in text
    assert "(2,3,5)" in text and "defective:b" in text
    assert "conjecture diff: none" in text


def test_summary_notes_corrected_dim_and_conjecture_diff():
    records = run_scan(5, 2, seed=0, trials=3)
    text = scan_summary(records)
    assert ("defective (5,2,5): rank 35 < expected 36 [defective:a]; "
            "unbalanced corrected dim 35") in text.splitlines()
    assert text.endswith("conjecture diff: none")

    records[0] = dict(records[0], agree=False)
    first = (records[0]["m"], records[0]["n"], records[0]["s"])
    assert scan_summary(records).endswith(f"conjecture diff: {[first]}")


@pytest.mark.parametrize("preset, want", [(None, "1"), ("2", "2")])
def test_import_caps_blas_threads_unless_set(preset, want):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = "import os, secantdim; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == want
