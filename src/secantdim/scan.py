"""Grid scan for defective secant varieties in bidegree (1, 2).

For every cell (m, n) of the requested grid and every s from 1 up to one
past the filling bound ceil(N / (m+n+1)), the scan measures the rank of the
generic tangent configuration, compares it with the expected dimension, and
classifies the cell against the conjectured defect list.  Deficient records
are cross-checked over a second prime before being reported.

Records are emitted in a fixed key order so that JSON-lines and CSV output
carry identical content.  An optional append-only cache keyed by
(statement, seed, prime) gets each record, flushed, as soon as its cell is
done, so an interrupted scan resumes where it stopped.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack

from .bounds import Statement, ambient_dim, classify, unbalanced_expected_dim, unbalanced_range
from .certificates import eval_statement_checked
from .field import PRIMARY_PRIME, PrimeField
from .prover import conjecture_verdict

RECORD_FIELDS = ("m", "n", "d", "s", "t", "expected", "rank", "defect",
                 "abundance", "conjecture", "agree", "seed", "prime", "ms")


def s_values(m: int, n: int, d: int = 2) -> range:
    top = -(-ambient_dim(m, n, d) // (m + n + 1)) + 1
    return range(1, top + 1)


def evaluate_cell(m: int, n: int, s: int, seed: int = 0,
                  prime: int = PRIMARY_PRIME, trials: int = 3) -> dict:
    st = Statement(m, n, 2, s, 0)
    field = PrimeField(prime)
    start = time.perf_counter()
    verdict = eval_statement_checked(st, seed=seed, trials=trials, field=field)
    ms = int((time.perf_counter() - start) * 1000)
    conj = conjecture_verdict(m, n, s)
    agree = (verdict.defect > 0) == conj.startswith("defective")
    return {
        "m": m, "n": n, "d": 2, "s": s, "t": 0,
        "expected": verdict.expected, "rank": verdict.rank,
        "defect": verdict.defect, "abundance": classify(st).value,
        "conjecture": conj, "agree": agree,
        "seed": seed, "prime": prime, "ms": ms,
    }


def _cell_task(args: tuple) -> dict:
    return evaluate_cell(*args)


def cache_key(rec: dict) -> str:
    return ",".join(str(rec[k]) for k in ("m", "n", "d", "s", "t", "seed", "prime"))


def load_cache(path: str) -> dict[str, dict]:
    """Cached records by cache_key.  An unparsable last line is the torn tail
    of an interrupted write and is skipped with a note on stderr; a bad line
    anywhere else raises."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [line for line in fh.read().splitlines() if line.strip()]
    except FileNotFoundError:
        return {}
    out: dict[str, dict] = {}
    for pos, line in enumerate(lines):
        try:
            rec = json.loads(line)
        except ValueError:
            if pos + 1 < len(lines):
                raise
            print(f"secantdim scan: skipping torn last line of {path}",
                  file=sys.stderr)
            break
        out[cache_key(rec)] = rec
    return out


def run_scan(max_m: int, max_n: int, seed: int = 0, prime: int = PRIMARY_PRIME,
             trials: int = 3, jobs: int = 1,
             cache_path: str | None = None) -> list[dict]:
    tasks = [(m, n, s, seed, prime, trials)
             for m in range(1, max_m + 1)
             for n in range(1, max_n + 1)
             for s in s_values(m, n)]
    cached = load_cache(cache_path) if cache_path else {}

    todo = []
    records: dict[tuple, dict] = {}
    for task in tasks:
        m, n, s = task[:3]
        key = cache_key({"m": m, "n": n, "d": 2, "s": s, "t": 0,
                         "seed": seed, "prime": prime})
        if key in cached:
            records[(m, n, s)] = cached[key]
        else:
            todo.append(task)

    with ExitStack() as stack:
        fresh = map(_cell_task, todo)
        if jobs > 1 and len(todo) > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            fresh = pool.map(_cell_task, todo)
        out = None
        if cache_path and todo:
            out = stack.enter_context(open(cache_path, "a+", encoding="ascii"))
            out.seek(0)
            out.truncate(out.read().rfind("\n") + 1)  # cut a torn last line
        for rec in fresh:  # grid order: written once it and all before it are done
            if out is not None:
                out.write(record_to_json(rec) + "\n")
                out.flush()
            records[(rec["m"], rec["n"], rec["s"])] = rec
    return [records[k] for k in sorted(records)]


def record_to_json(rec: dict) -> str:
    ordered = {k: rec[k] for k in RECORD_FIELDS}
    return json.dumps(ordered, separators=(", ", ": "))


def records_to_jsonl(records: list[dict]) -> str:
    return "".join(record_to_json(r) + "\n" for r in records)


def records_to_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(RECORD_FIELDS)
    for rec in records:
        writer.writerow(["true" if v is True else "false" if v is False else v
                         for v in (rec[k] for k in RECORD_FIELDS)])
    return buf.getvalue()


def defective_triples(records: list[dict]) -> list[tuple[int, int, int]]:
    return [(r["m"], r["n"], r["s"]) for r in records if r["defect"] > 0]


def scan_summary(records: list[dict]) -> str:
    defective = [r for r in records if r["defect"] > 0]
    lines = [f"scanned {len(records)} statements; {len(defective)} defective"]
    for rec in defective:
        m, n, s = rec["m"], rec["n"], rec["s"]
        note = f"defective ({m},{n},{s}): rank {rec['rank']} < expected " \
               f"{rec['expected']} [{rec['conjecture']}]"
        rng = unbalanced_range(m, n, 2)
        if rng is not None and rng[0] < s < rng[1]:
            note += f"; unbalanced corrected dim {unbalanced_expected_dim(m, n, 2, s)}"
        lines.append(note)
    diff = [(r["m"], r["n"], r["s"]) for r in records if not r["agree"]]
    if diff:
        lines.append(f"conjecture diff: {diff}")
    else:
        lines.append("conjecture diff: none")
    return "\n".join(lines)
