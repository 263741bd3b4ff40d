"""Grid scan for defective secant varieties in bidegree (1, 2).

For every cell (m, n) of the requested grid and every s from 1 up to one
past the filling bound ceil(N / (m+n+1)), the scan gives the rank of the
generic tangent configuration, compares it with the expected dimension, and
classifies the cell against the conjectured defect list.

Each (m, n) group is settled by abundance monotonicity.  Generic tangent
spaces that are independent at s points stay independent at fewer points,
and tangent spaces that fill the ambient space at s points still fill it at
more.  So a `true` verdict at a subabundant s proves every smaller s, and a
`true` verdict at a superabundant s proves every larger s.

A group is settled in two steps.  First the pair: when N is not divisible by
m+n+1 and the floor cell q = floor(N / (m+n+1)) has at least m+1 points,
eval_pair gives the ranks at q and q+1 from one elimination (the cell q's
first draw, and that draw plus one more point).  Each is the exact rank of
a specialization, so one that reaches its expected dimension proves its
cell, by the same semicontinuity that makes any `true` verdict a proof; a
short one proves nothing and is dropped.  Then the walks: the scan measures
cells with eval_statement_checked (the cell's seed, up to `trials` draws,
and a deficient result cross-checked over a second prime) outward from the
filling point, down from q and up from ceil(N / (m+n+1)), until each walk
reaches a `true` cell.  A cell the pair settled is such a cell, so the walk
stops there without measuring it, and every deficient record still comes
from eval_statement_checked.  Every cell beyond the walks gets
rank = expected by monotonicity, and every measured cell keeps its own
measured rank.  The walks keep ranks only, and each record is built once,
from its cell's rank.  With jobs > 1 the (m, n) groups run in a process
pool, and the run's PrimeField goes to every worker with its group.

A record's `ms` is its equal share of its (m, n) group's time (every
measurement the group made), in whole milliseconds.

Records are emitted in a fixed key order so that JSON-lines and CSV output
carry identical content.  An optional append-only cache keyed by
(statement, seed, prime, trials) gets each record, flushed, as soon as its
(m, n) group is done, so an interrupted scan resumes where it stopped.  A
cache line also carries the `trials` it was measured with, which is not a
record field; a line without it is not reused.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time
from contextlib import ExitStack

from .bounds import (Statement, ambient_dim, classify, conjecture_verdict,
                     expected_dim, q_bound, unbalanced_expected_dim)
from .certificates import eval_pair, eval_statement_checked
from .field import PrimeField

RECORD_FIELDS = ("m", "n", "d", "s", "t", "expected", "rank", "defect",
                 "abundance", "conjecture", "agree", "seed", "prime", "ms")
# a cache line is a record and the trials it was measured with
_CACHE_FIELDS = RECORD_FIELDS + ("trials",)


def s_values(m: int, n: int) -> range:
    top = -(-ambient_dim(m, n, 2) // (m + n + 1)) + 1
    return range(1, top + 1)


def _record(m: int, n: int, s: int, expected: int, rank: int, seed: int,
            prime: int, ms: int) -> dict:
    conj = conjecture_verdict(m, n, s)
    return {
        "m": m, "n": n, "d": 2, "s": s, "t": 0,
        "expected": expected, "rank": rank, "defect": expected - rank,
        "abundance": classify(Statement(m, n, 2, s, 0)).value,
        "conjecture": conj,
        "agree": (rank < expected) == conj.startswith("defective"),
        "seed": seed, "prime": prime, "ms": ms,
    }


def _scan_group(task: tuple) -> list[dict]:
    """Records of the cells (m, n, s), s in s_list, in order.  First the
    pair, where ceil = floor + 1, floor >= m + 1 (fewer u cannot span V)
    and neither cell is cached: each of its ranks that reaches the expected
    dimension is the exact rank of a specialization, hence a proof, and
    settles its cell; a short one is dropped.  Then each walk stops at its
    first `true` cell or at the end of s_values(m, n).  A cell both walks
    reach (N divisible by m+n+1) is measured once, and a cell in cached (the
    group's cached ranks by s) is read there, not measured, and is not
    returned.  Each record is built once, from its cell's rank (expected
    where nothing measured it) and the group's ms share."""
    m, n, s_list, seed, field, trials, cached = task
    start = time.perf_counter()
    ranks = dict(cached)
    s, top = q_bound(m, n), max(s_values(m, n))
    if top - 1 == s + 1 and s >= m + 1 and s not in ranks and s + 1 not in ranks:
        cells = (Statement(m, n, 2, s, 0), Statement(m, n, 2, s + 1, 0))
        for st, r in zip(cells, eval_pair(cells[0], seed=seed, field=field) or ()):
            if r == expected_dim(st):
                ranks[st.s] = r

    def short(s: int) -> bool:
        st = Statement(m, n, 2, s, 0)
        if s not in ranks:
            ranks[s] = eval_statement_checked(st, seed=seed, trials=trials,
                                              field=field).rank
        return ranks[s] < expected_dim(st)

    while short(s) and s > 1:
        s -= 1
    s = top - 1  # ceil(N / (m+n+1))
    while short(s) and s < top:
        s += 1
    share = int((time.perf_counter() - start) * 1000 / len(s_list))
    out = []
    for s in s_list:
        expected = expected_dim(Statement(m, n, 2, s, 0))
        out.append(_record(m, n, s, expected, ranks.get(s, expected), seed,
                           field.p, share))
    return out


def cache_key(rec: dict) -> tuple:
    return tuple(rec[k] for k in
                 ("m", "n", "d", "s", "t", "seed", "prime", "trials"))


def load_cache(path: str) -> dict[tuple, dict]:
    """Cached records by cache_key, each with the fields RECORD_FIELDS.  An
    unparsable last line is the torn tail of an interrupted write and is
    skipped with a note on stderr; a bad line anywhere else, or a line that
    is not a record, raises ValueError.  A record without `trials` (written
    before the cache recorded it) is skipped: its trials are unknown."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [(no, line) for no, line in enumerate(fh.read().splitlines(), 1)
                     if line.strip()]
    except FileNotFoundError:
        return {}
    out: dict[tuple, dict] = {}
    for pos, (no, line) in enumerate(lines):
        try:
            rec = json.loads(line)
        except ValueError as exc:
            if pos + 1 < len(lines):
                raise ValueError(f"{path} line {no}: {exc}") from None
            print(f"secantdim scan: skipping torn last line of {path}",
                  file=sys.stderr)
            break
        if not isinstance(rec, dict) or not rec.keys() >= set(RECORD_FIELDS):
            raise ValueError(f"{path} line {no}: not a scan record")
        if "trials" in rec:
            out[cache_key(rec)] = {k: rec[k] for k in RECORD_FIELDS}
    return out


def run_scan(max_m: int, max_n: int, seed: int = 0,
             field: PrimeField = PrimeField(), trials: int = 3, jobs: int = 1,
             cache_path: str | None = None) -> list[dict]:
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cached = load_cache(cache_path) if cache_path else {}
    records: dict[tuple, dict] = {}
    groups = []
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            todo, known = [], {}
            for s in s_values(m, n):
                rec = cached.get((m, n, 2, s, 0, seed, field.p, trials))
                if rec is None:
                    todo.append(s)
                else:
                    records[(m, n, s)] = rec
                    known[s] = rec["rank"]
            if todo:
                groups.append((m, n, todo, seed, field, trials, known))

    with ExitStack() as stack:
        fresh = map(_scan_group, groups)
        if jobs > 1 and len(groups) > 1:
            from concurrent.futures import ProcessPoolExecutor  # ~20 ms, so only here
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=jobs))
            fresh = pool.map(_scan_group, groups)
        out = None
        if cache_path and groups:
            out = stack.enter_context(open(cache_path, "a+", encoding="ascii"))
            out.seek(0)
            text = out.read()
            keep = text.rfind("\n") + 1
            try:  # a last record missing only its newline is kept
                json.loads(text[keep:])
            except ValueError:
                out.truncate(keep)  # cut a torn last line
            else:
                out.write("\n")
        for group in fresh:  # grid order: written once it and all before it are done
            for rec in group:
                if out is not None:
                    out.write(record_to_json(dict(rec, trials=trials),
                                             _CACHE_FIELDS) + "\n")
                    out.flush()
                records[(rec["m"], rec["n"], rec["s"])] = rec
    return [records[k] for k in sorted(records)]


def record_to_json(rec: dict, fields: tuple = RECORD_FIELDS) -> str:
    ordered = {k: rec[k] for k in fields}
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
        if rec["conjecture"] == "defective:a":
            note += f"; unbalanced corrected dim {unbalanced_expected_dim(m, n, 2, s)}"
        lines.append(note)
    diff = [(r["m"], r["n"], r["s"]) for r in records if not r["agree"]]
    if diff:
        lines.append(f"conjecture diff: {diff}")
    else:
        lines.append("conjecture diff: none")
    return "\n".join(lines)
