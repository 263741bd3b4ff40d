"""Command-line interface.

Subcommands:

* dim      -- measure one statement S(m, n; 1, d; s; t).
* scan     -- sweep a grid of (m, n, s) cells for defects.
* certify  -- run one named certificate (Q, Runder, Rover, R2n, witnessRmm).
* prove    -- search for an inductive proof tree; prints it as JSON.
* strassen -- build the skew matrix for a (1, 2) tensor on P^2 x P^(2k+1)
              and report its rank and Pfaffian.

Exit codes: 0 success / statement true, 2 deficiency observed, 3 unknown,
64 usage error, 74 I/O error, 1 any other error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import Statement
from .certificates import (OUTCOME_DEFICIENT, OUTCOME_TRUE, certify_Q,
                           certify_R2n, certify_R_over, certify_R_under,
                           eval_statement_checked, witness_Rmm)
from .field import PRIMARY_PRIME, PrimeField, SeededRng, derive_seed, pfaffian, rank
from .prover import UNKNOWN, Prover, proof_to_json
from .scan import records_to_csv, records_to_jsonl, run_scan, scan_summary
from .strassen import random_points, random_tensor, slices_from_points, strassen_matrix

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DEFICIENT = 2
EXIT_UNKNOWN = 3
EXIT_USAGE = 64
EXIT_IO = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(low: int):
    """The type of an integer flag of at least low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


# counts (--trials, --jobs) start at 1; dimensions and point counts at 0
_count = _int_at_least(1)
_natural = _int_at_least(0)


def build_parser() -> _Parser:
    parser = _Parser(prog="secantdim",
                     description="dimension certificates for secant varieties "
                                 "of P^m x P^n in bidegree (1, d)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=int, default=PRIMARY_PRIME)
    common.add_argument("--out", type=str, default=None)
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0)
    # subcommands that measure ranks by seeded trials
    trials = argparse.ArgumentParser(add_help=False, parents=[seeded])
    trials.add_argument("--trials", type=_count, default=3)
    # subcommands that take one statement S(m, n; 1, d; s; t)
    statement = argparse.ArgumentParser(add_help=False, parents=[trials])
    statement.add_argument("--m", type=_natural, required=True)
    statement.add_argument("--n", type=_natural, required=True)
    statement.add_argument("--d", type=int, default=2)
    statement.add_argument("--s", type=_natural, required=True)
    statement.add_argument("--t", type=_natural, default=0)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    sub.add_parser("dim", parents=[statement], help="measure one statement")

    p = sub.add_parser("scan", parents=[trials],
                       help="sweep a grid for defective secant varieties")
    p.add_argument("--max-m", type=_natural, required=True)
    p.add_argument("--max-n", type=_natural, required=True)
    p.add_argument("--cache", type=str, default=None)
    p.add_argument("--jobs", type=_count, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    # None unless given, so each certificate keeps its own defaults
    p = sub.add_parser("certify", parents=[common],
                       help="run one named certificate")
    p.add_argument("name", type=str)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=_count, default=None)

    sub.add_parser("prove", parents=[statement],
                   help="search for an inductive proof")

    p = sub.add_parser("strassen", parents=[seeded],
                       help="skew-matrix rank/Pfaffian for a (1,2) tensor")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=None)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def cmd_dim(args) -> int:
    st = Statement(args.m, args.n, args.d, args.s, args.t)
    field = PrimeField(args.prime)
    verdict = eval_statement_checked(st, seed=args.seed, trials=args.trials,
                                     field=field)
    _emit(json.dumps(verdict.as_dict()) + "\n", args.out)
    return EXIT_OK if verdict.outcome == OUTCOME_TRUE else EXIT_DEFICIENT


def cmd_scan(args) -> int:
    records = run_scan(args.max_m, args.max_n, seed=args.seed,
                       prime=args.prime, trials=args.trials, jobs=args.jobs,
                       cache_path=args.cache)
    text = records_to_csv(records) if args.format == "csv" \
        else records_to_jsonl(records)
    _emit(text, args.out)
    print(scan_summary(records), file=sys.stderr)
    return EXIT_OK


# certificate name -> (required parameters, certificate function)
_CERTS = {"Q": (("m", "n"), certify_Q),
          "Runder": (("m", "n"), certify_R_under),
          "Rover": (("m", "n"), certify_R_over),
          "R2n": (("n",), certify_R2n),
          "witnessRmm": (("m",), witness_Rmm)}


def cmd_certify(args) -> int:
    name = args.name
    if name not in _CERTS:
        print(f"secantdim certify: unknown certificate {name!r}", file=sys.stderr)
        return EXIT_USAGE
    required, cert = _CERTS[name]
    missing = [p for p in required if getattr(args, p) is None]
    if missing:
        flags = ", ".join(f"--{p}" for p in missing)
        print(f"secantdim certify {name}: missing {flags}", file=sys.stderr)
        return EXIT_USAGE
    takes = required if cert is witness_Rmm else required + ("seed", "trials")
    unused = [p for p in ("m", "n", "seed", "trials") if p not in takes
              and getattr(args, p) is not None]
    if unused:
        flags = ", ".join(f"--{p}" for p in unused)
        print(f"secantdim certify {name}: {name} takes no {flags}",
              file=sys.stderr)
        return EXIT_USAGE
    params = {p: getattr(args, p) for p in required}
    field = PrimeField(args.prime)
    if cert is witness_Rmm:
        ok = witness_Rmm(args.m, field)
        outcome = OUTCOME_TRUE if ok else OUTCOME_DEFICIENT
        _emit(json.dumps({"certificate": name, "m": args.m,
                          "outcome": outcome}) + "\n", args.out)
        return EXIT_OK if ok else EXIT_DEFICIENT
    given = {p: getattr(args, p) for p in ("seed", "trials")
             if getattr(args, p) is not None}
    verdict = cert(*params.values(), field=field, **given)
    payload = {"certificate": name, "params": params}
    payload.update(verdict.as_dict())
    _emit(json.dumps(payload) + "\n", args.out)
    return EXIT_OK if verdict.outcome == OUTCOME_TRUE else EXIT_DEFICIENT


def cmd_prove(args) -> int:
    st = Statement(args.m, args.n, args.d, args.s, args.t)
    field = PrimeField(args.prime)
    prover = Prover(seed=args.seed, trials=args.trials, field=field)
    node = prover.prove(st)
    if node is None:
        _emit(json.dumps({"statement": {"m": st.m, "n": st.n, "d": st.d,
                                        "s": st.s, "t": st.t},
                          "outcome": UNKNOWN}) + "\n", args.out)
        return EXIT_UNKNOWN
    _emit(proof_to_json(node) + "\n", args.out)
    return EXIT_OK


def cmd_strassen(args) -> int:
    if args.k < 1:
        print("secantdim strassen: --k must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.s is not None and args.s < 0:
        print("secantdim strassen: --s must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    field = PrimeField(args.prime)
    order = 3 * (2 * args.k + 2)
    if args.s is None:
        tensor = random_tensor(SeededRng(derive_seed(args.seed, "strassen-gen",
                                                     args.k), field), args.k)
        source = "generic"
    else:
        rng = SeededRng(derive_seed(args.seed, "strassen", args.k, args.s), field)
        tensor = slices_from_points(random_points(rng, args.s, args.k),
                                    args.k, field)
        source = "decomposable-sum"
    mat = strassen_matrix(tensor)
    r = rank(mat)
    pf = pfaffian(mat)
    payload = {"k": args.k, "s": args.s, "source": source, "order": order,
               "rank": r, "pfaffian": pf}
    if args.s is not None:
        payload["rank_bound"] = 2 * args.s
        payload["rank_le_2s"] = r <= 2 * args.s
    payload["pfaffian_zero"] = pf == 0
    payload["full_rank"] = r == order
    _emit(json.dumps(payload) + "\n", args.out)
    if args.s is not None and r > 2 * args.s:
        return EXIT_ERROR
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {"dim": cmd_dim, "scan": cmd_scan, "certify": cmd_certify,
                "prove": cmd_prove, "strassen": cmd_strassen}
    try:
        return handlers[args.command](args)
    except OSError as exc:
        print(f"secantdim: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"secantdim: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
