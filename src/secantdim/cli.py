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
from dataclasses import asdict

from .bounds import Statement
from .certificates import (OUTCOME_DEFICIENT, OUTCOME_TRUE, DomainError,
                           certify_Q, certify_R2n, certify_R_over,
                           certify_R_under, eval_statement_checked, witness_Rmm)
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


# counts (--trials, --jobs, strassen --k) and the degree --d start at 1;
# dimensions and point counts at 0
_count = _int_at_least(1)
_natural = _int_at_least(0)


def _prime(text: str) -> PrimeField:
    """The type of --prime: the field of a modulus PrimeField accepts."""
    try:
        return PrimeField(_natural(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# certificate name -> (required parameters, certificate function)
_CERTS = {"Q": (("m", "n"), certify_Q),
          "Runder": (("m", "n"), certify_R_under),
          "Rover": (("m", "n"), certify_R_over),
          "R2n": (("n",), certify_R2n),
          "witnessRmm": (("m",), witness_Rmm)}


def build_parser() -> _Parser:
    parser = _Parser(prog="secantdim",
                     description="dimension certificates for secant varieties "
                                 "of P^m x P^n in bidegree (1, d)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--prime", type=_prime, default=str(PRIMARY_PRIME))
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
    statement.add_argument("--d", type=_count, default=2)
    statement.add_argument("--s", type=_natural, required=True)
    statement.add_argument("--t", type=_natural, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dim", parents=[statement], help="measure one statement")
    p.set_defaults(handler=cmd_dim)

    p = sub.add_parser("scan", parents=[trials],
                       help="sweep a grid for defective secant varieties")
    p.add_argument("--max-m", type=_natural, required=True)
    p.add_argument("--max-n", type=_natural, required=True)
    p.add_argument("--cache", type=str, default=None)
    p.add_argument("--jobs", type=_count, default=1)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(handler=cmd_scan)

    # --prime and --out go on each certificate, after its name: on `certify`
    # itself a certificate's default would override them
    p = sub.add_parser("certify", help="run one named certificate")
    p.set_defaults(handler=cmd_certify)
    certs = p.add_subparsers(dest="name", required=True)
    for name, (required, cert) in _CERTS.items():
        c = certs.add_parser(name, parents=[common],
                             help=f"{name}({', '.join(required)})")
        for param in required:
            c.add_argument(f"--{param}", type=int, required=True)
        if cert is not witness_Rmm:
            # None unless given, so each certificate keeps its own defaults
            c.add_argument("--seed", type=int, default=None)
            c.add_argument("--trials", type=_count, default=None)

    p = sub.add_parser("prove", parents=[statement],
                       help="search for an inductive proof")
    p.set_defaults(handler=cmd_prove)

    p = sub.add_parser("strassen", parents=[seeded],
                       help="skew-matrix rank/Pfaffian for a (1,2) tensor")
    p.add_argument("--k", type=_count, required=True)
    p.add_argument("--s", type=_natural, default=None)
    p.set_defaults(handler=cmd_strassen)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fh:
            fh.write(text)


def cmd_dim(args) -> int:
    st = Statement(args.m, args.n, args.d, args.s, args.t)
    verdict = eval_statement_checked(st, seed=args.seed, trials=args.trials,
                                     field=args.prime)
    _emit(json.dumps(verdict.as_dict()) + "\n", args.out)
    return EXIT_OK if verdict.outcome == OUTCOME_TRUE else EXIT_DEFICIENT


def cmd_scan(args) -> int:
    records = run_scan(args.max_m, args.max_n, seed=args.seed,
                       field=args.prime, trials=args.trials, jobs=args.jobs,
                       cache_path=args.cache)
    text = records_to_csv(records) if args.format == "csv" \
        else records_to_jsonl(records)
    _emit(text, args.out)
    print(scan_summary(records), file=sys.stderr)
    return EXIT_OK


def cmd_certify(args) -> int:
    name = args.name
    required, cert = _CERTS[name]
    params = {p: getattr(args, p) for p in required}
    given = {p: getattr(args, p) for p in ("seed", "trials")
             if getattr(args, p, None) is not None}
    try:
        result = cert(*params.values(), field=args.prime, **given)
    except DomainError as exc:
        print(f"secantdim certify {name}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if cert is witness_Rmm:
        outcome = OUTCOME_TRUE if result else OUTCOME_DEFICIENT
        payload = {"certificate": name, "m": args.m, "outcome": outcome}
    else:
        outcome = result.outcome
        payload = {"certificate": name, "params": params, **result.as_dict()}
    _emit(json.dumps(payload) + "\n", args.out)
    return EXIT_OK if outcome == OUTCOME_TRUE else EXIT_DEFICIENT


def cmd_prove(args) -> int:
    st = Statement(args.m, args.n, args.d, args.s, args.t)
    prover = Prover(seed=args.seed, trials=args.trials, field=args.prime)
    node = prover.prove(st)
    if node is None:
        _emit(json.dumps({"statement": asdict(st), "outcome": UNKNOWN}) + "\n",
              args.out)
        return EXIT_UNKNOWN
    _emit(proof_to_json(node) + "\n", args.out)
    return EXIT_OK


def cmd_strassen(args) -> int:
    if args.s is None:
        rng = SeededRng(derive_seed(args.seed, "strassen-gen", args.k), args.prime)
        tensor = random_tensor(rng, args.k)
        source = "generic"
    else:
        rng = SeededRng(derive_seed(args.seed, "strassen", args.k, args.s), args.prime)
        tensor = slices_from_points(random_points(rng, args.s, args.k),
                                    args.k, args.prime)
        source = "decomposable-sum"
    mat = strassen_matrix(tensor)
    r = rank(mat)
    pf = pfaffian(mat)
    payload = {"k": args.k, "s": args.s, "source": source, "order": tensor.order,
               "rank": r, "pfaffian": pf}
    if args.s is not None:
        payload["rank_bound"] = 2 * args.s
        payload["rank_le_2s"] = r <= 2 * args.s
    payload["pfaffian_zero"] = pf == 0
    payload["full_rank"] = r == tensor.order
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
    try:
        return args.handler(args)
    except OSError as exc:
        print(f"secantdim: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, ArithmeticError) as exc:
        print(f"secantdim: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
