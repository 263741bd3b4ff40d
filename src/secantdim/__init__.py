"""Exact-arithmetic dimension computations for secant varieties of
Segre-Veronese embeddings of P^m x P^n in bidegree (1, d)."""

import os

# The kernel's products are too small to gain from BLAS threads, and each
# run_scan worker would start one per core.  Needs numpy not loaded yet.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .bounds import (Abundance, Statement, ambient_dim, expected_dim, q_bound,
                     r_bound, s_over, s_under, unbalanced_range)
from .certificates import (Verdict, certify_Q, certify_R2n, certify_R_over,
                           certify_R_under, eval_statement,
                           eval_statement_checked, witness_Rmm)
from .field import (PRIMARY_PRIME, SECONDARY_PRIME, DenseMatrix, PrimeField,
                    SeededRng, derive_seed, pfaffian, rank)
from .prover import Prover, check_proof, proof_to_dict, proof_to_json
from .scan import run_scan, scan_summary
from .strassen import pfaffian_certificate, strassen_matrix
from .tensorspace import MonomialBasis, Point, PointConstraint, tangent_rows

__version__ = "0.1.0"

__all__ = [
    "Abundance", "Statement", "ambient_dim", "expected_dim", "q_bound",
    "r_bound", "s_over", "s_under", "unbalanced_range",
    "Verdict", "certify_Q", "certify_R2n", "certify_R_over",
    "certify_R_under", "eval_statement", "eval_statement_checked",
    "witness_Rmm",
    "PRIMARY_PRIME", "SECONDARY_PRIME", "DenseMatrix", "PrimeField",
    "SeededRng", "derive_seed", "pfaffian", "rank",
    "Prover", "check_proof", "proof_to_dict", "proof_to_json",
    "run_scan", "scan_summary",
    "pfaffian_certificate", "strassen_matrix",
    "MonomialBasis", "Point", "PointConstraint", "tangent_rows",
]
