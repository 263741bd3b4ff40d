"""Inductive proof search, proof checking, conjecture comparison."""

import dataclasses
import hashlib
import json
import os
import random
import re

import pytest

from secantdim import prover as prover_module
from secantdim.bounds import Statement, is_subabundant, is_superabundant
from secantdim.certificates import OUTCOME_DEFICIENT, Verdict, eval_statement
from secantdim.prover import (ProofCheckError, ProofNode, Prover, StatementStore,
                              check_proof, proof_to_dict, proof_to_json)
from secantdim.scan import run_scan, s_values

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _load(name):
    with open(os.path.join(GOLDEN, name)) as fh:
        return json.load(fh)


def test_golden_tree_2_2_3():
    node = Prover(seed=0, trials=3).prove(Statement(2, 2, 2, 3, 0))
    assert proof_to_dict(node) == _load("proof_2_2_3.json")


def test_golden_family_trees():
    for k in (1, 2, 3):
        st = Statement(2 * k + 1, 2 * k, 2, k + 1, 0)
        node = Prover(seed=0, trials=3).prove(st)
        assert proof_to_dict(node) == _load(f"proof_family_k{k}.json"), k


def test_family_tree_leaf_shape():
    # the balanced split of T(2k+1, 2k; k+1) bottoms out in k+1 copies each of
    # two interpolation statements on the second factor alone
    for k in (1, 2, 3):
        node = Prover(seed=0).prove(Statement(2 * k + 1, 2 * k, 2, k + 1, 0))
        leaves = sorted(leaf.statement.key for leaf in node.leaves())
        assert leaves == sorted([(0, 2 * k, 2, 1, k)] * (k + 1)
                                + [(0, 2 * k, 2, 0, k + 1)] * (k + 1))


def test_prove_defective_returns_none():
    prover = Prover(seed=0)
    assert prover.prove(Statement(2, 3, 2, 5, 0)) is None
    assert prover.prove(Statement(4, 3, 2, 6, 0)) is None


def test_prove_trivial_and_base():
    node = Prover(seed=0).prove(Statement(3, 4, 2, 0, 0))
    assert node.rule == "clamp_trivial"
    node = Prover(seed=0).prove(Statement(0, 3, 2, 1, 0))
    assert node.rule == "base_AH" and not node.children


def test_m0_superabundant_exception_is_base_ah(monkeypatch):
    # the cubic fourfold exception spans a hyperplane; one V-slice fills it,
    # and the exact m = 0 count says so without a rank certificate
    def no_rank(*args, **kwargs):
        raise AssertionError("m = 0 reached a rank certificate")

    monkeypatch.setattr(prover_module, "eval_statement", no_rank)
    prover = Prover(seed=0)
    node = prover.prove(Statement(0, 4, 3, 7, 1))
    assert node.rule == "base_AH" and not node.children
    check_proof(node, seed=0)
    assert prover.prove(Statement(0, 4, 3, 7, 0)) is None
    assert prover.store.deficient(Statement(0, 4, 3, 7, 0))


def test_check_proof_accepts_golden():
    for name in ("proof_2_2_3.json", "proof_family_k1.json",
                 "proof_family_k2.json", "proof_family_k3.json"):
        check_proof(_dict_to_node(_load(name)), seed=0, trials=3)


def _dict_to_node(d):
    st = Statement(**d["statement"])
    children = tuple(_dict_to_node(c) for c in d["children"])
    return ProofNode(st, d["rule"], children)


def test_check_proof_rejects_tampering():
    good = _dict_to_node(_load("proof_2_2_3.json"))

    wrong_rule = ProofNode(good.statement, "split(0,1,2,1)", good.children)
    with pytest.raises(ProofCheckError):
        check_proof(wrong_rule)

    wrong_statement = ProofNode(Statement(2, 2, 2, 4, 0), good.rule, good.children)
    with pytest.raises(ProofCheckError):
        check_proof(wrong_statement)

    bogus_leaf = ProofNode(Statement(2, 3, 2, 5, 0), "rank_certificate", ())
    with pytest.raises(ProofCheckError):
        check_proof(bogus_leaf)

    bogus_base = ProofNode(Statement(0, 3, 2, 2, 0), "base_AH", ())
    with pytest.raises(ProofCheckError):
        check_proof(bogus_base)


def _n(key, rule, *children):
    return ProofNode(Statement(*key), rule, children)


# One valid node per rule.  Each case below breaks one of them in one way.
_CLAMP = _n((1, 2, 2, 0, 0), "clamp_trivial")
_AH = _n((0, 3, 2, 1, 0), "base_AH")
_RANK = _n((1, 2, 2, 2, 0), "base_rank_certificate")
_SPLIT = _n((1, 2, 2, 4, 0), "split(0,0,3,1)",
            _n((0, 2, 2, 3, 1), "base_AH"), _n((0, 2, 2, 1, 3), "base_AH"))
_SUB = _n((1, 2, 2, 1, 0), "subabundant_monotone", _RANK)
_SUPER = _n((1, 2, 2, 5, 1), "superabundant_monotone", _SPLIT)
_RIND = _n((1, 2, 2, 3, 0), "R_induction(Runder(1,2))",
           _n((1, 0, 2, 1, 0), "split(0,0,1,0)",
              _n((0, 0, 2, 1, 0), "base_AH"), _n((0, 0, 2, 0, 1), "base_AH")))


def _with(node, **changes):
    if "statement" in changes:
        changes["statement"] = Statement(*changes["statement"])
    return dataclasses.replace(node, **changes)


def _not_true(*args, **kwargs):
    return Verdict(rank=0, expected=1, trials=1, outcome=OUTCOME_DEFICIENT)


_REJECTIONS = [
    # (node, name in prover to replace by a failing oracle, message)
    (_with(_CLAMP, children=(_AH,)), None, "leaf rule with children"),
    (_with(_AH, children=(_AH,)), None, "leaf rule with children"),
    (_with(_RANK, children=(_AH,)), None, "leaf rule with children"),
    (_with(_CLAMP, statement=(1, 2, 2, 1, 0)), None, "clamp_trivial needs s = t = 0"),
    (_with(_CLAMP, statement=(1, 2, 2, 0, 1)), None, "clamp_trivial needs s = t = 0"),
    (_with(_AH, statement=(1, 3, 2, 1, 0)), None, "base_AH needs m = 0"),
    (_RANK, "eval_statement", "rank certificate does not reproduce"),
    (_with(_SPLIT, children=_SPLIT.children[:1]), None, "split needs two children"),
    (_with(_SPLIT, rule="split(0,0,4,0)",
           children=(_n((0, 2, 2, 4, 0), "base_AH"), _n((0, 2, 2, 0, 4), "base_AH"))),
     None, "split children leave the statement's abundance side"),
    (_with(_SUB, children=()), None, "monotone needs one child"),
    (_with(_SUB, children=(_n((1, 3, 2, 2, 0), "base_rank_certificate"),)), None,
     "monotone across different (m, n, d)"),
    (_with(_SUB, statement=(1, 2, 2, 3, 0)), None, "monotone child is not stronger"),
    (_with(_SUB, children=(_SPLIT,)), None,
     "subabundant monotone from a strictly superabundant anchor"),
    (_with(_SUPER, statement=(1, 2, 2, 3, 0)), None, "monotone child is not stronger"),
    (_with(_SUPER, children=(_RANK,)), None,
     "superabundant monotone from a strictly subabundant anchor"),
    (_with(_RIND, rule="R_induction(Runder(1,4))"), None,
     "window chain indices mismatch"),
    (_with(_RIND, statement=(1, 2, 2, 2, 0)), None, "window chain at the wrong threshold"),
    (_with(_RIND, children=()), None, "window chain needs one child"),
    (_with(_RIND, children=(_AH,)), None, "window chain child mismatch"),
    (_RIND, "certify_R_under", "window certificate does not reproduce"),
    (_n((0, 3, 2, 2, 0), "base_AH"), None,
     "the exact m = 0 count does not support this leaf"),
    (_with(_SPLIT, rule="split(0,1,3,1)"), None, "split arithmetic broken"),
    (_with(_SPLIT, rule="split(0,0,2,2)"), None, "split children mismatch"),
    (_n((1, 2, 2, 1, 0), "rank_certificate"), None, "unknown rule"),
]


def test_check_proof_accepts_the_rejection_tables_valid_nodes():
    for node in (_CLAMP, _AH, _RANK, _SPLIT, _SUB, _SUPER, _RIND):
        check_proof(node)


@pytest.mark.parametrize("node, failing, message", _REJECTIONS,
                         ids=[f"{i:02d}" for i in range(len(_REJECTIONS))])
def test_check_proof_rejects_each_broken_rule(monkeypatch, node, failing, message):
    if failing is not None:
        monkeypatch.setattr(prover_module, failing, _not_true)
    with pytest.raises(ProofCheckError, match=re.escape(message)):
        check_proof(node)


def test_check_proof_roundtrip_through_json():
    node = Prover(seed=0).prove(Statement(3, 3, 2, 4, 0))
    assert node is not None
    replayed = _dict_to_node(json.loads(proof_to_json(node)))
    check_proof(replayed, seed=0, trials=3)


def test_r_induction_rule_used_on_super_side():
    # at the superabundant threshold the chain anchors in a window
    # certificate rather than bottoming out in splits
    node = Prover(seed=0).prove(Statement(1, 2, 2, 3, 0))
    assert node is not None
    rules = set()

    def walk(nd):
        rules.add(nd.rule.split("(")[0])
        for c in nd.children:
            walk(c)

    walk(node)
    assert "R_induction" in rules
    check_proof(node, seed=0, trials=3)


def test_store_keeps_first_proof():
    store = StatementStore()
    prover = Prover(store=store, seed=0)
    st = Statement(1, 2, 2, 2, 0)
    first = prover.prove(st)
    again = prover.prove(st)
    assert first is again  # second call is a store hit
    assert store.proof(st) is first and not store.deficient(st)


def test_store_replaces_evidence_with_the_first_proof():
    store = StatementStore()
    st = Statement(2, 3, 2, 4, 0)
    assert store.proof(st) is None and not store.deficient(st)
    store.put(st, None)
    assert store.deficient(st) and store.proof(st) is None
    assert store.family(st) == [] and len(store) == 1
    node = ProofNode(st, "base_rank_certificate")
    store.put(st, node)  # a proof replaces the evidence
    assert store.proof(st) is node and not store.deficient(st)
    assert [entry[-1] for entry in store.family(st)] == [node]
    assert len(store) == 1
    store.put(st, ProofNode(st, "clamp_trivial"))  # but not the first proof
    store.put(st, None)
    assert store.proof(st) is node and not store.deficient(st)
    assert [entry[-1] for entry in store.family(st)] == [node]
    assert len(store) == 1


def _first_anchor_by_sorted_key(proved, st):
    """Reference store walk: every proved key in sorted order, first match."""
    for key in sorted(proved):
        anchor = Statement(*key)
        if (anchor.m, anchor.n, anchor.d) != (st.m, st.n, st.d) or key == st.key:
            continue
        if is_subabundant(anchor) and st.s <= anchor.s and st.t <= anchor.t:
            return "subabundant_monotone", proved[key]
        if is_superabundant(anchor) and st.s >= anchor.s and st.t >= anchor.t:
            return "superabundant_monotone", proved[key]
    return None


def test_family_index_picks_the_sorted_walks_first_anchor():
    rnd = random.Random(5)
    families = [(1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 2, 1), (2, 2, 3)]
    store = StatementStore()
    proved = {}
    for _ in range(150):
        st = Statement(*rnd.choice(families), rnd.randrange(13), rnd.randrange(7))
        if rnd.random() < 0.2:
            store.put(st, None)
            continue
        node = ProofNode(st, "base_rank_certificate")
        store.put(st, node)
        proved.setdefault(st.key, node)
    prover = Prover(store=store)
    hits = 0
    for fam in families + [(4, 4, 2)]:
        for s in range(14):
            for t in range(8):
                st = Statement(*fam, s, t)
                got = prover._monotone_from_store(st)
                want = _first_anchor_by_sorted_key(proved, st)
                if want is None:
                    assert got is None, st
                    continue
                hits += 1
                assert got.statement == st
                assert got.rule == want[0], st
                assert got.children[0] is want[1], st
    assert hits > 100


def test_deficient_rank_leaf_is_not_measured_twice(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].key)
        return eval_statement(*args, **kwargs)

    monkeypatch.setattr(prover_module, "eval_statement", counted)
    prover = Prover(seed=0)
    st = Statement(2, 3, 2, 5, 0)
    assert prover.prove(st) is None
    assert st.key in calls
    assert prover.store.deficient(st)
    first = len(calls)
    assert prover.prove(st) is None
    assert len(calls) == first


def test_proved_statements_are_actually_true():
    """Everything the prover accepts must have zero defect numerically."""
    store = StatementStore()
    prover = Prover(store=store, seed=0, trials=2)
    known_false = {(2, 3, 5), (2, 5, 8), (4, 3, 6)}
    for m in range(0, 4):
        for n in range(1, 4):
            for s in range(0, 7):
                for t in range(0, 3):
                    st = Statement(m, n, 2, s, t)
                    node = prover.prove(st)
                    if node is None:
                        continue
                    v = eval_statement(st, seed=1, trials=2)
                    assert v.defect == 0, st
                    if t == 0:
                        assert (m, n, s) not in known_false, st


def test_scan_and_prover_agree_cell_by_cell():
    """The scan measures a cell short exactly where the prover finds no
    proof, over the whole 5x5 grid."""
    prover = Prover(seed=0)
    records = run_scan(5, 5, seed=0)
    short = [rec for rec in records if rec["defect"] > 0]
    assert (len(records), len(short)) == (174, 4)
    for rec in records:
        node = prover.prove(Statement(rec["m"], rec["n"], 2, rec["s"], 0))
        assert (node is None) == (rec in short), rec


# The md5 of every proof tree of the prover sweep (m <= 8, n <= 8, s in
# s_values, in grid order, one prover and store).  A change that alters
# proof trees on purpose updates the constant and says so in CHANGES.md.
SWEEP_PROOFS_MD5 = "70d305c3ade8a0a38d00411f80baa46b"


def test_sweep_proof_trees_are_pinned():
    prover = Prover(seed=1)
    out = [proof_to_json(node) if node is not None else "unknown"
           for node in (prover.prove(Statement(m, n, 2, s, 0))
                        for m in range(0, 9) for n in range(1, 9)
                        for s in s_values(m, n))]
    assert (len(out), out.count("unknown"), len(prover.store)) == (739, 33, 2318)
    assert hashlib.md5("\n".join(out).encode()).hexdigest() == SWEEP_PROOFS_MD5
