"""Inductive proof search, proof checking, conjecture comparison."""

import dataclasses
import json
import os
import random

import pytest

from secantdim import prover as prover_module
from secantdim.bounds import Statement, is_subabundant, is_superabundant
from secantdim.certificates import eval_statement
from secantdim.prover import (DEFICIENT_EVIDENCE, PROVED, ProofCheckError,
                              ProofNode, Prover, StatementStore, StoreEntry,
                              check_proof, conjecture_verdict, proof_to_dict,
                              proof_to_json)

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
    assert store.get(st).status == PROVED


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
            store.put(st, StoreEntry(DEFICIENT_EVIDENCE))
            continue
        node = ProofNode(st, "base_rank_certificate")
        store.put(st, StoreEntry(PROVED, node))
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
    assert prover.store.get(st).status == DEFICIENT_EVIDENCE
    first = len(calls)
    assert prover.prove(st) is None
    assert len(calls) == first


def test_conjecture_verdict_classes():
    assert conjecture_verdict(2, 3, 5) == "defective:b"
    assert conjecture_verdict(2, 5, 8) == "defective:b"
    assert conjecture_verdict(4, 3, 6) == "defective:c"
    assert conjecture_verdict(5, 2, 5) == "defective:a"
    assert conjecture_verdict(6, 2, 5) == "defective:a"
    assert conjecture_verdict(2, 3, 4) == "nondefective"
    assert conjecture_verdict(3, 3, 4) == "nondefective"


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
