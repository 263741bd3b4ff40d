"""Inductive prover for secant dimension statements in bidegree (1, d).

Proof rules, each a sound implication:

* clamp_trivial        -- s = t = 0 spans the zero subspace.
* base_AH              -- m = 0 leaves, decided exactly: the
                          Alexander-Hirschowitz count of s generic tangent
                          spaces of v_d(P^n), plus one for each of the t
                          generic points until the space is full.  An m = 0
                          statement never reaches a rank certificate.
* split(m',m'',s',s'') -- the splitting rule: V = V' (+) V'' with
                          m = m' + m'' + 1, s = s' + s''; if
                          S(m', n; 1, d; s'; s''+t) and
                          S(m'', n; 1, d; s''; s'+t) hold and both children
                          sit on the statement's side of the abundance
                          trichotomy, the statement holds.
* subabundant_monotone / superabundant_monotone
                        -- a true subabundant statement stays true when
                          (s, t) decreases componentwise; dually above.
* R_induction(...)     -- two-step induction on n at the certified
                          thresholds: a window certificate (R_under or
                          R_over) plus the statement for n - 2 yields the
                          statement for n at s_under / s_over.  Both
                          thresholds share one chain, in the search and in
                          check_proof alike.

Split candidates are tried in the order used by the hand reductions: peel
one factor (m' = m - 1, m'' = 0), giving the split-off factor one tangent
point when the statement is subabundant and none when superabundant, then
fall back to the remaining splits with m' decreasing (balanced splits last).
Every split child has a smaller m, so the search needs no depth bound:
MAX_VISITED is its only bound.  Rank certificates are the last resort, and
also the only way a defective statement could be misproved, which is why a
`true` rank verdict is itself a proof (semicontinuity) and the checker
replays it.

The prover never claims falsity: statements it cannot reach come back as
unknown, with deficiency evidence recorded in the store when the rank oracle
observed it.

The store indexes proved statements per (m, n, d) family, sorted by (s, t),
with both abundance tests taken at insertion.  A monotone anchor comes from
the statement's own family, where sorted-key order is (s, t) order, so the
first match is the one a sorted walk over the whole store finds: proof trees
do not depend on the index.  A window chain records its threshold statement
in that family, so a chain anchors a statement through the same lookup, the
one place the search applies monotonicity.  A deficiency entry proves
nothing; it only spares a rank leaf a re-measurement that, under the same
seed (prover seed, "rank", key), would repeat the verdict.
"""

from __future__ import annotations

import bisect
import json
import re
from dataclasses import asdict, dataclass

from .bounds import (Abundance, Statement, classify, expected_dim,
                     is_subabundant, is_superabundant, m0_rank, s_over,
                     s_under)
from .certificates import (OUTCOME_TRUE, DomainError, certify_R_over,
                           certify_R_under, eval_statement)
from .field import PrimeField, derive_seed

UNKNOWN = "unknown"

# Statements one prove() call may visit before it gives up as unknown.
MAX_VISITED = 10_000


@dataclass(frozen=True)
class ProofNode:
    statement: Statement
    rule: str
    children: tuple["ProofNode", ...] = ()

    def leaves(self):
        if not self.children:
            yield self
        else:
            for c in self.children:
                yield from c.leaves()


def proof_to_dict(node: ProofNode) -> dict:
    return {
        "statement": asdict(node.statement),
        "rule": node.rule,
        "children": [proof_to_dict(c) for c in node.children],
    }


def proof_to_json(node: ProofNode) -> str:
    return json.dumps(proof_to_dict(node), indent=2)


class StatementStore:
    """Memo of settled statements, shared across prover queries: each key
    maps to its first proof, or to None for deficiency evidence."""

    def __init__(self) -> None:
        self._entries: dict[tuple, ProofNode | None] = {}
        self._families: dict[tuple, list[tuple]] = {}

    def proof(self, st: Statement) -> ProofNode | None:
        return self._entries.get(st.key)

    def deficient(self, st: Statement) -> bool:
        return st.key in self._entries and self._entries[st.key] is None

    def put(self, st: Statement, node: ProofNode | None) -> None:
        """Record node as st's proof, or None as deficiency evidence; a
        proof, once recorded, is never replaced."""
        if self._entries.get(st.key) is not None:
            return
        self._entries[st.key] = node
        if node is not None:  # once per key: no (s, t) ties in a family
            bisect.insort(self._families.setdefault((st.m, st.n, st.d), []),
                          (st.s, st.t, is_subabundant(st), is_superabundant(st),
                           node))

    def family(self, st: Statement) -> list[tuple]:
        """Proved statements with st's (m, n, d), in (s, t) order."""
        return self._families.get((st.m, st.n, st.d), [])

    def __len__(self) -> int:
        return len(self._entries)


def _side_ok(child: Statement, side: Abundance) -> bool:
    # an equiabundant side needs both
    return ((side is Abundance.SUBABUNDANT or is_superabundant(child))
            and (side is Abundance.SUPERABUNDANT or is_subabundant(child)))


def _m0_truth(st: Statement) -> bool:
    """Truth of an m = 0 statement S(0, n; 1, d; s; t): its exact rank
    equals the expected one.

    The s tangent spaces span the affine cone over the s-th secant variety of
    v_d(P^n), whose dimension is the Alexander-Hirschowitz count of
    bounds.m0_rank.  The Veronese variety is nondegenerate, so a generic
    point lies off any proper subspace: t generic points raise that span by
    one each until it fills the space.
    """
    return m0_rank(st.n, st.d, st.s, st.t) == expected_dim(st)


def _cert_seed(seed: int, *parts) -> int:
    """Seed of a certificate the prover asks for; check_proof replays it."""
    return derive_seed(seed, "prover", *parts)


class Prover:
    def __init__(self, store: StatementStore | None = None, seed: int = 0,
                 trials: int = 3, field: PrimeField = PrimeField()):
        self.store = store if store is not None else StatementStore()
        self.seed = seed
        self.trials = trials
        self.field = field
        self._visited = 0

    # -- public entry points -------------------------------------------------

    def prove(self, st: Statement) -> ProofNode | None:
        self._visited = 0
        return self._prove(st, anchors=True)

    # -- search --------------------------------------------------------------

    def _prove(self, st: Statement, anchors: bool) -> ProofNode | None:
        node = self.store.proof(st)
        if node is not None:
            return node
        if self._visited >= MAX_VISITED:
            return None
        self._visited += 1

        if st.s == 0 and st.t == 0:
            return self._record(st, ProofNode(st, "clamp_trivial"))

        if st.m == 0:
            return self._record(st, ProofNode(st, "base_AH") if _m0_truth(st)
                                else None)

        node = self._monotone_from_store(st)
        if node is None:
            node = self._split_search(st)
        if node is None and anchors and st.d == 2:
            node = self._anchor(st)
        if node is not None:
            return self._record(st, node)
        return self._rank_leaf(st)

    def _record(self, st: Statement, node: ProofNode | None) -> ProofNode | None:
        """Store node as st's proof, or None as deficiency evidence."""
        self.store.put(st, node)
        return node

    def _monotone_from_store(self, st: Statement) -> ProofNode | None:
        for s, t, sub, sup, node in self.store.family(st):
            if (s, t) == (st.s, st.t):
                continue
            if sub and st.s <= s and st.t <= t:
                return ProofNode(st, "subabundant_monotone", (node,))
            if sup and st.s >= s and st.t >= t:
                return ProofNode(st, "superabundant_monotone", (node,))
        return None

    @staticmethod
    def _split_candidates(st: Statement, side: Abundance):
        m, s = st.m, st.s
        sp0 = s if side is Abundance.SUPERABUNDANT or s == 0 else s - 1
        yield m - 1, sp0
        for mp in range(m - 1, m // 2 - 1, -1):
            for sp in range(s, -1, -1):
                if (mp, sp) != (m - 1, sp0):
                    yield mp, sp

    def _split_search(self, st: Statement) -> ProofNode | None:
        side = classify(st)
        for mp, sp in self._split_candidates(st, side):
            mpp = st.m - 1 - mp
            spp = st.s - sp
            left = Statement(mp, st.n, st.d, sp, spp + st.t)
            right = Statement(mpp, st.n, st.d, spp, sp + st.t)
            if not (_side_ok(left, side) and _side_ok(right, side)):
                continue
            lnode = self._prove(left, anchors=True)
            if lnode is None:
                continue
            rnode = self._prove(right, anchors=True)
            if rnode is None:
                continue
            rule = f"split({mp},{mpp},{sp},{spp})"
            return ProofNode(st, rule, (lnode, rnode))
        return None

    def _anchor(self, st: Statement) -> ProofNode | None:
        """Build the one window chain whose threshold can anchor st (s_under
        < s_over; for m = 1 the threshold n + 1 is equiabundant, so it
        anchors both sides), then look st up in the store."""
        m, n = st.m, st.n
        if ((st.t == 0 and m <= n + 2 and 1 <= st.s <= s_under(m, n))
                or (m == 1 and st.s >= n + 1)):
            self._window_chain("Runder", m, n)
        elif m >= 2 and st.s >= s_over(m, n):
            self._window_chain("Rover", m, n)
        else:
            return None
        return self.store.proof(st) or self._monotone_from_store(st)

    def _window_chain(self, kind: str, m: int, n: int) -> ProofNode | None:
        """Prove T(m, n; 1, 2; s) at s = s_under(m, n) (kind "Runder") or
        s = s_over(m, n) (kind "Rover"): the window certificate for (m, n)
        plus the same chain at n - 2, down to a base case the search proves.
        s_under vanishes only at the base case n = m - 2, where the search
        records clamp_trivial.  The m = 1 Runder chain stops at n = 0 or 1,
        where the search proves T(1, n; n + 1) by a split."""
        under = kind == "Runder"
        st = Statement(m, n, 2, s_under(m, n) if under else s_over(m, n), 0)
        node = self.store.proof(st)
        if node is not None:
            return node
        if (n <= max(m - 1, 1)) if under else (n <= 1 or (m, n) == (2, 2)):
            return self._prove(st, anchors=False)
        # chosen per call: bench/tracing.py patches these module names
        certify = certify_R_under if under else certify_R_over
        verdict = certify(m, n, _cert_seed(self.seed, kind, m, n), self.trials,
                          self.field)
        if verdict.outcome != OUTCOME_TRUE:
            return None
        child = self._window_chain(kind, m, n - 2)
        if child is None:
            return None
        return self._record(st, ProofNode(st, f"R_induction({kind}({m},{n}))",
                                          (child,)))

    # -- rank certificate leaves ----------------------------------------------

    def _rank_leaf(self, st: Statement) -> ProofNode | None:
        if self.store.deficient(st):
            return None
        verdict = eval_statement(st, _cert_seed(self.seed, "rank", *st.key),
                                 self.trials, self.field)
        return self._record(st, ProofNode(st, "base_rank_certificate")
                            if verdict.outcome == OUTCOME_TRUE else None)


class ProofCheckError(AssertionError):
    pass


_SPLIT_RE = re.compile(r"^split\((\d+),(\d+),(\d+),(\d+)\)$")
_RIND_RE = re.compile(r"^R_induction\((Runder|Rover)\((\d+),(\d+)\)\)$")


def check_proof(node: ProofNode, seed: int = 0, trials: int = 3,
                field: PrimeField = PrimeField()) -> None:
    """Re-validate every rule application in a proof tree, independently of
    the search that produced it.  Raises ProofCheckError on any violation.
    Rank-certificate leaves are re-measured with the prover's seed schedule.
    """
    st = node.statement
    rule = node.rule

    def fail(msg: str):
        raise ProofCheckError(f"{msg} at {st} [{rule}]")

    leaf = rule in ("clamp_trivial", "base_AH", "base_rank_certificate")
    if leaf and node.children:
        fail("leaf rule with children")

    if rule == "clamp_trivial":
        if st.s != 0 or st.t != 0:
            fail("clamp_trivial needs s = t = 0")
        return

    if rule == "base_AH":
        if st.m != 0:
            fail("base_AH needs m = 0")
        if not _m0_truth(st):
            fail("the exact m = 0 count does not support this leaf")
        return

    if rule == "base_rank_certificate":
        verdict = eval_statement(st, _cert_seed(seed, "rank", *st.key), trials,
                                 field)
        if verdict.outcome != OUTCOME_TRUE:
            fail("rank certificate does not reproduce")
        return

    m = _SPLIT_RE.match(rule)
    if m is not None:
        mp, mpp, sp, spp = (int(g) for g in m.groups())
        if mp + mpp + 1 != st.m or sp + spp != st.s:
            fail("split arithmetic broken")
        if len(node.children) != 2:
            fail("split needs two children")
        left, right = node.children
        want_left = Statement(mp, st.n, st.d, sp, spp + st.t)
        want_right = Statement(mpp, st.n, st.d, spp, sp + st.t)
        if left.statement != want_left or right.statement != want_right:
            fail("split children mismatch")
        side = classify(st)
        if not (_side_ok(left.statement, side) and _side_ok(right.statement, side)):
            fail("split children leave the statement's abundance side")
        check_proof(left, seed, trials, field)
        check_proof(right, seed, trials, field)
        return

    if rule in ("subabundant_monotone", "superabundant_monotone"):
        if len(node.children) != 1:
            fail("monotone needs one child")
        anchor = node.children[0].statement
        if (anchor.m, anchor.n, anchor.d) != (st.m, st.n, st.d):
            fail("monotone across different (m, n, d)")
        if rule == "subabundant_monotone":
            if not (st.s <= anchor.s and st.t <= anchor.t):
                fail("monotone child is not stronger")
            if not is_subabundant(anchor):
                fail("subabundant monotone from a strictly superabundant anchor")
        else:
            if not (st.s >= anchor.s and st.t >= anchor.t):
                fail("monotone child is not stronger")
            if not is_superabundant(anchor):
                fail("superabundant monotone from a strictly subabundant anchor")
        check_proof(node.children[0], seed, trials, field)
        return

    m = _RIND_RE.match(rule)
    if m is not None:
        kind, cm, cn = m.group(1), int(m.group(2)), int(m.group(3))
        if (cm, cn) != (st.m, st.n) or st.d != 2 or st.t != 0:
            fail("window chain indices mismatch")
        threshold = s_under if kind == "Runder" else s_over
        if st.s != threshold(cm, cn):
            fail("window chain at the wrong threshold")
        if len(node.children) != 1:
            fail("window chain needs one child")
        if cn < 2:
            fail("window chain below n = 2")
        child = node.children[0].statement
        want = Statement(cm, cn - 2, 2, threshold(cm, cn - 2), 0)
        if child != want:
            fail("window chain child mismatch")
        cert = certify_R_under if kind == "Runder" else certify_R_over
        try:
            verdict = cert(cm, cn, _cert_seed(seed, kind, cm, cn), trials, field)
        except DomainError as exc:
            fail(f"window certificate outside its domain ({exc})")
        if verdict.outcome != OUTCOME_TRUE:
            fail("window certificate does not reproduce")
        check_proof(node.children[0], seed, trials, field)
        return

    fail("unknown rule")
