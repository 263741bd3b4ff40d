"""Outside-in span tracer for the benchmark's traced passes.

The tracer replaces public names of the secantdim modules with thin wrappers
at the places where callers look them up (for example ``certificates.rank``,
which is the binding ``_measure`` calls, not ``field.rank``).  Each wrapper
records a span ``[name, parent index, start, end]`` in memory; self time is a
span's duration minus the time covered by its direct children.  Names that
only need a count (``prover.classify``) get a counting wrapper and no span.

Every patched name must exist and be callable: a rename in the package makes
``install`` raise instead of silently reporting zero.  ``restore``
puts the original objects back, so untraced passes run the package as is.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from secantdim import certificates, field, prover, scan, strassen, tensorspace


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.rank_shapes: list[tuple[int, int]] = []
        self.verdict_trials: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ------------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        where = f"{getattr(owner, '__name__', owner)}.{attr}"
        if attr not in vars(owner):
            raise RuntimeError(f"traced name {where} no longer exists")
        original = vars(owner)[attr]
        if not callable(original):
            raise RuntimeError(f"traced name {where} is not callable")
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def span(self, owner, attr: str, name: str, on_result=None) -> None:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def make(fn):
            def traced(*args, **kwargs):
                rec = [name, stack[-1] if stack else -1, clock(), 0.0]
                stack.append(len(spans))
                spans.append(rec)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[3] = clock()
                    stack.pop()
                if on_result is not None:
                    on_result(args, result)
                return result
            return traced

        self._replace(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        counts = self.counts

        def make(fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        self._replace(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- hooks ---------------------------------------------------------------

    def record_shape(self, args, result) -> None:
        mat = args[0]
        self.rank_shapes.append((mat.rows, mat.cols))

    def record_trials(self, args, result) -> None:
        self.verdict_trials.append(result.trials)

    # -- summaries -----------------------------------------------------------

    def totals(self) -> tuple[Counter, dict, dict]:
        """Per span name: call count, total seconds and self seconds."""
        calls: Counter = Counter()
        total: dict = defaultdict(float)
        covered: dict = defaultdict(float)
        for name, parent, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                covered[self.spans[parent][0]] += end - start
        self_s = {name: total[name] - covered[name] for name in total}
        return calls, total, self_s

    def children_per_span(self, parent_name: str, child_name: str) -> list[int]:
        """For each span called parent_name, how many direct children are
        called child_name."""
        per = {idx: 0 for idx, rec in enumerate(self.spans) if rec[0] == parent_name}
        for name, parent, _start, _end in self.spans:
            if name == child_name and parent in per:
                per[parent] += 1
        return list(per.values())


def install(tracer: Tracer) -> None:
    """Patch every traced name of the package."""
    try:
        # field: rank and Pfaffian kernels, where their callers find them
        tracer.span(certificates, "rank", "field.rank", tracer.record_shape)
        tracer.span(field, "rank", "field.rank", tracer.record_shape)
        tracer.span(strassen, "pfaffian", "field.pfaffian")
        # tensorspace: row builders and point sampling
        for attr in ("tangent_rows", "y_rows", "subspace_rows"):
            tracer.span(certificates, attr, f"tensorspace.{attr}")
        tracer.span(certificates, "sample_point", "tensorspace.sample_point")
        tracer.span(tensorspace, "sample_point", "tensorspace.sample_point")
        # certificates: the statement oracle and the window certificates
        for owner in (certificates, prover):
            tracer.span(owner, "eval_statement", "certificates.eval_statement",
                        tracer.record_trials)
        tracer.span(scan, "eval_statement_checked",
                    "certificates.eval_statement_checked")
        for attr in ("certify_R_under", "certify_R_over"):
            tracer.span(prover, attr, "certificates.certify", tracer.record_trials)
        for attr in ("certify_Q", "certify_R_under", "certify_R_over", "certify_R2n"):
            tracer.span(certificates, attr, "certificates.certify",
                        tracer.record_trials)
        tracer.span(certificates, "witness_Rmm", "certificates.certify")
        # prover, scan, strassen
        tracer.span(prover.Prover, "prove", "prover.prove")
        tracer.count(prover, "classify", "prover.classify")
        tracer.span(scan, "run_scan", "scan.run_scan")
        tracer.span(strassen, "pfaffian_certificate", "strassen.pfaffian_certificate")
        for attr in ("slices_from_points", "strassen_matrix"):
            tracer.span(strassen, attr, "strassen.build")
    except BaseException:
        tracer.restore()
        raise
