"""The benchmark tracer finds every name it patches, and puts each back."""

import importlib
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# the number of package names bench/tracing.py's install patches
TRACED_NAMES = 24


def test_tracer_patches_every_name_and_restores_it(monkeypatch):
    # read-only: bench/ gets no __pycache__ from this import
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    # install raises if a traced name was renamed or removed in the package
    tracing.install(tracer)
    patched = list(tracer._patches)
    try:
        assert len(patched) == TRACED_NAMES
        assert all(vars(owner)[attr] is not original
                   for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
