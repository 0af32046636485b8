"""The layer boundaries that the benchmark's tracer wraps stay on the
solve path: ``gamma2`` reaches its stages through the attributes of
``g2d.gamma2`` that ``perfbench/layers.py`` replaces."""

import importlib
from pathlib import Path

import numpy as np

from g2d.gamma2 import gamma2
from g2d.linalg import tn_matrix

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_gamma2_calls_each_traced_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    a = np.zeros((7, 7))
    a[:3, :3] = tn_matrix(3)
    a[3:, 3:] = tn_matrix(4)
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        root = tracer.begin_op(0)
        cert = gamma2(a)
        tracer.end_op(root)
    finally:
        tracer.unwrap_all()
    assert cert.converged
    # one ascent and one upper bound per block, one check of the
    # assembled certificate; the check proves column membership from
    # the factors, so ``membership_value``, which the tracer still
    # wraps, is never called
    names = ("gamma2.dual", "gamma2.upper", "gamma2.check", "ellipsoid.membership")
    assert [tracer.calls(name) for name in names] == [2, 2, 1, 0]
