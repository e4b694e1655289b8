"""The benchmark's tracer resolves every program name it wraps.

`perfbench/tracer.py` looks up the functions and methods it times when it
is imported and when it installs its wrappers, so renaming one of them
breaks traced benchmark runs; this test catches that in the unit suite.
"""

import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_resolves_wrapped_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer_module = importlib.import_module("tracer")
    tracer = tracer_module.Tracer()
    spans = tracer_module.METHOD_SPANS
    originals = [(cls, attr, cls.__dict__[attr])
                 for targets in spans.values() for cls, attr in targets]
    tracer.install()
    try:
        for fns in tracer_module.FUNCTION_SPANS.values():
            for fn in fns:
                module = importlib.import_module(fn.__module__)
                assert getattr(module, fn.__name__).__wrapped__ is fn
    finally:
        tracer.uninstall()
    for cls, attr, fn in originals:
        assert cls.__dict__[attr] is fn
