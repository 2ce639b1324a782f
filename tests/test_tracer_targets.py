"""The benchmark's tracer (`perfbench/tracer.py`) names library functions
by module and dotted attribute path.  A rename that orphans one of its
targets fails here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("target", tracer.TARGETS, ids=[t[2] for t in tracer.TARGETS])
def test_every_target_resolves(target):
    mod_name, path, *_ = target
    module = importlib.import_module(f"choiceless.{mod_name}")
    owner, attr, fn = tracer._resolve(module, path)
    assert callable(fn)
    # defined where the target says, not inherited or re-exported
    assert fn.__module__ == module.__name__
    if "." in path:
        assert owner.__name__ == path.split(".")[0] and attr in vars(owner)


def test_a_tracer_puts_every_target_back():
    def resolved():
        out = []
        for mod_name, path, *_ in tracer.TARGETS:
            module = importlib.import_module(f"choiceless.{mod_name}")
            out.append(tracer._resolve(module, path)[2])
        return out

    before = resolved()
    with tracer.Tracer():
        assert all(a is not b for a, b in zip(before, resolved()))
    assert all(a is b for a, b in zip(before, resolved()))
