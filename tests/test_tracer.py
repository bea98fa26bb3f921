"""The benchmark's tracer (perfbench/tracer.py) still finds every name it wraps.

The traced benchmark wraps charfield2 functions, methods and properties by
name, so deleting or renaming one of them breaks it even when nothing in the
package itself reads that name (NormalBasisCtx.mul_rows is one such name).
"""

import importlib.util
import inspect
from pathlib import Path

import charfield2
import charfield2.cli  # noqa: F401  (the tracer wraps the cli layer too)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("charfield2_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tm, tracer):
    """Every binding the tracer may replace, keyed by (owner, attribute)."""
    spaces = {"charfield2": vars(charfield2)}
    spaces.update((layer, vars(mod)) for layer, mod in tracer.modules.items())
    out = {(owner, attr): obj for owner, space in spaces.items()
           for attr, obj in space.items()}
    for layer, cls_name, attr, _ in tm.MEMBERS:
        cls = getattr(tracer.modules[layer], cls_name)
        out[(f"{layer}.{cls_name}", attr)] = cls.__dict__[attr]
    return out


def test_tracer_installs_over_every_target_and_uninstall_restores_them():
    tm = _load_tracer()
    tracer = tm.Tracer(charfield2)
    names = [name for name, _ in tracer._targets]
    assert len(names) == len(set(names))
    assert set(tm.NAMERS) | tm.COUNT_TRUE <= set(names)
    for name in tm.UNTRACED:
        layer, attr = name.split(".")
        assert inspect.isfunction(getattr(tracer.modules[layer], attr)), name

    before = _bindings(tm, tracer)
    tracer.install()
    try:
        during = _bindings(tm, tracer)
        for name, fn in tracer._targets:
            keys = [k for k, obj in before.items() if obj is fn]
            assert keys, name
            for key in keys:
                assert during[key].__wrapped__ is fn, (name, key)
        for layer, cls_name, attr, _ in tm.MEMBERS:
            key = (f"{layer}.{cls_name}", attr)
            assert during[key] is not before[key], key
    finally:
        tracer.uninstall()
    after = _bindings(tm, tracer)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
