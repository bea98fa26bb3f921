"""The benchmark's tracer (perfbench/tracer.py) still finds every name it wraps.

The traced benchmark wraps charfield2 functions, methods and properties by
name, so deleting or renaming one of them breaks it even when nothing in the
package itself reads that name (NormalBasisCtx.mul_rows is one such name).
Likewise every span name perfbench/layers.py reports is one the tracer records,
or its metrics read 0.
"""

import importlib.util
import inspect
import re
import sys
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


# Reported span names that the tracer no longer wraps, each with its reason.
# Their per-layer metrics read 0; one that resolves again leaves the list.
STALE_SPAN_NAMES = {
    "tables.find_roots": "replaced by tables.find_root; the benchmark keeps "
                         "the old name until its next upkeep",
    "extbasis.element_is_cube": "deleted; the benchmark keeps the name until "
                                "its next upkeep",
}


def _load_layers(monkeypatch, tm):
    """perfbench/layers.py, which imports the tracer as a top-level module."""
    monkeypatch.setitem(sys.modules, "tracer", tm)
    spec = importlib.util.spec_from_file_location("charfield2_bench_layers",
                                                  TRACER.with_name("layers.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Any:
    """Any argument of a traced call: its attributes and items are wildcards,
    and it formats as one."""

    def __getattr__(self, attr):
        return self

    def __getitem__(self, key):
        return self

    def __format__(self, spec):
        return "\0"


def _resolves(name, tm, tracer):
    """Whether the tracer records the span name, or for a ".*" name, a span
    name under that prefix.  Each NAMERS entry makes names of one pattern:
    its output for an argument that formats as a wildcard."""
    names = {n for n, _ in tracer._targets} | {member[3] for member in tm.MEMBERS}
    made = [namer(_Any()) for namer in tm.NAMERS.values()]
    if name.endswith(".*"):
        return any(n.startswith(name[:-1]) for n in names.union(made))
    return name in names or any(
        re.fullmatch("[^.]+".join(map(re.escape, m.split("\0"))), name) for m in made)


def test_every_reported_span_name_is_recorded(monkeypatch):
    """Each SPAN_METRICS name of perfbench/layers.py is a traced target, a
    member span, a name a NAMERS entry makes, or a prefix of one of those;
    a stale name reads 0, so it must be listed, and listed only while stale."""
    tm = _load_tracer()
    tracer = tm.Tracer(charfield2)
    layers = _load_layers(monkeypatch, tm)
    stale = {name for name, _ in layers.SPAN_METRICS if not _resolves(name, tm, tracer)}
    assert stale == set(STALE_SPAN_NAMES)
