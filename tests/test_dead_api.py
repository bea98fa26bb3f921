"""Every public name of the package has a reader in the package or the benchmark.

A public module-level function or class, or a public method or property of a
package class, passes when its name occurs in the code of src/ or perfbench/
other than at its own definition: as an identifier, or inside a string (the
benchmark's tracer wraps functions by dotted name).  Comments, docstrings
and the re-exports in __init__.py do not count.
Names that only the tests or the README read are allowed below, each with its
reason.  Likewise every option of every CLI subcommand is read by cli.py.
"""

import argparse
import inspect
import io
import pkgutil
import re
import tokenize
from collections import Counter
from pathlib import Path

import charfield2
import charfield2.cli

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("bitpoly", "linalg", "field", "normal", "witt", "extbasis", "tables",
           "tower", "fixtures", "errors", "cli")

ALLOWED = {
    "field.frobenius": "the tests' reference for squaring, normal_mul and conjugates",
    "tables.normal_table_set": "the tests' reference for the oracle's tables",
    "normal.NormalBasisCtx.to_poly": "README quick start",
}


def _reads():
    """Counts of the identifiers and string-literal words in the code of
    src/ and perfbench/.  Left out: the name in each def or class statement,
    docstrings, and the package's re-exports in __init__.py."""
    counts = Counter()
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in files:
        if path.name == "__init__.py":
            continue
        source = io.StringIO(path.read_text(encoding="utf-8"))
        prev = None
        for tok in tokenize.generate_tokens(source.readline):
            if tok.type in (tokenize.NL, tokenize.COMMENT):
                continue
            if tok.type == tokenize.NAME:
                if prev is None or prev.string not in ("def", "class"):
                    counts[tok.string] += 1
            elif tok.type == tokenize.STRING and prev is not None and prev.type not in (
                    tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT):
                counts.update(re.findall(r"\w+", tok.string))
            prev = tok
    return counts


def _public_names():
    """Dotted names of the public functions, classes and class members."""
    for layer in MODULES:
        mod = getattr(charfield2, layer)
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{layer}.{attr}", attr
            elif inspect.isclass(obj):
                yield f"{layer}.{attr}", attr
                for member, value in vars(obj).items():
                    if not member.startswith("_") and (
                            inspect.isfunction(value)
                            or isinstance(value, (property, classmethod, staticmethod))):
                        yield f"{layer}.{attr}.{member}", member


def test_every_public_name_has_a_reader():
    reads = _reads()
    unread = sorted(dotted for dotted, name in _public_names()
                    if dotted not in ALLOWED and not reads[name])
    assert unread == []


def test_allowed_names_exist_and_are_unread():
    """Each allowed name exists and still has no reader; one that gains a
    reader leaves the list."""
    reads = _reads()
    public = dict(_public_names())
    for dotted in ALLOWED:
        assert dotted in public, dotted
        assert not reads[public[dotted]], dotted


def test_every_cli_option_is_read():
    """Each subcommand option's dest is read as args.<dest> in the code of
    cli.py (not its comments): an option nothing reads does nothing."""
    source = io.StringIO((ROOT / "src" / "charfield2" / "cli.py").read_text(
        encoding="utf-8"))
    toks = [t.string for t in tokenize.generate_tokens(source.readline)
            if t.type != tokenize.COMMENT]
    read = {c for a, dot, c in zip(toks, toks[1:], toks[2:])
            if a == "args" and dot == "."}
    parser = charfield2.cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    unread = sorted(f"{name} {action.option_strings}"
                    for name, p in sub.choices.items() for action in p._actions
                    if action.dest != "help" and action.dest not in read)
    assert unread == []


def test_all_resolves_and_lists_every_library_submodule():
    """Each __all__ entry is an attribute of the package, and each submodule
    is listed except cli, the command's entry point, which importing the
    package does not load."""
    assert [name for name in charfield2.__all__ if not hasattr(charfield2, name)] == []
    submodules = {m.name for m in pkgutil.iter_modules(charfield2.__path__)}
    assert sorted(submodules - set(charfield2.__all__)) == ["cli"]
