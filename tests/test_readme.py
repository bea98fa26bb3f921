"""The README's Python quick start runs and shows the values its comments state."""

import ast
import re
from pathlib import Path

from charfield2 import field as gf

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _run(block):
    """Run the block statement by statement; return the namespace and the
    value of each expression statement, keyed by its source line."""
    ns, values = {}, {}
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            key = ast.get_source_segment(block, stmt)
            values[key] = eval(compile(ast.Expression(stmt.value), "README", "eval"), ns)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README", "exec"), ns)
    return ns, values


def test_quick_start_values_match_its_comments():
    block = _quick_start()
    ns, values = _run(block)
    want = {
        "nb.weight, nb.density": (7, 28),
        "normal.cross_product_sum(nb)": 25,
        "ext.counter.as_tuple()": (3, 4, 1),
        "tables.verify_table_entries(emb, ts)": [],
        'tables.expected_counts(nb, "as2") == ts.per_table_nonzeros': True,
        "fixtures.get_fixture(8).basis().weight": 21,
    }
    comments = {line.split("#")[0].strip(): line.split("#", 1)[1].strip()
                for line in block.splitlines() if "#" in line}
    for expr, value in want.items():
        assert values[expr] == value, expr
        assert comments[expr].startswith(repr(value)), expr
    got = values["tables.table_mul(ts, flat, flat)"]
    prod = ns["extbasis"].mul(ns["ext"], ns["x"], ns["x"])
    assert got == prod.blocks[0] | prod.blocks[1] << 4 == 0b11100110
    assert comments["tables.table_mul(ts, flat, flat)"].startswith(bin(got))
    got = values["nb.to_poly(normal.normal_mul(nb, u, v))"]
    assert got == gf.poly_mul_mod(ns["ctx"], 0b0110, 0b1011) == 0b1111
    assert comments["nb.to_poly(normal.normal_mul(nb, u, v))"].startswith(bin(got))
