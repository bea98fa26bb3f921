"""The suite's pytest settings keep a failing property test's report."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    """Under the suite's filterwarnings, a failing @given test exits 1 with its
    falsifying example, not 3 with INTERNALERROR from a warning raised in a
    plugin's report hook."""
    (tmp_path / "test_fails.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(x):
            assert x < 10
        """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
