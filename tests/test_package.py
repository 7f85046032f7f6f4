import os
import subprocess
import sys
import types
from pathlib import Path

import vanetmarket


def test_all_lists_exactly_the_public_names():
    bound = [
        name
        for name, value in vars(vanetmarket).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert vanetmarket.__all__ == sorted(bound)


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency; the CLI's start-up must not pay for it
    src = os.path.dirname(os.path.dirname(vanetmarket.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, vanetmarket.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\n"


def test_failing_property_test_reports_its_example(tmp_path):
    # Under the project's pytest settings (warnings are errors), a warning
    # raised in hypothesis's report hook must not replace the falsifying
    # example with an INTERNALERROR.
    config = Path(__file__).resolve().parent.parent / "pyproject.toml"
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
    )
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert out.returncode == 1, out.stdout + out.stderr
    assert "Falsifying example" in out.stdout
    assert "INTERNALERROR" not in out.stdout + out.stderr
