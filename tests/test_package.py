import os
import subprocess
import sys
import types

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
