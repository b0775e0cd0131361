import os
import subprocess
import sys

import dlogwalk

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def test_all_names_resolve():
    # an export whose definition was deleted fails only at `import *`
    for name in dlogwalk.__all__:
        assert hasattr(dlogwalk, name), name


def _fresh_modules(code):
    """sys.modules after `code` in a new interpreter without site (-S)."""
    out = subprocess.run(
        [sys.executable, "-S", "-c", code + "\nimport sys\nprint(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True,
        check=True).stdout
    return set(out.split())


def test_import_loads_neither_dataclasses_nor_inspect():
    modules = _fresh_modules("import dlogwalk")
    assert "dlogwalk.walk" in modules
    assert "dataclasses" not in modules
    assert "inspect" not in modules


def test_bench_import_loads_no_dataclasses():
    modules = _fresh_modules("import dlogwalk.bench")
    assert "dlogwalk.bench" in modules
    assert "dataclasses" not in modules


def test_cli_import_leaves_bench_out():
    # bench and selftest load only for their own commands
    modules = _fresh_modules("import dlogwalk.cli")
    assert "dlogwalk.cli" in modules
    assert "dlogwalk.bench" not in modules
    assert "dlogwalk.selftest" not in modules
    assert "dataclasses" not in modules
