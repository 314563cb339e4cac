"""The source tree tracks no generated or build files, and every public
name it exports exists."""

import importlib
import pkgutil
import shutil
import subprocess
from pathlib import Path

import pytest

import dwcross

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and a git checkout",
)
def test_no_tracked_file_is_ignored():
    # a file that .gitignore lists but git still tracks (generated C, an
    # egg-info) was committed by mistake
    out = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    assert out.stdout == ""


def test_public_names_resolve():
    # a name left in __all__ after its definition is gone breaks
    # `from dwcross import *` and misleads readers of the API
    modules = [dwcross] + [
        importlib.import_module(f"dwcross.{info.name}")
        for info in pkgutil.iter_modules(dwcross.__path__)
        if info.name != "__main__"
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
