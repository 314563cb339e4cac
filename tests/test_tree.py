"""The source tree tracks no generated or build files, every public name
it exports exists, the README's library example runs, and the commands
import no more of numpy than they use."""

import importlib
import os
import pkgutil
import re
import shutil
import subprocess
import sys
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


def test_readme_library_example_runs():
    # an API change that the README's example was not updated for fails here
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_commands_never_import_numpy_ma(tmp_path):
    # numpy.ma loads lazily (np.unique imports it) and adds about 1 MB to
    # a run's heap; a fresh interpreter, since the test session has it
    script = (
        "import sys\n"
        "from dwcross import cli\n"
        "for command in ('solve', 'sweep', 'detect', 'compare'):\n"
        "    out = sys.argv[1] + '/' + command + '.csv'\n"
        "    assert cli.main([command, '--preset', 'fig3', '--out', out]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
