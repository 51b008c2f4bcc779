"""The package surface and the README's library tour."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pwlcycles

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_modules():
    """Every pwlcycles module except the command line, which is not
    re-exported."""
    names = sorted(m.name for m in pkgutil.iter_modules(pwlcycles.__path__))
    assert "cli" in names
    return [importlib.import_module(f"pwlcycles.{n}") for n in names if n != "cli"]


def test_package_reexports_every_module_all():
    owner = {}
    for module in _library_modules():
        for name in module.__all__:
            assert name not in owner, f"{name} in {owner.get(name)} and {module.__name__}"
            owner[name] = module.__name__
            assert getattr(pwlcycles, name) is getattr(module, name), name
    assert sorted(pwlcycles.__all__) == sorted(["__version__", *owner])
    assert len(set(pwlcycles.__all__)) == len(pwlcycles.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from pwlcycles import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(pwlcycles.__all__)
    for name, value in namespace.items():
        assert value is getattr(pwlcycles, name)


def test_package_import_leaves_cli_unloaded():
    code = "import sys, pwlcycles; print('pwlcycles.cli' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(pwlcycles.__path__[0]).parent)},
    )
    assert out.stdout.strip() == "False"


def _tour_block() -> str:
    text = README.read_text()
    section = text.split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_tour_prints_what_its_comments_say():
    block = _tour_block()
    printed = []
    namespace = {"print": lambda *args: printed.append(" ".join(map(str, args)))}
    exec(compile(block, str(README), "exec"), namespace)
    comments = [re.search(r"#\s*(.*\S)", line).group(1)
                for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments)
    # every comment but the rounded "0.8 + 2e-16" is the printed text
    checked = [(want, got) for want, got in zip(comments, printed)
               if " " not in want or want.startswith("[")]
    assert [want for want, _ in checked] == [
        "RLL", "[ 0.76097561  0.66854284 -0.47944251  1.7444002 ]", "True",
        "OnBifurcationCurve", "3", "3",
    ]
    for want, got in checked:
        assert got == want
