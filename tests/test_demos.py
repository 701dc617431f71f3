"""The demos stay runnable: the quick ones run end to end as scripts; the
training demo (about 5 s on a 2-vCPU VM, which CI runs as a script) and the
README's library quick start only have their roadrank names checked here."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def readme_quick_start() -> str:
    """The first python code block under the README's "Library quick start"."""
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


@pytest.mark.parametrize("name", ["01_network_and_walks.py", "02_cascade_ground_truth.py",
                                  "04_gradient_check.py"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_training_demo_names_exist():
    for source in ((DEMOS / "03_train_and_evaluate.py").read_text(), readme_quick_start()):
        tree = ast.parse(source)
        aliases = {}
        wanted = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                aliases.update({a.asname or a.name: a.name for a in node.names
                                if a.name.split(".")[0] == "roadrank"})
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "roadrank"):
                wanted += [(node.module, a.name) for a in node.names]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                wanted.append((aliases[node.value.id], node.attr))
        assert wanted
        missing = [f"{module}.{name}" for module, name in wanted
                   if not hasattr(importlib.import_module(module), name)]
        assert not missing
