import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import semicross

FRONT_DOOR = {"RunParams", "RunReport", "run_discrepancy", "run_balancing",
              "get_problem", "nu_method", "ConfigError", "CapExceededError",
              "NumericalDegeneracyError"}


def test_all_is_the_front_door():
    assert len(semicross.__all__) == len(FRONT_DOOR)
    assert set(semicross.__all__) == FRONT_DOOR


def test_star_import_binds_the_front_door_only():
    namespace = {}
    exec("from semicross import *", namespace)
    assert set(namespace) - {"__builtins__"} == FRONT_DOOR


def test_readme_imports_only_front_door_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    imported = set()
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "semicross":
                imported.update(alias.name for alias in node.names)
    assert imported  # the library sketch imports from the top level
    assert imported <= FRONT_DOOR


def test_readme_library_sketch_runs():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    section = readme.split("\n## Library sketch\n", 1)[1].split("\n## ", 1)[0]
    sketch, = re.findall(r"```python\n(.*?)```", section, re.S)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", sketch], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert len(done.stdout.splitlines()) == 3
