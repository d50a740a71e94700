import os
import pathlib
import subprocess
import sys

import srtrkit


def test_every_public_name_resolves():
    missing = [name for name in srtrkit.__all__ if not hasattr(srtrkit, name)]
    assert not missing
    namespace = {}
    exec("from srtrkit import *", namespace)
    assert set(srtrkit.__all__) <= set(namespace)


ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True)


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    done = run_python("-c", block.split("```", 1)[0])
    assert done.returncode == 0, done.stderr


def test_ring_example_script_runs():
    done = run_python("scripts/reproduce_ring_example.py", "--horizon", "2")
    assert done.returncode == 0, done.stderr
