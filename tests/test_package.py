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


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_loads_no_scipy():
    # scipy.linalg would double CLI start-up and scipy.optimize more than
    # triple it; only the functions that call them import them
    done = run_python("-c", f"import sys, srtrkit; print({SCIPY_MODULES})")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]", f"import srtrkit loaded {done.stdout.strip()}"


# the README chain's commands that need no scipy, on the ring files; a
# command that loads it starts about twice as slowly
SCIPY_FREE_COMMANDS = [
    "fixtures export ring6-controller -o base.json",
    "fixtures export ring6-K -o K.json",
    "fixtures export ring6-plant -o plant.json",
    "srtr build --base base.json --gain K.json -o pair.json",
    "srtr check --in pair.json -o check.json",
    "srtr nrf --in pair.json -o nrf.json",
    "lcf from-srtr --in pair.json -o lcf.json",
    "lcf check --in lcf.json --source pair.json -o lcfcheck.json",
    "synth conditions --base base.json --gain K.json --spec spec.json --tol 5e-3 -o cond.json",
    "synth solve --base base.json --spec spec.json --tol 5e-3 -o solve.json",
    "synth reduce --base base.json --gain K.json --spec spec.json -o rows.json",
    "loop kd --pair pair.json -o kd.json",
    "loop assemble --plant plant.json --pair pair.json --orders 1 -o cl.json",
    "loop stability --cl cl.json -o stability.json",
    "reproduce paper-example -o reproduce.txt",
]
CHAIN = f"""
import os, sys
os.chdir(sys.argv[1])
from srtrkit.cli import dispatch
codes = [dispatch(line.split()) for line in sys.argv[2:]]
print(codes, {SCIPY_MODULES})
code = dispatch('loop simulate --cl cl.json --horizon 0.01 -o traj.csv'.split())
print(code, 'scipy.linalg' in sys.modules)
"""


def test_scipy_free_commands_leave_scipy_out(tmp_path):
    from srtrkit import fixtures, jsonio

    spec = jsonio.spec_to_dict(fixtures.ring6_spec(orders=1))
    (tmp_path / "spec.json").write_text(jsonio.dumps(spec))
    done = run_python("-c", CHAIN, str(tmp_path), *SCIPY_FREE_COMMANDS)
    assert done.returncode == 0, done.stderr
    chain, simulate = done.stdout.splitlines()
    assert chain == f"{[0] * len(SCIPY_FREE_COMMANDS)} []"
    # loop simulate's step matrices need expm, so it loads scipy.linalg
    assert simulate == "0 True"
