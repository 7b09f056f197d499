import os
import re
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_decentralized_agents_demo_matches_the_central_solver():
    done = run_demo("02_decentralized_agents.py")
    assert done.returncode == 0, done.stderr
    for what in ("iterate", "queue"):
        line = re.search(rf"max \|{what} difference\|\s*:\s*(\S+)", done.stdout)
        assert line is not None, done.stdout
        assert float(line.group(1)) <= 1e-9
