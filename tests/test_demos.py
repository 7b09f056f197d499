import os
import re
import subprocess
import sys
from pathlib import Path

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = DEMOS.parent / "src"


def run_demo(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(DEMOS / name), *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)


def test_multipath_flow_control_demo_decays_as_one_over_t():
    done = run_demo("01_multipath_flow_control.py", 2000)
    assert done.returncode == 0, done.stderr
    assert "optimal utility = 1.65687" in done.stdout
    assert "log-log decay slope of the vq error:" in done.stdout


def test_joint_flow_power_demo_reports_its_value():
    done = run_demo("03_joint_flow_power.py", 2000)
    assert done.returncode == 0, done.stderr
    assert re.search(r"utility - power cost at T=2000: \S+ \(published -0\.521318\)",
                     done.stdout), done.stdout


def test_random_qp_demo_certifies_its_reference():
    done = run_demo("04_random_qp.py", 1)
    assert done.returncode == 0, done.stderr
    assert "seed 1: beta = " in done.stdout
    assert "reference optimum f* = " in done.stdout


def test_bound_certificates_demo_writes_its_files(tmp_path):
    done = run_demo("05_bound_certificates.py", tmp_path)
    assert done.returncode == 0, done.stderr
    assert f"under {tmp_path}/" in done.stdout
    assert "VIOLATED" not in done.stdout
    for name in ("trace.csv", "bounds.csv", "convergence.svg"):
        assert (tmp_path / name).is_file(), name


def test_decentralized_agents_demo_matches_the_central_solver():
    done = run_demo("02_decentralized_agents.py")
    assert done.returncode == 0, done.stderr
    for what in ("iterate", "queue"):
        line = re.search(rf"max \|{what} difference\|\s*:\s*(\S+)", done.stdout)
        assert line is not None, done.stdout
        assert float(line.group(1)) <= 1e-9
