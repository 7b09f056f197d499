"""Print a sha256 of every output file of the seed-1 ``qp-sweep`` CLI runs.

The runs are the 100 ``qpush run`` calls of the benchmark's ``qp-sweep``
workload, built by ``perfbench/workloads.py`` ``QpSweep`` from seed 1 and
run in this process through ``qpush.cli.main``, as the workload runs them.
Their inputs and outputs go under OUT_DIR.  One line per output file gives
its sha256 and its path under OUT_DIR; the ``"wall_time_s"`` line of each
``summary.json`` is left out of its digest, as it differs between any two
runs.  The last line is a sha256 over all the lines before it: two
checkouts that print the same total wrote the same bytes.  Every ``.json``
file is parsed as standard JSON first; a NaN, Infinity or -Infinity in one
is reported and the exit status is 1.

Run:  python tools/output_digest.py OUT_DIR
"""

import contextlib
import hashlib
import io
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO, "src"), os.path.join(REPO, "perfbench")]

import workloads  # noqa: E402  (perfbench/, found through the path above)
from qpush import cli  # noqa: E402


def file_digest(path):
    """sha256 of the file's bytes, without the wall-time line of a summary."""
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "summary.json":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.lstrip().startswith(b'"wall_time_s":'))
    return hashlib.sha256(data).hexdigest()


def _refuse(token):
    raise ValueError(f"{token} is not standard JSON")


def nonstandard_json(path):
    """The reason the ``.json`` file at ``path`` is not standard JSON, or None."""
    try:
        with open(path) as fh:
            json.load(fh, parse_constant=_refuse)
    except ValueError as exc:
        return str(exc)
    return None


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    out = os.path.abspath(argv[1])
    sweep = workloads.QpSweep()
    ctx = sweep.setup(sweep.inputs(1), out)
    for run_dir, run_argv in ctx["runs"]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(run_argv)
        if code != 0:
            print(f"qpush run {run_dir} exited {code}", file=sys.stderr)
            return 1
    lines, faults = [], []
    for run_dir, _ in ctx["runs"]:
        for name in sorted(os.listdir(run_dir)):
            path = os.path.join(run_dir, name)
            lines.append(f"{file_digest(path)}  {os.path.relpath(path, out)}")
            reason = nonstandard_json(path) if name.endswith(".json") else None
            if reason:
                faults.append(f"{os.path.relpath(path, out)}: {reason}")
    total = hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()
    print("\n".join(lines))
    print(f"{total}  total of {len(lines)} files")
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
