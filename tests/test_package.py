import ast
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import qpush

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(qpush.__path__)
                 if name != "__main__")
ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"qpush.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from qpush.{name} import *", namespace)


def test_package_star_import():
    namespace = {}
    exec("from qpush import *", namespace)
    assert "run" in namespace and "dsg_run" in namespace


def _loaded_names(paths):
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _library_sources():
    """The library, the demos and the benchmark, without its tests."""
    package = ROOT / "src" / "qpush"
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    return sources + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def test_every_public_name_has_a_caller_outside_the_tests():
    """A name in a module's ``__all__`` is read somewhere in the library,
    the demos or the benchmark; a name only the tests read belongs in
    tests/helpers.py."""
    used = _loaded_names(_library_sources())
    unused = {name: sorted(set(getattr(importlib.import_module(f"qpush.{name}"), "__all__", ()))
                           - used)
              for name in MODULES}
    assert {name: names for name, names in unused.items() if names} == {}


def _calls(paths):
    """(called name, positional count, keywords) of every call in ``paths``;
    a ``*args`` counts as every position and a ``**kwargs`` as every keyword."""
    calls = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.append((name, math.inf if starred else len(node.args),
                          None if None in keywords else keywords))
    return calls


# the hook through which tests hand in a faulty oracle (the agents hand
# ``run`` theirs)
OPTION_HOOKS = {("baseline", "dsg_run", "oracle")}


def test_every_option_has_a_caller_outside_the_tests():
    """Each parameter with a default, of each function in a module's
    ``__all__``, is passed by keyword or by position by some call in the
    library, the demos, the benchmark or the tools: a value that only the
    tests set, or nobody, is a constant."""
    calls = _calls(_library_sources() + sorted((ROOT / "tools").glob("*.py")))
    unset = []
    for module_name in MODULES:
        module = importlib.import_module(f"qpush.{module_name}")
        for name in getattr(module, "__all__", ()):
            func = getattr(module, name)
            if not inspect.isfunction(func):
                continue
            params = list(inspect.signature(func).parameters.values())
            for position, param in enumerate(params):
                if (param.default is param.empty
                        or (module_name, name, param.name) in OPTION_HOOKS):
                    continue
                if not any(called == name and (keywords is None or param.name in keywords
                                                or count > position)
                           for called, count, keywords in calls):
                    unset.append(f"{module_name}.{name}({param.name})")
    assert unset == []


# the per-iteration code of the VQ step, the DSG step and the agent round:
# the one step with the weights, update and drift bound of both its laws
HOT_PATHS = ("solver.step", "solver._check_block", "solver.queue_update", "solver._drive",
             "solver._Queues.weights", "solver._Queues.update", "solver._Queues.bound",
             "program.evaluate", "program.CoordinateTerms.value",
             "program.ConstraintTerms.values", "program._segment_sum",
             "oracles.SeparableOracle.solve",
             "baseline._Multipliers.weights", "baseline._Multipliers.update",
             "baseline._Multipliers.bound", "baseline.multiplier_update", "baseline.dsg_run",
             "netflow.simulate_decentralized")
SLOW_FORMS = (" @ ", ".any()", ".all()", "np.any(", "np.all(", "logical_and.reduce",
              "logical_or.reduce")


def test_hot_paths_use_the_cheapest_numpy_entry_points():
    """Products go through ``ndarray.dot`` and reductions through
    ``np.count_nonzero``, at about half the per-call cost of the matmul
    gufunc and of ``ufunc.reduce``, ``.any()`` or ``.all()`` on fig1-sized
    vectors (``program._all_finite`` lists the measured costs)."""
    found = {}
    for path in HOT_PATHS:
        module, *names = path.split(".")
        obj = importlib.import_module(f"qpush.{module}")
        for name in names:
            obj = getattr(obj, name)
        source = inspect.getsource(obj)
        slow = [form for form in SLOW_FORMS if form in source]
        if slow:
            found[path] = slow
    assert found == {}


# how ConstraintTerms keeps A, Qc and U, and the dense arrays it builds from
# them; its products, column sums and norms are what others read
STORAGE = {"_parts"}
DENSE_PARTS = {"lin", "quad", "neglog1p"}


def _constraint_term_reads(path):
    """Attributes read in ``path`` off constraint terms: off an
    ``x.constraint_terms``, a ``ConstraintTerms`` call or a name bound to
    either."""
    nodes = list(ast.walk(ast.parse(path.read_text())))

    def is_terms(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "constraint_terms")
                or (isinstance(node, ast.Call) and "ConstraintTerms" in ast.unparse(node.func)))

    names = {target.id for node in nodes if isinstance(node, ast.Assign) and is_terms(node.value)
             for target in node.targets if isinstance(target, ast.Name)}
    return {node.attr for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and (is_terms(node.value) or isinstance(node.value, ast.Name) and node.value.id in names)}


def test_only_program_reads_how_constraint_rows_keep_A():
    """No module but program.py reads how ConstraintTerms stores its
    parts: the others call its products, column sums and norms.  The
    oracle and the problem builders read none of the dense parts either,
    so a program on the segment-sum route never builds them.  A private
    attribute the terms gain must be listed in STORAGE."""
    package = ROOT / "src" / "qpush"
    readers = sorted(path.name for path in package.glob("*.py")
                     if path.name != "program.py" and STORAGE & _loaded_names([path]))
    assert readers == []
    reads = {name: _constraint_term_reads(package / name) for name in ("oracles.py", "problems.py")}
    assert "nl_rmatvec" in reads["oracles.py"]  # the reads are found at all
    assert {name: names & DENSE_PARTS for name, names in reads.items()} == {
        "oracles.py": set(), "problems.py": set()}
    eye = np.eye(40)  # 40 nonzeros in 1600 entries: segment sums
    sparse = qpush.ConstraintTerms(eye, np.zeros(40), quad=eye, neglog1p=eye)
    assert {name for name in vars(sparse) if name.startswith("_")} == STORAGE
    assert DENSE_PARTS.isdisjoint(vars(sparse))
