"""The package imports nothing beyond the standard library and numpy:
numpy is its only runtime dependency, so scipy or hypothesis, which may
be installed for development, must not creep into src/, and neither must
numpy.random.  And each module, and each test module, uses every name it
imports at module level, and src/ uses every private name a module
defines at module level."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sievelab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "sievelab"}


def _imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_stdlib_and_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    outside = [f"{path.name}:{line}: {name}"
               for path in files for line, name in _imports(path)
               if name.split(".")[0] not in ALLOWED]
    assert not outside, outside


def test_every_module_level_import_is_used():
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path == SRC / "__init__.py":  # re-exports the public names
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused, unused


def _private_definitions(tree):
    """The module-level private functions, classes and constants of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def test_every_private_module_level_name_is_used():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    dead = [f"{name}:{line}: {private}" for name, tree in trees.items()
            for line, private in _private_definitions(tree) if private not in used]
    assert not dead, dead


def _reads_numpy_random(tree):
    """The lines of a module that import numpy.random or read np.random."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names] + [node.module]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [f"{node.value.id}.{node.attr}".replace("np.", "numpy.", 1)]
        else:
            continue
        if any(name == "numpy.random" or name.startswith("numpy.random.") for name in names):
            yield node.lineno


def test_package_never_touches_numpy_random():
    # importing numpy.random costs a fresh process milliseconds and about
    # 5 MB of RSS (numpy 2.4); the Lanczos start vector has its own stream
    hits = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
            for line in _reads_numpy_random(ast.parse(path.read_text(), filename=str(path)))]
    assert not hits, hits


def _imported_after_every_route(module):
    """Whether `module` is in sys.modules of a fresh process once every
    route and the sieve command have run."""
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from sievelab import cli, delta, delta_rational, norms
        routes = [delta(6.0, 1, 1.0, 40.0).route,
                  delta(4.0, 1, 1.0, 900.0).route,
                  delta_rational(6, 60).route,
                  norms._solve(norms._rational(6, 60), 1e-9, "buckets").route]
        assert routes == ["pairs", "family", "bins", "buckets"], routes
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run(["sieve", "-N", "60", "-Q", "6", "--trials", "2"]) in (0, 1)
        print({module!r} in sys.modules)
    """)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_every_route_and_the_sieve_command_leave_numpy_random_unimported():
    assert _imported_after_every_route("numpy.random") == ["False"]


def test_every_route_and_the_sieve_command_leave_numpy_polynomial_unimported():
    # numpy.polynomial loads lazily, about 3.5 ms in a fresh process; the
    # family route's Gauss-Legendre nodes come from eigh instead
    assert _imported_after_every_route("numpy.polynomial") == ["False"]


def test_every_route_and_the_sieve_command_leave_concurrent_futures_unimported():
    # concurrent.futures pulls in logging, about 4.7 ms of a fresh process;
    # only a norm or scan grid on more than one thread needs it
    assert _imported_after_every_route("concurrent.futures") == ["False"]


# defaulted parameters of exported functions that no call in src/ or bench/
# sets, each with the reason it stays an option
_UNSET_OPTIONS = {
    "rationals_up_to.sign": "the signed view of Q^x, which RationalPoint.sign, as_point "
                            "and reduce_mod also serve",
    "in_localization.strict": "an oracle for the unit masks",
    "z_cd_euler.prime_cutoff": "a series truncation the tests vary to check convergence",
    "z_cd_series.cutoff": "a series truncation the tests vary to check convergence",
}


def _exported_functions():
    """{name: FunctionDef} of the functions `sievelab/__init__.py` exports."""
    exported = {}
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = {alias.name for alias in node.names}
            module = ast.parse((SRC / f"{node.module}.py").read_text())
            exported.update({f.name: f for f in module.body
                             if isinstance(f, ast.FunctionDef) and f.name in names})
    return exported


def _defaulted(function):
    """The names of a function's parameters that have a default."""
    args = function.args
    positional = args.posonlyargs + args.args
    return ([a.arg for a in positional[len(positional) - len(args.defaults):]]
            + [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def test_every_defaulted_parameter_of_the_api_is_set_by_some_caller():
    # an option with one value in use is a constant; the scan covers the
    # calls in the package and the bench, by keyword or by position
    functions = _exported_functions()
    set_by_a_call = set()
    for path in sorted(SRC.glob("*.py")) + sorted((SRC.parents[1] / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in functions:
                continue
            args = functions[name].args
            positional = [a.arg for a in args.posonlyargs + args.args]
            # a starred argument may fill every position
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            reach = len(positional) if starred else len(node.args)
            set_by_a_call.update(f"{name}.{p}" for p in positional[:reach])
            set_by_a_call.update(f"{name}.{k.arg}" for k in node.keywords if k.arg)
    unset = {f"{name}.{p}" for name, function in functions.items()
             for p in _defaulted(function)} - set_by_a_call
    assert unset == set(_UNSET_OPTIONS), ", ".join(sorted(unset))
