"""Every optional parameter of the package is set by some caller, and
every public name has a caller outside the tests.

A defaulted or keyword-only parameter that no call in the package, its
tests or its demos ever passes always takes one value, so it is a constant
spelled as a knob.  This test parses the sources with `ast` and lists every
such parameter.  Calls are matched on the called function or attribute
name; a parameter counts as set when some call passes it by keyword, or
passes enough positional arguments to reach it.  A `**mapping` argument
counts as setting nothing.

A public top-level function or class that only tests call is a test
oracle and belongs in `tests/oracles.py`, unless it is one of the library
entry points in `LIBRARY_ONLY`.  A name counts as used when a package
module other than `__init__`, or a demo, mentions it beyond its own
definition, matched on the bare name as the calls are.
"""

from __future__ import annotations

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "isaacs"
CALLERS = (PACKAGE, ROOT / "tests", ROOT / "demos")

# Set by no caller, but bound by name in the benchmark's span tracer
# (perfbench/tracer.py: `_march_hook` reads cfl_margin, `_lattice_hook`
# reads consistency_tol) on calls that `isaacs run` makes; removing them
# breaks the traced run.
TRACER_BOUND = {
    ("forwardsim", "build_lattice", "consistency_tol"),
    ("pde", "solve_isaacs_double_obstacle", "cfl_margin"),
}

# Documented library entry points that only tests call: `isaacs run` reaches
# the same numbers through the lattice readers and the stacked march.
LIBRARY_ONLY = {
    ("games", "fixed_control_crosscheck"),
    ("pde", "solve_isaacs_penalized"),
    ("rbsde", "apriori_estimate_check"),
    ("rbsde", "backward_semigroup"),
    ("rbsde", "comparison_check"),
}


def _functions(tree):
    """(function node, is a method) for every def in the module."""
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list
        )
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node, id(node) in methods


def _optional_parameters(path):
    """(function, parameter, positional index or None) for every defaulted
    or keyword-only parameter; the index skips a method's self or cls."""
    for fn, is_method in _functions(ast.parse(path.read_text())):
        positional = fn.args.posonlyargs + fn.args.args
        if is_method:
            positional = positional[1:]
        first_default = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional):
            if i >= first_default:
                yield fn.name, arg.arg, i
        for arg in fn.args.kwonlyargs:
            yield fn.name, arg.arg, None


def _calls():
    """Per called name: the keywords passed, and the most positional
    arguments any one call passes before a `*args`."""
    keywords = collections.defaultdict(set)
    positional = collections.defaultdict(int)
    for folder in CALLERS:
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                if isinstance(node.func, ast.Name):
                    name = node.func.id
                elif isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                else:
                    continue
                keywords[name].update(k.arg for k in node.keywords if k.arg is not None)
                count = 0
                for arg in node.args:
                    if isinstance(arg, ast.Starred):
                        break
                    count += 1
                positional[name] = max(positional[name], count)
    return keywords, positional


def test_every_optional_parameter_has_a_caller():
    keywords, positional = _calls()
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, param, index in _optional_parameters(path):
            if param in keywords[fn] or (index is not None and positional[fn] > index):
                continue
            if (path.stem, fn, param) not in TRACER_BOUND:
                unset.append(f"{path.stem}.{fn}({param})")
    assert unset == [], "optional parameters no caller sets: " + ", ".join(unset)


def test_the_tracer_bound_parameters_still_exist():
    # an allowlist entry whose parameter is gone would hide nothing
    present = {
        (path.stem, fn, param)
        for path in sorted(PACKAGE.glob("*.py"))
        for fn, param, _ in _optional_parameters(path)
    }
    assert TRACER_BOUND <= present


def _public_definitions():
    """(module, name) of every public top-level function or class."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield path.stem, node.name


def _used_names():
    """Every name, attribute and imported name that a package module other
    than `__init__`, or a demo, mentions."""
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
    used = set()
    for path in paths + sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _used_names()
    unused = [
        f"{module}.{name}"
        for module, name in _public_definitions()
        if name not in used and (module, name) not in LIBRARY_ONLY
    ]
    assert unused == [], "public names only tests use: " + ", ".join(unused)


def test_the_library_entry_points_are_still_called_only_by_tests():
    # an entry that is gone, or that the package now calls, hides nothing
    used = _used_names()
    assert LIBRARY_ONLY <= set(_public_definitions())
    assert sorted(name for _, name in LIBRARY_ONLY if name in used) == []
