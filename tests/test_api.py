"""Every optional parameter of the package is set by some caller.

A defaulted or keyword-only parameter that no call in the package, its
tests or its demos ever passes always takes one value, so it is a constant
spelled as a knob.  This test parses the sources with `ast` and lists every
such parameter.  Calls are matched on the called function or attribute
name; a parameter counts as set when some call passes it by keyword, or
passes enough positional arguments to reach it.  A `**mapping` argument
counts as setting nothing.
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
