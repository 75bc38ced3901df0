"""Hygiene rules: the small sins that turn into silent fidelity bugs.

* mutable default arguments alias state across every call — in a
  simulator that means state leaking between supposedly-independent
  experiment runs;
* bare ``except:`` swallows the typed error taxonomy in
  :mod:`repro.common.errors` (and ``KeyboardInterrupt``);
* ``print()`` in a library module corrupts experiment table output —
  results go through return values or the stats helpers (the CLI and
  the lint runner are the terminal surface, and are exempt);
* arithmetic mixing ``*_us`` with ``*_ms`` (or bytes with KiB) operands
  is how unit bugs slip past review — all simulated time is integer
  microseconds, all sizes are bytes.
"""

import ast

#: Modules whose job is terminal output.
PRINT_EXEMPT_MODULES = frozenset(
    {
        "repro.cli",
        "repro.__main__",
        "repro.analysis.runner",
        "repro.analysis.__main__",
    }
)

#: Identifier suffix -> canonical unit.  Time units are distinct from
#: one another and from size units; multiplying is how you convert, so
#: only +/-/+=/-=/comparisons are checked.
UNIT_SUFFIXES = {
    "_ns": "ns",
    "_us": "us",
    "_ms": "ms",
    "_bytes": "bytes",
    "_kib": "KiB",
    "_mib": "MiB",
    "_gib": "GiB",
}

_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})


def mutable_default(module, project):
    for node in module.defs:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _mutable(default):
                yield default, (
                    "mutable default argument in %s(); default to None "
                    "and construct inside the body" % node.name
                )


def _mutable(node):
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
        and not node.args
        and not node.keywords
    )


def bare_except(module, project):
    for node in module.handlers:
        if node.type is None:
            yield node, (
                "bare except:; catch a repro.common.errors type (or at "
                "least Exception)"
            )


def print_call(module, project):
    if module.module in PRINT_EXEMPT_MODULES:
        return
    for node in module.calls:
        if isinstance(node.func, ast.Name) and node.func.id == "print":
            yield node, (
                "print() in a library module; return the value (only the "
                "CLI surface prints)"
            )


def unit_mix(module, project):
    for node in module.arithmetic:
        if isinstance(node, ast.Compare):
            operands = [node.left] + list(node.comparators)
            pairs = list(zip(operands, operands[1:]))
        elif not isinstance(node.op, (ast.Add, ast.Sub)):
            continue
        elif isinstance(node, ast.BinOp):
            pairs = [(node.left, node.right)]
        else:  # AugAssign: ``total_us += delay_ms``
            pairs = [(node.target, node.value)]
        for left, right in pairs:
            lunit = _unit_of(left)
            runit = _unit_of(right)
            if lunit and runit and lunit != runit:
                yield node, (
                    "mixed units: %s (%s) combined with %s (%s); convert "
                    "explicitly (see repro.common.units)"
                    % (_name_of(left), lunit, _name_of(right), runit)
                )


def _name_of(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return "<expr>"


def _unit_of(node):
    name = _name_of(node).lower()
    for suffix, unit in UNIT_SUFFIXES.items():
        if name.endswith(suffix):
            return unit
    return None
