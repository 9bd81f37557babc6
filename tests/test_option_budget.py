"""Meta-test: the option budget.

ROADMAP has tracked these counts by hand since PR 16 — environment
variables, ``ExecutionOptions`` fields, ``FusionSettings`` fields and
the serving runtime's constructor keywords.  A rise fails here, so it
has to be argued in the diff that edits the number; a fall should lower
the number too.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.api import ExecutionOptions
from repro.serve import FusionSettings, ServingRuntime

SRC = Path(repro.__file__).resolve().parent


def env_knobs():
    names = set()
    for path in SRC.rglob("*.py"):
        names.update(re.findall(r"\bREPRO_[A-Z0-9_]+\b", path.read_text()))
    return sorted(names)


def keywords(cls):
    parameters = list(inspect.signature(cls.__init__).parameters)
    return parameters[1:]  # drop self


@pytest.mark.parametrize(
    "what, names, budget",
    [
        ("REPRO_* environment variables", env_knobs(), 10),
        (
            "ExecutionOptions fields",
            [f.name for f in dataclasses.fields(ExecutionOptions)],
            8,
        ),
        (
            "FusionSettings fields",
            [f.name for f in dataclasses.fields(FusionSettings)],
            4,
        ),
        ("ServingRuntime keywords", keywords(ServingRuntime), 8),
    ],
    ids=["env", "options", "fusion", "serving"],
)
def test_option_budget(what, names, budget):
    assert len(names) <= budget, (
        f"{len(names)} {what} (budget {budget}): {', '.join(names)}"
    )


#: The parsers of the native lowering knobs.
LOWERING_PARSERS = ("native_tile2d_env", "native_f32_enabled", "native_cflags_env")


def callers(names):
    """``{name: {"module:function", ...}}``: where in ``src/`` each of
    ``names`` is called — the innermost enclosing function, or
    ``module:<module>`` for a call at import time."""
    found = {name: set() for name in names}

    class Calls(ast.NodeVisitor):
        def __init__(self, module):
            self.where = [f"{module}:<module>"]
            self.module = module

        def visit_FunctionDef(self, node):
            self.where.append(f"{self.module}:{node.name}")
            self.generic_visit(node)
            self.where.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Call(self, node):
            name = getattr(node.func, "id", None) or getattr(
                node.func, "attr", None
            )
            if name in found:
                found[name].add(self.where[-1])
            self.generic_visit(node)

    for path in SRC.rglob("*.py"):
        Calls(path.stem).visit(ast.parse(path.read_text()))
    return found


def test_the_lowering_knobs_are_read_in_one_place():
    """A request resolves the native lowering once, so one function
    reads the three parsers; everything below takes its value."""
    found = callers(LOWERING_PARSERS)
    readers = set().union(*found.values())
    assert readers == {"envknobs:native_lowering"}, found
    assert all(found.values()), found
