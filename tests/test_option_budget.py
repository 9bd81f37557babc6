"""Meta-test: the option budget.

ROADMAP has tracked these counts by hand since PR 16 — environment
variables, ``ExecutionOptions`` fields, and the serving runtime's
constructor keywords.  A rise fails here, so it has to be argued in
the diff that edits the number; a fall should lower the number too.
"""

import dataclasses
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.api import ExecutionOptions
from repro.serve import ServingRuntime

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
            11,
        ),
        ("ServingRuntime keywords", keywords(ServingRuntime), 10),
    ],
    ids=["env", "options", "serving"],
)
def test_option_budget(what, names, budget):
    assert len(names) <= budget, (
        f"{len(names)} {what} (budget {budget}): {', '.join(names)}"
    )
