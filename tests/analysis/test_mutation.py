"""Mutation self-test of the plan verifier.

Injects random single-instruction mutations — flipped constants,
swapped operators, rewired arguments, moved roots — into compiled block
plans over randomized legal partitions of all six paper applications,
and requires the verifier to catch at least 95% of them.  The
recompile-diff check (``TAPE008``) is what makes statically well-formed
semantic corruption detectable at all, so this test is the acceptance
gate for the whole verifier."""

import zlib

import numpy as np
import pytest

from backend.test_plan_equiv import APP_GEOMETRY, _random_partition

from repro.analysis.diagnostics import has_errors
from repro.analysis.verifier import verify_block_plan
from repro.apps import APPLICATIONS
from repro.backend.numpy_exec import _BIN_FN, _CMP_FN, block_schedule
from repro.backend.plan import BlockPlan, Instr, plan_for_partition

#: Operator substitutions that always change semantics on generic input.
_BIN_SWAP = {"add": "sub", "sub": "add", "mul": "div", "div": "mul",
             "min": "max", "max": "min", "mod": "add"}
_CMP_SWAP = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt",
             "eq": "ne", "ne": "eq"}


def _mutate_instr(instr, index, tape, rng):
    """One random semantic mutation of ``instr``; None when impossible."""
    kind = rng.integers(0, 4)
    if kind == 0 and instr.op == "const":
        return Instr("const", (), (instr.aux[0] + 1.0,))
    if kind == 1 and instr.op == "bin":
        return Instr("bin", instr.args, (_BIN_SWAP[instr.aux[0]],))
    if kind == 1 and instr.op == "cmp":
        return Instr("cmp", instr.args, (_CMP_SWAP[instr.aux[0]],))
    if kind == 2 and instr.args and index > 1:
        args = list(instr.args)
        position = int(rng.integers(0, len(args)))
        replacement = int(rng.integers(0, index))
        if replacement == args[position]:
            return None
        args[position] = replacement
        return Instr(instr.op, tuple(args), instr.aux)
    if kind == 3 and instr.op == "un":
        other = "abs" if instr.aux[0] == "neg" else "neg"
        return Instr("un", instr.args, (other,))
    return None


def _mutant_plan(plan, tape=None, root=None):
    return BlockPlan(
        plan.destination,
        list(tape if tape is not None else plan.tape),
        plan.root if root is None else root,
        plan.store,
        plan.apply_reduction,
        plan.stats,
        plan.naive_borders,
        plan.kind,
    )


def _mutations(plan, rng, count):
    """Up to ``count`` distinct single-instruction mutants of ``plan``."""
    mutants = []
    attempts = 0
    while len(mutants) < count and attempts < count * 20:
        attempts += 1
        index = int(rng.integers(0, len(plan.tape)))
        mutated = _mutate_instr(plan.tape[index], index, plan.tape, rng)
        if mutated is None or mutated == plan.tape[index]:
            continue
        tape = list(plan.tape)
        tape[index] = mutated
        mutants.append(_mutant_plan(plan, tape=tape))
    if len(plan.tape) > 1:
        # Root relocation: the tape is untouched but the output is wrong.
        new_root = (plan.root - 1) % len(plan.tape)
        mutants.append(_mutant_plan(plan, root=new_root))
    return mutants


@pytest.mark.parametrize("app", sorted(APPLICATIONS))
def test_verifier_catches_injected_mutations(app):
    width, height = APP_GEOMETRY[app]
    graph = APPLICATIONS[app].build(width, height).build()
    rng = np.random.default_rng(zlib.crc32(app.encode()))

    total = 0
    caught = 0
    for _ in range(3):
        partition = _random_partition(graph, rng)
        plan = plan_for_partition(graph, partition)
        schedule = block_schedule(graph, partition)
        for block, block_plan in zip(schedule, plan.plans):
            for mutant in _mutations(block_plan, rng, count=6):
                total += 1
                found = verify_block_plan(mutant, graph=graph, block=block)
                if has_errors(found):
                    caught += 1
    assert total >= 15, f"mutation generator produced only {total} mutants"
    rate = caught / total
    assert rate >= 0.95, (
        f"{app}: verifier caught {caught}/{total} mutations ({rate:.0%})"
    )


# ---------------------------------------------------------------------------
# Native defects: semantically meaningful corruption of a block's loop
# nest that the native sanitizer (NAT) family must catch, not just the
# structural verifier.


def _native_defects(spec):
    """(label, subtree, wrong subtree) edits of a block's loop-nest IR,
    keyed by what each seeds.  Every edit that actually matches a
    block's tree must trip the sanitizer (the pristine tree verifies
    clean)."""
    from analysis.ir_mutation import channel_stride_defects, shifted

    from repro.backend.loopnest import Formal, ident, mul, num

    width = spec.width
    return (channel_stride_defects(spec) if spec.channels > 1 else []) + [
        # Off-by-one halo index: the interior body reaches one pixel past
        # the margin the flank loops guarantee.
        ("off-by-one-halo-index", shifted("x", 1), shifted("x", 2)),
        ("off-by-one-halo-row", shifted("y", -1), shifted("y", -2)),
        # Dropped restrict: the no-alias contract the tile loop relies on.
        (
            "dropped-restrict",
            Formal("double *", "out", True),
            Formal("double *", "out", False),
        ),
        # Transposed store: column-major indexing through a row-major plane.
        (
            "transposed-store",
            mul(ident("y"), num(width)),
            mul(ident("x"), num(width)),
        ),
    ]


def test_native_sanitizer_catches_seeded_defects():
    """The NAT family: every applicable defect seeded into the loop-nest
    IR of every native block of every app is caught; and every defect
    seeded into a block's schedule — the certificate alone, the tree
    alone, or a producer margin in both — is caught, with the code its
    family names."""
    from analysis.ir_mutation import replace_subtree, schedule_defects, with_ir

    from repro.analysis.native_check import verify_native_blocks
    from repro.backend.native_exec import native_plan_for_partition
    from repro.envknobs import validate_override
    from repro.eval.runner import partition_for
    from repro.model.hardware import KNOWN_GPUS

    gpu = KNOWN_GPUS["GTX680"]
    total = 0
    caught = 0
    schedule_mutants = 0
    missed = []
    for app in sorted(APPLICATIONS):
        width, height = APP_GEOMETRY[app]
        graph = APPLICATIONS[app].build(width, height).build()
        partition = partition_for(graph, gpu, "optimized")
        with validate_override("standard"):
            nplan = native_plan_for_partition(graph, partition)
        blocks = block_schedule(graph, partition)
        for (block_plan, native), block in zip(nplan.blocks, blocks):
            if native is None:
                continue
            pristine = native.spec.ir
            assert not verify_native_blocks([native]), (
                f"{app}/{native.output_name}: pristine tree flagged"
            )
            for label, old, new in _native_defects(native.spec):
                mutated = replace_subtree(pristine, old, new)
                if mutated == pristine:
                    continue
                total += 1
                if verify_native_blocks([with_ir(native, mutated)]):
                    caught += 1
                else:  # pragma: no cover - failure detail
                    print(f"missed: {app}/{native.output_name} {label}")
            defects = schedule_defects(native, block_plan, graph, block)
            for label, mutant, codes in defects:
                schedule_mutants += 1
                found = {d.code for d in verify_native_blocks([mutant])}
                if not found or (codes is not None and not found & codes):
                    missed.append(f"{app}/{native.output_name} {label}: {found}")
                elif label.startswith("both") and "NAT004" in found:
                    missed.append(f"{app}/{native.output_name} {label}: NAT004")
    assert total >= 10, f"native defect seeding produced only {total} mutants"
    rate = caught / total
    assert rate >= 0.95, (
        f"sanitizer caught {caught}/{total} native defects ({rate:.0%})"
    )
    assert schedule_mutants >= 50, schedule_mutants
    assert not missed
