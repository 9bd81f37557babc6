"""Static verification of compiled instruction tapes and partition plans.

The tape executor (:mod:`repro.backend.plan`) compiles each partition
block once and then replays the tape for every request the serving
runtime dispatches to it — a miscompiled or corrupted tape silently
poisons every subsequent execution.  This module checks the invariants
a well-formed plan must satisfy *statically*, before any execution:

* **SSA discipline** — an instruction's output slot is its tape index,
  so every argument must reference an earlier slot (``TAPE001``) that
  the release schedule has not freed yet (``TAPE002``);
* **instruction shape** — known opcode (``TAPE003``), per-opcode
  argument count and immediates (``TAPE004``), well-formed symbolic
  coordinate-grid/mask keys (``TAPE005``);
* **root and liveness** — a valid, never-released root slot
  (``TAPE006``), no instructions unreachable from it (``TAPE007``);
* **provenance** — gathers only read images external to the block
  (``TAPE009``), and, when the source graph and block are available,
  the tape is diffed instruction-by-instruction against a fresh
  reference recompilation (``TAPE008``) — the check that catches
  *semantic* corruption (a flipped constant, a swapped operator) that
  is statically well-formed;
* **plan structure** — block schedule respects producer dependences
  (``PLAN001``), plan outputs cover the graph's external outputs
  (``PLAN002``), partition and graph signatures match (``PLAN003``),
  one producer per output image (``PLAN004``).

Under ``REPRO_VALIDATE=strict`` (:func:`repro.envknobs.validate_mode`)
the plan compiler runs these checks on every freshly built plan, and
the serving runtime marks the cached entries it verified.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Set, Tuple

from repro.analysis.diagnostics import (
    Diagnostic,
    diag,
    has_errors,
    render_diagnostics,
)
from repro.backend.numpy_exec import _BIN_FN, _CALL_FN, _CMP_FN, block_schedule
from repro.backend.plan import (
    BlockPlan,
    Instr,
    PartitionPlan,
    compile_block,
    compile_kernel,
)
from repro.dsl.boundary import BoundaryMode, BoundarySpec
from repro.graph.dag import KernelGraph
from repro.graph.partition import Partition, PartitionBlock
from repro.ir.expr import SFU_ARITY

#: Every opcode the tape executor dispatches on.
KNOWN_OPS = frozenset(
    {
        "const",
        "param",
        "gather",
        "maskfill",
        "bin",
        "un",
        "cmp",
        "select",
        "call",
        "cast",
    }
)

_GRID_TAGS = frozenset({"base", "shift", "resolve"})
_MASK_TAGS = frozenset({"oob", "ormask"})
_BOUNDARY_MODES = frozenset(mode.value for mode in BoundaryMode)


class PlanVerificationError(RuntimeError):
    """A plan failed static verification; carries the diagnostics."""

    def __init__(self, diagnostics: Sequence[Diagnostic], context: str = ""):
        self.diagnostics = tuple(diagnostics)
        self.context = context
        head = f"plan verification failed ({context})" if context else (
            "plan verification failed"
        )
        super().__init__(f"{head}:\n{render_diagnostics(self.diagnostics)}")


def enforce(diagnostics: Sequence[Diagnostic], context: str = "") -> None:
    """Raise :class:`PlanVerificationError` when any error is present."""
    if has_errors(diagnostics):
        raise PlanVerificationError(diagnostics, context)


# ---------------------------------------------------------------------------
# Symbolic key well-formedness
# ---------------------------------------------------------------------------


def _grid_key_ok(key: object) -> bool:
    if not isinstance(key, tuple) or not key:
        return False
    tag = key[0]
    if tag == "base":
        return (
            len(key) == 4
            and key[1] in ("x", "y")
            and isinstance(key[2], int)
            and isinstance(key[3], int)
            and key[2] > 0
            and key[3] > 0
        )
    if tag == "shift":
        return (
            len(key) == 3
            and _grid_key_ok(key[1])
            and isinstance(key[2], int)
            and key[2] != 0
        )
    if tag == "resolve":
        return (
            len(key) == 4
            and _grid_key_ok(key[1])
            and isinstance(key[2], int)
            and key[2] > 0
            and key[3] in _BOUNDARY_MODES
        )
    return False


def _mask_key_ok(key: object) -> bool:
    if not isinstance(key, tuple) or not key:
        return False
    tag = key[0]
    if tag == "oob":
        return (
            len(key) == 3
            and _grid_key_ok(key[1])
            and isinstance(key[2], int)
            and key[2] > 0
        )
    if tag == "ormask":
        return len(key) == 3 and _mask_key_ok(key[1]) and _mask_key_ok(key[2])
    return False


def _finite_number(value: object) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and math.isfinite(value)
    )


# ---------------------------------------------------------------------------
# Tape-level verification
# ---------------------------------------------------------------------------


def _check_instr_shape(instr: Instr, label: Optional[str], path: str) -> List[Diagnostic]:
    """TAPE003/TAPE004/TAPE005: opcode, operand count, immediates."""
    op = instr.op
    if op not in KNOWN_OPS:
        return [
            diag("TAPE003", f"unknown tape opcode {op!r}", kernel=label, path=path, op=op)
        ]

    def malformed(why: str) -> Diagnostic:
        return diag(
            "TAPE004",
            f"malformed {op} instruction: {why}",
            kernel=label,
            path=path,
            op=op,
            args=list(instr.args),
            aux=repr(instr.aux),
        )

    def bad_key(kind: str, key: object) -> Diagnostic:
        return diag(
            "TAPE005",
            f"malformed {kind} key {key!r} in {op} instruction",
            kernel=label,
            path=path,
            op=op,
            key=repr(key),
        )

    found: List[Diagnostic] = []
    nargs = len(instr.args)
    aux = instr.aux
    if op == "const":
        if nargs != 0 or len(aux) != 1:
            found.append(malformed("expects no args and one immediate"))
        elif not _finite_number(aux[0]):
            found.append(malformed(f"constant {aux[0]!r} is not a finite number"))
    elif op == "param":
        if nargs != 0 or len(aux) != 1 or not isinstance(aux[0], str) or not aux[0]:
            found.append(malformed("expects no args and one parameter name"))
    elif op == "bin":
        if nargs != 2 or len(aux) != 1:
            found.append(malformed("expects two args and one operator"))
        elif aux[0] not in _BIN_FN:
            found.append(malformed(f"unknown binary operator {aux[0]!r}"))
    elif op == "un":
        if nargs != 1 or len(aux) != 1:
            found.append(malformed("expects one arg and one operator"))
        elif aux[0] not in ("neg", "abs"):
            found.append(malformed(f"unknown unary operator {aux[0]!r}"))
    elif op == "cmp":
        if nargs != 2 or len(aux) != 1:
            found.append(malformed("expects two args and one operator"))
        elif aux[0] not in _CMP_FN:
            found.append(malformed(f"unknown comparison operator {aux[0]!r}"))
    elif op == "select":
        if nargs != 3 or aux:
            found.append(malformed("expects three args and no immediates"))
    elif op == "call":
        if len(aux) != 1 or aux[0] not in _CALL_FN:
            found.append(malformed(f"unknown SFU function {aux!r}"))
        elif nargs != SFU_ARITY.get(aux[0], -1):
            found.append(
                malformed(
                    f"{aux[0]} expects {SFU_ARITY[aux[0]]} argument(s), got {nargs}"
                )
            )
    elif op == "cast":
        if nargs != 1 or len(aux) != 1:
            found.append(malformed("expects one arg and one dtype"))
        else:
            import numpy as np

            try:
                np.dtype(aux[0])
            except TypeError:
                found.append(malformed(f"invalid dtype {aux[0]!r}"))
    elif op == "gather":
        if nargs != 0 or len(aux) != 4:
            found.append(malformed("expects no args and (image, xi, yi, boundary)"))
        else:
            image, xi, yi, boundary = aux
            if not isinstance(image, str) or not image:
                found.append(malformed(f"image name {image!r} is not a string"))
            if not isinstance(boundary, BoundarySpec):
                found.append(malformed(f"boundary {boundary!r} is not a BoundarySpec"))
            for key in (xi, yi):
                if not _grid_key_ok(key):
                    found.append(bad_key("grid", key))
    elif op == "maskfill":
        if nargs != 1 or len(aux) != 2:
            found.append(malformed("expects one arg and (mask key, fill value)"))
        else:
            mask_key, fill = aux
            if not _mask_key_ok(mask_key):
                found.append(bad_key("mask", mask_key))
            if not _finite_number(fill):
                found.append(malformed(f"fill value {fill!r} is not a finite number"))
    return found


def verify_tape(
    tape: Sequence[Instr],
    root: int,
    release: Optional[Sequence[Tuple[int, ...]]] = None,
    label: Optional[str] = None,
) -> List[Diagnostic]:
    """Static invariants of one instruction tape.

    ``release`` is the per-instruction slot-release schedule
    (:class:`~repro.backend.plan.BlockPlan` exposes its own); omit it to
    check the tape alone.  ``label`` names the tape in diagnostics
    (typically the destination kernel).
    """
    found: List[Diagnostic] = []
    if not tape:
        found.append(
            diag("TAPE006", "tape is empty", kernel=label, root=root)
        )
        return found

    for index, instr in enumerate(tape):
        path = f"tape[{index}]"
        found.extend(_check_instr_shape(instr, label, path))
        for arg in instr.args:
            if not isinstance(arg, int) or arg < 0 or arg >= index:
                found.append(
                    diag(
                        "TAPE001",
                        f"instruction {index} ({instr.op}) uses slot {arg!r}, "
                        f"which is not defined before it",
                        kernel=label,
                        path=path,
                        index=index,
                        slot=arg,
                    )
                )

    if not isinstance(root, int) or root < 0 or root >= len(tape):
        found.append(
            diag(
                "TAPE006",
                f"tape root {root!r} is outside the tape (length {len(tape)})",
                kernel=label,
                root=root,
            )
        )
        root = None  # reachability below needs a valid root

    if release is not None:
        if len(release) != len(tape):
            found.append(
                diag(
                    "TAPE002",
                    f"release schedule covers {len(release)} instructions, "
                    f"tape has {len(tape)}",
                    kernel=label,
                )
            )
        else:
            released: Set[int] = set()
            for index, instr in enumerate(tape):
                for arg in instr.args:
                    if arg in released:
                        found.append(
                            diag(
                                "TAPE002",
                                f"instruction {index} ({instr.op}) uses slot "
                                f"{arg} after its release",
                                kernel=label,
                                path=f"tape[{index}]",
                                index=index,
                                slot=arg,
                            )
                        )
                released.update(release[index])
            if root is not None and root in released:
                found.append(
                    diag(
                        "TAPE006",
                        f"tape root {root} is released before the tape ends",
                        kernel=label,
                        root=root,
                    )
                )

    if root is not None:
        live: Set[int] = set()
        stack = [root]
        while stack:
            slot = stack.pop()
            if slot in live or slot < 0 or slot >= len(tape):
                continue
            live.add(slot)
            stack.extend(tape[slot].args)
        for index in range(len(tape)):
            if index not in live:
                found.append(
                    diag(
                        "TAPE007",
                        f"instruction {index} ({tape[index].op}) is "
                        "unreachable from the tape root",
                        kernel=label,
                        path=f"tape[{index}]",
                        index=index,
                    )
                )
    return found


# ---------------------------------------------------------------------------
# Block- and partition-plan verification
# ---------------------------------------------------------------------------


def _diff_tapes(
    plan: BlockPlan, reference: BlockPlan, label: Optional[str]
) -> List[Diagnostic]:
    """TAPE008: instruction-by-instruction diff against a recompilation."""
    found: List[Diagnostic] = []
    if len(plan.tape) != len(reference.tape):
        found.append(
            diag(
                "TAPE008",
                f"tape has {len(plan.tape)} instructions, reference "
                f"recompilation has {len(reference.tape)}",
                kernel=label,
                tape_len=len(plan.tape),
                reference_len=len(reference.tape),
            )
        )
        return found
    for index, (got, want) in enumerate(zip(plan.tape, reference.tape)):
        if got != want:
            found.append(
                diag(
                    "TAPE008",
                    f"instruction {index} differs from the reference "
                    f"recompilation: {got} != {want}",
                    kernel=label,
                    path=f"tape[{index}]",
                    index=index,
                    got=repr(got),
                    want=repr(want),
                )
            )
    if plan.root != reference.root:
        found.append(
            diag(
                "TAPE008",
                f"tape root {plan.root} differs from the reference "
                f"recompilation root {reference.root}",
                kernel=label,
                root=plan.root,
                reference_root=reference.root,
            )
        )
    return found


def verify_block_plan(
    plan: BlockPlan,
    graph: Optional[KernelGraph] = None,
    block: Optional[PartitionBlock] = None,
) -> List[Diagnostic]:
    """All static invariants of one compiled block plan.

    With ``graph`` and ``block`` available the check also recompiles a
    reference tape and diffs against it (``TAPE008``) and rejects
    gathers of block-internal images (``TAPE009``); without them only
    the tape-local invariants run.
    """
    label = plan.output_name
    found = verify_tape(plan.tape, plan.root, plan._release, label=label)

    if graph is not None and block is not None:
        internal = {graph.kernel(name).output.name for name in block.vertices}
        for index, instr in enumerate(plan.tape):
            if instr.op == "gather" and len(instr.aux) == 4:
                image = instr.aux[0]
                if image in internal and not plan.naive_borders:
                    found.append(
                        diag(
                            "TAPE009",
                            f"instruction {index} gathers {image!r}, which "
                            "is produced inside the block (should be a "
                            "fused member evaluation)",
                            kernel=label,
                            path=f"tape[{index}]",
                            image=image,
                        )
                    )
        reference = compile_block(
            graph, block, naive_borders=plan.naive_borders
        )
        found.extend(_diff_tapes(plan, reference, label))
    elif plan.kind == "kernel":
        found.extend(_diff_tapes(plan, compile_kernel(plan.destination), label))
    return found


def verify_partition_plan(
    plan: PartitionPlan, graph: KernelGraph
) -> List[Diagnostic]:
    """All static invariants of a compiled partition plan.

    ``graph`` is the graph the caller *intends* to execute — the plan
    keeps only names, so the partition is rebuilt over it from the
    plan's block signature — and its structural signature must be the
    one the plan was compiled for (``PLAN003``, the check the serving
    plan cache runs on insert).
    """
    found: List[Diagnostic] = []
    if graph.structural_signature() != plan.graph_signature:
        found.append(
            diag(
                "PLAN003",
                "plan was compiled for a structurally different graph",
                plan_signature=plan.graph_signature,
                graph_signature=graph.structural_signature(),
            )
        )

    covered = {name for names in plan.partition_signature for name in names}
    if covered != set(graph.kernel_names):
        found.append(
            diag(
                "PLAN003",
                "partition does not cover the graph: "
                f"{sorted(set(graph.kernel_names) ^ covered)} mismatched",
                missing=sorted(set(graph.kernel_names) - covered),
                extra=sorted(covered - set(graph.kernel_names)),
            )
        )
        return found

    partition = Partition(
        graph,
        [PartitionBlock(graph, names) for names in plan.partition_signature],
    )
    schedule = block_schedule(graph, partition)
    if len(schedule) != len(plan.plans) or len(plan.deps) != len(plan.plans):
        found.append(
            diag(
                "PLAN003",
                f"plan has {len(plan.plans)} block plans and "
                f"{len(plan.deps)} dependence sets for "
                f"{len(schedule)} scheduled blocks",
                plans=len(plan.plans),
                deps=len(plan.deps),
                blocks=len(schedule),
            )
        )
        return found

    producer_block: dict = {}
    expected_deps: List[Set[int]] = []
    for index, block in enumerate(schedule):
        deps = {
            producer_block[image]
            for image in block.external_input_images()
            if image in producer_block
        }
        expected_deps.append(deps)
        for name in block.vertices:
            producer_block[graph.kernel(name).output.name] = index

    outputs_seen: dict = {}
    for index, (block, block_plan) in enumerate(zip(schedule, plan.plans)):
        label = block_plan.output_name
        deps = set(plan.deps[index])
        if any(dep >= index for dep in deps) or deps != expected_deps[index]:
            found.append(
                diag(
                    "PLAN001",
                    f"block {index} ({label!r}) declares dependences "
                    f"{sorted(deps)}, expected {sorted(expected_deps[index])}",
                    kernel=label,
                    index=index,
                    deps=sorted(deps),
                    expected=sorted(expected_deps[index]),
                )
            )
        previous = outputs_seen.get(label)
        if previous is not None:
            found.append(
                diag(
                    "PLAN004",
                    f"blocks {previous} and {index} both produce {label!r}",
                    kernel=label,
                    image=label,
                    blocks=[previous, index],
                )
            )
        outputs_seen[label] = index
        found.extend(verify_block_plan(block_plan, graph=graph, block=block))

    produced = set(outputs_seen)
    missing = set(graph.external_outputs) - produced
    if missing:
        found.append(
            diag(
                "PLAN002",
                f"plan produces no block for external outputs {sorted(missing)}",
                missing=sorted(missing),
                produced=sorted(produced),
            )
        )
    return found
