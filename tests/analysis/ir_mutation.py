"""Seeding defects into a lowered block's loop-nest IR.

The native sanitizer reads ``NativeBlock.spec.ir`` and checks it
against the block's schedule, ``spec.schedule``, so a seeded defect is
a *tree edit* (swap one subtree for a wrong one), a *certificate edit*
(a schedule that says something else), or both: hand the sanitizer a
stand-in block carrying the edited tree and schedule.
"""

import copy
from types import SimpleNamespace

from repro.backend import native_lower
from repro.backend.loopnest import (
    For,
    IntDecl,
    Load,
    ScratchDecl,
    Store,
    add,
    ident,
    num,
    paren,
)
from repro.envknobs import native_lowering


def shifted(axis, offset):
    """The tree of ``(axis + (offset))`` — a shifted coordinate."""
    return paren(add(ident(axis), paren(num(offset))))


def replace_subtree(tree, old, new):
    """``tree`` with every subtree equal to ``old`` replaced by ``new``."""
    if type(tree) is type(old) and tree == old:
        return new
    if isinstance(tree, tuple):
        items = [replace_subtree(item, old, new) for item in tree]
        return type(tree)(*items) if hasattr(tree, "_fields") else tuple(items)
    return tree


def find_nodes(tree, kind, **fields):
    """Every ``kind`` node under ``tree`` whose fields equal ``fields``."""
    found = []
    if type(tree) is kind and all(
        getattr(tree, name) == value for name, value in fields.items()
    ):
        found.append(tree)
    if isinstance(tree, tuple):
        for item in tree:
            found.extend(find_nodes(item, kind, **fields))
    return found


def channel_stride_defects(spec):
    """(label, node, wrong node) edits of a multi-channel block's tree:
    one global ``Load`` and the ``out`` ``Store`` stepping one element
    per pixel (the next channel's values, not the next pixel's), and a
    ``Load`` stepping ``C + 1`` (off the end of the bound image)."""
    channels = spec.channels
    load = find_nodes(spec.ir, Load, stride=channels)[0]
    store = find_nodes(spec.ir, Store, buffer="out")[0]
    return [
        ("load-without-channel-stride", load, load._replace(stride=1)),
        ("store-without-channel-stride", store, store._replace(stride=1)),
        (
            "stride-past-the-channels",
            load,
            load._replace(stride=channels + 1),
        ),
    ]


def with_ir(native, ir, schedule=None):
    """A stand-in for ``native`` whose spec carries the tree ``ir`` (and
    the certificate ``schedule``, when given)."""
    spec = copy.copy(native.spec)
    spec.ir = ir
    if schedule is not None:
        spec.schedule = schedule
    return SimpleNamespace(spec=spec, output_name=native.output_name)


def with_stage(schedule, index, **fields):
    """``schedule`` with stage ``index``'s ``fields`` replaced."""
    stages = list(schedule.stages)
    stages[index] = stages[index]._replace(**fields)
    return schedule._replace(stages=tuple(stages))


def _with_margin(schedule, index, side, delta):
    """``schedule`` with one margin of stage ``index`` moved by ``delta``."""
    margins = list(schedule.stages[index].margins)
    margins[side] += delta
    return with_stage(schedule, index, margins=tuple(margins))


def _first_margin(schedule):
    """``(stage, side)`` of the schedule's first positive margin (a
    producer's: the destination has none), or ``None``."""
    return next(
        (
            (index, side)
            for index, stage in enumerate(schedule.stages)
            for side, margin in enumerate(stage.margins)
            if margin > 0
        ),
        None,
    )


def schedule_edits(schedule, width):
    """(label, edited schedule) pairs: a margin +1 and -1, another tile
    shape, a widened split band, the first stage dropped."""
    stages = schedule.stages
    first = 0 if stages[0].materialized else len(stages) - 1
    edits = [("margin+1", _with_margin(schedule, first, 0, 1))]
    if _first_margin(schedule):
        edits.append(("margin-1", _with_margin(schedule, *_first_margin(schedule), -1)))
    rows, cols = schedule.grid
    tile = (rows + 1, cols) if schedule.tile else (rows, width)
    edits.append(("tile", schedule._replace(tile=tile)))
    banded = [index for index, stage in enumerate(stages) if stage.band]
    if banded:
        band = stages[banded[0]].band
        widened = (band[0] - 1,) + band[1:]
        edits.append(("band", with_stage(schedule, banded[0], band=widened)))
    edits.append(("stage-dropped", schedule._replace(stages=stages[1:])))
    return edits


def without_stage(ir, index):
    """``ir`` with materialized stage ``index`` gone: its bodies, its
    scratch and region decls, its split decls and its fill loop."""
    names = {f"scr_{index}"} | {
        f"{name}_{index}"
        for name in ("sx0", "sx1", "sy0", "sy1", "fla", "fl", "fha", "fh")
    }

    def kept(stmt):
        if type(stmt) in (IntDecl, ScratchDecl):
            return stmt.name not in names
        return not (type(stmt) is For and stmt.lo == ident(f"sy0_{index}"))

    out = []
    for fn in ir:
        if fn.name.endswith((f"_s{index}", f"_s{index}i")):
            continue
        if fn.ret == "void":  # the driver: tile grid, then the tile loop
            *grid, loop = fn.body
            loop = loop._replace(body=tuple(filter(kept, loop.body)))
            fn = fn._replace(body=(*grid, loop))
        out.append(fn)
    return tuple(out)


def schedule_defects(native, plan, graph, block):
    """Seeded schedule defects of ``native``, the lowered ``plan`` of
    the partition ``block``, as (label, stand-in block, the codes that
    catch it — ``None``: any).  Each edit of :func:`schedule_edits` goes
    into the certificate alone (NAT004, or NAT001 for a scratch the
    certificate sizes larger) and into the tree alone — the block
    printed from the edited schedule; and a producer margin shrinks in
    both, which only the margin ledger catches (NAT001)."""
    spec = native.spec
    schedule, ir = spec.schedule, spec.ir
    lowering = native_lowering()
    _, stages, _ = native_lower.schedule_block(plan, graph, block, lowering)

    def lowered_with(edited):
        return native_lower._lower_stages(
            plan.destination.space, spec.fn_name, stages, edited,
            lowering.f32, frozenset(),
        )

    defects = []
    for label, edited in schedule_edits(schedule, spec.width):
        defects.append(
            (f"certificate {label}", with_ir(native, ir, edited), {"NAT001", "NAT004"})
        )
        if label != "stage-dropped":
            tree = lowered_with(edited).ir
        elif schedule.stages[0].materialized:
            tree = without_stage(ir, 0)
        else:
            continue
        if tree != ir:
            defects.append((f"tree {label}", with_ir(native, tree), None))
    if _first_margin(schedule):
        shrunk = _with_margin(schedule, *_first_margin(schedule), -1)
        both = lowered_with(shrunk)
        defects.append(
            ("both producer-margin-1", with_ir(native, both.ir, shrunk), {"NAT001"})
        )
    return defects
