"""Seeding defects into a lowered block's loop-nest IR.

The native sanitizer reads ``NativeBlock.spec.ir``, so a seeded defect
is a *tree edit*: swap one subtree for a wrong one, hand the sanitizer
a stand-in block carrying the edited tree.
"""

import copy
from types import SimpleNamespace

from repro.backend.loopnest import Load, Store, add, ident, num, paren


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


def with_ir(native, ir):
    """A stand-in for ``native`` whose spec carries the tree ``ir``."""
    spec = copy.copy(native.spec)
    spec.ir = ir
    return SimpleNamespace(spec=spec, output_name=native.output_name)
