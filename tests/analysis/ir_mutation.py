"""Seeding defects into a lowered block's loop-nest IR.

The native sanitizer reads ``NativeBlock.spec.ir``, so a seeded defect
is a *tree edit*: swap one subtree for a wrong one, hand the sanitizer
a stand-in block carrying the edited tree.
"""

import copy
from types import SimpleNamespace

from repro.backend.loopnest import add, ident, num, paren


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


def with_ir(native, ir):
    """A stand-in for ``native`` whose spec carries the tree ``ir``."""
    spec = copy.copy(native.spec)
    spec.ir = ir
    return SimpleNamespace(spec=spec, output_name=native.output_name)
