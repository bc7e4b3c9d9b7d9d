"""The public surface is what the program itself uses.

Every name that ``latentpath`` exports must be used by a command, a demo or
the benchmark: referenced in the package outside its own definition and
``__init__.py``, or in ``demos/`` or ``perfbench/``. So must every public
field, property and method of an exported class. A name that only tests
reach belongs in the tests as a helper, not in the package.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import io
import tokenize
from pathlib import Path

import latentpath as lp

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(lp.__file__).resolve().parent


def sources() -> list[Path]:
    paths = [path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"]
    return paths + [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def referenced_names(path: Path) -> set[str]:
    """Names a Python file uses as code, apart from those it defines with
    ``def`` or ``class``; comments and strings do not count."""
    names, after_def = set(), False
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
        if tok.type == tokenize.NAME:
            if not after_def:
                names.add(tok.string)
            after_def = tok.string in ("def", "class")
    return names


def attribute_reads(path: Path) -> set[str]:
    """Names a Python file reads as an attribute (``obj.name``, not an
    assignment to one), f-strings included, and the strings it quotes (a
    ``getattr`` or a payload key)."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def public_attributes(cls: type) -> set[str]:
    """The fields, properties and methods a class defines, without a leading underscore."""
    names = set(vars(cls))
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return {name for name in names if not name.startswith("_")}


def self_serialized(cls: type) -> set[str]:
    """The fields of a dataclass that writes itself out through ``fields(self)``."""
    if dataclasses.is_dataclass(cls) and "fields(self)" in inspect.getsource(cls):
        return {f.name for f in dataclasses.fields(cls)}
    return set()


def test_every_export_is_reached_outside_the_tests():
    used = set().union(*map(referenced_names, sources()))
    unreached = sorted(set(lp.__all__) - {"__version__"} - used)
    assert not unreached, f"exported but reached only by tests: {unreached}"


def test_every_attribute_of_an_exported_class_is_read_outside_the_tests():
    reads = set().union(*map(attribute_reads, sources()))
    unread = []
    for name in lp.__all__:
        cls = getattr(lp, name)
        if isinstance(cls, type):
            unread += [f"{name}.{attr}" for attr in
                       sorted(public_attributes(cls) - reads - self_serialized(cls))]
    assert not unread, f"exported class attributes read only by tests: {unread}"
