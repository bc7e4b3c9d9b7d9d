"""The public surface is what the program itself uses.

Every name that ``latentpath`` exports must be used by a command, a demo or
the benchmark: referenced in the package outside its own definition and
``__init__.py``, or in ``demos/`` or ``perfbench/``. A name that only tests
reach belongs in the tests as a helper, not in the package.
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

import latentpath as lp

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(lp.__file__).resolve().parent


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


def test_every_export_is_reached_outside_the_tests():
    sources = [path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"]
    sources += [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*map(referenced_names, sources))
    unreached = sorted(set(lp.__all__) - {"__version__"} - used)
    assert not unreached, f"exported but reached only by tests: {unreached}"
