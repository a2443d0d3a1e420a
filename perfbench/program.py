"""Locate the program under test: the ``src/`` tree of this checkout."""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_program() -> None:
    """Put this checkout's ``src/`` first on the path and import ``repro`` from it.

    Exits with an error when the checkout holds no program sources, or when
    ``repro`` would come from anywhere else, so the benchmark never measures
    an installed copy.
    """
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package:
        raise SystemExit(f"error: repro imported from {repro.__file__}, not {package}")
