"""Lint configuration: the ``[tool.repro.lint]`` table of ``pyproject.toml``.

The contract being enforced is not uniform across the tree — libm
routing (DET001) is required in the batch-path modules whose bits are pinned
by the parity suites, but ``cli.py`` may freely call ``np.exp``; wall clocks
(DET003) are fine in the CLI and benchmark layers.  That scoping lives here::

    [tool.repro.lint]
    exclude = []                    # files skipped entirely

    [tool.repro.lint.DET001]
    include = ["src/repro/channel", "src/repro/csi"]   # rule only here

    [tool.repro.lint.DET003]
    exclude = ["src/repro/cli.py"]  # rule everywhere but here

Paths are relative to the directory containing ``pyproject.toml`` and match
a file when they equal it, are an ancestor directory of it, or glob-match it
(:mod:`fnmatch`).  The config is discovered by walking up from the linted
path to the nearest ``pyproject.toml`` (the CLI's ``--pyproject`` overrides
discovery).

TOML is parsed by :mod:`tomllib` on Python ≥ 3.11 and by its backport
``tomli`` on 3.10, which ``setup.py`` declares for that version only.
"""

from __future__ import annotations

import dataclasses
import sys
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.utils.validation import check_known_keys

if sys.version_info >= (3, 11):
    import tomllib as _toml
else:  # pragma: no cover - Python 3.10 (setup.py declares the dependency)
    import tomli as _toml


@dataclasses.dataclass(frozen=True)
class RuleScope:
    """Per-rule path scoping: ``include`` wins over default-on, then ``exclude``."""

    include: tuple[str, ...] = ()
    exclude: tuple[str, ...] = ()

    @classmethod
    def from_mapping(cls, rule_id: str, data: Mapping[str, Any]) -> "RuleScope":
        check_known_keys(f"[tool.repro.lint.{rule_id}]", data, ("include", "exclude"))
        return cls(
            include=_string_tuple(f"[tool.repro.lint.{rule_id}].include", data.get("include", ())),
            exclude=_string_tuple(f"[tool.repro.lint.{rule_id}].exclude", data.get("exclude", ())),
        )


def _string_tuple(name: str, value: Any) -> tuple[str, ...]:
    if isinstance(value, str) or not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of path strings, got {value!r}")
    items = []
    for item in value:
        if not isinstance(item, str):
            raise ValueError(f"{name} entries must be strings, got {item!r}")
        items.append(item.replace("\\", "/").rstrip("/"))
    return tuple(items)


def _matches(relpath: str, entry: str) -> bool:
    """Does config path *entry* cover *relpath* (file, dir prefix, or glob)?"""
    if relpath == entry or relpath.startswith(entry + "/"):
        return True
    return fnmatch(relpath, entry)


@dataclasses.dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration (root directory plus scoping tables)."""

    #: Directory all scoping paths are relative to (the pyproject's parent).
    root: Path
    #: Files skipped entirely, for every rule.
    exclude: tuple[str, ...] = ()
    #: Per-rule scoping, keyed by upper-case rule id.
    rules: Mapping[str, RuleScope] = dataclasses.field(default_factory=dict)

    @classmethod
    def empty(cls, root: Optional[Path] = None) -> "LintConfig":
        """No scoping: every rule applies to every file."""
        return cls(root=(root or Path.cwd()).resolve())

    @classmethod
    def from_mapping(cls, data: Mapping[str, Any], *, root: Path) -> "LintConfig":
        """Build from the ``[tool.repro.lint]`` table (rule tables nested)."""
        plain = {
            key: value for key, value in data.items() if not isinstance(value, Mapping)
        }
        check_known_keys("[tool.repro.lint]", plain, ("exclude",))
        rules = {
            key.upper(): RuleScope.from_mapping(key, value)
            for key, value in data.items()
            if isinstance(value, Mapping)
        }
        return cls(
            root=root.resolve(),
            exclude=_string_tuple("[tool.repro.lint].exclude", data.get("exclude", ())),
            rules=rules,
        )

    @classmethod
    def from_pyproject(cls, path: Path) -> "LintConfig":
        """Load the config from one explicit ``pyproject.toml``."""
        payload = _toml.loads(path.read_text())
        section = payload.get("tool", {}).get("repro", {}).get("lint", {})
        if not isinstance(section, Mapping):
            raise ValueError(f"[tool.repro.lint] in {path} must be a table")
        return cls.from_mapping(section, root=path.parent)

    @classmethod
    def discover(cls, start: Path) -> "LintConfig":
        """Walk up from *start* to the nearest ``pyproject.toml``.

        Mirrors how ruff/black resolve their config: the first
        ``pyproject.toml`` found wins (an empty config rooted there when it
        has no ``[tool.repro.lint]`` table); with none found, scoping is
        empty and rooted at *start*.
        """
        start = start.resolve()
        candidates = [start] if start.is_dir() else []
        candidates += list(start.parents)
        for directory in candidates:
            pyproject = directory / "pyproject.toml"
            if pyproject.is_file():
                return cls.from_pyproject(pyproject)
        return cls.empty(start if start.is_dir() else start.parent)

    # ------------------------------------------------------------------ #
    # scoping queries
    # ------------------------------------------------------------------ #
    def _relpath(self, path: Path) -> Optional[str]:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return None

    def file_excluded(self, path: Path) -> bool:
        """Is *path* excluded from linting entirely?"""
        relpath = self._relpath(path)
        if relpath is None:
            return False
        return any(_matches(relpath, entry) for entry in self.exclude)

    def rule_applies(self, rule_id: str, path: Path) -> bool:
        """Does *rule_id* apply to *path* under this config's scoping?"""
        scope = self.rules.get(rule_id.upper())
        if scope is None:
            return True
        relpath = self._relpath(path)
        if relpath is None:
            # Outside the config root nothing can match a relative pattern;
            # a rule restricted by ``include`` therefore does not apply.
            return not scope.include
        if scope.include and not any(_matches(relpath, entry) for entry in scope.include):
            return False
        return not any(_matches(relpath, entry) for entry in scope.exclude)
