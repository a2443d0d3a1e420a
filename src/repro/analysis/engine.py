"""The lint engine: run every scoped rule over a set of files.

``lint_paths`` is the single entry point the CLI and the tests share: it
expands files/directories, discovers (or accepts) a
:class:`~repro.analysis.config.LintConfig`, runs each rule of
:data:`~repro.analysis.rules.RULES` where the config scopes it, applies
pragma suppressions, and returns a :class:`LintResult` whose
findings are deterministically ordered — the lint of a tree is itself a
pure function of the tree.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis.base import FileContext
from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.pragmas import parse_pragmas
from repro.analysis.rules import RULES

#: Rule id reported for files that do not parse.  Like ``PRAGMA`` it is not a
#: rule of :data:`~repro.analysis.rules.RULES` and can never be suppressed.
SYNTAX_RULE_ID = "SYNTAX"


@dataclasses.dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run."""

    #: Unsuppressed findings (including pragma/syntax meta-findings), sorted.
    findings: tuple[Finding, ...]
    #: Number of Python files checked.
    files: int
    #: Findings silenced by a justified pragma.
    suppressed: int

    @property
    def ok(self) -> bool:
        """True when the run produced no unsuppressed findings."""
        return not self.findings

    def by_rule(self) -> dict[str, int]:
        """Finding counts per rule id (sorted by rule id)."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(paths: Sequence[Path]) -> list[Path]:
    """Expand files and directories into a sorted list of ``.py`` files."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(child for child in path.rglob("*.py"))
        elif path.suffix == ".py":
            files.append(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(set(files))


def _display_path(path: Path) -> str:
    """Path as reported in findings: cwd-relative when possible, stable."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.resolve().as_posix()


def lint_file(
    path: Path,
    *,
    config: LintConfig,
    rule_ids: Optional[Iterable[str]] = None,
) -> tuple[list[Finding], int]:
    """Lint one file; returns ``(unsuppressed findings, suppressed count)``."""
    display = _display_path(path)
    source = path.read_text()
    try:
        context = FileContext.parse(display, source)
    except SyntaxError as error:
        finding = Finding(
            path=display,
            line=int(error.lineno or 1),
            column=int(error.offset or 0),
            rule=SYNTAX_RULE_ID,
            message=f"file does not parse: {error.msg}",
        )
        return [finding], 0

    pragma_set = parse_pragmas(display, source, known_rules=RULES)
    selected = tuple(rule_ids) if rule_ids is not None else tuple(RULES)
    raw: list[Finding] = []
    for rule_id in selected:
        if not config.rule_applies(rule_id, path):
            continue
        raw.extend(RULES[rule_id](context).run())

    kept: list[Finding] = list(pragma_set.errors)
    suppressed = 0
    for finding in raw:
        if finding.rule in pragma_set.suppressed_rules(finding.line):
            suppressed += 1
        else:
            kept.append(finding)
    return sorted(kept), suppressed


def lint_paths(
    paths: Sequence[os.PathLike[str] | str],
    *,
    config: Optional[LintConfig] = None,
    rule_ids: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint *paths* (files and/or directory trees).

    Parameters
    ----------
    paths:
        Files or directories; directories are searched recursively for
        ``*.py``.
    config:
        Explicit :class:`LintConfig`; when omitted, discovered by walking up
        from the first path to the nearest ``pyproject.toml``.
    rule_ids:
        Restrict the run to these rule ids (unknown ids raise ``ValueError``);
        by default every rule of :data:`~repro.analysis.rules.RULES`
        (DET001–DET006) runs.
    """
    resolved_paths = [Path(path) for path in paths]
    if not resolved_paths:
        raise ValueError("lint_paths needs at least one file or directory")
    if rule_ids is not None:
        unknown = sorted(set(rule_ids) - set(RULES))
        if unknown:
            raise ValueError(f"unknown rules: {unknown}; registered rules: {list(RULES)}")
    if config is None:
        config = LintConfig.discover(resolved_paths[0])

    findings: list[Finding] = []
    suppressed = 0
    files = 0
    for path in iter_python_files(resolved_paths):
        if config.file_excluded(path):
            continue
        files += 1
        file_findings, file_suppressed = lint_file(path, config=config, rule_ids=rule_ids)
        findings.extend(file_findings)
        suppressed += file_suppressed
    return LintResult(findings=tuple(sorted(findings)), files=files, suppressed=suppressed)
