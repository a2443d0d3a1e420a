"""Shared rule infrastructure: per-file context and the :class:`Rule` base.

Every rule is an :class:`ast.NodeVisitor` over one parsed file.  The engine
hands each rule a :class:`FileContext` carrying the parsed tree plus an import
alias map, so rules can resolve ``np.exp`` / ``npr.default_rng`` /
``perf_counter`` back to their canonical dotted module paths
(``numpy.exp`` …) without re-implementing import tracking.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Optional

from repro.analysis.findings import Finding


def _collect_import_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local names to the canonical dotted path they were imported as.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy.random import
    default_rng`` maps ``default_rng -> numpy.random.default_rng``.  Relative
    imports are first-party and never resolve to a watched module, so they are
    skipped.  Rebinding a name later in the file shadows the earlier entry,
    which matches how the last import statement wins at runtime for
    module-level code.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
                else:
                    # ``import numpy.random`` binds the *top-level* name.
                    top = alias.name.split(".", 1)[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname if alias.asname is not None else alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


@dataclasses.dataclass
class FileContext:
    """Everything a rule needs to know about the file being linted."""

    #: Path as reported in findings (verbatim from the engine's input).
    path: str
    #: Full source text.
    source: str
    #: Parsed module.
    tree: ast.Module
    #: Local name -> canonical dotted import path (see above).
    aliases: dict[str, str]

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        """Parse *source* and build the alias map (raises ``SyntaxError``)."""
        tree = ast.parse(source, filename=path)
        return cls(
            path=path, source=source, tree=tree, aliases=_collect_import_aliases(tree)
        )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a ``Name``/``Attribute`` chain, or ``None``.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        when the file imported ``numpy as np``; names that were never imported
        resolve to ``None`` (a local variable called ``time`` must not trip
        the wall-clock rule).
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.aliases.get(current.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))


class Rule(ast.NodeVisitor):
    """Base class for lint rules: visit one file, emit findings.

    Subclasses set :attr:`rule_id` (the id findings, pragmas and config
    sections name; :data:`~repro.analysis.rules.RULES` is keyed by it) and
    :attr:`summary` (one line for ``repro lint --help`` style listings and
    the README rule table), and implement ``visit_*`` methods that call
    :meth:`report`.
    """

    rule_id: str = ""
    summary: str = ""

    def __init__(self, context: FileContext) -> None:
        self.context = context
        self.findings: list[Finding] = []

    def report(self, node: ast.AST, message: str) -> None:
        """Record a finding anchored at *node*'s source location."""
        self.findings.append(
            Finding(
                path=self.context.path,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0),
                rule=self.rule_id,
                message=message,
            )
        )

    def run(self) -> list[Finding]:
        """Visit the whole file and return the findings, location-sorted."""
        self.visit(self.context.tree)
        return sorted(self.findings)
