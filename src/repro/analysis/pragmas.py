"""Per-line pragma suppressions: ``# repro: allow-<rule> -- <justification>``.

A finding may be silenced only on its own line, only by naming the rule, and
only with a written justification::

    from numpy.linalg import _private  # repro: allow-det006 -- public fallback below

Several rules can share one pragma (comma-separated)::

    t0 = time.perf_counter()  # repro: allow-det003 -- latency stats only

The justification is mandatory: a pragma without one, or naming a rule that
does not exist, is itself reported under the unsuppressible ``PRAGMA`` rule —
a broken suppression can never hide itself.  Comments are found through
:mod:`tokenize`, so pragma-shaped text inside string literals is ignored.
"""

from __future__ import annotations

import dataclasses
import io
import re
import tokenize
from typing import Iterable

from repro.analysis.findings import PRAGMA_RULE_ID, Finding

# A comment that wants to be a pragma: a hash, the word repro, a colon.
# (Spelled as a pattern here so this very comment is not itself parsed as a
# malformed pragma when the linter runs over its own source.)
_PRAGMA_COMMENT = re.compile(r"#\s*repro\s*:\s*(?P<body>.*)$")

#: One well-formed allow entry, e.g. ``allow-det001`` / ``allow-DET001``.
_ALLOW_ENTRY = re.compile(r"^allow-(?P<rule>[A-Za-z][A-Za-z0-9]*)$")


@dataclasses.dataclass(frozen=True)
class Pragma:
    """A parsed suppression comment on one source line."""

    line: int
    rules: frozenset[str]
    justification: str


@dataclasses.dataclass
class PragmaSet:
    """All pragmas of one file plus the meta-findings raised while parsing."""

    pragmas: list[Pragma]
    errors: list[Finding]

    def suppressed_rules(self, line: int) -> frozenset[str]:
        """Rule ids suppressed on *line* (upper-case), empty when none."""
        rules: set[str] = set()
        for pragma in self.pragmas:
            if pragma.line == line:
                rules.update(pragma.rules)
        return frozenset(rules)


def _iter_comments(source: str) -> Iterable[tuple[int, str]]:
    """Yield ``(line, comment_text)`` for every comment token in *source*."""
    reader = io.StringIO(source).readline
    try:
        for token in tokenize.generate_tokens(reader):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The engine only reaches the pragma scanner for files that already
        # parsed as AST; a tokenizer hiccup on such a file should degrade to
        # "no pragmas" rather than crash the lint run.
        return


def parse_pragmas(path: str, source: str, known_rules: Iterable[str]) -> PragmaSet:
    """Parse every ``# repro:`` comment of *source*.

    Parameters
    ----------
    path:
        Reported in meta-findings.
    source:
        Full file contents.
    known_rules:
        Valid rule ids; a pragma naming anything else is an error.
    """
    known = {rule.upper() for rule in known_rules}
    pragmas: list[Pragma] = []
    errors: list[Finding] = []

    def error(line: int, message: str) -> None:
        errors.append(
            Finding(path=path, line=line, column=0, rule=PRAGMA_RULE_ID, message=message)
        )

    for line, comment in _iter_comments(source):
        match = _PRAGMA_COMMENT.search(comment)
        if match is None:
            continue
        body = match.group("body").strip()
        if "--" in body:
            allow_part, justification = body.split("--", 1)
            justification = justification.strip()
        else:
            allow_part, justification = body, ""
        entries = [entry.strip() for entry in allow_part.split(",") if entry.strip()]
        if not entries:
            error(line, "empty pragma: expected 'allow-<rule> -- <justification>'")
            continue
        rules: set[str] = set()
        bad_entry = False
        for entry in entries:
            entry_match = _ALLOW_ENTRY.match(entry)
            if entry_match is None:
                error(
                    line,
                    f"malformed pragma entry {entry!r}: expected "
                    "'allow-<rule> -- <justification>'",
                )
                bad_entry = True
                continue
            rule = entry_match.group("rule").upper()
            if rule == PRAGMA_RULE_ID:
                error(line, f"rule {PRAGMA_RULE_ID} cannot be suppressed")
                bad_entry = True
                continue
            if rule not in known:
                error(
                    line,
                    f"pragma names unknown rule {rule!r}; "
                    f"known rules: {', '.join(sorted(known))}",
                )
                bad_entry = True
                continue
            rules.add(rule)
        if not justification:
            error(
                line,
                "pragma is missing its justification: every suppression must "
                "say why, as in '# repro: allow-det001 -- <reason>'",
            )
            continue
        if bad_entry or not rules:
            continue
        pragmas.append(Pragma(line=line, rules=frozenset(rules), justification=justification))
    return pragmas_sorted(pragmas, errors)


def pragmas_sorted(pragmas: list[Pragma], errors: list[Finding]) -> PragmaSet:
    """Stable ordering so reports and tests never depend on scan order."""
    return PragmaSet(
        pragmas=sorted(pragmas, key=lambda pragma: pragma.line),
        errors=sorted(errors),
    )
