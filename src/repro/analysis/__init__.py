"""``repro.analysis`` — a determinism lint for the repo's bit-parity contract.

The repo's headline guarantee (byte-identical window scores and fleet event
digests across batch sizes, worker counts, and vectorisation rounds) rests on
three hand-maintained conventions: route last-ulp-divergent transcendentals
through the numeric backend (libm per element in :mod:`repro.backend.exact`),
derive all randomness via :func:`repro.utils.rng.ensure_rng` /
:func:`~repro.utils.rng.child_rng` / :func:`~repro.utils.rng.draw_word`, and
validate every ``from_dict`` with
:func:`repro.utils.validation.check_known_keys`.  This package enforces those
conventions *statically* — before the runtime parity suites ever run — via an
AST linter running the six rules of :data:`RULES`, per-line justified pragma
suppressions, and ``pyproject.toml`` path scoping::

    python -m repro lint src/repro            # text report, exit 1 on findings
    python -m repro lint src/repro --format json
    python -m repro lint src/repro --rule DET001 --rule DET004

See the README's "Determinism contract" section for the rule table
(DET001–DET006) and the pragma syntax.
"""

from repro.analysis.base import FileContext, Rule
from repro.analysis.config import LintConfig, RuleScope
from repro.analysis.engine import SYNTAX_RULE_ID, LintResult, lint_file, lint_paths
from repro.analysis.findings import PRAGMA_RULE_ID, Finding
from repro.analysis.pragmas import Pragma, PragmaSet, parse_pragmas
from repro.analysis.reporters import (
    JSON_REPORT_VERSION,
    REPORTERS,
    json_report,
    markdown_report,
    text_report,
)
from repro.analysis.rules import RULES

__all__ = [
    "FileContext",
    "Finding",
    "JSON_REPORT_VERSION",
    "LintConfig",
    "LintResult",
    "PRAGMA_RULE_ID",
    "Pragma",
    "PragmaSet",
    "REPORTERS",
    "RULES",
    "Rule",
    "RuleScope",
    "SYNTAX_RULE_ID",
    "json_report",
    "lint_file",
    "lint_paths",
    "markdown_report",
    "parse_pragmas",
    "text_report",
]
