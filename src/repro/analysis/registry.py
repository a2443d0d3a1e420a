"""The lint-rule registry: rule ids to :class:`Rule` subclasses.

Rules are registered under a stable id with a decorator, the engine
instantiates whatever the registry holds, and project-specific rules can be
added without touching the engine or the CLI::

    from repro.analysis import register_rule, Rule

    @register_rule("DET900")
    class NoEvalRule(Rule):
        summary = "eval() in library code"
        ...

A rule is an :class:`ast.NodeVisitor` subclass (see
:class:`repro.analysis.base.Rule`) whose instances emit
:class:`~repro.analysis.findings.Finding`s while visiting one file.
"""

from __future__ import annotations

import re
from typing import Callable

from repro.analysis.base import Rule
from repro.utils.registry import Registry

#: Rule ids are short upper-case alphanumerics, e.g. ``DET001``.
_RULE_ID = re.compile(r"^[A-Z][A-Z0-9]{2,15}$")

#: The process-wide rule registry (DET001–DET006 plus plugins).
DEFAULT_REGISTRY: Registry[type[Rule]] = Registry("rule", type)


def register_rule(rule_id: str) -> Callable[[type[Rule]], type[Rule]]:
    """Decorator registering a rule class and stamping its :attr:`Rule.rule_id`::

        @register_rule("DET001")
        class BareTranscendentalRule(Rule):
            ...

    *rule_id* must match ``[A-Z][A-Z0-9]{2,15}`` so pragmas and config
    sections can name it unambiguously.
    """
    if not isinstance(rule_id, str) or not _RULE_ID.match(rule_id):
        raise ValueError(f"rule id must match {_RULE_ID.pattern!r}, got {rule_id!r}")

    def _register(cls: type[Rule]) -> type[Rule]:
        DEFAULT_REGISTRY.register(rule_id, cls)
        cls.rule_id = rule_id
        return cls

    return _register


def available_rules() -> tuple[str, ...]:
    """Registered rule ids (built-ins plus plugins)."""
    return DEFAULT_REGISTRY.names()
