"""Tests for ``repro.analysis`` — the determinism lint.

The fixture corpus under ``tests/fixtures/lint/`` carries, per rule, at least
one true positive and one pragma-suppressed twin; the suite here pins that
every rule fires where it should, that a justified pragma (and only a
justified pragma) silences it, that the JSON reporter round-trips through
``Finding.from_dict``, and that the tree itself is clean: ``repro lint
src/repro`` exits 0.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis import (
    FileContext,
    Finding,
    LintConfig,
    PRAGMA_RULE_ID,
    RULES,
    RuleScope,
    SYNTAX_RULE_ID,
    lint_paths,
    parse_pragmas,
)
from repro.analysis.reporters import (
    JSON_REPORT_VERSION,
    markdown_report,
    text_report,
)
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
REPO_ROOT = Path(__file__).resolve().parent.parent
BUILTIN_RULES = ("DET001", "DET002", "DET003", "DET004", "DET005", "DET006")


def lint_fixture(name: str, **kwargs) -> tuple:
    """Lint one corpus file; returns ``(findings, result)``."""
    result = lint_paths([FIXTURES / name], **kwargs)
    return list(result.findings), result


# --------------------------------------------------------------------------- #
# the six rules: fixture fires / pragma silences
# --------------------------------------------------------------------------- #
class TestRuleFixtures:
    def test_rules_table_holds_the_builtin_rules(self):
        assert tuple(RULES) == BUILTIN_RULES
        assert all(rule.rule_id == rule_id for rule_id, rule in RULES.items())

    def test_rule_ids_are_distinct_from_the_engine_ids(self):
        """Every id is ``DETnnn``, so none shadows the engine's own PRAGMA
        and SYNTAX findings, which no pragma can suppress."""
        assert all(re.fullmatch(r"DET\d{3}", rule_id) for rule_id in RULES)
        assert not {PRAGMA_RULE_ID, SYNTAX_RULE_ID} & set(RULES)

    def test_unknown_rule_filter_raises(self):
        with pytest.raises(ValueError) as excinfo:
            lint_paths([FIXTURES / "clean.py"], rule_ids=["DET999"])
        assert str(excinfo.value) == (
            f"unknown rules: ['DET999']; registered rules: {list(BUILTIN_RULES)}"
        )

    @pytest.mark.parametrize("rule", [rule.lower() for rule in BUILTIN_RULES])
    def test_violation_fixture_fires(self, rule):
        findings, result = lint_fixture(f"{rule}_violation.py")
        assert not result.ok
        assert {finding.rule for finding in findings} == {rule.upper()}

    @pytest.mark.parametrize("rule", [rule.lower() for rule in BUILTIN_RULES])
    def test_pragma_silences_the_rule(self, rule):
        findings, result = lint_fixture(f"{rule}_suppressed.py")
        assert result.ok, findings
        assert result.suppressed >= 1

    def test_clean_module_is_clean(self):
        findings, result = lint_fixture("clean.py")
        assert result.ok
        assert result.suppressed == 0

    def test_det001_locations_and_complex_exemption(self):
        findings, _ = lint_fixture("det001_violation.py")
        # Real np.exp and the float-literal ** fire; np.exp(-1j * phase) is
        # exempt, so exactly two findings at the annotated lines.
        assert [(finding.line, finding.rule) for finding in findings] == [
            (7, "DET001"),
            (11, "DET001"),
        ]

    def test_det002_catches_all_four_shapes(self):
        findings, _ = lint_fixture("det002_violation.py")
        assert [finding.line for finding in findings] == [10, 14, 18, 22]

    def test_det003_catches_clock_uuid_entropy(self):
        findings, _ = lint_fixture("det003_violation.py")
        assert [finding.line for finding in findings] == [10, 14, 18, 22]

    def test_det004_sorted_wrapper_is_exempt(self):
        findings, _ = lint_fixture("det004_violation.py")
        assert [finding.line for finding in findings] == [5, 12, 17]

    def test_det005_accepts_delegation(self):
        findings, _ = lint_fixture("det005_violation.py")
        # UncheckedConfig fires; DelegatingConfig (inner from_dict call) does not.
        assert [finding.line for finding in findings] == [9]

    def test_det006_import_and_attribute_chain(self):
        findings, _ = lint_fixture("det006_violation.py")
        assert [finding.line for finding in findings] == [4, 8]


# --------------------------------------------------------------------------- #
# pragmas
# --------------------------------------------------------------------------- #
class TestPragmas:
    def test_missing_justification_is_rejected_and_nothing_suppressed(self):
        findings, result = lint_fixture("pragma_missing_justification.py")
        rules = [finding.rule for finding in findings]
        assert PRAGMA_RULE_ID in rules  # the broken pragma is reported
        assert "DET001" in rules  # and the finding it aimed at survives
        assert result.suppressed == 0

    def test_unknown_rule_is_rejected(self):
        findings, _ = lint_fixture("pragma_unknown_rule.py")
        assert [finding.rule for finding in findings] == [PRAGMA_RULE_ID]
        assert "DET999" in findings[0].message

    def test_parse_pragmas_multi_rule_comment(self):
        source = "x = 1  # repro: allow-det001, allow-det003 -- shared reason\n"
        pragma_set = parse_pragmas("f.py", source, BUILTIN_RULES)
        assert not pragma_set.errors
        assert pragma_set.suppressed_rules(1) == frozenset({"DET001", "DET003"})
        assert pragma_set.pragmas[0].justification == "shared reason"

    def test_pragma_rule_itself_cannot_be_suppressed(self):
        source = "x = 1  # repro: allow-pragma -- nice try\n"
        pragma_set = parse_pragmas("f.py", source, BUILTIN_RULES)
        assert len(pragma_set.errors) == 1
        assert "cannot be suppressed" in pragma_set.errors[0].message

    def test_pragma_inside_string_literal_is_ignored(self):
        source = 's = "# repro: allow-det001"\n'
        pragma_set = parse_pragmas("f.py", source, BUILTIN_RULES)
        assert not pragma_set.pragmas and not pragma_set.errors

    def test_pragma_only_covers_its_own_line(self, tmp_path):
        target = tmp_path / "two_lines.py"
        target.write_text(
            "import numpy as np\n"
            "a = np.random.default_rng(1)  # repro: allow-det002 -- first line only\n"
            "b = np.random.default_rng(2)\n"
        )
        result = lint_paths([target], config=LintConfig.empty(tmp_path))
        assert [finding.line for finding in result.findings] == [3]
        assert result.suppressed == 1


# --------------------------------------------------------------------------- #
# findings + reporters
# --------------------------------------------------------------------------- #
class TestReporters:
    def test_json_report_schema_round_trip(self, capsys):
        code = main(["lint", str(FIXTURES / "det002_violation.py"), "--format", "json"])
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == JSON_REPORT_VERSION
        assert document["ok"] is False
        assert document["summary"]["findings"] == len(document["findings"])
        assert document["summary"]["by_rule"] == {"DET002": 4}
        rebuilt = [Finding.from_dict(entry) for entry in document["findings"]]
        assert [finding.to_dict() for finding in rebuilt] == document["findings"]

    def test_finding_from_dict_rejects_unknown_keys(self):
        payload = Finding("f.py", 1, 0, "DET001", "m").to_dict()
        payload["severity"] = "high"
        with pytest.raises(ValueError, match="unknown Finding keys"):
            Finding.from_dict(payload)

    def test_text_report_lists_location_rule_message(self):
        findings, result = lint_fixture("det006_violation.py")
        report = text_report(result)
        assert "det006_violation.py:4:0: DET006" in report
        assert report.endswith("2 finding(s) (0 suppressed by pragma) in 1 file(s)")

    def test_markdown_report_table(self):
        _, dirty = lint_fixture("det001_violation.py")
        report = markdown_report(dirty)
        assert "| Location | Rule | Message |" in report and "DET001" in report
        _, clean = lint_fixture("clean.py")
        assert "no findings" in markdown_report(clean)


# --------------------------------------------------------------------------- #
# config: scoping + TOML loading
# --------------------------------------------------------------------------- #
class TestConfig:
    def test_include_scoping_restricts_a_rule(self, tmp_path):
        config = LintConfig(
            root=tmp_path, rules={"DET001": RuleScope(include=("pkg/batch",))}
        )
        assert config.rule_applies("DET001", tmp_path / "pkg" / "batch" / "a.py")
        assert not config.rule_applies("DET001", tmp_path / "pkg" / "cli.py")
        # Unscoped rules apply everywhere.
        assert config.rule_applies("DET002", tmp_path / "pkg" / "cli.py")

    def test_exclude_scoping_carves_out_files(self, tmp_path):
        config = LintConfig(
            root=tmp_path, rules={"DET003": RuleScope(exclude=("pkg/cli.py",))}
        )
        assert not config.rule_applies("DET003", tmp_path / "pkg" / "cli.py")
        assert config.rule_applies("DET003", tmp_path / "pkg" / "engine.py")

    def test_global_exclude_skips_files_entirely(self, tmp_path):
        config = LintConfig(root=tmp_path, exclude=("vendored",))
        assert config.file_excluded(tmp_path / "vendored" / "blob.py")
        assert not config.file_excluded(tmp_path / "pkg" / "a.py")

    def test_unknown_config_keys_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown"):
            LintConfig.from_mapping({"severity": "high"}, root=tmp_path)
        with pytest.raises(ValueError, match="unknown"):
            LintConfig.from_mapping({"DET001": {"paths": []}}, root=tmp_path)

    def test_repo_scoping_det001_excludes_cli(self):
        config = LintConfig.from_pyproject(REPO_ROOT / "pyproject.toml")
        src = REPO_ROOT / "src" / "repro"
        assert config.rule_applies("DET001", src / "channel" / "noise.py")
        assert not config.rule_applies("DET001", src / "cli.py")
        assert not config.rule_applies("DET003", src / "cli.py")
        assert config.rule_applies("DET003", src / "fleet" / "engine.py")

    def test_discovery_stops_at_nearest_pyproject(self):
        # The fixtures directory carries its own (scoping-free) pyproject, so
        # discovery from a fixture must not pick up the repository tables.
        config = LintConfig.discover(FIXTURES / "clean.py")
        assert config.root == FIXTURES.resolve()
        assert config.rules == {}


# --------------------------------------------------------------------------- #
# engine + CLI
# --------------------------------------------------------------------------- #
class TestEngineAndCli:
    def test_self_run_src_repro_is_clean(self, capsys):
        # The acceptance gate: the tree obeys its own determinism contract.
        code = main(["lint", str(REPO_ROOT / "src" / "repro")])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "0 finding(s)" in out

    def test_seeded_violation_turns_the_gate_red(self, tmp_path, capsys):
        # What CI relies on: introduce a violation, the exit code goes red.
        bad = tmp_path / "seeded.py"
        bad.write_text("import time\n\n\ndef stamp():\n    return time.time()\n")
        assert main(["lint", str(bad)]) == 1
        assert "DET003" in capsys.readouterr().out

    def test_rule_filter_restricts_the_run(self, capsys):
        path = str(FIXTURES / "det003_violation.py")
        assert main(["lint", path, "--rule", "det004"]) == 0
        capsys.readouterr()
        assert main(["lint", path, "--rule", "det003"]) == 1

    def test_unknown_rule_filter_exits_2(self, capsys):
        code = main(["lint", str(FIXTURES / "clean.py"), "--rule", "DET999"])
        assert code == 2
        assert "unknown rules" in capsys.readouterr().err

    def test_missing_path_exits_2(self, capsys):
        assert main(["lint", "no/such/dir"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_explicit_pyproject_override(self, tmp_path, capsys):
        # A config whose DET001 include points elsewhere: the violation file
        # falls out of scope and the run is clean.
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro.lint.DET001]\ninclude = [\"somewhere/else\"]\n"
        )
        code = main(
            [
                "lint",
                str(FIXTURES / "det001_violation.py"),
                "--pyproject",
                str(pyproject),
            ]
        )
        assert code == 0, capsys.readouterr().out

    def test_syntax_error_reported_unsuppressibly(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        result = lint_paths([bad], config=LintConfig.empty(tmp_path))
        assert [finding.rule for finding in result.findings] == [SYNTAX_RULE_ID]

    def test_directory_run_aggregates_and_sorts(self):
        result = lint_paths([FIXTURES])
        assert result.files == len(list(FIXTURES.glob("*.py")))
        assert list(result.findings) == sorted(result.findings)
        rules_seen = {finding.rule for finding in result.findings}
        assert set(BUILTIN_RULES) | {PRAGMA_RULE_ID} <= rules_seen

    def test_cli_runs_the_rules_table(self, capsys):
        """``repro lint`` without ``--rule`` runs every rule of ``RULES``."""
        assert main(["lint", str(FIXTURES), "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert set(RULES) <= set(document["summary"]["by_rule"])

    def test_resolution_ignores_local_shadowing(self, tmp_path):
        # A local variable named `time` must not trip DET003.
        target = tmp_path / "shadow.py"
        target.write_text("def f(time):\n    return time.time()\n")
        result = lint_paths([target], config=LintConfig.empty(tmp_path))
        assert result.ok

    def test_file_context_resolves_aliases(self):
        context = FileContext.parse(
            "f.py", "import numpy as np\nvalue = np.random.default_rng\n"
        )
        import ast

        node = context.tree.body[1].value
        assert context.resolve(node) == "numpy.random.default_rng"
        assert isinstance(node, ast.Attribute)
