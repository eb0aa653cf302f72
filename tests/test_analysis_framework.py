"""Framework tests for mpclint: suppressions, reports, CLI, CI gate.

The rule-by-rule fixture coverage lives in ``test_analysis_rules.py``;
this module exercises the machinery around the rules — the inline
suppression protocol (justification required, unused suppressions are
findings, pseudo-rules unsuppressable), the JSON report contract pinned by
a golden file, and the exit-code gate CI relies on (including the
no-install ``tools/mpclint.py`` entry point on a seeded violation).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import run_analysis
from repro.analysis.cli import main as cli_main
from repro.analysis.report import JSON_REPORT_VERSION, render_json, render_text

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).parent / "analysis_fixtures"

BAD_EXTREMUM = (
    "# mpclint: module=repro.mpc.fixture_tmp\n"
    "def worst(loads):\n"
    "    return max(loads)\n"
)


def _write(tmp_path: Path, text: str, name: str = "mod.py") -> Path:
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def _run(tmp_path: Path):
    return run_analysis([tmp_path], root=tmp_path)


# --------------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------------- #


def test_trailing_suppression_silences_finding(tmp_path):
    _write(
        tmp_path,
        "# mpclint: module=repro.mpc.fixture_tmp\n"
        "def worst(loads):\n"
        "    return max(loads)  # mpclint: disable=raw-extremum -- loads is never empty here\n",
    )
    report = _run(tmp_path)
    assert report.findings == []
    assert report.suppressions_used == 1


def test_disable_next_line_suppression(tmp_path):
    _write(
        tmp_path,
        "# mpclint: module=repro.mpc.fixture_tmp\n"
        "def worst(loads):\n"
        "    # mpclint: disable-next-line=raw-extremum -- loads is never empty here\n"
        "    return max(loads)\n",
    )
    report = _run(tmp_path)
    assert report.findings == []
    assert report.suppressions_used == 1


def test_suppression_requires_justification(tmp_path):
    _write(
        tmp_path,
        "# mpclint: module=repro.mpc.fixture_tmp\n"
        "def worst(loads):\n"
        "    return max(loads)  # mpclint: disable=raw-extremum\n",
    )
    report = _run(tmp_path)
    rules = sorted(f.rule for f in report.findings)
    # The bare directive is rejected AND does not silence the finding.
    assert rules == ["bad-suppression", "raw-extremum"]


def test_unused_suppression_is_a_finding(tmp_path):
    _write(
        tmp_path,
        "# mpclint: module=repro.mpc.fixture_tmp\n"
        "def fine(loads):\n"
        "    return sum(loads)  # mpclint: disable=raw-extremum -- stale claim\n",
    )
    report = _run(tmp_path)
    assert [f.rule for f in report.findings] == ["unused-suppression"]
    assert "stale claim" in report.findings[0].message


def test_unknown_rule_suppression_is_a_finding(tmp_path):
    _write(
        tmp_path,
        "# mpclint: module=repro.mpc.fixture_tmp\n"
        "x = 1  # mpclint: disable=no-such-rule -- whatever\n",
    )
    report = _run(tmp_path)
    assert [f.rule for f in report.findings] == ["bad-suppression"]
    assert "no-such-rule" in report.findings[0].message


def test_pseudo_rules_cannot_be_suppressed(tmp_path):
    _write(
        tmp_path,
        "# mpclint: module=repro.mpc.fixture_tmp\n"
        "x = 1  # mpclint: disable=unused-suppression -- nice try\n",
    )
    report = _run(tmp_path)
    assert [f.rule for f in report.findings] == ["bad-suppression"]
    assert "cannot be suppressed" in report.findings[0].message


def test_directive_examples_in_docstrings_are_ignored(tmp_path):
    _write(
        tmp_path,
        '"""Usage: add ``# mpclint: disable=raw-extremum`` to the line."""\n'
        "x = 1\n",
    )
    report = _run(tmp_path)
    assert report.findings == []


def test_multi_rule_suppression(tmp_path):
    _write(
        tmp_path,
        "# mpclint: module=repro.mpc.fixture_tmp\n"
        "def worst(loads):\n"
        "    return max(loads)  # mpclint: disable=raw-extremum, unbounded-wait -- one real, one stale\n",
    )
    report = _run(tmp_path)
    # raw-extremum fires and is silenced; unbounded-wait never fires there.
    assert [f.rule for f in report.findings] == ["unused-suppression"]
    assert report.suppressions_used == 1


# --------------------------------------------------------------------------- #
# Engine / report
# --------------------------------------------------------------------------- #


def test_syntax_error_becomes_parse_error_finding(tmp_path):
    _write(tmp_path, "def broken(:\n")
    report = _run(tmp_path)
    assert [f.rule for f in report.findings] == ["parse-error"]
    assert report.exit_code == 1


def test_unknown_select_raises(tmp_path):
    _write(tmp_path, "x = 1\n")
    with pytest.raises(ValueError, match="no-such-rule"):
        run_analysis([tmp_path], root=tmp_path, select=["no-such-rule"])


def test_golden_json_report():
    report = run_analysis([FIXTURES / "raw_extremum" / "bad.py"], root=FIXTURES)
    golden = json.loads(
        (FIXTURES / "golden_raw_extremum.json").read_text(encoding="utf-8")
    )
    assert json.loads(render_json(report)) == golden
    assert golden["version"] == JSON_REPORT_VERSION


def test_text_report_mentions_rule_and_location(tmp_path):
    _write(tmp_path, BAD_EXTREMUM)
    report = _run(tmp_path)
    text = render_text(report)
    assert "mod.py:3:" in text
    assert "[raw-extremum]" in text
    assert "1 finding(s)" in text


# --------------------------------------------------------------------------- #
# CLI / CI gate
# --------------------------------------------------------------------------- #


def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    _write(tmp_path, "x = 1\n")
    assert cli_main([str(tmp_path)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_exit_one_on_seeded_violation(tmp_path, capsys):
    _write(tmp_path, BAD_EXTREMUM)
    out_file = tmp_path / "report.json"
    assert cli_main([str(tmp_path), "--output", str(out_file)]) == 1
    payload = json.loads(out_file.read_text(encoding="utf-8"))
    assert payload["counts_by_rule"] == {"raw-extremum": 1}
    assert "[raw-extremum]" in capsys.readouterr().out


def test_cli_usage_error_on_missing_path(tmp_path, capsys):
    assert cli_main([str(tmp_path / "nope")]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in (
        "uncharged-communication",
        "stale-cache-invalidation",
        "worker-driver-isolation",
        "raw-extremum",
        "backend-literal-parity",
        "config-docs-drift",
    ):
        assert name in out


def test_cli_json_format(tmp_path, capsys):
    _write(tmp_path, BAD_EXTREMUM)
    assert cli_main([str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == JSON_REPORT_VERSION


def test_mpclint_tool_gates_like_ci(tmp_path):
    """The no-install entry point CI uses fails on a seeded violation."""
    _write(tmp_path, BAD_EXTREMUM)
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "mpclint.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1, proc.stderr
    assert "[raw-extremum]" in proc.stdout

    proc = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "tools" / "mpclint.py"),
            str(REPO_ROOT / "src"),
        ],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_display_paths_outside_any_repo_root(tmp_path):
    """Findings name the file even when no pyproject.toml ancestor exists.

    Regression: the repo-root fallback used to return the first discovered
    *file* as the root, collapsing every display path to '.'.
    """
    _write(tmp_path, BAD_EXTREMUM, name="viol.py")
    report = run_analysis([tmp_path])  # root derived, not passed
    assert [f.path for f in report.findings] == ["viol.py"]
