"""Per-rule fixture tests for the mpclint analyzer.

Every rule gets at least one true-positive fixture (findings at known
lines) and one clean fixture (zero findings).  The fixtures live in
``tests/analysis_fixtures/`` and are parsed, never imported; their
``# mpclint: module=...`` comments place them in the scope each rule
watches.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import all_rules, rule_by_name, run_analysis

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def _findings(paths, select=None):
    report = run_analysis([Path(p) for p in paths], root=FIXTURES, select=select)
    return [(f.rule, f.path, f.line) for f in report.findings]


# --------------------------------------------------------------------------- #
# True positives: each bad fixture fires its rule at the expected lines
# --------------------------------------------------------------------------- #

TRUE_POSITIVES = {
    "raw-extremum": (
        [FIXTURES / "raw_extremum" / "bad.py"],
        [
            ("raw-extremum", "raw_extremum/bad.py", 7),
            ("raw-extremum", "raw_extremum/bad.py", 11),
            ("raw-extremum", "raw_extremum/bad.py", 15),
        ],
    ),
    "stale-cache-invalidation": (
        [FIXTURES / "stale_cache" / "bad.py"],
        [
            ("stale-cache-invalidation", "stale_cache/bad.py", 6),
            ("stale-cache-invalidation", "stale_cache/bad.py", 10),
            ("stale-cache-invalidation", "stale_cache/bad.py", 14),
        ],
    ),
    "uncharged-communication": (
        [FIXTURES / "uncharged_communication" / "bad.py"],
        [
            ("uncharged-communication", "uncharged_communication/bad.py", 5),
        ],
    ),
    "worker-driver-isolation": (
        [FIXTURES / "worker_isolation" / "bad"],
        [
            (
                "worker-driver-isolation",
                "worker_isolation/bad/helper.py",
                3,
            ),
            ("worker-driver-isolation", "worker_isolation/bad/pool.py", 4),
            ("worker-driver-isolation", "worker_isolation/bad/pool.py", 8),
        ],
    ),
    "backend-literal-parity": (
        [FIXTURES / "backend_parity" / "bad"],
        [
            ("backend-literal-parity", "backend_parity/bad/dispatch.py", 7),
            ("backend-literal-parity", "backend_parity/bad/dispatch.py", 16),
        ],
    ),
    "unbounded-wait": (
        [FIXTURES / "unbounded_wait" / "bad.py"],
        [
            ("unbounded-wait", "unbounded_wait/bad.py", 6),
            ("unbounded-wait", "unbounded_wait/bad.py", 13),
            ("unbounded-wait", "unbounded_wait/bad.py", 20),
        ],
    ),
    "untraced-clock": (
        [FIXTURES / "untraced_clock" / "bad.py"],
        [
            ("untraced-clock", "untraced_clock/bad.py", 5),
            ("untraced-clock", "untraced_clock/bad.py", 9),
            ("untraced-clock", "untraced_clock/bad.py", 13),
            ("untraced-clock", "untraced_clock/bad.py", 19),
        ],
    ),
}

CLEAN = {
    "raw-extremum": [FIXTURES / "raw_extremum" / "good.py"],
    "stale-cache-invalidation": [FIXTURES / "stale_cache" / "good.py"],
    "uncharged-communication": [FIXTURES / "uncharged_communication" / "good.py"],
    "worker-driver-isolation": [FIXTURES / "worker_isolation" / "good"],
    "backend-literal-parity": [FIXTURES / "backend_parity" / "good"],
    "unbounded-wait": [FIXTURES / "unbounded_wait" / "good.py"],
    "untraced-clock": [FIXTURES / "untraced_clock" / "good.py"],
}


@pytest.mark.parametrize("rule", sorted(TRUE_POSITIVES))
def test_true_positive_fixture(rule):
    paths, expected = TRUE_POSITIVES[rule]
    assert _findings(paths) == expected


@pytest.mark.parametrize("rule", sorted(CLEAN))
def test_clean_fixture(rule):
    assert _findings(CLEAN[rule]) == []


# --------------------------------------------------------------------------- #
# config-docs-drift needs a docs file relative to the project root, so its
# scenarios pass the fixture directory as the root explicitly.
# --------------------------------------------------------------------------- #


def test_config_docs_true_positive():
    root = FIXTURES / "config_docs" / "bad"
    report = run_analysis([root], root=root)
    assert [(f.rule, f.path, f.line) for f in report.findings] == [
        ("config-docs-drift", "config.py", 7)
    ]
    assert "delta" in report.findings[0].message


def test_config_docs_clean():
    root = FIXTURES / "config_docs" / "good"
    report = run_analysis([root], root=root)
    assert report.findings == []


def test_config_docs_missing_docs_file(tmp_path):
    (tmp_path / "config.py").write_text(
        "# mpclint: module=repro.mpc.config\n"
        "class MPCConfig:\n"
        "    n: int = 0\n",
        encoding="utf-8",
    )
    report = run_analysis([tmp_path], root=tmp_path)
    assert [f.rule for f in report.findings] == ["config-docs-drift"]
    assert "docs/CONFIG.md" in report.findings[0].message


# --------------------------------------------------------------------------- #
# Registry sanity
# --------------------------------------------------------------------------- #


def test_every_rule_is_fixture_backed():
    covered = set(TRUE_POSITIVES) | set(CLEAN) | {"config-docs-drift"}
    assert {r.meta.name for r in all_rules()} == covered


def test_rule_metadata_complete():
    for rule in all_rules():
        assert rule.meta.name
        assert rule.meta.summary
        assert rule.meta.rationale
        assert rule_by_name(rule.meta.name) is rule


def test_select_restricts_rules():
    paths, expected = TRUE_POSITIVES["raw-extremum"]
    assert _findings(paths, select=["raw-extremum"]) == expected
    assert _findings(paths, select=["unbounded-wait"]) == []
