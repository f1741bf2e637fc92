"""The ``repro lint`` static-analysis subsystem: rules, CLI, self-lint."""

import json
from pathlib import Path

import pytest

from repro.analysis import LINT_SCHEMA, lint_paths, parse_module, rule_ids
from repro.analysis.walker import default_lint_paths
from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "lint"


def lint_fixture(*names, rules=None):
    return lint_paths([FIXTURES / name for name in names], rule_filter=rules)


def findings_for(*names, rules=None):
    return lint_fixture(*names, rules=rules).findings


# -- rule registry ---------------------------------------------------------------------


def test_all_five_rules_registered():
    assert rule_ids() == ("R001", "R002", "R003", "R004", "R005")


def test_unknown_rule_filter_is_actionable():
    with pytest.raises(ValueError, match="unknown rule"):
        lint_fixture("r001_good.py", rules=["R999"])


# -- R001 determinism ------------------------------------------------------------------


def test_r001_flags_global_rng_wall_clock_and_unseeded():
    findings = findings_for("r001_bad.py", rules=["R001"])
    messages = [f.message for f in findings]
    assert len(findings) == 4
    assert any("numpy.random.normal" in m for m in messages)
    assert any("random.random" in m for m in messages)
    assert any("unseeded numpy.random.default_rng" in m for m in messages)
    assert any("wall-clock read time.time" in m for m in messages)


def test_r001_clean_on_seeded_code():
    assert findings_for("r001_good.py", rules=["R001"]) == []


def test_r001_scope_excludes_non_deterministic_packages():
    assert findings_for("r001_out_of_scope.py", rules=["R001"]) == []


# -- R002 fingerprint completeness -----------------------------------------------------


def test_r002_catches_key_omitted_read():
    findings = findings_for("r002_bad.py", rules=["R002"])
    assert len(findings) == 1
    assert "reads nominal" in findings[0].message
    assert findings[0].file == "src/repro/core/engine.py"


def test_r002_clean_when_key_covers_reads():
    assert findings_for("r002_good.py", rules=["R002"]) == []


# -- R003 env-knob pinning -------------------------------------------------------------


def test_r003_catches_raw_environ_reads():
    findings = findings_for("r003_bad_read.py", rules=["R003"])
    assert len(findings) == 2
    assert any("os.environ.get" in f.message for f in findings)
    assert any("os.environ['REPRO_BETA']" in f.message for f in findings)


def test_r003_cross_checks_registry():
    findings = findings_for(
        "r003_knobs.py", "r003_bad_unregistered.py", "r003_good.py", rules=["R003"]
    )
    assert [f.message for f in findings] == [
        "unregistered knob literal REPRO_NOT_DECLARED"
    ]
    assert findings[0].file == "src/repro/onn/widths_bad.py"


def test_r003_flags_hand_maintained_snapshot():
    findings = findings_for("r003_knobs.py", "r003_bad_snapshot.py", rules=["R003"])
    assert any("hand-maintained knob literal" in f.message for f in findings)


def test_r003_clean_on_registry_routed_reads():
    assert findings_for("r003_knobs.py", "r003_good.py", rules=["R003"]) == []


# -- R004 picklability -----------------------------------------------------------------


def test_r004_flags_lambdas_locks_and_handles():
    findings = findings_for("r004_bad.py", rules=["R004"])
    messages = [f.message for f in findings]
    assert any("lambda captured" in m for m in messages)
    assert any("default_factory threading.Lock" in m for m in messages)
    assert any("threading.Lock() stored" in m for m in messages)
    assert any("open() stored" in m for m in messages)


def test_r004_clean_on_plain_data_classes():
    assert findings_for("r004_good.py", rules=["R004"]) == []


def test_r004_flags_raw_shared_memory_on_task_classes():
    findings = findings_for("r004_bad.py", "r004_bad_shm.py", rules=["R004"])
    messages = [f.message for f in findings]
    assert any(
        "raw SharedMemory segment stored" in m and "ShardedArrayContext" in m
        for m in messages
    )
    assert any(
        "raw SharedMemory field declared" in m and "SliceTaskContext" in m
        for m in messages
    )
    assert any(
        "raw SharedMemory segment stored" in m and "SliceTask" in m
        for m in messages
    )


def test_r004_clean_on_shm_handle_fields():
    assert findings_for("r004_good_shm.py", rules=["R004"]) == []


# -- R005 frozen state -----------------------------------------------------------------


def test_r005_flags_unguarded_mutations():
    findings = findings_for("r005_bad.py", rules=["R005"])
    assert len(findings) == 3
    assert {f.message.split()[2] for f in findings} == {"_CACHE", "_PENDING"}


def test_r005_clean_on_guarded_mutations():
    assert findings_for("r005_good.py", rules=["R005"]) == []


# -- walker: fixtures, suppressions ----------------------------------------------------


def test_fixture_directive_overrides_effective_path():
    module = parse_module(FIXTURES / "r002_bad.py")
    assert module.is_fixture
    assert module.effective_path == "src/repro/core/engine.py"


def test_directory_walks_skip_fixture_files():
    report = lint_paths([FIXTURES])
    assert report.modules == []
    assert report.findings == []


def test_suppression_pragma_silences_one_line(tmp_path):
    victim = tmp_path / "memo.py"
    victim.write_text(
        "# repro-lint-fixture: src/repro/core/memo.py\n"
        "_CACHE = {}\n"
        "def remember(key, value):\n"
        "    _CACHE[key] = value  # repro-lint: ignore[R005]\n"
        "def forget(key):\n"
        "    _CACHE.pop(key, None)\n"
    )
    findings = lint_paths([victim], rule_filter=["R005"]).findings
    assert len(findings) == 1
    assert findings[0].line == 6


def test_parse_failure_is_reported_not_fatal(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    report = lint_paths([broken])
    assert report.findings == []
    assert len(report.parse_failures) == 1
    assert "syntax error" in report.parse_failures[0].message


# -- CLI -------------------------------------------------------------------------------


def test_cli_lint_json_schema(capsys):
    code = main(["lint", str(FIXTURES / "r005_bad.py"), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["schema"] == LINT_SCHEMA
    assert set(payload) == {
        "schema", "rules", "modules", "counts", "findings", "parse_failures"
    }
    assert payload["counts"] == {"R005": 3}
    assert payload["rules"] == ["R001", "R002", "R003", "R004", "R005"]
    assert all(
        set(f) == {"rule", "file", "line", "message", "suggestion"}
        for f in payload["findings"]
    )


def test_cli_lint_rule_filter(capsys):
    code = main(["lint", str(FIXTURES / "r001_bad.py"), "--rule", "R005"])
    out = capsys.readouterr().out
    assert code == 0
    assert "rules R005" in out


def test_cli_lint_unknown_rule_exits_2(capsys):
    assert main(["lint", "--rule", "R999"]) == 2


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("R001", "R002", "R003", "R004", "R005"):
        assert rule_id in out


# -- the repo lints itself -------------------------------------------------------------


def test_repo_lints_clean():
    report = lint_paths(default_lint_paths())
    assert report.parse_failures == []
    assert report.findings == []
