"""The test suite's third-party imports are declared where installs read them.

Every package a ``tests/*.py`` module imports at module level must be named in
``pyproject.toml`` (the ``test`` extra or the runtime ``dependencies``) and on
the tier-1 CI job's ``pip install`` line; otherwise a clean install cannot
collect the suite.  Both files are parsed as text so this runs on Python 3.10,
which has no ``tomllib``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
TESTS = REPO / "tests"
CI_WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"


def _normalize(name: str) -> str:
    """Distribution and import names compare case- and dash-insensitively."""
    return name.lower().replace("-", "_")


def _module_level_imports(path: Path) -> set:
    """Top-level package names imported by the module body (not inside defs)."""
    names = set()
    pending = list(ast.parse(path.read_text(), filename=str(path)).body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
        elif isinstance(node, (ast.If, ast.Try, ast.ExceptHandler)):
            pending.extend(ast.iter_child_nodes(node))
    return names


def _third_party_test_imports() -> set:
    local = {path.stem for path in TESTS.glob("*.py")}
    imported = set()
    for path in TESTS.glob("*.py"):
        imported |= _module_level_imports(path)
    return {
        _normalize(name)
        for name in imported
        if name not in sys.stdlib_module_names and name != "repro" and name not in local
    }


def _pyproject_list(key: str) -> set:
    """The package names of one ``key = [...]`` array in pyproject.toml."""
    text = (REPO / "pyproject.toml").read_text()
    match = re.search(rf"^{re.escape(key)} = \[(.*?)^\]", text, re.M | re.S)
    assert match, f"pyproject.toml declares no {key} array"
    entries = re.findall(r'^\s*"([^"]+)"', match.group(1), re.M)
    return {_normalize(re.match(r"[A-Za-z0-9_.-]+", entry).group(0)) for entry in entries}


def _tier1_install_line() -> set:
    """The packages the tier-1 CI job installs."""
    text = CI_WORKFLOW.read_text()
    job = re.search(r"^  tier1:\n(.*?)(?=^  \S|\Z)", text, re.M | re.S)
    assert job, "ci.yml has no tier1 job"
    install = re.search(r"pip install (.+)$", job.group(1), re.M)
    assert install, "the tier1 job has no pip install line"
    return {_normalize(name) for name in install.group(1).split()}


def test_the_import_scan_reads_module_level_imports_only(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "import os.path\n"
        "from alpha.beta import gamma\n"
        "from . import sibling\n"
        "try:\n"
        "    import delta\n"
        "except ImportError:\n"
        "    import epsilon\n"
        "if True:\n"
        "    import zeta\n"
        "def lazy():\n"
        "    import hidden\n"
        "class Lazy:\n"
        "    import hidden_too\n"
    )
    assert _module_level_imports(module) == {"os", "alpha", "delta", "epsilon", "zeta"}


def test_the_test_extra_and_tier1_line_agree_on_the_plugins():
    # hypothesis is declared in both places; the benchmark plugin in neither.
    for declared in (_pyproject_list("test"), _tier1_install_line()):
        assert {"pytest", "hypothesis"} <= declared
        assert "pytest_benchmark" not in declared


@pytest.mark.parametrize(
    "declared",
    [
        pytest.param(lambda: _pyproject_list("test") | _pyproject_list("dependencies"),
                     id="pyproject"),
        pytest.param(_tier1_install_line, id="tier1-ci"),
    ],
)
def test_every_test_import_is_declared(declared):
    imported = _third_party_test_imports()
    # The scan sees the suite's known imports and none of its local modules.
    assert {"numpy", "pytest", "hypothesis"} <= imported
    assert not imported & {"oracles", "conftest", "repro"}
    missing = imported - declared()
    assert not missing, f"test imports not declared: {sorted(missing)}"
