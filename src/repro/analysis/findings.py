"""The finding record every lint rule emits."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: Schema tag of the ``repro lint --format json`` payload; bumped on
#: incompatible layout changes so CI consumers can assert what they parse.
#: ``/2`` dropped the ``baselined`` and ``expired_baseline_entries`` fields.
LINT_SCHEMA = "repro-lint/2"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``file`` is the module's *effective* path (repo-relative posix), which for
    test fixtures may be overridden by a ``# repro-lint-fixture:`` directive so
    path-scoped rules treat the fixture as if it lived at the declared
    location.
    """

    rule_id: str
    file: str
    line: int
    message: str
    suggestion: str = ""

    def sort_key(self) -> Tuple[str, int, str, str]:
        return (self.file, self.line, self.rule_id, self.message)

    def to_payload(self) -> Dict[str, Any]:
        return {
            "rule": self.rule_id,
            "file": self.file,
            "line": self.line,
            "message": self.message,
            "suggestion": self.suggestion,
        }

    def render(self) -> str:
        text = f"{self.file}:{self.line}: {self.rule_id} {self.message}"
        if self.suggestion:
            text += f" [{self.suggestion}]"
        return text
