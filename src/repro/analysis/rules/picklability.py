"""R004: task-context classes must stay picklable.

Scope: classes whose instances cross process boundaries through the
``ships_tasks`` backends -- identified by the repo's naming convention
(``*Context`` / ``*Task`` / ``*Outcome``).  The pickle probe that opens
every shipped round catches violations at run time, but only on the code
path that actually ships; this rule catches them at lint time: captured
lambdas, lock/handle attributes, and lambda/lock ``default_factory`` fields
all raise ``PicklingError`` the first time a study runs on the process or
cluster backend.  Raw ``multiprocessing.shared_memory.SharedMemory`` objects are
flagged too -- a pickled segment re-attaches with no refcount, cleanup or
content addressing, so task classes must carry
:class:`repro.exec.shm.ShmHandle` instead.
"""

from __future__ import annotations

import ast
from typing import List

from repro.analysis import astutil
from repro.analysis.base import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.walker import ModuleInfo

_NAME_SUFFIXES = ("Context", "Task", "Outcome")

#: Constructors whose instances cannot pickle (or must not implicitly cross
#: process boundaries: an open handle "pickling" would not share the fd).
_UNPICKLABLE_CALLS = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Event",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.local",
    "open",
}

#: Raw shared-memory segments must not ride on shipped task state: pickling a
#: ``SharedMemory`` re-attaches (or fails) on the other side with no refcount,
#: no cleanup and no content addressing.  ``repro.exec.shm.ShmHandle`` is the
#: blessed carrier -- it ships the digest + segment name and resolves
#: per-host, so task classes should hold handles, never segments.
_RAW_SHM_NAMES = {
    "SharedMemory",
    "shared_memory.SharedMemory",
    "multiprocessing.shared_memory.SharedMemory",
}


def _is_task_class(node: ast.ClassDef) -> bool:
    return node.name.endswith(_NAME_SUFFIXES)


@register_rule
class PicklabilityRule(Rule):
    rule_id = "R004"
    title = "task-context class captures an unpicklable value"

    def check_module(self, module: ModuleInfo) -> List[Finding]:
        if module.repro_relative() is None:
            return []
        aliases = astutil.import_aliases(module.tree)
        findings: List[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and _is_task_class(node):
                findings.extend(self._check_class(module, node, aliases))
        return findings

    def _check_class(
        self, module: ModuleInfo, cls: ast.ClassDef, aliases: dict
    ) -> List[Finding]:
        findings: List[Finding] = []
        for node in ast.walk(cls):
            if isinstance(node, ast.Lambda):
                findings.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"lambda captured in task class {cls.name} "
                        "(lambdas do not pickle)",
                        "use a module-level function or functools.partial",
                    )
                )
            elif isinstance(node, ast.keyword) and node.arg == "default_factory":
                factory = astutil.dotted_name(node.value)
                factory = astutil.resolve_dotted(factory, aliases) if factory else None
                if factory in _UNPICKLABLE_CALLS:
                    findings.append(
                        self.finding(
                            module,
                            node.value.lineno,
                            f"unpicklable default_factory {factory} on task "
                            f"class {cls.name}",
                            "keep locks/handles out of shipped task state",
                        )
                    )
            elif isinstance(node, ast.Call):
                name = astutil.call_name(node, aliases)
                if name in _UNPICKLABLE_CALLS and self._reaches_instance(node, cls):
                    findings.append(
                        self.finding(
                            module,
                            node.lineno,
                            f"unpicklable {name}() stored on task class "
                            f"{cls.name}",
                            "keep locks/handles out of shipped task state "
                            "(recreate them worker-side)",
                        )
                    )
                elif name in _RAW_SHM_NAMES and self._reaches_instance(node, cls):
                    findings.append(
                        self.finding(
                            module,
                            node.lineno,
                            f"raw SharedMemory segment stored on task class "
                            f"{cls.name}",
                            "ship a repro.exec.shm.ShmHandle instead: handles "
                            "are content-addressed, pickle-safe and resolved "
                            "per host",
                        )
                    )
            elif isinstance(node, ast.AnnAssign) and node.annotation is not None:
                shm_name = self._annotated_shm(node.annotation, aliases)
                if shm_name is not None:
                    findings.append(
                        self.finding(
                            module,
                            node.annotation.lineno,
                            f"raw SharedMemory field declared on task class "
                            f"{cls.name}",
                            "declare the field as repro.exec.shm.ShmHandle "
                            "and resolve the segment worker-side",
                        )
                    )
        return findings

    @staticmethod
    def _annotated_shm(annotation: ast.expr, aliases: dict) -> str | None:
        """The raw-SharedMemory name inside ``annotation``, if any.

        Walks the whole annotation expression so wrapped spellings
        (``Optional[SharedMemory]``, ``Tuple[SharedMemory, ...]``) are caught
        alongside bare ones.
        """
        for node in ast.walk(annotation):
            if isinstance(node, (ast.Name, ast.Attribute)):
                dotted = astutil.dotted_name(node)
                resolved = astutil.resolve_dotted(dotted, aliases) if dotted else None
                for candidate in (resolved, dotted):
                    if candidate in _RAW_SHM_NAMES:
                        return candidate
        return None

    @staticmethod
    def _reaches_instance(call: ast.Call, cls: ast.ClassDef) -> bool:
        """Whether the constructor's value lands on instances: a ``self.x = ...``
        / class-attribute assignment, or a dataclass ``default_factory``."""
        for node in ast.walk(cls):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                values = [node.value] if node.value is not None else []
                if any(call in ast.walk(v) for v in values):
                    for target in targets:
                        if isinstance(target, ast.Name) or (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            return True
            elif isinstance(node, ast.keyword) and node.arg == "default_factory":
                if call in ast.walk(node.value):
                    return True
        return False
