"""R005: module-level mutable state is only mutated under a named lock.

Scope: the whole package.  The repo's concurrency story allows module-level
caches and registries (they make memoization and worker reuse cheap), but
threads (coordinator readers, in-thread workers, concurrent runners) can hit
any of them concurrently -- so every mutation site of a module-level
dict/list/set/deque must be lexically inside a ``with <lock>:`` block over a
module-level ``threading.Lock``/``RLock``.

Deliberate outs: module import time is single-threaded (top-level statements
are exempt); ``threading.local()`` state is per-thread by construction;
immutable-snapshot globals (tuples swapped under a lock) are not containers
and are not tracked; and a function-local name that shadows a tracked global
is just a local.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis import astutil
from repro.analysis.base import Rule, register_rule
from repro.analysis.findings import Finding
from repro.analysis.walker import ModuleInfo

#: Constructors of mutable containers worth tracking at module level.
_MUTABLE_CALLS = {
    "dict",
    "list",
    "set",
    "collections.OrderedDict",
    "collections.defaultdict",
    "collections.deque",
    "collections.Counter",
}

_LOCK_CALLS = {"threading.Lock", "threading.RLock"}

#: Method calls that mutate dicts/lists/sets/deques in place.
_MUTATORS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "extendleft",
    "insert",
    "move_to_end",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "setdefault",
    "update",
}


def _mutable_value(node: ast.AST, aliases: Dict[str, str]) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = astutil.call_name(node, aliases)
        return name in _MUTABLE_CALLS
    return False


@register_rule
class FrozenStateRule(Rule):
    rule_id = "R005"
    title = "module-level mutable state mutated without its lock"

    def check_module(self, module: ModuleInfo) -> List[Finding]:
        if module.repro_relative() is None:
            return []
        aliases = astutil.import_aliases(module.tree)
        tracked: Set[str] = set()
        locks: Set[str] = set()
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if _mutable_value(stmt.value, aliases):
                    tracked.add(target.id)
                elif (
                    isinstance(stmt.value, ast.Call)
                    and astutil.call_name(stmt.value, aliases) in _LOCK_CALLS
                ):
                    locks.add(target.id)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name) and _mutable_value(
                    stmt.value, aliases
                ):
                    tracked.add(stmt.target.id)
        if not tracked:
            return []

        findings: List[Finding] = []
        for node in module.tree.body:
            self._visit_statement(module, node, tracked, locks, findings, held=False)
        return findings

    # -- traversal ---------------------------------------------------------------------

    def _visit_statement(
        self,
        module: ModuleInfo,
        node: ast.AST,
        tracked: Set[str],
        locks: Set[str],
        findings: List[Finding],
        held: bool,
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visible = tracked - self._shadowed_locals(node)
            if visible:
                # A fresh function scope: import-time exemption ends here.
                for stmt in node.body:
                    self._visit_function_stmt(
                        module, stmt, visible, locks, findings, held=False
                    )
            return
        for child in ast.iter_child_nodes(node):
            self._visit_statement(module, child, tracked, locks, findings, held)

    def _visit_function_stmt(
        self,
        module: ModuleInfo,
        node: ast.AST,
        tracked: Set[str],
        locks: Set[str],
        findings: List[Finding],
        held: bool,
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visible = tracked - self._shadowed_locals(node)
            for stmt in node.body:
                # Nested defs may run later, outside the enclosing with-block.
                self._visit_function_stmt(
                    module, stmt, visible, locks, findings, held=False
                )
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquires = any(
                isinstance(item.context_expr, ast.Name)
                and item.context_expr.id in locks
                for item in node.items
            )
            for stmt in node.body:
                self._visit_function_stmt(
                    module, stmt, tracked, locks, findings, held or acquires
                )
            return
        if not held:
            name = self._mutation_target(node, tracked)
            if name is not None:
                findings.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"module-level mutable {name} mutated outside its lock",
                        "wrap the mutation in `with <lock>:` (declare a "
                        "module-level threading.Lock)",
                    )
                )
        for child in ast.iter_child_nodes(node):
            self._visit_function_stmt(module, child, tracked, locks, findings, held)

    # -- classification ----------------------------------------------------------------

    @staticmethod
    def _shadowed_locals(fn: ast.AST) -> Set[str]:
        """Names that are plain locals of ``fn`` (assigned without ``global``)."""
        declared_global: Set[str] = set()
        assigned: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.add(target.id)
        args = getattr(fn, "args", None)
        params = (
            {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)}
            if args
            else set()
        )
        return (assigned | params) - declared_global

    @staticmethod
    def _mutation_target(node: ast.AST, tracked: Set[str]) -> Optional[str]:
        def subscript_root(target: ast.AST) -> Optional[str]:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                return target.value.id
            return None

        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                root = subscript_root(target)
                if root in tracked:
                    return root
                if isinstance(target, ast.Name) and target.id in tracked:
                    # Rebinding a tracked global (requires a `global` decl to
                    # be a mutation rather than a shadow; shadows were removed
                    # from the visible set already).
                    return target.id
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                root = subscript_root(target)
                if root in tracked:
                    return root
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            func = node.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATORS
                and isinstance(func.value, ast.Name)
                and func.value.id in tracked
            ):
                return func.value.id
        return None
