"""Symbolic scaling rules for parametric architecture construction.

The paper expresses hardware sharing as "customizable symbolic expressions in circuit
description files", e.g. the TeMPO input encoders are scaled by ``R*H`` while the
dot-product nodes are scaled by ``R*C*H*W`` and an MZI mesh's unitary nodes by
``R*C*H*(H-1)/2``.  :class:`ScalingRule` evaluates such expressions against the
architecture parameters (``R``, ``C``, ``H``, ``W``, ``LAMBDA`` for wavelengths, ...)
using a restricted arithmetic evaluator -- no arbitrary code execution.
"""

from __future__ import annotations

import ast
import math
import operator
import threading
from typing import Mapping, Union

#: Shared parse-tree memo: scaling expressions come from a small fixed template
#: vocabulary, so repeated architecture builds (every design point of a sweep
#: with caching off) reuse one parse.  The lock matters beyond speed:
#: ``ast.parse`` is not thread-safe on CPython <= 3.11 (the AST constructor's
#: recursion-depth counter is per-interpreter, not per-thread), so concurrent
#: template builds on several threads intermittently died with ``SystemError:
#: AST constructor recursion depth mismatch`` until parsing was serialized.
_PARSE_LOCK = threading.Lock()
_PARSE_MEMO: dict = {}
_PARSE_MEMO_MAX = 4096


def _parse_expression(expression: str) -> ast.Expression:
    tree = _PARSE_MEMO.get(expression)
    if tree is None:
        with _PARSE_LOCK:
            tree = _PARSE_MEMO.get(expression)
            if tree is None:
                if len(_PARSE_MEMO) >= _PARSE_MEMO_MAX:  # bound pathological use
                    _PARSE_MEMO.clear()
                tree = ast.parse(expression, mode="eval")
                _PARSE_MEMO[expression] = tree
    return tree

_ALLOWED_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Pow: operator.pow,
    ast.Mod: operator.mod,
}

_ALLOWED_UNARYOPS = {
    ast.UAdd: operator.pos,
    ast.USub: operator.neg,
}

_ALLOWED_FUNCS = {
    "min": min,
    "max": max,
    "ceil": math.ceil,
    "floor": math.floor,
    "abs": abs,
    "log2": math.log2,
    "sqrt": math.sqrt,
}


class ScalingRule:
    """A symbolic expression over architecture parameters evaluating to a count.

    Examples::

        ScalingRule("R*C*H*W")          # one per dot-product node
        ScalingRule("R*H*LAMBDA")       # input encoders, per wavelength
        ScalingRule("R*C*H*(H-1)/2")    # Clements mesh unitary MZIs
        ScalingRule(4)                  # a fixed count
    """

    def __init__(self, expression: Union[str, int, float]) -> None:
        if isinstance(expression, (int, float)):
            self.expression = str(expression)
        elif isinstance(expression, str):
            if not expression.strip():
                raise ValueError("scaling expression must not be empty")
            self.expression = expression
        else:
            raise TypeError(
                f"expression must be str or number, got {type(expression).__name__}"
            )
        # Parse eagerly so malformed expressions fail at definition time.  The
        # returned tree is shared and treated as read-only (validation and
        # evaluation only walk it).
        self._tree = _parse_expression(self.expression)
        self._validate(self._tree.body)
        variables: set = set()
        self._collect_variables(self._tree.body, variables)
        self._variables = tuple(sorted(variables))
        # Memo of evaluate() results keyed by the referenced parameter values --
        # rules are evaluated with the same handful of parameter combinations
        # over and over during analysis sweeps.
        self._eval_memo: dict = {}

    # -- validation ------------------------------------------------------------
    def _validate(self, node: ast.AST) -> None:
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ValueError(
                    f"only numeric constants allowed, got {node.value!r}"
                )
        elif isinstance(node, ast.Name):
            return
        elif isinstance(node, ast.BinOp):
            if type(node.op) not in _ALLOWED_BINOPS:
                raise ValueError(
                    f"operator {type(node.op).__name__} not allowed in scaling rule"
                )
            self._validate(node.left)
            self._validate(node.right)
        elif isinstance(node, ast.UnaryOp):
            if type(node.op) not in _ALLOWED_UNARYOPS:
                raise ValueError(
                    f"operator {type(node.op).__name__} not allowed in scaling rule"
                )
            self._validate(node.operand)
        elif isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise ValueError(
                    "only min/max/ceil/floor/abs/log2/sqrt calls allowed in scaling rules"
                )
            if node.keywords:
                raise ValueError("keyword arguments not allowed in scaling rules")
            for arg in node.args:
                self._validate(arg)
        else:
            raise ValueError(
                f"unsupported syntax {type(node).__name__!r} in scaling rule "
                f"{self.expression!r}"
            )

    def _collect_variables(self, node: ast.AST, out: set) -> None:
        """Names referenced as parameters (call targets like ``max`` excluded)."""
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.BinOp):
            self._collect_variables(node.left, out)
            self._collect_variables(node.right, out)
        elif isinstance(node, ast.UnaryOp):
            self._collect_variables(node.operand, out)
        elif isinstance(node, ast.Call):
            for arg in node.args:
                self._collect_variables(arg, out)

    @property
    def variables(self) -> tuple:
        """Sorted parameter names this expression depends on."""
        return self._variables

    # -- evaluation ------------------------------------------------------------
    def _eval(self, node: ast.AST, params: Mapping[str, float]) -> float:
        if isinstance(node, ast.Constant):
            return float(node.value)
        if isinstance(node, ast.Name):
            try:
                return float(params[node.id])
            except KeyError:
                known = ", ".join(sorted(params))
                raise KeyError(
                    f"scaling rule {self.expression!r} references unknown parameter "
                    f"{node.id!r}; available: {known}"
                ) from None
        if isinstance(node, ast.BinOp):
            return _ALLOWED_BINOPS[type(node.op)](
                self._eval(node.left, params), self._eval(node.right, params)
            )
        if isinstance(node, ast.UnaryOp):
            return _ALLOWED_UNARYOPS[type(node.op)](self._eval(node.operand, params))
        if isinstance(node, ast.Call):
            func = _ALLOWED_FUNCS[node.func.id]  # type: ignore[union-attr]
            return float(func(*(self._eval(arg, params) for arg in node.args)))
        raise AssertionError(f"unvalidated node {node!r}")  # pragma: no cover

    def evaluate(self, params: Mapping[str, float]) -> float:
        """Evaluate the expression with the given architecture parameters.

        Results are memoized per referenced-parameter values: analyses evaluate
        the same rule with the same handful of parameter combinations many times
        per run (and design-space sweeps many times per sweep).
        """
        try:
            key = tuple(params[name] for name in self._variables)
        except KeyError:
            # Missing parameter: fall through for the detailed _eval error.
            return self._eval(self._tree.body, params)
        cached = self._eval_memo.get(key)
        if cached is None:
            if len(self._eval_memo) >= 4096:  # bound pathological sweeps
                self._eval_memo.clear()
            cached = self._eval_memo[key] = self._eval(self._tree.body, params)
        return cached

    def count(self, params: Mapping[str, float]) -> int:
        """Evaluate and round up to an integer instance count (never negative)."""
        value = self.evaluate(params)
        if value < 0:
            raise ValueError(
                f"scaling rule {self.expression!r} evaluated to negative count {value}"
            )
        return int(math.ceil(value - 1e-9))

    # -- conveniences -----------------------------------------------------------
    def __mul__(self, other: Union["ScalingRule", str, int, float]) -> "ScalingRule":
        other_expr = other.expression if isinstance(other, ScalingRule) else str(other)
        return ScalingRule(f"({self.expression})*({other_expr})")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ScalingRule) and self.expression == other.expression

    def __hash__(self) -> int:
        return hash(self.expression)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScalingRule({self.expression!r})"


ONE = ScalingRule(1)
