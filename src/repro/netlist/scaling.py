"""Symbolic scaling rules for parametric architecture construction.

The paper expresses hardware sharing as "customizable symbolic expressions in circuit
description files", e.g. the TeMPO input encoders are scaled by ``R*H`` while the
dot-product nodes are scaled by ``R*C*H*W`` and an MZI mesh's unitary nodes by
``R*C*H*(H-1)/2``.  :class:`ScalingRule` evaluates such expressions against the
architecture parameters (``R``, ``C``, ``H``, ``W``, ``LAMBDA`` for wavelengths, ...).

Each distinct expression is parsed, validated against a small arithmetic grammar
(numbers, parameter names, ``+ - * / // % **``, unary ``+``/``-`` and the
functions ``min``/``max``/``ceil``/``floor``/``abs``/``log2``/``sqrt``) and then
*compiled*: the validated tree is lowered once into a Python function of the
parameter mapping, in which every name reads ``float(p[name])``, every constant
is a float and every call returns ``float(func(...))``.  That is the arithmetic
of a tree walk over the same expression, in the same evaluation order, so
results are identical to the last bit.  The function runs with empty
``__builtins__`` and sees only the allowed functions -- no arbitrary code
execution.  Compiled functions are shared through a bounded parse memo; rule
results are not memoized (a call costs about as much as a memo lookup would).
Rules pickle as their expression text and recompile on load.
"""

from __future__ import annotations

import ast
import math
import threading
from typing import Callable, Mapping, Tuple, Union

_ALLOWED_BINOPS = frozenset(
    {ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Pow, ast.Mod}
)

_ALLOWED_UNARYOPS = frozenset({ast.UAdd, ast.USub})

_ALLOWED_FUNCS = {
    "min": min,
    "max": max,
    "ceil": math.ceil,
    "floor": math.floor,
    "abs": abs,
    "log2": math.log2,
    "sqrt": math.sqrt,
}

#: The only globals a compiled rule sees: ``float`` and the allowed functions,
#: under names no parameter lookup can reach (parameters are read as ``p[...]``).
_RULE_GLOBALS = {
    "__builtins__": {},
    "_float": float,
    **{f"_f_{name}": func for name, func in _ALLOWED_FUNCS.items()},
}

#: Shared memo of compiled expressions: scaling expressions come from a small
#: fixed template vocabulary, so repeated architecture builds (every design
#: point of a sweep with caching off) reuse one parse and one compile.  The
#: lock matters beyond speed: ``ast.parse`` is not thread-safe on CPython <=
#: 3.11 (the AST constructor's recursion-depth counter is per-interpreter, not
#: per-thread), so concurrent template builds on several threads intermittently
#: died with ``SystemError: AST constructor recursion depth mismatch`` until
#: parsing was serialized.
_PARSE_LOCK = threading.Lock()
_PARSE_MEMO: dict = {}
_PARSE_MEMO_MAX = 4096

CompiledRule = Tuple[Tuple[str, ...], Callable[[Mapping[str, float]], float]]


def _validate(node: ast.AST, expression: str) -> None:
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ValueError(f"only numeric constants allowed, got {node.value!r}")
    elif isinstance(node, ast.Name):
        return
    elif isinstance(node, ast.BinOp):
        if type(node.op) not in _ALLOWED_BINOPS:
            raise ValueError(
                f"operator {type(node.op).__name__} not allowed in scaling rule"
            )
        _validate(node.left, expression)
        _validate(node.right, expression)
    elif isinstance(node, ast.UnaryOp):
        if type(node.op) not in _ALLOWED_UNARYOPS:
            raise ValueError(
                f"operator {type(node.op).__name__} not allowed in scaling rule"
            )
        _validate(node.operand, expression)
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
            raise ValueError(
                "only min/max/ceil/floor/abs/log2/sqrt calls allowed in scaling rules"
            )
        if node.keywords:
            raise ValueError("keyword arguments not allowed in scaling rules")
        for arg in node.args:
            _validate(arg, expression)
    else:
        raise ValueError(
            f"unsupported syntax {type(node).__name__!r} in scaling rule {expression!r}"
        )


def _lower(node: ast.AST, variables: set) -> ast.expr:
    """The validated ``node`` as float arithmetic over the mapping ``p``."""
    if isinstance(node, ast.Constant):
        return ast.Constant(float(node.value))
    if isinstance(node, ast.Name):
        variables.add(node.id)
        lookup = ast.Subscript(ast.Name("p", ast.Load()), ast.Constant(node.id), ast.Load())
        return ast.Call(ast.Name("_float", ast.Load()), [lookup], [])
    if isinstance(node, ast.BinOp):
        return ast.BinOp(_lower(node.left, variables), node.op, _lower(node.right, variables))
    if isinstance(node, ast.UnaryOp):
        return ast.UnaryOp(node.op, _lower(node.operand, variables))
    func = ast.Name(f"_f_{node.func.id}", ast.Load())  # type: ignore[union-attr]
    call = ast.Call(func, [_lower(arg, variables) for arg in node.args], [])
    return ast.Call(ast.Name("_float", ast.Load()), [call], [])


def _compile(expression: str) -> CompiledRule:
    """Parse, validate and compile ``expression`` (call under ``_PARSE_LOCK``)."""
    body = ast.parse(expression, mode="eval").body
    _validate(body, expression)
    variables: set = set()
    lowered = _lower(body, variables)
    args = ast.arguments(
        posonlyargs=[], args=[ast.arg("p")], kwonlyargs=[], kw_defaults=[], defaults=[]
    )
    tree = ast.fix_missing_locations(ast.Expression(ast.Lambda(args, lowered)))
    code = compile(tree, f"<scaling rule {expression!r}>", "eval")
    return tuple(sorted(variables)), eval(code, _RULE_GLOBALS)  # a validated tree, empty builtins


def _compiled(expression: str) -> CompiledRule:
    compiled = _PARSE_MEMO.get(expression)
    if compiled is None:
        with _PARSE_LOCK:
            compiled = _PARSE_MEMO.get(expression)
            if compiled is None:
                if len(_PARSE_MEMO) >= _PARSE_MEMO_MAX:  # bound pathological use
                    _PARSE_MEMO.clear()
                compiled = _PARSE_MEMO[expression] = _compile(expression)
    return compiled


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
        # Compile eagerly so malformed expressions fail at definition time.
        self._variables, self._fn = _compiled(self.expression)

    def __reduce__(self):
        # The compiled function does not pickle; the expression rebuilds it.
        return (ScalingRule, (self.expression,))

    @property
    def variables(self) -> tuple:
        """Sorted parameter names this expression depends on."""
        return self._variables

    # -- evaluation ------------------------------------------------------------
    def evaluate(self, params: Mapping[str, float]) -> float:
        """Evaluate the expression with the given architecture parameters."""
        try:
            return self._fn(params)
        except KeyError as exc:
            missing = exc.args[0] if exc.args else None
            known = ", ".join(sorted(params))
            raise KeyError(
                f"scaling rule {self.expression!r} references unknown parameter "
                f"{missing!r}; available: {known}"
            ) from None

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
