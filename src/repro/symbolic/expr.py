"""Symbolic expression utilities over the program IR.

Symbolic values *are* IR expressions whose only non-constant leaves are
:class:`~repro.progmodel.ir.Input` nodes (program inputs, or fresh
symbols the engine mints for symbolic syscall returns). This module
provides the shared operator semantics, constant folding, substitution,
and concrete evaluation.

**Interning.** The engine re-derives the same sub-expressions at every
fork (``fold(substitute(...))`` per branch), so :func:`fold` and
:func:`substitute` route every node they build through a hash-consing
table keyed by the structural :meth:`~repro.progmodel.ir.Expr.key`.
α-identical structures collapse to one shared node whose memoized
``key()``/``inputs()``/skeleton are computed once, and both functions
return the *original* node (identity fast path) whenever no rewrite
applies. Interning changes object identity only — never structure,
``key()`` output, or ``repr`` — so cache keys, dedup sets, and every
deterministic report are byte-for-byte unaffected (see
docs/PERFORMANCE.md for the invariant argument).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Mapping, Optional

from repro.errors import SymbolicError
from repro.memo import memo_lookup
from repro.progmodel.ir import BinOp, Const, Expr, Input, UnOp, Var

__all__ = ["apply_op", "fold", "substitute", "eval_concrete", "is_const",
           "intern_expr"]

# Hash-consing table: structural key -> canonical node. Bounded by
# oldest-first eviction (entries are pure caches; losing one loses
# sharing, never correctness, since distinct identity proves nothing),
# sized far above any single program's expression population so
# eviction only happens on pathological fleet churn. An OrderedDict,
# so each eviction costs O(1) instead of a scan past emptied slots.
_INTERN: Dict[tuple, Expr] = OrderedDict()
_INTERN_MAX = 1 << 16

# Small-integer constants are by far the most common leaves.
_CONST_CACHE = {value: Const(value) for value in range(-16, 257)}


def intern_expr(expr: Expr) -> Expr:
    """The canonical shared node for ``expr``'s structure.

    Identity-based fast paths elsewhere (``a is b``) are sound for any
    two nodes that both came out of this table; the reverse direction
    (distinct identity) proves nothing, callers still fall back to
    ``key()`` comparison.
    """
    return memo_lookup(_INTERN, expr.key(), lambda: expr, _INTERN_MAX)


def _const(value: int) -> Const:
    node = _CONST_CACHE.get(value)
    if node is not None:
        return node
    return intern_expr(Const(value))


def apply_op(op: str, left: int, right: int) -> int:
    """Integer semantics shared with the concrete interpreter.

    Raises ZeroDivisionError for ``// 0`` and ``% 0`` — callers decide
    whether that is a crash path or an infeasible evaluation.
    """
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "//":
        return left // right
    if op == "%":
        return left % right
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    if op == "<":
        return int(left < right)
    if op == "<=":
        return int(left <= right)
    if op == ">":
        return int(left > right)
    if op == ">=":
        return int(left >= right)
    if op == "and":
        return int(bool(left) and bool(right))
    if op == "or":
        return int(bool(left) or bool(right))
    if op == "min":
        return min(left, right)
    if op == "max":
        return max(left, right)
    raise SymbolicError(f"unknown operator {op!r}")


def is_const(expr: Expr) -> bool:
    return isinstance(expr, Const)


def fold(expr: Expr) -> Expr:
    """Constant-fold an expression bottom-up.

    Folding is conservative: ``// 0`` and ``% 0`` on constants are left
    unfolded so the engine can turn them into crash paths rather than
    silently failing here.

    The result is memoized on the node and interned, so re-folding a
    shared (or structurally repeated) expression is O(1); a fixpoint
    node folds to itself.
    """
    try:
        return expr._folded
    except AttributeError:
        pass
    folded = _fold_inner(expr)
    expr._folded = folded
    folded._folded = folded
    return folded


def _fold_inner(expr: Expr) -> Expr:
    if isinstance(expr, (Const, Input, Var)):
        return expr
    if isinstance(expr, UnOp):
        operand = fold(expr.operand)
        if isinstance(operand, Const):
            if expr.op == "neg":
                return _const(-operand.value)
            return _const(int(operand.value == 0))
        if operand is expr.operand:
            return intern_expr(expr)
        return intern_expr(UnOp(expr.op, operand))
    if isinstance(expr, BinOp):
        left = fold(expr.left)
        right = fold(expr.right)
        if isinstance(left, Const) and isinstance(right, Const):
            if expr.op in ("//", "%") and right.value == 0:
                if left is expr.left and right is expr.right:
                    return intern_expr(expr)
                return intern_expr(BinOp(expr.op, left, right))
            return _const(apply_op(expr.op, left.value, right.value))
        # Cheap algebraic identities keep path conditions small.
        #
        # Only *taint-faithful* rules are allowed: a rule may never turn
        # an input-dependent expression into a constant, because the
        # pods' dynamic taint tracking is conservative (x*0 is tainted
        # when x is) and path identities must agree between concrete
        # executions and the symbolic oracle. Absorption rules like
        # ``x * 0 -> 0`` or ``0 and x -> 0`` are therefore forbidden;
        # the solver prunes the degenerate direction instead.
        if isinstance(right, Const):
            if expr.op == "+" and right.value == 0:
                return left
            if expr.op == "*" and right.value == 1:
                return left
        if isinstance(left, Const):
            if expr.op == "+" and left.value == 0:
                return right
            if expr.op == "*" and left.value == 1:
                return right
        if left is expr.left and right is expr.right:
            return intern_expr(expr)
        return intern_expr(BinOp(expr.op, left, right))
    raise SymbolicError(f"cannot fold {expr!r}")


def substitute(expr: Expr, variables: Mapping[str, Expr],
               inputs: Optional[Mapping[str, Expr]] = None) -> Expr:
    """Replace Var leaves (and optionally Input leaves) by expressions.

    Missing Var bindings default to Const(0), mirroring the concrete
    interpreter's uninitialised-local semantics.

    Subtrees the substitution cannot touch are returned as-is (the
    memoized ``variables()``/``inputs()`` make that check O(1) on
    shared nodes); rebuilt nodes are interned.
    """
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Var):
        return variables.get(expr.name, _ZERO)
    if isinstance(expr, Input):
        if inputs is not None and expr.name in inputs:
            return inputs[expr.name]
        return expr
    if not expr.variables() and (
            inputs is None
            or not any(name in inputs for name in expr.inputs())):
        return expr
    if isinstance(expr, UnOp):
        operand = substitute(expr.operand, variables, inputs)
        if operand is expr.operand:
            return expr
        return intern_expr(UnOp(expr.op, operand))
    if isinstance(expr, BinOp):
        left = substitute(expr.left, variables, inputs)
        right = substitute(expr.right, variables, inputs)
        if left is expr.left and right is expr.right:
            return expr
        return intern_expr(BinOp(expr.op, left, right))
    raise SymbolicError(f"cannot substitute into {expr!r}")


_ZERO = _const(0)


def eval_concrete(expr: Expr, env: Mapping[str, int]) -> int:
    """Evaluate an expression whose Input leaves are bound by ``env``.

    Var leaves are not allowed here — substitute them away first.
    Raises ZeroDivisionError on division/modulo by zero.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Input):
        try:
            return env[expr.name]
        except KeyError:
            raise SymbolicError(f"unbound symbol {expr.name!r}")
    if isinstance(expr, Var):
        raise SymbolicError(
            f"eval_concrete saw unresolved variable {expr.name!r}")
    if isinstance(expr, UnOp):
        value = eval_concrete(expr.operand, env)
        return -value if expr.op == "neg" else int(value == 0)
    if isinstance(expr, BinOp):
        return apply_op(expr.op,
                        eval_concrete(expr.left, env),
                        eval_concrete(expr.right, env))
    raise SymbolicError(f"cannot evaluate {expr!r}")
