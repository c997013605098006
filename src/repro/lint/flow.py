"""Per-function control-flow graphs over ``ast``, with await-points.

The asyncio service layer's atomicity contract (RL009) is a *flow*
property: "state read before an ``await`` must not feed a write after
it" cannot be checked by walking statements in source order, because
loops, ``try`` handlers and early exits all change what "after" means.
This module builds a small statement-granularity CFG per function:

* one :class:`FlowNode` per simple statement or compound-statement
  header (the ``test`` of an ``if``/``while``, the ``iter`` of a
  ``for``, the context expressions of a ``with``);
* edges follow the interpreter -- branch/join for ``if``, back edges
  for loops, ``break``/``continue`` resolved against the enclosing
  loop, conservative exception edges from every ``try``-body node into
  each of its handlers;
* each node records whether executing it crosses a *yield point*: an
  ``await`` expression, or the implicit awaits of ``async for`` /
  ``async with`` headers.  Every interleaving hazard in a
  single-threaded event loop happens at exactly these points.

Nested function/lambda/class bodies are opaque: their statements get
their own CFGs (via :func:`function_defs`) and their expressions never
leak into the enclosing function's nodes -- a ``lambda:
self._op_write(...)`` enqueued for the worker reads state when the
*worker* runs it, not where the closure is written down.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Union

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Scope boundaries: walks never descend into these (fresh CFG instead).
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def walk_shallow(node: ast.AST) -> Iterator[ast.AST]:
    """``ast.walk`` that stays inside the current function scope."""
    stack: list[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        yield cur
        for child in ast.iter_child_nodes(cur):
            if isinstance(child, _SCOPE_NODES):
                continue
            stack.append(child)


def has_await(node: ast.AST) -> bool:
    """Does evaluating this (shallow) expression cross a yield point?"""
    return any(isinstance(sub, ast.Await) for sub in walk_shallow(node))


def function_defs(tree: ast.AST) -> Iterator[FuncDef]:
    """Every function definition in the tree, nested ones included."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def async_defs(tree: ast.AST) -> Iterator[ast.AsyncFunctionDef]:
    for fn in function_defs(tree):
        if isinstance(fn, ast.AsyncFunctionDef):
            yield fn


@dataclass(frozen=True)
class FlowNode:
    """One executable step of a function body."""

    idx: int
    #: The owning statement (compound statements appear as their header).
    stmt: ast.stmt
    #: The expressions evaluated *at* this node (for a simple statement,
    #: the statement itself; for an ``if``, just its test, and so on).
    exprs: tuple[ast.AST, ...]
    #: Executing this node crosses a yield point (``await`` expression,
    #: ``async for`` iteration, ``async with`` enter).
    awaits: bool

    @property
    def line(self) -> int:
        return self.stmt.lineno


@dataclass
class CFG:
    """Control-flow graph of one function body."""

    func: FuncDef
    nodes: list[FlowNode]
    #: Successor node indices, parallel to ``nodes``.
    succs: list[set[int]]

    def reachable_crossing_await(self, start: int) -> tuple[set[int], set[int]]:
        """Nodes reachable from ``start``, split by await-crossing.

        Returns ``(plain, awaited)``: node indices reachable without /
        after crossing at least one yield point (counting an await in
        ``start`` itself and in the destination node).  A node can
        appear in both sets when distinct paths differ.
        """
        plain: set[int] = set()
        awaited: set[int] = set()
        work = [(s, self.nodes[start].awaits) for s in self.succs[start]]
        while work:
            idx, crossed = work.pop()
            crossed = crossed or self.nodes[idx].awaits
            bucket = awaited if crossed else plain
            if idx in bucket:
                continue
            bucket.add(idx)
            work.extend((s, crossed) for s in self.succs[idx])
        return plain, awaited


class _Builder:
    """Recursive-descent CFG construction with loop/exception plumbing."""

    def __init__(self, func: FuncDef) -> None:
        self.func = func
        self.nodes: list[FlowNode] = []
        self.succs: list[set[int]] = []
        #: (break exits, loop-header idx) per enclosing loop.
        self.loops: list[tuple[list[int], int]] = []

    def build(self) -> CFG:
        self._block(self.func.body, set())
        return CFG(func=self.func, nodes=self.nodes, succs=self.succs)

    def _new(
        self,
        stmt: ast.stmt,
        exprs: tuple[ast.AST, ...],
        awaits: bool,
        preds: set[int],
    ) -> int:
        idx = len(self.nodes)
        self.nodes.append(FlowNode(idx=idx, stmt=stmt, exprs=exprs, awaits=awaits))
        self.succs.append(set())
        for p in preds:
            self.succs[p].add(idx)
        return idx

    def _block(self, stmts: list[ast.stmt], preds: set[int]) -> set[int]:
        """Wire a statement list; returns the fall-through predecessors."""
        for stmt in stmts:
            preds = self._stmt(stmt, preds)
        return preds

    def _stmt(self, stmt: ast.stmt, preds: set[int]) -> set[int]:
        if isinstance(stmt, _SCOPE_NODES):
            # A nested def/class is, at this level, one opaque statement.
            return {self._new(stmt, (), False, preds)}
        if isinstance(stmt, ast.If):
            n = self._new(stmt, (stmt.test,), has_await(stmt.test), preds)
            body_exits = self._block(stmt.body, {n})
            else_exits = self._block(stmt.orelse, {n}) if stmt.orelse else {n}
            return body_exits | else_exits
        if isinstance(stmt, ast.While):
            n = self._new(stmt, (stmt.test,), has_await(stmt.test), preds)
            return self._loop(stmt, n)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            awaits = isinstance(stmt, ast.AsyncFor) or has_await(stmt.iter)
            n = self._new(stmt, (stmt.iter, stmt.target), awaits, preds)
            return self._loop(stmt, n)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            exprs: list[ast.AST] = []
            for item in stmt.items:
                exprs.append(item.context_expr)
                if item.optional_vars is not None:
                    exprs.append(item.optional_vars)
            awaits = isinstance(stmt, ast.AsyncWith) or any(
                has_await(e) for e in exprs
            )
            n = self._new(stmt, tuple(exprs), awaits, preds)
            return self._block(stmt.body, {n})
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)
        if isinstance(stmt, ast.Match):
            n = self._new(stmt, (stmt.subject,), has_await(stmt.subject), preds)
            exits: set[int] = {n}  # no case may match
            for case in stmt.cases:
                exits |= self._block(case.body, {n})
            return exits
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._new(stmt, (stmt,), has_await(stmt), preds)
            return set()
        if isinstance(stmt, ast.Break):
            n = self._new(stmt, (), False, preds)
            if self.loops:
                self.loops[-1][0].append(n)
            return set()
        if isinstance(stmt, ast.Continue):
            n = self._new(stmt, (), False, preds)
            if self.loops:
                self.succs[n].add(self.loops[-1][1])
            return set()
        # Simple statement: Assign, AugAssign, Expr, Assert, Delete, ...
        return {self._new(stmt, (stmt,), has_await(stmt), preds)}

    def _loop(self, stmt: Union[ast.While, ast.For, ast.AsyncFor], header: int) -> set[int]:
        self.loops.append(([], header))
        body_exits = self._block(stmt.body, {header})
        breaks, _ = self.loops.pop()
        for e in body_exits:  # back edge: next iteration re-tests the header
            self.succs[e].add(header)
        else_exits = self._block(stmt.orelse, {header}) if stmt.orelse else {header}
        return set(breaks) | else_exits

    def _try(self, stmt: ast.Try, preds: set[int]) -> set[int]:
        body_start = len(self.nodes)
        body_exits = self._block(stmt.body, preds)
        body_range = range(body_start, len(self.nodes))
        else_exits = (
            self._block(stmt.orelse, body_exits) if stmt.orelse else body_exits
        )
        handler_entries: list[int] = []
        handler_exits: set[int] = set()
        for handler in stmt.handlers:
            h_start = len(self.nodes)
            handler_exits |= self._block(handler.body, set())
            if len(self.nodes) > h_start:
                handler_entries.append(h_start)
        # Conservative exception edges: any statement of the try body may
        # raise and land at the top of any handler.
        for idx in body_range:
            for entry in handler_entries:
                self.succs[idx].add(entry)
        exits = else_exits | handler_exits
        if stmt.finalbody:
            exits = self._block(stmt.finalbody, exits)
        return exits


def build_cfg(func: FuncDef) -> CFG:
    """Build the control-flow graph for one function definition."""
    return _Builder(func).build()
