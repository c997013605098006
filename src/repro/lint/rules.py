"""reprolint rule registry: RL001..RL011.

Each rule encodes one project invariant; docs/LINTING.md carries the
paper / PR rationale per rule.  Rules see one parsed file at a time
through :class:`RuleContext`; rules that need the whole scanned set
(the RL002 import-cycle check and the RL010 cross-artifact
conformance pass) implement :meth:`Rule.check_project`.

Path scoping uses logical posix paths rooted at the package
(``repro/kcursor/table.py``); test fixtures impersonate real modules
with a ``# reprolint: path=...`` pragma (see :mod:`repro.lint.engine`).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

from repro.lint.engine import Severity, Violation
from repro.lint.flow import CFG, FlowNode, async_defs, build_cfg, walk_shallow
from repro.lint.project import ProjectIndex, Site, parse_metrics_catalogue


@dataclass
class RuleContext:
    """One parsed file as seen by the rules."""

    path: str           # real filesystem path (reported)
    module_path: str    # logical posix path (scoping), e.g. repro/pma/pma.py
    source: str
    tree: ast.Module

    @cached_property
    def aliases(self) -> dict[str, str]:
        """Name -> dotted import target, from this module's imports.

        ``import numpy as np`` maps ``np -> numpy``; ``from time import
        time`` maps ``time -> time.time``.  Used to resolve call targets
        without executing anything.
        """
        table: dict[str, str] = {}
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    table[a.asname or a.name.split(".")[0]] = (
                        a.name if a.asname else a.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for a in node.names:
                    if a.name != "*":
                        table[a.asname or a.name] = f"{node.module}.{a.name}"
        return table

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Dotted target of a Name/Attribute chain, through import aliases.

        ``np.random.rand`` -> ``numpy.random.rand``; returns None for
        anything that is not a plain dotted chain.
        """
        parts: list[str] = []
        cur: ast.expr = node
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if not isinstance(cur, ast.Name):
            return None
        head = self.aliases.get(cur.id, cur.id)
        parts.append(head)
        return ".".join(reversed(parts))

    @property
    def module_name(self) -> str:
        """Dotted module name (``repro/pma/pma.py`` -> ``repro.pma.pma``)."""
        p = self.module_path
        if p.endswith("/__init__.py"):
            p = p[: -len("/__init__.py")]
        elif p.endswith(".py"):
            p = p[:-3]
        return p.replace("/", ".")


class Rule:
    """Base rule: subclass, set the class attributes, implement check()."""

    id: str = ""
    severity: Severity = "error"
    summary: str = ""
    #: Logical-path prefixes this rule applies to (None = every file).
    path_prefixes: Optional[tuple[str, ...]] = None
    #: Exact logical paths exempted, with the reason documented inline.
    path_exempt: tuple[str, ...] = ()

    def applies(self, module_path: str) -> bool:
        if module_path in self.path_exempt:
            return False
        if self.path_prefixes is None:
            return True
        return any(module_path.startswith(p) for p in self.path_prefixes)

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        return iter(())

    def check_project(self, ctxs: Sequence[RuleContext]) -> Iterator[Violation]:
        return iter(())

    def violation(self, ctx: RuleContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=self.id, severity=self.severity, path=ctx.path,
            line=getattr(node, "lineno", 1), col=getattr(node, "col_offset", 0),
            message=message,
        )


RULES: dict[str, Rule] = {}


def rule(cls: type[Rule]) -> type[Rule]:
    """Register a rule class (instantiated once) in the global registry."""
    inst = cls()
    if inst.id in RULES:
        raise ValueError(f"duplicate rule id {inst.id}")
    RULES[inst.id] = inst
    return cls


# ----------------------------------------------------------------------
# RL001: hot paths may only touch observers behind an `is not None` guard


#: The guarantee-bearing hot paths (PR 1's zero-overhead convention).
HOT_PATH_MODULES = (
    "repro/kcursor/table.py",
    "repro/kcursor/chunk.py",
    "repro/pma/pma.py",
    "repro/core/single.py",
    "repro/core/placement.py",
    "repro/core/events.py",   # Ledger.observer lives here
)

_OBSERVER_ATTRS = frozenset({"_observer", "observer"})


def _attr_read(node: ast.expr, attrs: frozenset[str]) -> Optional[str]:
    """Unparse string if ``node`` reads one of the policed attributes."""
    if isinstance(node, ast.Attribute) and node.attr in attrs:
        return ast.unparse(node)
    return None


def _terminates(stmts: list[ast.stmt]) -> bool:
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Return, ast.Raise, ast.Continue, ast.Break)
    )


def _nonnull_tests(test: ast.expr) -> list[str]:
    """Expressions proven non-None when ``test`` is true (``x is not None``,
    possibly inside an ``and`` chain)."""
    out: list[str] = []
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        for v in test.values:
            out.extend(_nonnull_tests(v))
    elif (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.IsNot)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        out.append(ast.unparse(test.left))
    return out


def _null_test(test: ast.expr) -> Optional[str]:
    """The expression compared with ``is None``, if the test is exactly that."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.ops[0], ast.Is)
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
    ):
        return ast.unparse(test.left)
    return None


@rule
class RL001ObserverGuard(Rule):
    id = "RL001"
    summary = ("hot-path observer access must sit behind an `is not None` "
               "guard (zero overhead when instrumentation is detached)")
    path_prefixes = HOT_PATH_MODULES
    #: Attribute names whose reads must be guarded; subclasses (RL007)
    #: reuse the whole guard-flow analysis with a different set.
    guard_attrs: frozenset[str] = _OBSERVER_ATTRS
    #: What the violation message calls the guarded thing.
    guard_noun: str = "observer"

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        found: list[Violation] = []
        self._block(ctx, ctx.tree.body, set(), set(), found)
        return iter(found)

    # -- helpers ------------------------------------------------------

    def _block(
        self,
        ctx: RuleContext,
        stmts: list[ast.stmt],
        guarded: set[str],
        aliases: set[str],
        found: list[Violation],
    ) -> None:
        guarded = set(guarded)
        aliases = set(aliases)
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Fresh scope: guards do not survive into closures.
                self._block(ctx, stmt.body, set(), set(), found)
                continue
            if isinstance(stmt, ast.ClassDef):
                self._block(ctx, stmt.body, set(), set(), found)
                continue
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                tgt = stmt.targets[0]
                if isinstance(tgt, ast.Name):
                    if _attr_read(stmt.value, self.guard_attrs) or (
                        isinstance(stmt.value, ast.Name)
                        and stmt.value.id in aliases
                    ):
                        aliases.add(tgt.id)
                        guarded.discard(tgt.id)
                        continue
                    if tgt.id in aliases:  # rebound to something else
                        aliases.discard(tgt.id)
                        guarded.discard(tgt.id)
                if _attr_read(tgt, self.guard_attrs):  # writes reset what we know
                    guarded.discard(ast.unparse(tgt))
            if isinstance(stmt, ast.If):
                self._uses(ctx, stmt.test, guarded, aliases, found)
                body_guard = guarded | set(
                    g for g in _nonnull_tests(stmt.test)
                    if self._tracked(g, aliases)
                )
                self._block(ctx, stmt.body, body_guard, aliases, found)
                null = _null_test(stmt.test)
                else_guard = set(guarded)
                if null is not None and self._tracked(null, aliases):
                    else_guard.add(null)
                self._block(ctx, stmt.orelse, else_guard, aliases, found)
                # Early-exit pattern: `if obs is None: return` proves
                # obs non-None for the rest of this block.
                if (
                    null is not None
                    and self._tracked(null, aliases)
                    and _terminates(stmt.body)
                ):
                    guarded.add(null)
                continue
            if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                if isinstance(stmt, ast.While):
                    self._uses(ctx, stmt.test, guarded, aliases, found)
                else:
                    self._uses(ctx, stmt.iter, guarded, aliases, found)
                self._block(ctx, stmt.body, guarded, aliases, found)
                self._block(ctx, stmt.orelse, guarded, aliases, found)
                continue
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._uses(ctx, item.context_expr, guarded, aliases, found)
                self._block(ctx, stmt.body, guarded, aliases, found)
                continue
            if isinstance(stmt, ast.Try):
                self._block(ctx, stmt.body, guarded, aliases, found)
                for h in stmt.handlers:
                    self._block(ctx, h.body, guarded, aliases, found)
                self._block(ctx, stmt.orelse, guarded, aliases, found)
                self._block(ctx, stmt.finalbody, guarded, aliases, found)
                continue
            self._uses(ctx, stmt, guarded, aliases, found)

    def _tracked(self, expr_str: str, aliases: set[str]) -> bool:
        """Only policed attribute reads and their local aliases count."""
        return (
            expr_str.rsplit(".", 1)[-1] in self.guard_attrs
            or expr_str in aliases
        )

    def _uses(
        self,
        ctx: RuleContext,
        node: ast.AST,
        guarded: set[str],
        aliases: set[str],
        found: list[Violation],
    ) -> None:
        for sub in ast.walk(node):
            target: Optional[ast.expr] = None
            if isinstance(sub, ast.Attribute):
                target = sub.value
            elif isinstance(sub, ast.Call):
                direct = _attr_read(sub.func, self.guard_attrs)
                if direct or (
                    isinstance(sub.func, ast.Name) and sub.func.id in aliases
                ):
                    target = sub.func
            if target is None:
                continue
            key = (
                _attr_read(target, self.guard_attrs)
                or (target.id if isinstance(target, ast.Name)
                    and target.id in aliases else None)
            )
            if key is not None and key not in guarded:
                found.append(self.violation(
                    ctx, sub,
                    f"{self.guard_noun} access `{ast.unparse(sub)}` outside "
                    f"an `{key} is not None` guard",
                ))


# ----------------------------------------------------------------------
# RL002: layering


#: Layering constraints: (path prefixes, packages they must not import
#: at module top level).  Function-scope (lazy) imports are the
#: sanctioned pattern -- see `repro.kcursor.accounting.audit_run` for
#: the canonical example -- because they keep the hot layers importable
#: with zero observability cost.  The serving layer may build on core/,
#: obs/ and faults/ but must stay independent of the simulation/workload
#: stack (the service generates its own load; see
#: repro/service/__init__.py).  The fault-injection layer is stdlib-only
#: by contract: it must be importable from *anywhere* (including the
#: journal under test) without cycles or import-time cost, so it may
#: import no other repro package at all.
LAYERING_CONSTRAINTS: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = (
    (
        ("repro/core/", "repro/kcursor/", "repro/pma/"),
        ("repro.sim", "repro.workloads", "repro.obs"),
    ),
    (
        ("repro/service/",),
        ("repro.sim", "repro.workloads"),
    ),
    (
        ("repro/cluster/",),
        ("repro.sim", "repro.workloads"),
    ),
    (
        ("repro/recovery/",),
        ("repro.sim", "repro.workloads"),
    ),
    (
        ("repro/faults/",),
        (
            "repro.analysis",
            "repro.cli",
            "repro.core",
            "repro.kcursor",
            "repro.lint",
            "repro.obs",
            "repro.pma",
            "repro.service",
            "repro.sim",
            "repro.workloads",
        ),
    ),
)


def _toplevel_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Top-level import statements, descending through plain `if` blocks
    but not into `if TYPE_CHECKING:` (those never run at import time)."""

    def walk(stmts: Iterable[ast.stmt]) -> Iterator[ast.stmt]:
        for stmt in stmts:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                yield stmt
            elif isinstance(stmt, ast.If):
                t = ast.unparse(stmt.test)
                if "TYPE_CHECKING" not in t:
                    yield from walk(stmt.body)
                yield from walk(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                yield from walk(stmt.body)
                for h in stmt.handlers:
                    yield from walk(h.body)
                yield from walk(stmt.orelse)
                yield from walk(stmt.finalbody)

    return walk(tree.body)


def _import_targets(stmt: ast.stmt, module_name: str) -> list[str]:
    """Absolute dotted modules a statement imports (relative resolved)."""
    if isinstance(stmt, ast.Import):
        return [a.name for a in stmt.names]
    if isinstance(stmt, ast.ImportFrom):
        if stmt.level == 0:
            base = stmt.module or ""
        else:
            parts = module_name.split(".")
            # level 1 = current package, 2 = parent, ...
            parts = parts[: len(parts) - stmt.level]
            base = ".".join(parts + ([stmt.module] if stmt.module else []))
        out = [base] if base else []
        out.extend(f"{base}.{a.name}" for a in stmt.names if a.name != "*")
        return out
    return []


@rule
class RL002Layering(Rule):
    id = "RL002"
    summary = ("layering: core/, kcursor/, pma/ must not import sim/, "
               "workloads/ or obs/ at top level; service/ must not import "
               "sim/ or workloads/; faults/ imports nothing above stdlib; "
               "no import cycles anywhere")

    def applies(self, module_path: str) -> bool:
        # check() is layer-scoped; check_project() sees everything.
        return True

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        forbidden = tuple(
            f
            for prefixes, fs in LAYERING_CONSTRAINTS
            if any(ctx.module_path.startswith(p) for p in prefixes)
            for f in fs
        )
        if not forbidden:
            return
        for stmt in _toplevel_imports(ctx.tree):
            for target in _import_targets(stmt, ctx.module_name):
                hit = next(
                    (f for f in forbidden
                     if target == f or target.startswith(f + ".")),
                    None,
                )
                if hit is not None:
                    yield self.violation(
                        ctx, stmt,
                        f"top-level import of `{target}` violates the "
                        f"layering contract for {ctx.module_path}; move it "
                        f"inside the function that needs it (lazy import)",
                    )
                    break

    def check_project(self, ctxs: Sequence[RuleContext]) -> Iterator[Violation]:
        known = {c.module_name: c for c in ctxs if c.module_name.startswith("repro")}
        graph: dict[str, set[str]] = {m: set() for m in known}
        for name, ctx in known.items():
            for stmt in _toplevel_imports(ctx.tree):
                for target in _import_targets(stmt, name):
                    # `from repro.pma import PackedMemoryArray` names a
                    # symbol, so resolve to the exact module if scanned,
                    # else to its package __init__.  Edges from a module
                    # up to its *own* ancestor package are the standard
                    # __init__ re-export pattern, not a layering cycle.
                    cand = target if target in known else target.rsplit(".", 1)[0]
                    if (
                        cand in known
                        and cand != name
                        and not name.startswith(cand + ".")
                    ):
                        graph[name].add(cand)
        for cycle in _find_cycles(graph):
            ctx = known[cycle[0]]
            yield Violation(
                rule=self.id, severity=self.severity, path=ctx.path,
                line=1, col=0,
                message="import cycle: " + " -> ".join(cycle + [cycle[0]]),
            )


def _find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Strongly connected components of size > 1 (Tarjan, iterative)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = [0]
    sccs: list[list[str]] = []

    for root in sorted(graph):
        if root in index:
            continue
        work: list[tuple[str, Iterator[str]]] = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc.append(w)
                    if w == node:
                        break
                if len(scc) > 1:
                    sccs.append(sorted(scc))
    return sccs


# ----------------------------------------------------------------------
# RL003: no unseeded randomness in src/


#: Functions on the module-global RNG (hidden shared state, unseedable
#: per call site); the reproduction must thread explicit seeded
#: `random.Random(seed)` / `numpy.random.default_rng(seed)` instances.
_GLOBAL_RNG_FNS = frozenset({
    "random", "randrange", "randint", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "betavariate", "expovariate",
    "gammavariate", "gauss", "lognormvariate", "normalvariate",
    "vonmisesvariate", "paretovariate", "weibullvariate", "getrandbits",
    "randbytes", "seed",
})
#: numpy.random constructors that are fine *when given a seed*.
_NP_SEEDED_CTORS = frozenset({
    "default_rng", "RandomState", "SeedSequence", "Generator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})


@rule
class RL003SeededRandomness(Rule):
    id = "RL003"
    summary = "no unseeded randomness in src/ (thread explicit seeds)"
    path_prefixes = ("repro/",)

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.resolve(node.func)
            if target is None:
                continue
            if target == "random.Random":
                if not node.args and not node.keywords:
                    yield self.violation(
                        ctx, node,
                        "random.Random() without a seed; pass one explicitly",
                    )
            elif target.startswith("random.") and target[7:] in _GLOBAL_RNG_FNS:
                yield self.violation(
                    ctx, node,
                    f"module-global RNG call `{target}()`; use a seeded "
                    f"`random.Random(seed)` instance",
                )
            elif target.startswith("numpy.random."):
                tail = target[len("numpy.random."):]
                if tail in _NP_SEEDED_CTORS:
                    if not node.args and not node.keywords:
                        yield self.violation(
                            ctx, node,
                            f"`{target}()` without a seed; pass one explicitly",
                        )
                elif "." not in tail:  # legacy module-level convenience fn
                    yield self.violation(
                        ctx, node,
                        f"legacy global-state call `{target}()`; use "
                        f"`numpy.random.default_rng(seed)`",
                    )


# ----------------------------------------------------------------------
# RL004: no wall-clock time.time() / bare print() in the library


#: Modules whose *contract* is stdout: the CLI front-ends.  Everything
#: else routes prose through `repro.obs` logging (stderr) and report
#: text through `repro.obs.console`.
CONSOLE_SURFACES = (
    "repro/cli.py",
    "repro/lint/cli.py",
    "repro/lint/typegate.py",  # gate tool: its report *is* console output
    "repro/obs/logsetup.py",   # owns the sanctioned console writer itself
)


@rule
class RL004NoPrintNoWallClock(Rule):
    id = "RL004"
    summary = ("no bare print() or time.time() in repro/ (use repro.obs "
               "logging/console and time.perf_counter)")
    path_prefixes = ("repro/",)
    path_exempt = CONSOLE_SURFACES

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                yield self.violation(
                    ctx, node,
                    "bare print(); route through repro.obs logging "
                    "(get_logger) or repro.obs.console",
                )
                continue
            if ctx.resolve(node.func) == "time.time":
                yield self.violation(
                    ctx, node,
                    "wall-clock time.time(); use time.perf_counter() for "
                    "measurement (monotonic, higher resolution)",
                )


# ----------------------------------------------------------------------
# RL005: no float ==/!= in accounting / analysis modules


#: Where the potential-function arithmetic lives: exact float equality
#: there usually means potential drift is about to be miscounted.
ACCOUNTING_PREFIXES = (
    "repro/kcursor/accounting.py",
    "repro/kcursor/costmodel.py",
    "repro/core/costfn.py",
    "repro/analysis/",
)

_FLOATISH_MATH = frozenset({
    "sqrt", "log", "log2", "log10", "log1p", "exp", "expm1", "pow",
    "hypot", "fsum", "dist", "fabs",
})


def _floatish(node: ast.expr, ctx: RuleContext) -> bool:
    """Heuristic: does this expression obviously produce a float?"""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _floatish(node.operand, ctx)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _floatish(node.left, ctx) or _floatish(node.right, ctx)
    if isinstance(node, ast.Call):
        target = ctx.resolve(node.func)
        if target == "float":
            return True
        if target is not None and target.startswith("math."):
            return target[5:] in _FLOATISH_MATH
    return False


@rule
class RL005FloatEquality(Rule):
    id = "RL005"
    summary = ("no ==/!= between floats in accounting/analysis modules "
               "(potential-function drift); use math.isclose or a tolerance")
    path_prefixes = ACCOUNTING_PREFIXES

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _floatish(left, ctx) or _floatish(right, ctx):
                    yield self.violation(
                        ctx, node,
                        f"exact float comparison "
                        f"`{ast.unparse(left)} {'==' if isinstance(op, ast.Eq) else '!='} "
                        f"{ast.unparse(right)}`; use math.isclose or an "
                        f"explicit tolerance",
                    )
                    break


# ----------------------------------------------------------------------
# RL006: no object.__setattr__ on frozen records


@rule
class RL006FrozenMutation(Rule):
    id = "RL006"
    summary = ("no object.__setattr__ mutation of frozen dataclass/event "
               "records (breaks trace-replay exactness)")
    path_prefixes = ("repro/",)

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object"
            ):
                yield self.violation(
                    ctx, node,
                    "object.__setattr__ defeats frozen=True; construct a "
                    "new record (dataclasses.replace) instead",
                )


# ----------------------------------------------------------------------
# RL007: failpoint access must be guarded (same discipline as RL001)


@rule
class RL007FailpointGuard(RL001ObserverGuard):
    """The fault-injection twin of RL001: ``faults.ACTIVE`` members may
    only be touched behind an ``is not None`` guard, so a disabled
    failpoint costs exactly one module-attribute test on the hot path
    (see :mod:`repro.faults`)."""

    id = "RL007"
    summary = ("failpoint access (`faults.ACTIVE.hit/...`) must sit behind "
               "an `is not None` guard (zero overhead when fault injection "
               "is off)")
    path_prefixes = (
        "repro/service/",
        "repro/cluster/",
        "repro/recovery/",
        "repro/kcursor/",
        "repro/pma/",
    )
    guard_attrs = frozenset({"ACTIVE"})
    guard_noun = "failpoint"


# ----------------------------------------------------------------------
# RL008: tracer access in the service stack must be guarded


@rule
class RL008TracerGuard(RL001ObserverGuard):
    """The request-tracing twin of RL001/RL007 for the serving stack:
    ``tracer`` attributes and the per-op ``tracing.CURRENT`` hand-off may
    only be dereferenced behind an ``is not None`` guard, so serving with
    tracing disabled costs exactly one attribute test per instrumentation
    site (the acceptance bar in docs/OBSERVABILITY.md)."""

    id = "RL008"
    summary = ("tracer access (`self.tracer.…`/`tracing.CURRENT.…`) must "
               "sit behind an `is not None` guard (zero overhead when "
               "request tracing is off)")
    path_prefixes = ("repro/service/", "repro/cluster/")
    guard_attrs = frozenset({"tracer", "_tracer", "CURRENT"})
    guard_noun = "tracer"


# ----------------------------------------------------------------------
# RL009: asyncio await-atomicity in the service layer


#: Synchronous calls that stall the event loop.  Resolved through
#: import aliases (``ctx.resolve``), so ``from time import sleep`` is
#: caught too.
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "os.fsync",
    "os.fdatasync",
    "socket.create_connection",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
})

#: The blessed single-writer pattern (docs/SERVICE.md): all session
#: mutation funnels through the per-session worker queue.  ``_enqueue``
#: and ``_worker`` *are* that funnel -- their bookkeeping (queue depth,
#: logical clock) is written by design from exactly one task -- so the
#: straddle analysis does not apply inside them.  The blocking-call
#: check still does.
BLESSED_ASYNC_FNS = frozenset({"_enqueue", "_worker"})


def _self_attr_key(node: ast.AST) -> Optional[str]:
    """``self.X`` -> ``"self.X"`` (any context), else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def _node_state_access(
    node: FlowNode,
) -> tuple[set[str], set[str], set[str]]:
    """``(reads, writes, value_reads)`` of ``self.`` state at one node.

    *reads* are ``self.X`` loads anywhere in the node; *writes* are
    stores/deletes to ``self.X`` or subscript-stores into it
    (``self.sessions[sid] = ...`` mutates the container); *value_reads*
    are loads on the value side of an assignment only -- those happen
    before any ``await`` in the same statement, which is what makes
    ``self.x = await f(self.x)`` stale but ``self.d[k] = await f()``
    fine (the target is evaluated last).
    """
    reads: set[str] = set()
    writes: set[str] = set()
    value_reads: set[str] = set()
    value_side: Optional[ast.AST] = None
    stmt = node.stmt
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        value_side = stmt.value
    for expr in node.exprs:
        for sub in walk_shallow(expr):
            key = _self_attr_key(sub)
            if key is not None:
                assert isinstance(sub, ast.Attribute)
                if isinstance(sub.ctx, ast.Load):
                    reads.add(key)
                else:
                    writes.add(key)
            elif isinstance(sub, ast.Subscript) and not isinstance(
                sub.ctx, ast.Load
            ):
                base = _self_attr_key(sub.value)
                if base is not None:
                    writes.add(base)
    if value_side is not None:
        for sub in walk_shallow(value_side):
            key = _self_attr_key(sub)
            if key is not None and isinstance(sub.ctx, ast.Load):
                value_reads.add(key)
    if isinstance(stmt, ast.AugAssign):
        # `self.x += await f()` reads the old value, awaits, then
        # writes -- an implicit read the AST records as Store only.
        key = _self_attr_key(stmt.target)
        if key is not None:
            value_reads.add(key)
    return reads, writes, value_reads


@rule
class RL009AwaitAtomicity(Rule):
    id = "RL009"
    summary = ("service-layer async methods must not read `self.` state, "
               "cross an `await`, then write it back (stale-write hazard); "
               "no blocking calls (`time.sleep`, sync fsync/socket/"
               "subprocess) inside `async def`")
    path_prefixes = ("repro/service/",)

    def check(self, ctx: RuleContext) -> Iterator[Violation]:
        for fn in async_defs(ctx.tree):
            yield from self._blocking_calls(ctx, fn)
            if fn.name in BLESSED_ASYNC_FNS:
                continue
            yield from self._straddles(ctx, build_cfg(fn))

    def _blocking_calls(
        self, ctx: RuleContext, fn: ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        for sub in walk_shallow(fn):
            if not isinstance(sub, ast.Call):
                continue
            target = ctx.resolve(sub.func)
            if target in BLOCKING_CALLS:
                yield self.violation(
                    ctx, sub,
                    f"blocking call `{target}()` inside `async def "
                    f"{fn.name}` stalls the event loop for every session; "
                    f"use the asyncio equivalent or an executor",
                )

    def _straddles(self, ctx: RuleContext, cfg: CFG) -> Iterator[Violation]:
        access = [_node_state_access(n) for n in cfg.nodes]
        seen_pairs: set[tuple[int, int, str]] = set()
        for i, node in enumerate(cfg.nodes):
            reads, writes, value_reads = access[i]
            # Same-statement hazard: read on the value side, await,
            # write back -- all in one line.
            if node.awaits:
                for key in sorted(value_reads & writes):
                    yield self.violation(
                        ctx, node.stmt,
                        f"`{key}` is read and rewritten across an `await` "
                        f"in one statement; the value written is stale by "
                        f"the time the await resumes",
                    )
            for key in sorted(reads):
                for j in self._stale_writes(cfg, access, i, key):
                    if (i, j, key) in seen_pairs:
                        continue
                    seen_pairs.add((i, j, key))
                    yield self.violation(
                        ctx, cfg.nodes[j].stmt,
                        f"`{key}` read at line {node.line} is written here "
                        f"with an `await` in between; another task can "
                        f"interleave at the yield point -- re-read after "
                        f"the await or move the read-modify-write into the "
                        f"session worker (`_enqueue`)",
                    )

    @staticmethod
    def _stale_writes(
        cfg: CFG,
        access: list[tuple[set[str], set[str], set[str]]],
        start: int,
        key: str,
    ) -> Iterator[int]:
        """Nodes writing ``key`` reachable from ``start`` across an await.

        BFS with kill-on-write: a write to ``key`` stops propagation
        (later writes act on the *refreshed* value), and is reported
        only when an ``await`` was crossed first -- on the path, or
        inside the reading/writing statement itself.
        """
        seen: set[tuple[int, bool]] = set()
        work = [(s, cfg.nodes[start].awaits) for s in cfg.succs[start]]
        while work:
            idx, crossed = work.pop()
            if (idx, crossed) in seen:
                continue
            seen.add((idx, crossed))
            node = cfg.nodes[idx]
            if key in access[idx][1]:  # writes
                if crossed or node.awaits:
                    yield idx
                continue  # kill: the value is refreshed past this point
            crossed = crossed or node.awaits
            work.extend((s, crossed) for s in cfg.succs[idx])


# ----------------------------------------------------------------------
# RL010: cross-artifact conformance (failpoints / metrics / protocol)


#: Anchors: each sub-check runs only when the catalogue-owning module
#: is part of the scanned set, so single-fixture lint runs stay inert.
FAILPOINT_REGISTRY = "repro/faults/registry.py"
METRICS_ANCHOR = "repro/obs/metrics.py"
PROTOCOL_MODULE = "repro/service/protocol.py"
#: Every module whose ``self.call("op", ...)`` sites count as the client
#: surface of the protocol (the cluster client routes the same ops).
CLIENT_MODULES = ("repro/service/client.py", "repro/cluster/client.py")
OBSERVABILITY_DOC = os.path.join("docs", "OBSERVABILITY.md")

#: Only the serving stack's namespaces are catalogued; ad-hoc bench/sim
#: metric names stay free-form.
CATALOGUED_METRIC_PREFIXES = ("service.", "cluster.")


@rule
class RL010CrossArtifact(Rule):
    id = "RL010"
    summary = ("cross-artifact conformance: failpoint fire-sites <-> "
               "KNOWN_FAILPOINTS, emitted service.* metrics <-> the "
               "docs/OBSERVABILITY.md catalogue, protocol ops <-> client "
               "methods <-> dispatch arms")

    def check_project(self, ctxs: Sequence[RuleContext]) -> Iterator[Violation]:
        index = ProjectIndex(ctxs)
        yield from self._check_failpoints(index)
        yield from self._check_metrics(index)
        yield from self._check_protocol(index)

    def _at(self, path: str, line: int, message: str) -> Violation:
        """A violation anchored in a non-Python artifact (docs, registry)."""
        return Violation(
            rule=self.id, severity=self.severity, path=path,
            line=line, col=0, message=message,
        )

    # -- failpoints ---------------------------------------------------

    def _check_failpoints(self, index: ProjectIndex) -> Iterator[Violation]:
        lit = index.frozenset_literal(FAILPOINT_REGISTRY, "KNOWN_FAILPOINTS")
        if lit is None:
            return
        reg_ctx, reg_stmt, known = lit
        fired: set[str] = set()
        for site in index.hit_sites:
            if site.ctx.module_path.startswith("repro/"):
                fired.add(site.value)
            if site.value not in known:
                yield self.violation(
                    site.ctx, site.node,
                    f"failpoint `{site.value}` is fired here but is not a "
                    f"KNOWN_FAILPOINTS entry ({FAILPOINT_REGISTRY}); specs "
                    f"naming it are rejected at parse time",
                )
        for site in index.spec_points:
            if site.value not in known:
                yield self.violation(
                    site.ctx, site.node,
                    f"fault spec names `{site.value}`, which is not a "
                    f"KNOWN_FAILPOINTS entry; this spec can never arm",
                )
        for point in sorted(known - fired):
            yield self.violation(
                reg_ctx, reg_stmt,
                f"KNOWN_FAILPOINTS entry `{point}` has no `.hit(...)` fire "
                f"site anywhere in repro/; orphan failpoints give chaos "
                f"suites false confidence",
            )

    # -- metrics ------------------------------------------------------

    def _check_metrics(self, index: ProjectIndex) -> Iterator[Violation]:
        anchor = index.by_module.get(METRICS_ANCHOR)
        if anchor is None:
            return
        root = index.find_repo_root(anchor, OBSERVABILITY_DOC)
        if root is None:
            yield self.violation(
                anchor, anchor.tree,
                f"cannot locate {OBSERVABILITY_DOC} above "
                f"{anchor.path}; the metrics catalogue is unreachable",
            )
            return
        doc_path = os.path.join(root, OBSERVABILITY_DOC)
        catalogue = parse_metrics_catalogue(doc_path)
        if catalogue is None:
            yield self._at(
                doc_path, 1,
                "metrics-catalogue markers missing (expected "
                "`<!-- reprolint:metrics-catalogue:begin/end -->`); "
                "RL010 cannot reconcile emitted metric names",
            )
            return
        emitted: set[str] = set()
        for site in index.metric_emits:
            if not site.value.startswith(CATALOGUED_METRIC_PREFIXES):
                continue
            emitted.add(site.value)
            if site.value not in catalogue:
                yield self.violation(
                    site.ctx, site.node,
                    f"metric `{site.value}` is emitted here but absent "
                    f"from the {OBSERVABILITY_DOC} catalogue",
                )
        for name, line in sorted(catalogue.items()):
            if name.startswith(CATALOGUED_METRIC_PREFIXES) and name not in emitted:
                yield self._at(
                    doc_path, line,
                    f"catalogued metric `{name}` is never emitted by any "
                    f"scanned module; delete the row or wire the metric",
                )

    # -- protocol -----------------------------------------------------

    def _check_protocol(self, index: ProjectIndex) -> Iterator[Violation]:
        lit = index.dict_literal_keys(PROTOCOL_MODULE, "REQUEST_FIELDS")
        if lit is None:
            return
        proto_ctx, proto_stmt, ops = lit
        opset = set(ops)
        arms = {s.value for s in index.dispatch_arms}
        calls = {s.value for s in index.client_ops}
        for site in index.dispatch_arms:
            if site.value not in opset:
                yield self.violation(
                    site.ctx, site.node,
                    f"dispatch arm for `{site.value}` matches no "
                    f"REQUEST_FIELDS op; the validator rejects it before "
                    f"dispatch ever sees it",
                )
        for site in index.client_ops:
            if site.value not in opset:
                yield self.violation(
                    site.ctx, site.node,
                    f"client sends op `{site.value}`, which is not a "
                    f"REQUEST_FIELDS op",
                )
        if arms:
            for op in ops:
                if op not in arms:
                    yield self.violation(
                        proto_ctx, proto_stmt,
                        f"protocol op `{op}` has no dispatch arm "
                        f"(SessionManager.dispatch / SessionManager.admit "
                        f"/ server._respond)",
                    )
        if any(m in index.by_module for m in CLIENT_MODULES):
            for op in ops:
                if op not in calls:
                    yield self.violation(
                        proto_ctx, proto_stmt,
                        f"protocol op `{op}` has no client method "
                        f"(`self.call(\"{op}\", ...)` in "
                        f"{' or '.join(CLIENT_MODULES)})",
                    )


# ----------------------------------------------------------------------
# RL011: suppression-debt ratchet (lint-baseline.json)


@rule
class RL011BaselineRatchet(Rule):
    """The baseline file freezes known findings so a new rule can land
    without a big-bang cleanup, exactly like ``mypy-baseline.txt``.
    Enforcement lives in :mod:`repro.lint.baseline` (it needs the whole
    run plus the committed file): baselined findings are filtered out of
    the result, and entries that no longer match anything are emitted as
    RL011 errors anchored at the baseline file -- debt may only shrink.
    This registry entry reserves the id, the docs row, and `--rules`
    addressability."""

    id = "RL011"
    summary = ("suppression-debt ratchet: every lint-baseline.json entry "
               "must still match a live finding (burned-down debt must be "
               "deleted from the baseline, never left to mask new findings)")
