"""Project-wide symbol and call-site index for cross-artifact rules.

reprolint started life as a per-file AST pass, but the repo now keeps
three hand-maintained catalogues whose *consumers* live in other files:
``KNOWN_FAILPOINTS`` (repro/faults/registry.py) versus the ``hit("...")``
call sites compiled into the journal and socket layers, the ``service.*``
metric names versus the docs/OBSERVABILITY.md catalogue, and the wire
ops of ``REQUEST_FIELDS`` versus the client methods and dispatch arms.
An entry that drifts never *fails* -- an unwired failpoint simply never
fires -- which is exactly the class of rot tests cannot see.

:class:`ProjectIndex` is built once per lint run from every parsed
:class:`~repro.lint.rules.RuleContext` and answers the cross-file
questions RL010 asks.  All extraction is AST-shaped (call sites, dict
keys, frozenset literals), never raw-string grep, so docstrings and
prose that merely *mention* a failpoint or metric are never miscounted.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.lint.flow import walk_shallow

if TYPE_CHECKING:  # import would be circular at runtime (rules -> project)
    from repro.lint.rules import RuleContext

#: Registry-style emit calls whose first argument names a metric.
METRIC_EMIT_METHODS = frozenset({"counter", "gauge", "histogram", "series", "timer"})

#: Fault-spec grammar anchor (docs/FAULTS.md): ``point=kind[:arg][@mods]``.
#: Scripts arm failpoints through ``--faults`` spec strings, so RL010
#: validates the point segment of anything shaped like a spec.
_FAULT_SPEC_RE = re.compile(
    r"^\s*(?P<point>[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+)\s*=\s*"
    r"(?:error|delay|drop|exit)\b"
)


@dataclass(frozen=True)
class Site:
    """One interesting call/literal site: where plus the extracted name."""

    ctx: "RuleContext"
    node: ast.AST
    value: str


def metric_name_of(
    node: ast.expr, consts: dict[str, str]
) -> Optional[str]:
    """Normalize a metric-name argument to a comparable string.

    String constants pass through; ``Name`` references resolve through
    module-level string constants (the ``SERIES_*`` pattern in
    repro/service/tracing.py); f-strings normalize each interpolated
    field to ``*`` (``f"service.op.{kind}"`` -> ``service.op.*``), which
    is the same normal form the docs catalogue's ``<placeholder>``
    segments reduce to.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    if isinstance(node, ast.JoinedStr):
        parts: list[str] = []
        for piece in node.values:
            if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                parts.append(piece.value)
            else:
                parts.append("*")
        return "".join(parts)
    return None


def module_string_constants(tree: ast.Module) -> dict[str, str]:
    """Module-level ``NAME = "literal"`` assignments."""
    out: dict[str, str] = {}
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            out[stmt.targets[0].id] = stmt.value.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            out[stmt.target.id] = stmt.value.value
    return out


def _string_elements(node: ast.expr) -> Optional[list[str]]:
    """Constant string elements of a set/list/tuple literal."""
    if not isinstance(node, (ast.Set, ast.List, ast.Tuple)):
        return None
    out: list[str] = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            out.append(elt.value)
        else:
            return None
    return out


class ProjectIndex:
    """Cross-file view of the scanned tree (see module docstring)."""

    def __init__(self, ctxs: Sequence["RuleContext"]) -> None:
        #: Logical module path -> context (first wins on collision).
        self.by_module: dict[str, "RuleContext"] = {}
        #: ``*.hit("point")`` call sites in src/ and scripts/.
        self.hit_sites: list[Site] = []
        #: Fault-spec string literals in scripts/ (the ``--faults`` defaults).
        self.spec_points: list[Site] = []
        #: Metric emissions in src/ (normalized names, see metric_name_of).
        self.metric_emits: list[Site] = []
        #: ``op == "..."`` comparisons inside dispatch()/admit()/_respond().
        self.dispatch_arms: list[Site] = []
        #: ``self.call("op", ...)`` sites in the client library.
        self.client_ops: list[Site] = []
        for ctx in ctxs:
            self.by_module.setdefault(ctx.module_path, ctx)
            self._scan(ctx)

    # -- construction -----------------------------------------------------

    def _scan(self, ctx: "RuleContext") -> None:
        in_src = ctx.module_path.startswith("repro/")
        in_scripts = ctx.module_path.startswith("scripts/")
        consts = module_string_constants(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                self._scan_call(ctx, node, consts, in_src, in_scripts)
            elif (
                in_scripts
                and isinstance(node, ast.Constant)
                and isinstance(node.value, str)
            ):
                for segment in node.value.split(";"):
                    m = _FAULT_SPEC_RE.match(segment)
                    if m:
                        self.spec_points.append(
                            Site(ctx=ctx, node=node, value=m.group("point"))
                        )
        if ctx.module_path.startswith("repro/service/"):
            self._scan_dispatch(ctx)
        if ctx.module_path in (
            "repro/service/client.py",
            "repro/cluster/client.py",
        ):
            self._scan_client(ctx)

    def _scan_call(
        self,
        ctx: "RuleContext",
        node: ast.Call,
        consts: dict[str, str],
        in_src: bool,
        in_scripts: bool,
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "hit" and (in_src or in_scripts):
            if (
                node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                self.hit_sites.append(
                    Site(ctx=ctx, node=node, value=node.args[0].value)
                )
            return
        if not in_src:
            return
        if func.attr in METRIC_EMIT_METHODS and node.args:
            name = metric_name_of(node.args[0], consts)
            if name is not None:
                self.metric_emits.append(Site(ctx=ctx, node=node, value=name))
        elif func.attr == "inc_all" and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Dict):
                for key in arg.keys:
                    if key is None:
                        continue
                    name = metric_name_of(key, consts)
                    if name is not None:
                        self.metric_emits.append(
                            Site(ctx=ctx, node=key, value=name)
                        )

    def _scan_dispatch(self, ctx: "RuleContext") -> None:
        """Collect the op arms of ``dispatch()`` / ``admit()`` /
        ``_respond()``.

        The protocol surface is deliberately split: ``SessionManager.
        admit`` owns the per-session queue ops a connection pipelines,
        ``SessionManager.dispatch`` every other session-shaped op, and
        the server's ``_respond`` intercepts ``shutdown`` before dispatch
        (it must work even when the manager refuses new work).  All
        three count as arms.
        """
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name not in ("dispatch", "admit", "_respond"):
                continue
            for sub in walk_shallow(fn):
                if (
                    isinstance(sub, ast.Compare)
                    and len(sub.ops) == 1
                    and isinstance(sub.ops[0], ast.Eq)
                    and isinstance(sub.comparators[0], ast.Constant)
                    and isinstance(sub.comparators[0].value, str)
                    and self._is_op_ref(sub.left)
                ):
                    self.dispatch_arms.append(
                        Site(ctx=ctx, node=sub, value=sub.comparators[0].value)
                    )

    @staticmethod
    def _is_op_ref(node: ast.expr) -> bool:
        if isinstance(node, ast.Name):
            return node.id == "op"
        return isinstance(node, ast.Attribute) and node.attr == "op"

    def _scan_client(self, ctx: "RuleContext") -> None:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "call"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                self.client_ops.append(
                    Site(ctx=ctx, node=node, value=node.args[0].value)
                )

    # -- catalogue lookups ------------------------------------------------

    def frozenset_literal(
        self, module_path: str, name: str
    ) -> Optional[tuple["RuleContext", ast.stmt, frozenset[str]]]:
        """A ``NAME = frozenset({...})`` string literal in one module."""
        ctx = self.by_module.get(module_path)
        if ctx is None:
            return None
        for stmt in ctx.tree.body:
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            if not (isinstance(target, ast.Name) and target.id == name):
                continue
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "frozenset"
                and value.args
            ):
                elems = _string_elements(value.args[0])
                if elems is not None:
                    return ctx, stmt, frozenset(elems)
            elems = _string_elements(value) if value is not None else None
            if elems is not None:
                return ctx, stmt, frozenset(elems)
        return None

    def dict_literal_keys(
        self, module_path: str, name: str
    ) -> Optional[tuple["RuleContext", ast.stmt, list[str]]]:
        """String keys of a ``NAME = {...}`` literal in one module."""
        ctx = self.by_module.get(module_path)
        if ctx is None:
            return None
        for stmt in ctx.tree.body:
            target = None
            value = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                target, value = stmt.target, stmt.value
            if not (isinstance(target, ast.Name) and target.id == name):
                continue
            if isinstance(value, ast.Dict):
                keys = [
                    k.value
                    for k in value.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                ]
                return ctx, stmt, keys
        return None

    def find_repo_root(self, anchor_ctx: "RuleContext", relpath: str) -> Optional[str]:
        """Walk up from an anchor file until ``relpath`` exists.

        Lets the docs-conformance check locate ``docs/OBSERVABILITY.md``
        for the real tree (src/repro/obs/metrics.py -> repo root) and
        for fixture projects (the fixture directory carries its own
        miniature docs/ tree).
        """
        d = os.path.dirname(os.path.abspath(anchor_ctx.path))
        for _ in range(10):
            if os.path.isfile(os.path.join(d, relpath)):
                return d
            parent = os.path.dirname(d)
            if parent == d:
                break
            d = parent
        return None


#: Markers bounding the metrics catalogue in docs/OBSERVABILITY.md.
CATALOGUE_BEGIN = "<!-- reprolint:metrics-catalogue:begin -->"
CATALOGUE_END = "<!-- reprolint:metrics-catalogue:end -->"

_BACKTICK_RE = re.compile(r"`([A-Za-z0-9_.<>{}*-]+)`")
_PLACEHOLDER_RE = re.compile(r"<[^<>]+>")


def parse_metrics_catalogue(doc_path: str) -> Optional[dict[str, int]]:
    """Catalogued metric names (normalized) -> line number in the doc.

    Only backticked tokens between the ``reprolint:metrics-catalogue``
    markers count, so prose elsewhere in the page can mention metric
    names freely.  ``<placeholder>`` segments normalize to ``*`` -- the
    same normal form f-string emissions reduce to.  Returns None when
    the markers are absent (the doc predates the catalogue).
    """
    try:
        with open(doc_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return None
    out: dict[str, int] = {}
    inside = False
    seen_markers = False
    for lineno, line in enumerate(lines, start=1):
        if CATALOGUE_BEGIN in line:
            inside = True
            seen_markers = True
            continue
        if CATALOGUE_END in line:
            inside = False
            continue
        if not inside:
            continue
        for m in _BACKTICK_RE.finditer(line):
            token = _PLACEHOLDER_RE.sub("*", m.group(1))
            out.setdefault(token, lineno)
    return out if seen_markers else None
