"""Rule family RPR04x: same-timestamp hook/callback order dependence.

The engine executes same-timestamp events in insertion (``seq``) order —
an order nothing in the model specifies (see
:mod:`repro.analysis.races`).  Two callbacks registered for the *same*
instant whose effect summaries (:mod:`repro.analysis.effects`) do not
commute are therefore a latent race: the registration order silently
decides the result.

Both rules group registrations *within one function scope* — the only
place the static analysis can prove two callbacks target the same
instant:

* two appends to the same ``X.period_hooks`` list (period hooks all run
  at the period boundary), or
* two ``sim.at/after`` calls whose time argument has
  the identical expression AST, or
* two ``sim.rearm(handle, time)`` calls whose time (the second argument)
  has the identical expression AST; the callback is the ``fn=`` of the
  ``Event(...)`` the owning class assigns to ``self.<handle>`` (a list of
  handles, ``self.<handles>[i]``, counts as the handle).  A call of a
  method running ``rearm(<param>, <param>)`` counts as a re-arm of the
  arguments it passes, if every call of it in the class passes a handle.

Cross-module registrations (e.g. the ATC controller and the sanitizer
each appending one period hook from different files) are out of static
reach; the dynamic layer (SAN008 + the tie-permutation differential)
covers those.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.effects import EffectSummary, ModuleEffects
from repro.analysis.lint import FileContext, Finding, Rule
from repro.analysis.rules.common import dotted_name

__all__ = ["SameTimeWriteOverlapRule", "ClosureCaptureRaceRule"]

#: Scheduling methods whose first argument is the time/delay expression.
_SCHEDULE_METHODS = frozenset({"at", "after"})


class _Registration:
    """One callback registration site inside a function scope."""

    __slots__ = ("node", "callback_expr", "summary", "where")

    def __init__(
        self,
        node: ast.Call,
        callback_expr: ast.AST,
        summary: Optional[EffectSummary],
        where: str,
    ) -> None:
        self.node = node
        self.callback_expr = callback_expr
        self.summary = summary
        self.where = where


def _callback_label(expr: ast.AST, summary: Optional[EffectSummary]) -> str:
    if summary is not None:
        return summary.name
    parts = dotted_name(expr)
    return ".".join(parts) if parts else ast.unparse(expr)


def _iter_scopes(tree: ast.Module):
    """Yield ``(function_node, owner_class_name)`` for every function."""
    stack: list[tuple[ast.AST, Optional[str]]] = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                stack.append((child, child.name))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, owner
                stack.append((child, owner))
            else:
                stack.append((child, owner))


def _handle_callbacks(tree: ast.Module) -> dict:
    """``{class: {attr: fn}}``: the ``fn=`` of each ``Event(...)`` a class
    assigns to ``self.<attr>``, alone or as a list comprehension's element."""
    out: dict = {}
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in ast.walk(cls):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            attr, value = _self_attr(node.targets[0]), node.value
            if isinstance(value, ast.ListComp):
                value = value.elt
            if not (
                attr
                and isinstance(value, ast.Call)
                and (dotted_name(value.func) or [""])[-1] == "Event"
            ):
                continue
            for kw in value.keywords:
                if kw.arg == "fn":
                    out.setdefault(cls.name, {})[attr] = kw.value
    return out


def _rearm_helpers(tree: ast.Module, handles: dict) -> dict:
    """``{class: {method: (params, handle param, time param, receiver)}}``:
    methods running ``<receiver>.rearm(<param>, <param>)``, each call passing a handle."""
    out: dict = {}
    for cls in (c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)):
        found = {}
        for fn in (f for f in cls.body if isinstance(f, ast.FunctionDef)):
            params = [a.arg for a in fn.args.args[1:]]
            for node in ast.walk(fn):
                if _is_rearm(node) and all(getattr(a, "id", None) in params for a in node.args):
                    found[fn.name] = (params, node.args[0].id, node.args[1].id, ast.dump(node.func.value))
        for node in ast.walk(cls):
            name = _self_attr(node.func) if isinstance(node, ast.Call) else None
            if name in found:
                params, handle, time, _ = found[name]
                bound = _bind(params, node)
                if time not in bound or _self_attr(bound.get(handle)) not in handles.get(cls.name, {}):
                    del found[name]
        out[cls.name] = found
    return out


def _is_rearm(node: ast.AST) -> bool:
    func = getattr(node, "func", None)  # only an ast.Call has one
    return isinstance(func, ast.Attribute) and func.attr == "rearm" and len(node.args) == 2


def _bind(params: list, call: ast.Call) -> dict:
    """Parameter name -> argument expression of ``call``."""
    return {**dict(zip(params, call.args)), **{k.arg: k.value for k in call.keywords}}


def _self_attr(expr: ast.AST) -> Optional[str]:
    """``attr`` of ``self.attr`` or ``self.attr[...]``, else None."""
    if isinstance(expr, ast.Subscript):
        expr = expr.value
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return expr.attr
    return None


def _collect_groups(
    fn: ast.AST, owner: Optional[str], effects: ModuleEffects, handles: dict, helpers: dict
) -> dict:
    """Group same-instant registrations in one function's direct scope.

    Key ``("period", <receiver>)`` groups ``<receiver>.period_hooks
    .append(cb)`` calls; key ``("at", <receiver>, <method>, <time-ast>)``
    groups scheduling calls (and re-arms, direct or through ``helpers``, of
    the handles in ``handles``, ``attr -> fn``) with an identical time.
    """
    groups: dict = {}
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested scope: grouped separately
        stack.extend(ast.iter_child_nodes(node))
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if (
            func.attr == "append"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "period_hooks"
            and len(node.args) == 1
        ):
            recv = ast.dump(func.value.value)
            key = ("period", recv)
            cb = node.args[0]
            where = "period hook"
        elif func.attr in _SCHEDULE_METHODS and len(node.args) >= 2:
            recv = ast.dump(func.value)
            key = ("at", recv, func.attr, ast.dump(node.args[0]))
            cb = node.args[1]
            where = f"{func.attr}({ast.unparse(node.args[0])})"
        elif _is_rearm(node) or _self_attr(func) in helpers:
            if _is_rearm(node):
                (handle, time), recv = node.args, ast.dump(func.value)
            else:
                params, handle, time, recv = helpers[func.attr]
                bound = _bind(params, node)
                handle, time = bound[handle], bound[time]
            if _self_attr(handle) not in handles:
                continue
            key = ("at", recv, "rearm", ast.dump(time))
            cb = handles[_self_attr(handle)]
            where = f"rearm({ast.unparse(handle)}, {ast.unparse(time)})"
        else:
            continue
        summary = effects.resolve_callback(cb, owner_class=owner)
        groups.setdefault(key, []).append(_Registration(node, cb, summary, where))
    return groups


def _pairs(tree: ast.Module):
    """Pairs of same-instant registrations in one scope whose callbacks
    both resolve, in registration order."""
    effects = ModuleEffects(tree)
    handles = _handle_callbacks(tree)
    helpers = _rearm_helpers(tree, handles)
    for fn, owner in _iter_scopes(tree):
        groups = _collect_groups(fn, owner, effects, handles.get(owner, {}), helpers.get(owner, {}))
        for regs in groups.values():
            # Registration order == source order == execution order claim.
            regs = sorted(regs, key=lambda r: (r.node.lineno, r.node.col_offset))
            for i, a in enumerate(regs):
                for b in regs[i + 1:]:
                    if a.summary is None or b.summary is None:
                        continue
                    if ast.dump(a.callback_expr) == ast.dump(b.callback_expr):
                        continue  # same callback re-registered: not a pair race
                    yield a, b


class SameTimeWriteOverlapRule(Rule):
    """RPR040: same-instant callbacks with non-disjoint write sets."""

    code = "RPR040"
    summary = (
        "two callbacks registered for the same instant (shared period-hook "
        "list or identical schedule time) have overlapping attribute write "
        "sets; their execution order is unspecified"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for a, b in _pairs(tree):
            ww, rw = a.summary.overlap(b.summary)
            conflict = ww or rw
            if not conflict:
                continue
            kind = "write-write" if ww else "read-write"
            yield ctx.finding(
                self.code,
                f"callbacks {_callback_label(a.callback_expr, a.summary)!r} "
                f"and {_callback_label(b.callback_expr, b.summary)!r} are "
                f"both registered for the same instant ({b.where}) with a "
                f"{kind} overlap on attribute(s) "
                f"{', '.join(sorted(conflict))}; same-timestamp execution "
                f"order is unspecified — merge them or order explicitly",
                b.node,
            )


class ClosureCaptureRaceRule(Rule):
    """RPR041: closure capture written by a sibling same-instant callback."""

    code = "RPR041"
    summary = (
        "a same-instant sibling callback writes state that this callback "
        "closure captured; the captured value depends on unspecified "
        "tie-break order"
    )

    def check(self, tree: ast.Module, ctx: FileContext) -> Iterator[Finding]:
        for a, b in _pairs(tree):
            for reader, writer in ((a, b), (b, a)):
                shared = reader.summary.captures & writer.summary.writes
                if not shared:
                    continue
                yield ctx.finding(
                    self.code,
                    f"callback "
                    f"{_callback_label(reader.callback_expr, reader.summary)!r} "
                    f"captures {', '.join(sorted(shared))!s}, which "
                    f"same-instant sibling "
                    f"{_callback_label(writer.callback_expr, writer.summary)!r} "
                    f"writes; what the closure observes depends on "
                    f"unspecified tie-break order",
                    reader.node,
                )
