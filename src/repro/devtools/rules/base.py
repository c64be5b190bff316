"""Rule-plugin base classes shared by every ``reprolint`` rule.

A rule is a class with an ``rule_id`` (stable, referenced by suppression
pragmas and CI logs), a human ``name``, a ``severity`` and a default
``fix_hint``.  Per-module rules implement :meth:`Rule.check_module`;
whole-tree rules (API coverage needs to follow re-exports across modules)
implement :meth:`Rule.check_project`.  The runner instantiates each rule
once per lint run, so rules may keep state across modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.findings import Finding


@dataclass(frozen=True)
class LintConfig:
    """Tunable scope of the domain rules.

    The defaults encode the repo's real invariants; tests override the
    path filters to point rules at fixture snippets.  All paths are
    repo-root-relative POSIX strings; entries ending in ``/`` match a
    subtree prefix, other entries match one file exactly, and the empty
    string matches everything (used by fixture tests).
    """

    #: Subtrees where wall-clock time and unseeded RNGs are forbidden
    #: (the simulated clock is load-bearing for bit-identical schedules).
    clock_pure_paths: tuple[str, ...] = ("src/repro/serve/", "src/repro/engine/")
    #: Wall-clock callables that stay legal inside the pure paths.
    clock_allowed: tuple[str, ...] = ("time.perf_counter",)
    #: Strict clock-purity scope: files where even ``clock_allowed``
    #: escapes and seeded *stdlib* RNGs are forbidden — the fault plan
    #: must be a pure function of (spec, seed, simulated cycle), so the
    #: only randomness source is a seeded numpy ``Generator``.
    clock_strict_paths: tuple[str, ...] = ("src/repro/serve/faults.py",)
    #: Integer-exact numeric paths where accumulations must pin ``dtype=``.
    dtype_exact_paths: tuple[str, ...] = (
        "src/repro/engine/",
        "src/repro/golden/",
        "src/repro/api.py",
    )
    #: The audited estimate-cache key constructors; every ``memoize`` key
    #: must flow through one of these.
    audited_key_helpers: tuple[str, ...] = ("gemm_estimate_key", "conv_estimate_key")
    #: Modules whose exports make up the public API surface.
    api_modules: tuple[str, ...] = (
        "src/repro/api.py",
        "src/repro/engine/__init__.py",
        "src/repro/serve/__init__.py",
        "src/repro/im2col/lowering.py",
        "src/repro/obs/__init__.py",
    )
    #: ``self`` attributes treated as locks by the lock-discipline rule.
    lock_attr_names: tuple[str, ...] = ("_lock", "_memo_lock")
    #: The audited persistent-store implementation; the only modules
    #: allowed to open the estimate journal path directly (RPL107).
    store_api_paths: tuple[str, ...] = (
        "src/repro/engine/cache.py",
        "src/repro/engine/store.py",
    )
    #: The tracing layer, where *no* wall-clock read is legal (not even
    #: the ``clock_allowed`` escapes) — trace exports are byte-compared
    #: across same-seed runs in CI.
    obs_paths: tuple[str, ...] = ("src/repro/obs/",)
    #: Method names that append events to a tracer; their arguments must
    #: never embed a wall-clock read.
    trace_emit_methods: tuple[str, ...] = ("emit", "instant", "complete", "counter")

    def in_scope(self, rel_path: str, scope: tuple[str, ...]) -> bool:
        """Whether ``rel_path`` falls under one of ``scope``'s entries."""
        for entry in scope:
            if entry == "" or rel_path == entry:
                return True
            if entry.endswith("/") and rel_path.startswith(entry):
                return True
        return False


@dataclass
class ModuleContext:
    """One parsed source module handed to the rules."""

    path: Path
    rel_path: str
    source: str
    tree: ast.Module = field(repr=False)


class Rule:
    """Base class every rule plugin derives from."""

    #: Stable identifier, e.g. ``RPL104`` (used in pragmas and CI logs).
    rule_id: str = ""
    #: Short kebab-case name, e.g. ``dtype-exactness``.
    name: str = ""
    #: ``error`` findings gate CI; see :data:`repro.devtools.findings.SEVERITIES`.
    severity: str = "error"
    #: Default repair guidance attached to findings.
    fix_hint: str = ""
    #: One-line invariant statement (surfaced by ``repro lint --json``).
    description: str = ""

    def __init__(self, config: LintConfig) -> None:
        self.config = config

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        """Findings for one module (default: none)."""
        return []

    def check_project(
        self, root: Path, modules: dict[str, ModuleContext]
    ) -> list[Finding]:
        """Findings needing the whole tree, keyed by rel path (default: none)."""
        return []

    def finding(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        message: str,
        fix_hint: str | None = None,
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node`` in ``ctx``."""
        return Finding(
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.rule_id,
            severity=self.severity,
            message=message,
            fix_hint=self.fix_hint if fix_hint is None else fix_hint,
        )

    def to_meta(self) -> dict[str, str]:
        """JSON-serializable rule descriptor (``repro lint --json``)."""
        return {
            "id": self.rule_id,
            "name": self.name,
            "severity": self.severity,
            "fix_hint": self.fix_hint,
            "description": self.description,
        }


def is_self_attribute(node: ast.AST) -> bool:
    """True for ``self.<attr>`` attribute nodes."""
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains, or None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


__all__ = [
    "LintConfig",
    "ModuleContext",
    "Rule",
    "dotted_name",
    "is_self_attribute",
]
