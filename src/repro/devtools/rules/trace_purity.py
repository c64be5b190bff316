"""RPL106 — trace purity: no wall-clock values in deterministic traces.

Invariant: a ``repro serve --trace`` file is a pure function of (trace,
seed, fleet spec) — CI diffs the bytes of two same-seed runs.  Two leaks
would break that silently:

* a wall-clock read anywhere in :mod:`repro.obs`, and
* a tracer *emission* in a simulated-clock path whose arguments embed a
  wall-clock read — e.g. ``tracer.instant("x", int(perf_counter()))``.
  RPL102 permits ``time.perf_counter`` in ``src/repro/serve/`` for
  reporting how long the simulation took, but the moment that value
  flows into a trace event the export stops being byte-stable.

Scope A covers ``obs_paths`` (every wall-clock read, including the
otherwise-legal ``perf_counter``); scope B covers ``clock_pure_paths``
(wall-clock reads inside the argument list of any ``trace_emit_methods``
call).
"""

from __future__ import annotations

import ast

from repro.devtools.findings import Finding
from repro.devtools.rules.base import ModuleContext, Rule
from repro.devtools.rules.clock_purity import _canonical, _import_aliases

#: Canonical names whose evaluation reads the host's wall clock.
_WALL_READS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
    }
)


class TracePurityRule(Rule):
    rule_id = "RPL106"
    name = "trace-purity"
    severity = "error"
    fix_hint = (
        "trace events carry simulated cycles only; time host work outside "
        "the tracing layer and keep the reading out of trace events"
    )
    description = (
        "no wall-clock reads in src/repro/obs/, and no wall-clock values in "
        "tracer emission arguments (byte-identical trace exports depend on it)"
    )

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        in_obs = self.config.in_scope(ctx.rel_path, self.config.obs_paths)
        in_clock = self.config.in_scope(ctx.rel_path, self.config.clock_pure_paths)
        if not in_obs and not in_clock:
            return []
        aliases = _import_aliases(ctx.tree)
        findings: list[Finding] = []
        if in_obs:
            findings.extend(self._check_obs_reads(ctx, ctx.tree, aliases))
        if in_obs or in_clock:
            findings.extend(self._check_emissions(ctx, aliases))
        return findings

    def _check_obs_reads(
        self, ctx: ModuleContext, node: ast.AST, aliases: dict[str, str]
    ) -> list[Finding]:
        """Scope A: any wall read in the tracing layer."""
        findings: list[Finding] = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Attribute, ast.Name)):
                name = _canonical(child, aliases)
                if name in _WALL_READS:
                    findings.append(
                        self.finding(
                            ctx,
                            child,
                            f"wall-clock read '{name}' in the tracing layer",
                        )
                    )
                    continue  # don't re-flag sub-chains of this read
            findings.extend(self._check_obs_reads(ctx, child, aliases))
        return findings

    def _check_emissions(
        self, ctx: ModuleContext, aliases: dict[str, str]
    ) -> list[Finding]:
        """Scope B: wall reads inside tracer emission arguments."""
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                not isinstance(func, ast.Attribute)
                or func.attr not in self.config.trace_emit_methods
            ):
                continue
            leak = self._wall_read_in(node.args, aliases) or self._wall_read_in(
                (kw.value for kw in node.keywords), aliases
            )
            if leak is not None:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"wall-clock read '{leak}' flows into trace emission "
                        f"'.{func.attr}(...)'; the export is no longer "
                        "byte-stable across runs",
                    )
                )
        return findings

    def _wall_read_in(self, nodes, aliases: dict[str, str]) -> str | None:
        for root in nodes:
            for node in ast.walk(root):
                if isinstance(node, (ast.Attribute, ast.Name)):
                    name = _canonical(node, aliases)
                    if name in _WALL_READS:
                        return name
        return None
