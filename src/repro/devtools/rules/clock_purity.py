"""RPL102 — simulated-clock purity in the scheduling and engine paths.

Invariant: inside ``src/repro/serve/`` and ``src/repro/engine/`` the only
clock is the simulated cycle clock and the only randomness is a seeded
generator.  A serving run is specified to be a pure function of its jobs,
fleet and policies — ``serve()`` on any order of the same trace, and any
two same-seed runs, produce *bit-identical* schedules and traces; a single
``time.time()`` in a planning decision or an unseeded RNG in a probe
breaks that silently, and no unit test can pin it because the failure is
non-deterministic by construction.

Flagged: ``time.time`` / ``time.monotonic`` (and their ``_ns`` twins),
``datetime.now`` / ``utcnow`` / ``today``, any module-level function of
the stdlib :mod:`random` module, NumPy's legacy global RNG
(``np.random.rand`` & co., ``np.random.seed``), and a *zero-argument*
``np.random.default_rng()``.  Allowed: ``time.perf_counter`` (wall-clock
is legal for reporting how long the simulation itself took — it must
never feed back into scheduling) and ``default_rng(seed)`` with an
explicit seed.

Files in ``clock_strict_paths`` (the fault-injection module) are held to
a harder bar: the ``clock_allowed`` escapes are *also* forbidden there,
as are the stdlib ``random.Random`` / ``random.SystemRandom`` classes
even though they can be seeded.  A fault plan must be a pure function of
(spec, seed, simulated cycle) — the only legal randomness is a seeded
numpy ``Generator`` — because chaos tests replay plans bit-for-bit.
"""

from __future__ import annotations

import ast

from repro.devtools.findings import Finding
from repro.devtools.rules.base import ModuleContext, Rule, dotted_name

_TIME_FORBIDDEN = ("time", "time_ns", "monotonic", "monotonic_ns")
_DATETIME_FORBIDDEN = ("now", "utcnow", "today")
#: Module-level numpy legacy-RNG entry points (the unseeded global state).
_NP_RANDOM_FORBIDDEN = (
    "seed",
    "rand",
    "randn",
    "randint",
    "random",
    "random_sample",
    "ranf",
    "sample",
    "choice",
    "shuffle",
    "permutation",
    "standard_normal",
    "uniform",
    "normal",
)
_STDLIB_RANDOM_ALLOWED = ("Random", "SystemRandom")


class ClockPurityRule(Rule):
    rule_id = "RPL102"
    name = "clock-purity"
    severity = "error"
    fix_hint = (
        "advance the simulated cycle clock instead of reading wall-clock "
        "time, and draw randomness from an explicitly seeded "
        "np.random.default_rng(seed)"
    )
    description = (
        "no wall-clock reads or unseeded RNGs in src/repro/serve/ and "
        "src/repro/engine/ (bit-identical schedules depend on the "
        "simulated clock)"
    )

    def check_module(self, ctx: ModuleContext) -> list[Finding]:
        strict = self.config.in_scope(ctx.rel_path, self.config.clock_strict_paths)
        if not strict and not self.config.in_scope(
            ctx.rel_path, self.config.clock_pure_paths
        ):
            return []
        aliases = _import_aliases(ctx.tree)
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom):
                findings.extend(self._check_import_from(ctx, node, strict))
            elif isinstance(node, ast.Call):
                found = self._check_call(ctx, node, aliases)
                if found is not None:
                    findings.append(found)
            elif isinstance(node, ast.Attribute):
                found = self._check_attribute(ctx, node, aliases, strict)
                if found is not None:
                    findings.append(found)
        return findings

    def _check_import_from(
        self, ctx: ModuleContext, node: ast.ImportFrom, strict: bool
    ) -> list[Finding]:
        findings: list[Finding] = []
        if node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_FORBIDDEN:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"wall-clock import 'from time import {alias.name}' "
                            "in a simulated-clock path",
                        )
                    )
                elif strict:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"wall-clock import 'from time import {alias.name}' "
                            "in a strict clock-pure path (no wall-clock "
                            "escapes in the fault plan)",
                        )
                    )
        elif node.module == "random":
            for alias in node.names:
                if strict or alias.name not in _STDLIB_RANDOM_ALLOWED:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "stdlib random import "
                            f"'from random import {alias.name}' "
                            + (
                                "(strict path: only a seeded numpy "
                                "Generator is legal)"
                                if strict
                                else "(global, unseeded state)"
                            ),
                        )
                    )
        return findings

    def _check_call(
        self, ctx: ModuleContext, node: ast.Call, aliases: dict[str, str]
    ) -> Finding | None:
        name = _canonical(node.func, aliases)
        if name == "numpy.random.default_rng" and not node.args and not node.keywords:
            return self.finding(
                ctx,
                node,
                "unseeded np.random.default_rng() in a deterministic path",
                fix_hint="pass an explicit seed: np.random.default_rng(seed)",
            )
        return None

    def _check_attribute(
        self, ctx: ModuleContext, node: ast.Attribute, aliases: dict[str, str],
        strict: bool = False,
    ) -> Finding | None:
        name = _canonical(node, aliases)
        if name is None:
            return None
        if name in self.config.clock_allowed:
            if strict:
                return self.finding(
                    ctx,
                    node,
                    f"wall-clock read '{name}' in a strict clock-pure path "
                    "(clock_allowed escapes do not apply to the fault plan)",
                )
            return None
        if strict and name.startswith("random.") and name.count(".") == 1:
            return self.finding(
                ctx,
                node,
                f"stdlib RNG '{name}' in a strict clock-pure path (only a "
                "seeded numpy Generator is legal)",
            )
        if name in (f"time.{attr}" for attr in _TIME_FORBIDDEN):
            return self.finding(
                ctx, node, f"wall-clock read '{name}' in a simulated-clock path"
            )
        if name.startswith("datetime.") and name.rsplit(".", 1)[-1] in (
            _DATETIME_FORBIDDEN
        ):
            return self.finding(
                ctx, node, f"wall-clock read '{name}' in a simulated-clock path"
            )
        if name.startswith("numpy.random."):
            terminal = name.rsplit(".", 1)[-1]
            if terminal in _NP_RANDOM_FORBIDDEN:
                return self.finding(
                    ctx,
                    node,
                    f"legacy global numpy RNG '{name}' (process-wide, "
                    "unseeded state)",
                )
        if name.startswith("random.") and name.count(".") == 1:
            terminal = name.rsplit(".", 1)[-1]
            if terminal not in _STDLIB_RANDOM_ALLOWED:
                return self.finding(
                    ctx,
                    node,
                    f"module-level stdlib random call '{name}' (global, "
                    "unseeded state)",
                )
        return None


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to canonical module paths (``np`` -> ``numpy``)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _canonical(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """Resolve an attribute/name chain through the module's import aliases.

    ``np.random.default_rng`` with ``import numpy as np`` becomes
    ``numpy.random.default_rng``; ``default_rng`` with
    ``from numpy.random import default_rng`` likewise.  ``datetime.now``
    on a name imported via ``from datetime import datetime`` canonicalises
    to ``datetime.datetime.now`` and is normalised back to a
    ``datetime.``-prefixed path for matching.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    canonical_head = aliases.get(head)
    if canonical_head is None:
        return dotted
    full = canonical_head + ("." + rest if rest else "")
    # Collapse 'datetime.datetime.now' / 'datetime.date.today' to a single
    # 'datetime.' prefix so one pattern matches both spellings.
    if full.startswith("datetime.datetime.") or full.startswith("datetime.date."):
        full = "datetime." + full.rsplit(".", 1)[-1]
    return full
