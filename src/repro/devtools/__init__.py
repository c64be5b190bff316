"""Developer tooling: ``reprolint``, the repo's domain-aware static analyzer.

The simulator's correctness story rests on invariants no general-purpose
linter knows about: the serving scheduler's shared state must stay behind
its lock, the simulated clock must never leak wall-clock time, estimate
cache keys must carry the fields that make them alias-free, integer-exact
numeric paths must pin accumulator dtypes, and the public API must stay
documented and doctested.  ``reprolint`` encodes each invariant as an
AST-visiting rule plugin (:mod:`repro.devtools.rules`) and is wired into
CI so a violation fails the build instead of waiting for a reviewer.

Run it via the CLI::

    PYTHONPATH=src python -m repro.cli lint [--json]

or programmatically:

>>> from repro.devtools import run_lint
>>> report = run_lint()                         # doctest: +SKIP
>>> report.findings                             # doctest: +SKIP
[]

See ``docs/static-analysis.md`` for the rule catalogue and the
``# reprolint: disable=<id> (<reason>)`` suppression pragma.
"""

from repro.devtools.findings import SEVERITIES, Finding
from repro.devtools.pragmas import PRAGMA_RULE_ID, Pragma, parse_pragmas
from repro.devtools.runner import (
    LintInputError,
    LintReport,
    default_root,
    doctest_modules,
    iter_source_files,
    run_lint,
)
from repro.devtools.rules import RULE_CLASSES, all_rule_ids

__all__ = [
    "Finding",
    "LintInputError",
    "LintReport",
    "PRAGMA_RULE_ID",
    "Pragma",
    "RULE_CLASSES",
    "SEVERITIES",
    "all_rule_ids",
    "default_root",
    "doctest_modules",
    "iter_source_files",
    "parse_pragmas",
    "run_lint",
]
