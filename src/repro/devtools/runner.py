"""The ``reprolint`` driver: discover sources, run rules, apply pragmas.

:func:`run_lint` is the single entry point the CLI, the tests and CI all
share.  It parses every Python file under ``src/repro``, runs each
registered rule (:data:`repro.devtools.rules.RULE_CLASSES`), filters the
findings through same-line ``# reprolint: disable=<id> (<reason>)``
pragmas, validates the pragmas themselves (rule ``RPL100``), and returns
a :class:`LintReport` that renders as text or JSON.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.devtools.findings import Finding
from repro.devtools.pragmas import PRAGMA_RULE_ID, Pragma, parse_pragmas
from repro.devtools.rules import RULE_CLASSES, all_rule_ids
from repro.devtools.rules.api_coverage import ApiCoverageRule
from repro.devtools.rules.base import LintConfig, ModuleContext, Rule

_PRAGMA_FIX_HINT = (
    "write '# reprolint: disable=<id> (<reason>)' naming a registered "
    "rule id; the reason is mandatory"
)


@dataclass
class LintReport:
    """Outcome of one analyzer run."""

    root: str
    checked_files: int
    findings: list[Finding]
    suppressed: int
    rules: list[dict[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts(self) -> dict[str, int]:
        """Findings per rule id (only rules with hits appear)."""
        table: dict[str, int] = {}
        for finding in self.findings:
            table[finding.rule_id] = table.get(finding.rule_id, 0) + 1
        return dict(sorted(table.items()))

    def format(self) -> str:
        """Human-readable report (the default ``repro lint`` output)."""
        lines = [finding.format() for finding in self.findings]
        summary = (
            f"reprolint: {len(self.findings)} finding(s) in "
            f"{self.checked_files} file(s)"
        )
        if self.suppressed:
            summary += f", {self.suppressed} suppressed by pragma"
        lines.append(summary)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        """JSON-serializable view (``repro lint --json``)."""
        return {
            "root": self.root,
            "checked_files": self.checked_files,
            "clean": self.clean,
            "suppressed": self.suppressed,
            "counts": self.counts(),
            "rules": self.rules,
            "findings": [finding.to_dict() for finding in self.findings],
        }


def default_root() -> Path:
    """The repository root, located from the installed package.

    ``src/repro/devtools/runner.py`` lives three levels below it.
    """
    return Path(__file__).resolve().parents[3]


def iter_source_files(root: Path) -> list[Path]:
    """Every Python source file the analyzer covers, sorted."""
    return sorted((root / "src" / "repro").rglob("*.py"))


class LintInputError(Exception):
    """A file the analyzer was asked to check could not be read or parsed.

    A run that skipped it would report the file clean without checking it,
    so the CLI exits 2 with this message instead.
    """


def _load_module(root: Path, path: Path) -> ModuleContext:
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, UnicodeDecodeError) as error:
        reason = getattr(error, "strerror", None) or error
        raise LintInputError(f"cannot read {path}: {reason}") from None
    except (SyntaxError, ValueError) as error:  # ValueError: a NUL byte
        raise LintInputError(f"cannot parse {path}: {error}") from None
    resolved = path.resolve()
    try:
        rel_path = resolved.relative_to(root.resolve()).as_posix()
    except ValueError:
        # A --path target outside the root still lints; scoped rules
        # simply see its absolute path.
        rel_path = resolved.as_posix()
    return ModuleContext(path=path, rel_path=rel_path, source=source, tree=tree)


def run_lint(
    root: Path | None = None,
    paths: list[Path] | None = None,
    config: LintConfig | None = None,
    rules: tuple[type[Rule], ...] | None = None,
) -> LintReport:
    """Run the analyzer and return its report.

    ``root`` defaults to the repository root; ``paths`` restricts the run
    to specific files (fixture tests use this); ``config`` and ``rules``
    override the rule scope and registry.  A file that cannot be read or
    parsed raises :class:`LintInputError`.
    """
    root = default_root() if root is None else root
    config = LintConfig() if config is None else config
    rule_instances = [cls(config) for cls in (rules or RULE_CLASSES)]
    files = iter_source_files(root) if paths is None else list(paths)
    if not files:
        raise LintInputError(f"no Python files to lint under {root / 'src' / 'repro'}")

    modules: dict[str, ModuleContext] = {}
    pragmas: dict[str, list[Pragma]] = {}
    for path in files:
        ctx = _load_module(root, path)
        modules[ctx.rel_path] = ctx
        pragmas[ctx.rel_path] = parse_pragmas(ctx.source)

    raw: list[Finding] = []
    for ctx in modules.values():
        for rule in rule_instances:
            raw.extend(rule.check_module(ctx))
    for rule in rule_instances:
        raw.extend(rule.check_project(root, modules))

    known_ids = set(all_rule_ids())
    findings: list[Finding] = []
    suppressed = 0
    for finding in raw:
        if _is_suppressed(finding, pragmas.get(finding.path, ()), known_ids):
            suppressed += 1
        else:
            findings.append(finding)
    findings.extend(_pragma_findings(pragmas, known_ids))

    return LintReport(
        root=str(root),
        checked_files=len(modules),
        findings=sorted(set(findings)),
        suppressed=suppressed,
        rules=[rule.to_meta() for rule in rule_instances],
    )


def _is_suppressed(
    finding: Finding, file_pragmas: tuple[Pragma, ...] | list[Pragma], known: set[str]
) -> bool:
    for pragma in file_pragmas:
        if not pragma.valid or pragma.line != finding.line:
            continue
        if finding.rule_id in pragma.rule_ids and finding.rule_id in known:
            return True
    return False


def _pragma_findings(
    pragmas: dict[str, list[Pragma]], known: set[str]
) -> list[Finding]:
    findings: list[Finding] = []
    for rel_path, file_pragmas in pragmas.items():
        for pragma in file_pragmas:
            if not pragma.valid:
                findings.append(
                    Finding(
                        path=rel_path,
                        line=pragma.line,
                        col=pragma.col,
                        rule_id=PRAGMA_RULE_ID,
                        severity="error",
                        message=f"invalid reprolint pragma: {pragma.problem}",
                        fix_hint=_PRAGMA_FIX_HINT,
                    )
                )
                continue
            for rule_id in pragma.rule_ids:
                if rule_id not in known:
                    findings.append(
                        Finding(
                            path=rel_path,
                            line=pragma.line,
                            col=pragma.col,
                            rule_id=PRAGMA_RULE_ID,
                            severity="error",
                            message=(
                                f"pragma names unknown rule id {rule_id!r}; "
                                f"registered ids: {', '.join(sorted(known))}"
                            ),
                            fix_hint=_PRAGMA_FIX_HINT,
                        )
                    )
    return findings


def doctest_modules(
    root: Path | None = None, config: LintConfig | None = None
) -> list[str]:
    """Repo-relative paths of every module that defines public API.

    The CI ``docs`` job doctests exactly this list, so a new public
    module is covered the moment it is exported.
    """
    root = default_root() if root is None else root
    config = LintConfig() if config is None else config
    modules: dict[str, ModuleContext] = {}
    for path in iter_source_files(root):
        ctx = _load_module(root, path)
        modules[ctx.rel_path] = ctx
    return ApiCoverageRule(config).doctest_modules(root, modules)
