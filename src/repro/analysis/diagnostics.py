"""Structured diagnostics: the currency of the analysis subsystem.

Every static-analysis pass — pipeline lint, fusion explainability, the
tape/plan verifier — reports findings as :class:`Diagnostic` records
instead of raising on the first problem.  A diagnostic carries

* a **stable error code** (``IR004``, ``FUS001``, ``TAPE008``, ...)
  registered in :data:`CODES` so tools and tests can match on identity
  rather than message text,
* a **severity** — ``error`` (the artifact is wrong and must not be
  used), ``warning`` (suspicious but executable), ``info`` (an
  explanation of a decision, e.g. why a block was cut),
* a **location**: the kernel (or block/tape) the finding belongs to
  plus an expression/instruction path inside it,
* a human-readable **message**, and
* a machine-readable **details** dict exposing the underlying
  arithmetic (e.g. the Eq. 2 shared-memory budget terms) for tests,
  dashboards, and audits.

The module is intentionally dependency-free (standard library only) so
that the lowest layers of the toolchain — :mod:`repro.ir.validate` in
particular — can import it without cycles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "CODES",
    "Diagnostic",
    "Severity",
    "describe_codes",
    "has_errors",
    "max_severity",
    "only",
    "render_diagnostics",
]


class Severity(enum.Enum):
    """Diagnostic severity, ordered ``info < warning < error``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"info": 0, "warning": 1, "error": 2}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank

    def __le__(self, other: "Severity") -> bool:
        return self.rank <= other.rank

    def __gt__(self, other: "Severity") -> bool:
        return self.rank > other.rank

    def __ge__(self, other: "Severity") -> bool:
        return self.rank >= other.rank


#: The stable error-code registry: ``code -> (default severity, summary)``.
#: Codes are append-only; renumbering a released code breaks consumers
#: that filter on it.  The ``repro lint --codes`` table and
#: ``docs/analysis.md`` are generated from this mapping.
CODES: Dict[str, Tuple[Severity, str]] = {
    # -- IR well-formedness (collect-all ir/validate) ---------------------
    "IR001": (Severity.ERROR, "unknown IR node type"),
    "IR002": (Severity.ERROR, "constant is not numeric"),
    "IR003": (Severity.ERROR, "constant is not finite"),
    "IR004": (Severity.ERROR, "read offset is not an integer"),
    "IR005": (Severity.ERROR, "read offset exceeds the maximum radius"),
    "IR006": (Severity.ERROR, "image name is empty"),
    "IR007": (Severity.ERROR, "cast to an invalid dtype"),
    "IR008": (Severity.WARNING, "division/modulo by a constant zero"),
    "IR009": (Severity.WARNING, "SFU call outside its real domain"),
    "IR010": (Severity.WARNING, "constant subexpression folds to a non-finite value"),
    # -- pipeline lint ----------------------------------------------------
    "PIPE001": (Severity.ERROR, "duplicate kernel name"),
    "PIPE002": (Severity.ERROR, "image produced by more than one kernel"),
    "PIPE003": (Severity.ERROR, "kernel reads (or declares) its own output"),
    "PIPE004": (Severity.ERROR, "dependence cycle"),
    "PIPE005": (Severity.WARNING, "dead kernel: reaches no pipeline output"),
    "PIPE006": (Severity.ERROR, "declared output produced by no kernel"),
    "PIPE007": (Severity.WARNING, "accessor declared but never read"),
    "PIPE008": (Severity.WARNING, "windowed read under UNDEFINED boundary mode"),
    "PIPE009": (Severity.ERROR, "image read without a declared accessor"),
    "PIPE010": (Severity.WARNING, "read window wider than the accessed image"),
    # -- fusion legality (Fig. 2, Eq. 2, headers) -------------------------
    "FUS001": (Severity.ERROR, "external output dependence (Fig. 2c)"),
    "FUS002": (Severity.ERROR, "external input dependence (Fig. 2d)"),
    "FUS003": (Severity.ERROR, "block has no escaping output"),
    "FUS004": (Severity.ERROR, "shared-memory ratio exceeds cMshared (Eq. 2)"),
    "FUS005": (Severity.ERROR, "fused shared memory exceeds the device limit"),
    "FUS006": (Severity.ERROR, "global operator cannot fuse"),
    "FUS007": (Severity.ERROR, "iteration-space mismatch"),
    "FUS008": (Severity.ERROR, "access-granularity mismatch"),
    "FUS009": (Severity.ERROR, "block is not connected"),
    "FUS010": (Severity.ERROR, "edge has non-positive benefit (illegal scenario)"),
    # -- tape verifier ----------------------------------------------------
    "TAPE001": (Severity.ERROR, "instruction uses a slot defined later (def-before-use)"),
    "TAPE002": (Severity.ERROR, "instruction uses a slot after its release"),
    "TAPE003": (Severity.ERROR, "unknown tape opcode"),
    "TAPE004": (Severity.ERROR, "malformed instruction operands/immediates"),
    "TAPE005": (Severity.ERROR, "malformed coordinate-grid or mask key"),
    "TAPE006": (Severity.ERROR, "tape root is invalid or released"),
    "TAPE007": (Severity.WARNING, "instruction unreachable from the tape root"),
    "TAPE008": (Severity.ERROR, "tape differs from a reference recompilation"),
    "TAPE009": (Severity.ERROR, "gather of an image produced inside the block"),
    # -- lazy-trace lint (repro.lazy) -------------------------------------
    "LAZY001": (Severity.ERROR, "trace lowers to an empty graph (unmodified input)"),
    "LAZY002": (Severity.WARNING, "recorded kernel reaches no evaluated output"),
    "LAZY003": (Severity.WARNING, "recorded kernel reads no image (constant output)"),
    "LAZY004": (Severity.WARNING, "trace kernels mix foreign scalar types"),
    # -- partition-plan verifier ------------------------------------------
    "PLAN001": (Severity.ERROR, "block scheduled before its producers"),
    "PLAN002": (Severity.ERROR, "plan outputs do not cover the graph's external outputs"),
    "PLAN003": (Severity.ERROR, "partition does not match the graph"),
    "PLAN004": (Severity.ERROR, "two blocks produce the same output image"),
    # -- value-range dataflow (repro.analysis.dataflow) -------------------
    "VAL001": (Severity.WARNING, "sqrt/log/rsqrt of a possibly-negative value"),
    "VAL002": (Severity.WARNING, "division/modulo by a possibly-zero denominator"),
    "VAL003": (Severity.WARNING, "cast may overflow the target dtype's range"),
    "VAL004": (Severity.INFO, "precision-losing cast (possibly-fractional value to integer)"),
    "VAL005": (Severity.WARNING, "comparison is statically always-true/always-false"),
    "VAL006": (Severity.WARNING, "select branch is proven dead"),
    "VAL007": (Severity.WARNING, "SFU argument outside its real domain (possible NaN)"),
    "VAL008": (Severity.ERROR, "param used uninitialized in the range environment"),
    # -- native-codegen sanitizer (repro.analysis.native_check) -----------
    "NAT001": (Severity.ERROR, "array index proven out of the plane's bounds"),
    "NAT002": (Severity.ERROR, "array index cannot be proven within the plane's bounds"),
    "NAT003": (Severity.ERROR, "restrict-qualified pointer arguments may alias"),
    "NAT004": (Severity.ERROR, "lowered native block disagrees with its schedule (or the schedule is malformed)"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass.

    ``details`` is excluded from equality/hashing so diagnostics can be
    deduplicated and carried inside frozen trace events while still
    exposing arbitrary machine-readable payloads.
    """

    code: str
    message: str
    severity: Severity = Severity.ERROR
    kernel: Optional[str] = None
    path: Optional[str] = None
    details: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unregistered diagnostic code {self.code!r}")

    @property
    def location(self) -> str:
        """``kernel`` / ``kernel:path`` / ``"-"`` when unlocated."""
        if self.kernel and self.path:
            return f"{self.kernel}:{self.path}"
        return self.kernel or self.path or "-"

    def render(self) -> str:
        """``severity CODE [location] message`` — one line."""
        return f"{self.severity.value:<7} {self.code} [{self.location}] {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (details copied, not shared)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "kernel": self.kernel,
            "path": self.path,
            "message": self.message,
            "details": dict(self.details),
        }


def diag(
    code: str,
    message: str,
    kernel: Optional[str] = None,
    path: Optional[str] = None,
    severity: Optional[Severity] = None,
    **details: Any,
) -> Diagnostic:
    """Build a diagnostic with the code's registered default severity."""
    if severity is None:
        severity = CODES[code][0]
    return Diagnostic(
        code=code,
        message=message,
        severity=severity,
        kernel=kernel,
        path=path,
        details=details,
    )


def max_severity(diagnostics: Iterable[Diagnostic]) -> Optional[Severity]:
    """The highest severity present, or ``None`` for a clean result."""
    best: Optional[Severity] = None
    for diagnostic in diagnostics:
        if best is None or diagnostic.severity > best:
            best = diagnostic.severity
    return best


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


def only(
    diagnostics: Iterable[Diagnostic],
    severity: Optional[Severity] = None,
    code: Optional[str] = None,
) -> List[Diagnostic]:
    """Filter by severity and/or code."""
    result = []
    for diagnostic in diagnostics:
        if severity is not None and diagnostic.severity is not severity:
            continue
        if code is not None and diagnostic.code != code:
            continue
        result.append(diagnostic)
    return result


def render_diagnostics(diagnostics: Sequence[Diagnostic]) -> str:
    """Multi-line report, errors first, stable within a severity."""
    ordered = sorted(
        diagnostics, key=lambda d: (-d.severity.rank, d.code, d.location)
    )
    return "\n".join(d.render() for d in ordered)


def describe_codes() -> str:
    """The error-code table (``repro lint --codes`` and the docs)."""
    lines = [f"{'code':<9}{'severity':<10}summary"]
    for code, (severity, summary) in CODES.items():
        lines.append(f"{code:<9}{severity.value:<10}{summary}")
    return "\n".join(lines)
