"""The opportunity oracle cross-checker.

Closes the loop between the static analyzer and the dynamic fill unit:
the set of PCs a dynamic pass actually transformed during a run must
be a subset of the static site set
(:meth:`repro.analysis.static.AnalysisReport.site_sets`) for every opt
class — a violation means an optimizer's eligibility test accepted a
pattern the sound static over-approximation says cannot exist, i.e.
the eligibility test is unsound (or the analyzer's CFG missed an
edge). The checker names the opt class and the offending PC.

The oracle covers the paper's four passes only: the extension passes
(CSE, dead-code elimination, dynamic predication) synthesise new move
idioms and rewrite opcodes, so requesting a cross-check under an
extended configuration is an error, not a violation.

The second half of the module is the analogous check for the
interprocedural **ineffectuality oracle**: every PC the dynamic
ineffectuality log (:mod:`repro.core.stages.ineff`) observes as a dead
write, silent store or predictable value must lie inside the static
candidate set (:mod:`repro.analysis.static.ineffectuality`). Unlike
the opt-site check this one needs no trace cache and holds under any
configuration — the architectural stream is config-independent — so
the observer stage is simply appended to the replay engine's stage
list for the checking run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.static.ineffectuality import (
    INEFF_CLASSES,
    IneffectualitySites,
)
from repro.analysis.static.report import AnalysisReport
from repro.core.config import SimConfig
from repro.core.engine import Engine
from repro.core.results import SimResult
from repro.core.stages.ineff import IneffectualityLogStage
from repro.errors import ConfigError
from repro.machine.tracing import CommittedTrace
from repro.program.image import Program

#: the opt classes with a per-PC rewrite to bound.
OPT_CLASSES = ("moves", "reassoc", "scaled", "any_opt")


@dataclass(frozen=True)
class OracleViolation:
    """One dynamically transformed PC outside the static bound."""

    opt: str
    pc: int

    def render(self) -> str:
        return (f"{self.opt}: transformed pc {self.pc:#x} is outside "
                f"the static site set")


@dataclass
class OracleCheck:
    """Outcome of one benchmark's static-vs-dynamic cross-check."""

    benchmark: str
    config_label: str
    static_counts: Dict[str, int]
    dynamic_counts: Dict[str, int]       # distinct transformed PCs
    violations: List[OracleViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [f"{self.benchmark} [{self.config_label}]: "
                 f"{'OK' if self.ok else 'ORACLE VIOLATION'}"]
        for name in OPT_CLASSES:
            lines.append(
                f"  {name:8s} dynamic {self.dynamic_counts[name]:4d} "
                f"<= static {self.static_counts[name]:4d} sites")
        for violation in self.violations:
            lines.append("  " + violation.render())
        return "\n".join(lines)


def _require_paper_opts(config: SimConfig) -> None:
    opts = config.optimizations
    if opts.cse or opts.dead_code or opts.predication:
        raise ConfigError(
            "the opportunity oracle only covers the paper's four "
            "passes; disable cse/dead_code/predication to cross-check")


def collect_dynamic_sites(trace: CommittedTrace, config: SimConfig,
                          benchmark: str = "bench",
                          label: str = "crosscheck"
                          ) -> Tuple[SimResult, Dict[str, Set[int]]]:
    """Replay *trace* while recording per-class transformed PCs.

    Returns the run's :class:`SimResult` plus
    ``{opt class: set of PCs}`` (``any_opt`` is the union). Uses the
    fill unit's :attr:`~repro.fillunit.unit.FillUnit.opt_site_log`
    side channel, which leaves modelled timing untouched.

    Raises:
        ConfigError: without a trace cache (no fill unit to observe)
            or under an extended optimization configuration.
    """
    _require_paper_opts(config)
    model = Engine(config)
    if model.fill_unit is None:
        raise ConfigError("cross-check requires the trace cache "
                          "(and with it the fill unit) enabled")
    sites: Dict[str, Set[int]] = {"moves": set(), "reassoc": set(),
                                  "scaled": set()}
    model.fill_unit.opt_site_log = sites
    result = model.run(trace, benchmark=benchmark, label=label)
    sites["any_opt"] = (sites["moves"] | sites["reassoc"]
                        | sites["scaled"])
    return result, sites


def cross_check(report: AnalysisReport, trace: CommittedTrace,
                config: SimConfig, benchmark: str = "bench",
                label: str = "crosscheck") -> OracleCheck:
    """Check dynamic transformations against the static oracle.

    Raises:
        ConfigError: see :func:`collect_dynamic_sites`.
    """
    result, dynamic = collect_dynamic_sites(trace, config, benchmark,
                                            label)
    static = report.site_sets()
    violations = [OracleViolation(opt=name, pc=pc)
                  for name in OPT_CLASSES
                  for pc in sorted(dynamic[name] - static[name])]
    return OracleCheck(
        benchmark=benchmark,
        config_label=label,
        static_counts={name: len(static[name]) for name in OPT_CLASSES},
        dynamic_counts={name: len(dynamic[name])
                        for name in OPT_CLASSES},
        violations=violations)


@dataclass(frozen=True)
class IneffViolation:
    """One dynamically ineffectual PC outside the static candidates."""

    kind: str
    pc: int

    def render(self) -> str:
        return (f"{self.kind}: observed ineffectual pc {self.pc:#x} is "
                f"outside the static candidate set")


@dataclass
class IneffectualityCheck:
    """Outcome of one benchmark's ineffectuality cross-check."""

    benchmark: str
    config_label: str
    static_counts: Dict[str, int]
    dynamic_counts: Dict[str, int]       # distinct ineffectual PCs
    occurrences: Dict[str, int]          # total dynamic events
    violations: List[IneffViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [f"{self.benchmark} [{self.config_label}]: "
                 f"{'OK' if self.ok else 'INEFFECTUALITY VIOLATION'}"]
        for name in INEFF_CLASSES:
            lines.append(
                f"  {name:12s} dynamic {self.dynamic_counts[name]:4d} "
                f"<= static {self.static_counts[name]:4d} candidates "
                f"({self.occurrences[name]} events)")
        for violation in self.violations:
            lines.append("  " + violation.render())
        return "\n".join(lines)

    def ensure(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on any violation."""
        if self.violations:
            detail = "; ".join(v.render() for v in self.violations)
            raise ConfigError(
                f"ineffectuality oracle violated on {self.benchmark} "
                f"[{self.config_label}]: {detail}")


def collect_ineffectual_sites(trace: CommittedTrace, config: SimConfig,
                              program: Program,
                              benchmark: str = "bench",
                              label: str = "crosscheck"
                              ) -> Tuple[SimResult,
                                         Dict[str, FrozenSet[int]],
                                         Dict[str, int]]:
    """Replay *trace* with the ineffectuality observer stage attached.

    Returns the run's :class:`SimResult`, the per-class distinct
    ineffectual PC sets, and the per-class total event counts. The
    observer works under any configuration (it replays architectural
    semantics from the committed records, which every configuration
    shares) and never perturbs timing.
    """
    model = Engine(config)
    stage = IneffectualityLogStage(program)
    model.stages.append(stage)
    result = model.run(trace, benchmark=benchmark, label=label)
    sites = {kind: frozenset(pcs)
             for kind, pcs in stage.log.sites.items()}
    return result, sites, dict(stage.log.occurrences)


def ineffectuality_cross_check(static: IneffectualitySites,
                               trace: CommittedTrace, config: SimConfig,
                               program: Program,
                               benchmark: str = "bench",
                               label: str = "crosscheck"
                               ) -> IneffectualityCheck:
    """Check observed ineffectual PCs against the static oracle."""
    _, dynamic, occurrences = collect_ineffectual_sites(
        trace, config, program, benchmark, label)
    candidates = static.as_sets()
    violations = [IneffViolation(kind=kind, pc=pc)
                  for kind in INEFF_CLASSES
                  for pc in sorted(dynamic[kind] - candidates[kind])]
    return IneffectualityCheck(
        benchmark=benchmark,
        config_label=label,
        static_counts=static.counts(),
        dynamic_counts={kind: len(dynamic[kind])
                        for kind in INEFF_CLASSES},
        occurrences=occurrences,
        violations=violations)


__all__ = ["OPT_CLASSES", "OracleCheck", "OracleViolation",
           "IneffViolation", "IneffectualityCheck",
           "collect_dynamic_sites", "collect_ineffectual_sites",
           "cross_check", "ineffectuality_cross_check"]
