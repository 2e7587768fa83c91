"""Outside-in probes on the ``qspread`` modules, for one benchmark process.

Nothing under ``src/`` is edited.  ``install_case_probe`` counts the cases
every ``ResidualTracker`` sees; the output checks need that count in every
run.  It also reads the clocks as each case is added, which cuts the timed
phase into segments that are the same work in every repetition.
``Tracer.install`` additionally rebinds each public function and method
listed below to a wrapper that records one span per call.  A free function is
rebound in every ``qspread`` module that imported it by name, so calls made
through ``from .partitions import kernel`` are seen as well.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Spans are kept as running sums (calls, self seconds,
total seconds) per name, in memory, and read once when the timed phase ends.
They are recorded from input generation on, so a call made while building
the inputs is counted too; the coverage of wall time by outermost spans is
measured over the timed phase alone.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

FUNCTIONS = {
    "partitions": ("kernel", "leq", "meet", "enumerate_nc",
                   "mobius_column_oracle", "zeta_inverse_table"),
    "moments": ("free_iid_moment", "partition_cumulant", "partition_moment",
                "sandwiched_moment"),
    "linalg": ("residual_norm",),
    "invariance": ("kernel_constrained_sum", "check_kernel_sums",
                   "check_exchangeable", "check_spreadable",
                   "check_bvalued_spreadable"),
    "qis": ("check_increasing_relations", "quantum_extension"),
    "qperm": ("check_magic_unitary", "permutation_rep"),
    "weingarten": ("block_state_moment", "free_projection_oracle",
                   "reconstruction_weight", "finite_n_reconstruction",
                   "combinatorial_unit_identity"),
}

METHODS = {
    "partitions": {"MobiusCache": ("nc", "below", "mobius")},
    "moments": {"ScalarLaw": ("eval",), "MatrixLaw": ("eval",),
                "FreeSequence": ("moment",)},
    "linalg": {"BAlgebra": ("embed", "expect")},
}

SUITE_SECTIONS = ("nc", "mobius", "roundtrip", "relations", "extension",
                  "kernel_sums", "exchangeable", "spreadable", "bvalued",
                  "psi", "reconstruction")

DERIVED = (
    "partitions.mu_entries", "partitions.below_sets", "partitions.mobius_reuse",
    "moments.memo_hit_ratio",
    "weingarten.weight_memo_entries", "weingarten.column_memo_entries",
    "reports.cases", "reports.to_json.self_s",
)

HOST = ("host.calib_s", "trace.overhead_s", "trace.coverage")


def span_names() -> list[str]:
    names = [f"{mod}.{fn}" for mod, fns in FUNCTIONS.items() for fn in fns]
    names += [f"{mod}.{cls}.{meth}" for mod, classes in METHODS.items()
              for cls, meths in classes.items() for meth in meths]
    return names


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s"]
    names += list(DERIVED)
    names += [f"suites.{section}.s" for section in SUITE_SECTIONS]
    names += list(HOST)
    return names


def per_layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("mobius_reuse", "memo_hit_ratio", "coverage")):
        return "ratio"
    return "count"


def is_counter(name: str) -> bool:
    """A per-layer metric that must repeat exactly between traced runs."""
    return per_layer_unit(name) != "s" and name not in HOST


def _qspread_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "qspread" or name.startswith("qspread."))]


def _rebind(original, replacement) -> None:
    """Point every qspread module-level name bound to ``original`` at
    ``replacement``."""
    for mod in _qspread_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class CaseProbe:
    """Counts ResidualTracker.add calls, per tracker and in total, logs
    (check_name, cases) for every tracker report, in call order, and keeps
    the wall and CPU clock readings as each case is added."""

    def __init__(self):
        self.total = 0
        self.log: list[tuple[str, int]] = []
        self.wall_marks = array("d")
        self.cpu_marks = array("d")

    def mark(self) -> None:
        self.wall_marks.append(time.perf_counter())
        self.cpu_marks.append(time.process_time())

    def reset_marks(self) -> None:
        del self.wall_marks[:]
        del self.cpu_marks[:]

    def segments(self, wall: tuple[float, float], cpu: tuple[float, float]) -> array:
        """Wall durations, then CPU durations, of the segments that the cuts
        since ``reset_marks`` make of the phase from ``wall[0]`` to ``wall[1]``
        (``cpu`` is the same phase on the CPU clock)."""
        out = array("d")
        for (start, end), marks in ((wall, self.wall_marks), (cpu, self.cpu_marks)):
            cuts = [start, *marks, end]
            out.extend(b - a for a, b in zip(cuts, cuts[1:]))
        return out


def install_case_probe() -> CaseProbe:
    from qspread.reports import ResidualTracker

    probe = CaseProbe()
    add, report = ResidualTracker.add, ResidualTracker.report

    @functools.wraps(add)
    def counted_add(self, witness, residual):
        probe.total += 1
        self._perfbench_cases = getattr(self, "_perfbench_cases", 0) + 1
        value = add(self, witness, residual)
        probe.mark()
        return value

    @functools.wraps(report)
    def logged_report(self, *args, **kwargs):
        out = report(self, *args, **kwargs)
        probe.log.append((out.check_name, getattr(self, "_perfbench_cases", 0)))
        return out

    ResidualTracker.add = counted_add
    ResidualTracker.report = logged_report
    return probe


class Tracer:
    """Span sums per name; ``stats[name] = [calls, self_s, total_s]``."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.stack: list[float] = []  # child time accumulated per open span
        self.root_s = 0.0  # summed duration of outermost spans
        self.caches: list = []
        self.memo_hits = 0

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += duration - children
                stat[2] += duration
                if stack:
                    stack[-1] += duration
                else:
                    self.root_s += duration

        return spanned

    def install(self) -> None:
        import importlib

        from qspread import moments, partitions, reports, suites

        for mod_name, fns in FUNCTIONS.items():
            mod = importlib.import_module(f"qspread.{mod_name}")
            for fn in fns:
                original = getattr(mod, fn)
                _rebind(original, self.wrap(f"{mod_name}.{fn}", original))
        for mod_name, classes in METHODS.items():
            mod = importlib.import_module(f"qspread.{mod_name}")
            for cls_name, meths in classes.items():
                cls = getattr(mod, cls_name)
                for meth in meths:
                    name = f"{mod_name}.{cls_name}.{meth}"
                    setattr(cls, meth, self.wrap(name, vars(cls)[meth]))

        # A FreeSequence.moment call that synthesizes nothing was a memo hit.
        synth = self.stats["moments.free_iid_moment"]
        moment = moments.FreeSequence.moment

        @functools.wraps(moment)
        def moment_with_hits(seq, word):
            before = synth[0]
            value = moment(seq, word)
            if synth[0] == before:
                self.memo_hits += 1
            return value

        moments.FreeSequence.moment = moment_with_hits

        reports.CheckReport.to_json = self.wrap(
            "reports.to_json", reports.CheckReport.to_json)

        program_sections = {s for s, _ in suites.SUITE_SECTIONS}
        if program_sections != set(SUITE_SECTIONS):
            raise RuntimeError(f"suite sections changed: {sorted(program_sections)}")
        run_section = suites.run_section
        section_spans = {s: self.wrap(f"suites.{s}", run_section) for s in SUITE_SECTIONS}

        @functools.wraps(run_section)
        def section_span(name, *args, **kwargs):
            return section_spans[name](name, *args, **kwargs)

        _rebind(run_section, section_span)

        init = partitions.MobiusCache.__init__

        @functools.wraps(init)
        def registered_init(cache, *args, **kwargs):
            init(cache, *args, **kwargs)
            self.caches.append(cache)

        partitions.MobiusCache.__init__ = registered_init
        self.caches.append(partitions.default_cache())

    def metrics(self, cases: int) -> dict[str, float]:
        """Per-layer values from the spans and the program's memo sizes."""
        from qspread import weingarten

        out: dict[str, float] = {}
        for span in span_names():
            calls, self_s, _ = self.stats.get(span, (0, 0.0, 0.0))
            out[f"{span}.calls"] = calls
            out[f"{span}.self_s"] = self_s
        caches = {id(c): c for c in self.caches}.values()
        mu_entries = sum(len(getattr(c, "_mu", ())) for c in caches)
        out["partitions.mu_entries"] = mu_entries
        out["partitions.below_sets"] = sum(len(getattr(c, "_below", ())) for c in caches)
        mobius_calls = out["partitions.MobiusCache.mobius.calls"]
        out["partitions.mobius_reuse"] = mobius_calls / mu_entries if mu_entries else 0.0
        moment_calls = out["moments.FreeSequence.moment.calls"]
        out["moments.memo_hit_ratio"] = (
            self.memo_hits / moment_calls if moment_calls else 0.0)
        out["weingarten.weight_memo_entries"] = len(getattr(weingarten, "_weight_memo", ()))
        out["weingarten.column_memo_entries"] = len(getattr(weingarten, "_column_memo", ()))
        out["reports.cases"] = cases
        out["reports.to_json.self_s"] = self.stats["reports.to_json"][1]
        for section in SUITE_SECTIONS:
            out[f"suites.{section}.s"] = self.stats[f"suites.{section}"][2]
        return out
