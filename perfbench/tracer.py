"""Per-layer tracing of gradflow from outside the package.

`Tracer.install()` replaces public gradflow functions and methods with
wrappers that record spans (name, start, end, parent, run id) or bare call
counts.  A module that did `from .x import f` holds its own reference to
`f`, so each wrapper is installed at every binding of the original in every
loaded gradflow module; methods are replaced on their class.  Nothing under
`src/gradflow` is edited, and `Tracer.uninstall()` restores every binding.

Layer metrics are computed from the spans of one run:
- `<layer>.<what>_s` is the inclusive time of the named spans, with spans
  nested inside a span of the same group counted once;
- `*.self_s` is span time minus the time of its direct child spans;
- counts are calls, from spans or from count-only wrappers (used where a
  function is called too often for a span each).
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass

# (module, attribute) -> span name.  The attribute is a function, or
# "Class.method" for a method replaced on its class.
SPANS = {
    ("gradflow.cli", "main"): "cli.main",
    ("gradflow.mesh", "build_interval_mesh"): "mesh.build",
    ("gradflow.mesh", "build_cartesian_mesh"): "mesh.build",
    ("gradflow.mesh", "build_voronoi_mesh"): "mesh.build",
    ("gradflow.mesh", "Mesh.size"): "mesh.size",
    ("gradflow.reference", "cell_integrals"): "reference.cell_integrals",
    ("gradflow.reference", "discretize_reference"): "reference.discretize_reference",
    ("gradflow.reference", "face_weights"): "reference.face_weights",
    ("gradflow.reference", "project_measure"): "reference.project_measure",
    ("gradflow.dynamics", "assemble_generator"): "dynamics.assemble_generator",
    ("gradflow.dynamics", "solve_trajectory"): "dynamics.solve_trajectory",
    ("gradflow.dynamics", "step_implicit_euler"): "dynamics.step",
    ("gradflow.dynamics", "step_crank_nicolson"): "dynamics.step",
    ("gradflow.dynamics", "Generator.symmetric_eig"): "dynamics.symmetric_eig",
    ("gradflow.dynamics", "Trajectory.export_csv"): "dynamics.export_csv",
    ("gradflow.dual_action", "dual_action"): "dual_action.dual_action",
    ("gradflow.dual_action", "assemble_onsager"): "dual_action.assemble_onsager",
    ("gradflow.functionals", "fisher"): "functionals.fisher",
    ("gradflow.functionals", "entropy"): "functionals.entropy",
    ("gradflow.diagnostics", "condition_report"): "diagnostics.condition_report",
    ("gradflow.diagnostics", "path_constants"): "diagnostics.path_constants",
    ("gradflow.diagnostics", "l2_holder_modulus"): "diagnostics.l2_holder_modulus",
    ("gradflow.experiments", "MeshFamily.build"): "experiments.study",
    ("gradflow.experiments", "edi_audit"): "experiments.study",
    ("gradflow.experiments", "evolutionary_convergence_study"): "experiments.study",
    ("gradflow.experiments", "gamma_energy_study"): "experiments.study",
    ("gradflow.experiments", "gamma_affine_minimization_study"): "experiments.study",
    ("gradflow.experiments", "wasserstein_1d"): "experiments.wasserstein_1d",
}

# (module, attribute) -> counter name, for functions called per point or per
# pair, where a span each would cost more than the call.
COUNTS = {
    ("gradflow.geometry", "clip_halfplane"): "geometry.clip_halfplane",
    ("gradflow.reference", "Potential.__call__"): "reference.potential",
    ("gradflow.diagnostics", "good_path"): "diagnostics.good_path",
}

# metric -> (kind, span or counter names).  kind: "incl" (inclusive time),
# "self" (self time), "spans" (span count), "count" (counter).
METRICS = {
    "mesh.build_s": ("incl", ["mesh.build"]),
    "mesh.builds": ("spans", ["mesh.build"]),
    "geometry.clip_calls": ("count", ["geometry.clip_halfplane"]),
    "mesh.size_calls": ("spans", ["mesh.size"]),
    "mesh.size_s": ("incl", ["mesh.size"]),
    "reference.quad_s": ("incl", ["reference.cell_integrals"]),
    "reference.quad_passes": ("spans", ["reference.cell_integrals"]),
    "reference.potential_calls": ("count", ["reference.potential"]),
    "reference.pi_s": ("incl", ["reference.discretize_reference"]),
    "reference.weights_s": ("incl", ["reference.face_weights"]),
    "reference.project_s": ("incl", ["reference.project_measure"]),
    "dynamics.solve_s": ("incl", ["dynamics.solve_trajectory"]),
    "dynamics.step_s": ("incl", ["dynamics.step"]),
    "dynamics.steps": ("spans", ["dynamics.step"]),
    "dynamics.assemble_s": ("incl", ["dynamics.assemble_generator"]),
    "dynamics.eig_s": ("incl", ["dynamics.symmetric_eig"]),
    "dynamics.eig_calls": ("spans", ["dynamics.symmetric_eig"]),
    "dynamics.export_s": ("incl", ["dynamics.export_csv"]),
    "dual_action.solve_s": ("incl", ["dual_action.dual_action"]),
    "dual_action.calls": ("spans", ["dual_action.dual_action"]),
    "dual_action.assemble_s": ("incl", ["dual_action.assemble_onsager"]),
    "functionals.fisher_s": ("incl", ["functionals.fisher"]),
    "functionals.entropy_s": ("incl", ["functionals.entropy"]),
    "diagnostics.path_s": ("incl", ["diagnostics.path_constants"]),
    "diagnostics.good_path_calls": ("count", ["diagnostics.good_path"]),
    "diagnostics.condition_s": ("incl", ["diagnostics.condition_report"]),
    "diagnostics.holder_s": ("incl", ["diagnostics.l2_holder_modulus"]),
    "experiments.self_s": ("self", ["experiments.study",
                                    "experiments.wasserstein_1d"]),
    "experiments.w2_s": ("incl", ["experiments.wasserstein_1d"]),
    "experiments.w2_calls": ("spans", ["experiments.wasserstein_1d"]),
    "cli.self_s": ("self", ["cli.main"]),
    "cli.bytes_out": ("count", ["cli.bytes_out"]),
}


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int        # index of the enclosing span in the same list, or -1
    run: int


class Tracer:
    """Spans and counters of the traced calls, kept in memory."""

    def __init__(self):
        self.spans: list[Span | None] = []  # None while a span is open
        self.counts: Counter = Counter()
        self.run = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def start_run(self, run: int) -> None:
        """Begin a new run id and drop the spans and counts of the last one."""
        self.run = run
        self.spans = []
        self.counts = Counter()

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.run)
        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function at every binding in loaded gradflow modules."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "gradflow" or key.startswith("gradflow.")]
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTS, self._count_wrapper)):
            for (module_name, attr), name in table.items():
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    self._rebind(cls, method, original, make(name, original))
                    continue
                original = getattr(owner, attr)
                wrapped = make(name, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, original, wrapped)

    def _rebind(self, owner, key: str, original, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def layer_metrics(self) -> dict[str, float]:
        """The METRICS of the current run, from its spans and counters."""
        spans = self.spans
        children = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                children[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for metric, (kind, names) in METRICS.items():
            if kind == "count":
                out[metric] = sum(self.counts[n] for n in names)
            elif kind == "spans":
                out[metric] = sum(1 for s in spans if s.name in names)
            elif kind == "self":
                out[metric] = sum(s.end - s.start - children[i]
                                  for i, s in enumerate(spans)
                                  if s.name in names)
            else:
                out[metric] = sum(s.end - s.start for s in spans
                                  if s.name in names
                                  and not self._inside(s, names))
        return out

    def _inside(self, span: Span, names: list[str]) -> bool:
        parent = span.parent
        while parent >= 0:
            outer = self.spans[parent]
            if outer.name in names:
                return True
            parent = outer.parent
        return False

    def dump(self) -> list[dict]:
        """The spans of the current run as plain records, for writing out."""
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run": s.run} for s in self.spans]
