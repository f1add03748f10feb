"""Span tracing from outside liarsim, for the benchmark's traced run.

`Tracer.install()` replaces the public functions named in TARGETS, and every
other module-level name bound to the same function object (for example
`hardware_model.apply_gate`, which is `statevec.apply_gate` imported), with a
wrapper that records a span: name, start, end, parent span and a few counts.
Spans stay in memory; `uninstall()` puts the original functions back.  The
program itself is not modified.

`layer_metrics()` turns one pass's spans into the per-layer metrics listed in
BENCHMARK.json.  Self time is a span's duration minus its direct children's.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from time import perf_counter_ns

MODULES = ("circuit", "statevec", "dist", "logic_ops", "metrics",
           "hardware_model", "cli")

# (module, function) pairs; spans are named "<module>.<function>".
TARGETS = (
    ("statevec", "apply_gate"), ("statevec", "apply_pauli"),
    ("statevec", "basis_state"), ("statevec", "init_zero"),
    ("statevec", "run_circuit"), ("statevec", "probabilities"),
    ("statevec", "sample_counts"),
    ("hardware_model", "noisy_sample"), ("hardware_model", "routing_estimate"),
    ("logic_ops", "taylor_exponential"), ("logic_ops", "contradiction_projector"),
    ("logic_ops", "global_consistency_projector"), ("logic_ops", "logic_hamiltonian"),
    ("logic_ops", "verification_suite"), ("logic_ops", "fixed_point_report"),
    ("logic_ops", "truth_table"),
    ("metrics", "full_report"), ("metrics", "chi_squared_gof"),
    ("dist", "read_distribution_csv"), ("dist", "write_counts_csv"),
    ("circuit", "load_circuit"), ("circuit", "build_general"),
    ("circuit", "gate_census"),
    ("cli", "main"), ("cli", "canonical_json"),
)
# (module, class, method) patched on the class, so every user sees them.
METHOD_TARGETS = (
    ("dist", "Distribution", "__init__"),
    ("metrics", "MetricsConfig", "resolve"),
    ("hardware_model", "CouplingGraph", "distance"),
)
# Bindings that get their own span name.  noisy_sample calls its module's
# init_zero once per faulty shot, so counting that binding counts faulty shots.
BINDING_NAMES = {("hardware_model", "init_zero"): "hardware_model.init_zero"}

LARGE_QUBITS = 16   # "large" gate kernels: states of 16 qubits or more
SMALL_QUBITS = 12   # "small": 12 qubits or fewer
GATE_KINDS = ("H", "X", "CNOT", "CCX", "P", "CP")
AMP_BYTES = 16      # complex128


def _gate_attr(args, kwargs, result):
    return (args[0].num_qubits, args[1].kind)


def _len_entries(args, kwargs, result):
    return len(result.entries)


def _init_entries(args, kwargs, result):
    return len(args[0].entries)


def _text_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _shots(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["shots"]


def _taylor_flops(args, kwargs, result):
    # terms - 1 dense complex matmuls of dimension d, 8 d**3 real flops each
    terms = args[1] if len(args) > 1 else kwargs.get("terms", 48)
    return 8 * (terms - 1) * args[0].shape[0] ** 3


ATTRS = {
    "statevec.apply_gate": _gate_attr,
    "statevec.probabilities": _len_entries,
    "dist.Distribution.__init__": _init_entries,
    "cli.canonical_json": _text_bytes,
    "hardware_model.noisy_sample": _shots,
    "logic_ops.taylor_exponential": _taylor_flops,
}


class Tracer:
    """Collects spans as (name, start_ns, end_ns, parent_index, attr)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, attr = self.spans, self._stack, ATTRS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if attr is not None:
                spans[idx] = (name, start, end, parent, attr(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"liarsim.{m}") for m in MODULES}
        mods["liarsim"] = importlib.import_module("liarsim")
        for home, attr in TARGETS:
            original = getattr(mods[home], attr)
            for mod_name, mod in mods.items():
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        name = BINDING_NAMES.get((mod_name, bound), f"{home}.{attr}")
                        self._restore.append((mod, bound, value))
                        setattr(mod, bound, self._wrap(name, original))
        for home, cls_name, method in METHOD_TARGETS:
            cls = getattr(mods[home], cls_name)
            original = cls.__dict__[method]
            self._restore.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{home}.{cls_name}.{method}", original))

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def write_spans(spans: list, path) -> None:
    """One JSON array per line: name, start_ns, end_ns, parent, attr."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer metrics for one pass: totals in seconds, counts, rates."""
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    total_ns = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    summed = defaultdict(int)
    large_ns = defaultdict(int)
    large_amps = defaultdict(int)
    small_ns = small_calls = 0
    for i, (name, start, end, parent, attr) in enumerate(spans):
        dur = end - start
        total_ns[name] += dur
        self_ns[name] += dur - child_ns[i]
        calls[name] += 1
        if attr is None:
            continue
        if name == "statevec.apply_gate":
            n, kind = attr
            if n >= LARGE_QUBITS:
                for key in ("all", kind):
                    large_ns[key] += dur
                    large_amps[key] += 1 << n
            elif n <= SMALL_QUBITS:
                small_ns += dur
                small_calls += 1
        else:
            summed[name] += attr

    def s(name):
        return total_ns[name] / 1e9

    def self_s(name):
        return self_ns[name] / 1e9

    def ns_per_amp(key):
        return large_ns[key] / large_amps[key] if large_amps[key] else 0.0

    shots = summed["hardware_model.noisy_sample"]
    faulty = calls["hardware_model.init_zero"]
    out = {"statevec.apply_gate.large_ns_per_amp": ns_per_amp("all")}
    for kind in GATE_KINDS:
        out[f"statevec.apply_gate.{kind}.large_ns_per_amp"] = ns_per_amp(kind)
    out.update({
        # one read and one write of the state per gate
        "statevec.apply_gate.large_gbps_computed":
            2 * AMP_BYTES * large_amps["all"] / large_ns["all"] if large_ns["all"] else 0.0,
        "statevec.apply_gate.small_us_per_call":
            small_ns / small_calls / 1e3 if small_calls else 0.0,
        "statevec.apply_gate.calls": calls["statevec.apply_gate"],
        "statevec.apply_gate.self_s": self_s("statevec.apply_gate"),
        "statevec.run_circuit.s": s("statevec.run_circuit"),
        "statevec.probabilities.self_s": self_s("statevec.probabilities"),
        "statevec.probabilities.entries": summed["statevec.probabilities"],
        "statevec.sample_counts.s": s("statevec.sample_counts"),
        "dist.Distribution.init_s": s("dist.Distribution.__init__"),
        "dist.Distribution.entries": summed["dist.Distribution.__init__"],
        "cli.canonical_json.s": s("cli.canonical_json"),
        "cli.canonical_json.bytes": summed["cli.canonical_json"],
        "hardware_model.noisy_sample.self_s": self_s("hardware_model.noisy_sample"),
        "hardware_model.noisy_sample.us_per_shot":
            total_ns["hardware_model.noisy_sample"] / shots / 1e3 if shots else 0.0,
        "hardware_model.faulty_shots": faulty,
        "hardware_model.faulty_shot_frac": faulty / shots if shots else 0.0,
        "statevec.apply_pauli.calls": calls["statevec.apply_pauli"],
        "logic_ops.taylor_exponential.s": s("logic_ops.taylor_exponential"),
        "logic_ops.taylor_exponential.flops_computed": summed["logic_ops.taylor_exponential"],
        "logic_ops.projectors.s": sum(s(f"logic_ops.{fn}") for fn in (
            "contradiction_projector", "global_consistency_projector", "logic_hamiltonian")),
        "logic_ops.verification_suite.self_s": self_s("logic_ops.verification_suite"),
        "logic_ops.fixed_point_report.self_s": self_s("logic_ops.fixed_point_report"),
        "logic_ops.truth_table.self_s": self_s("logic_ops.truth_table"),
        "statevec.basis_state.calls": calls["statevec.basis_state"],
        "metrics.full_report.self_s": self_s("metrics.full_report"),
        "metrics.chi_squared_gof.s": s("metrics.chi_squared_gof"),
        "metrics.MetricsConfig.resolve.s": s("metrics.MetricsConfig.resolve"),
        "dist.read_distribution_csv.s": s("dist.read_distribution_csv"),
        "dist.write_counts_csv.s": s("dist.write_counts_csv"),
        "hardware_model.routing_estimate.s": s("hardware_model.routing_estimate"),
        "hardware_model.CouplingGraph.distance.calls": calls["hardware_model.CouplingGraph.distance"],
        "circuit.load_circuit.s": s("circuit.load_circuit"),
        "circuit.build_general.s": s("circuit.build_general"),
        "circuit.gate_census.s": s("circuit.gate_census"),
        "cli.main.self_s": self_s("cli.main"),
    })
    return out
