"""liarsim benchmark: closed loop, one client, one process.

    python3 perfbench/run.py --workload noisy-shots --seed 1 --seconds 38 --trace 0

Each op calls `liarsim.cli.main(argv)` in process and writes its report with
`--out` into a scratch directory; the next op starts only after the previous
one returned.  A run first times set-up in fresh interpreters, sets up
itself, then runs whole passes over the workload's fixed op list for
`--seconds` seconds.  Every op's outputs are checked; a fixed subset is
rerun each pass and must reproduce its bytes.

Times are reported at a fixed host speed.  The shared host this benchmark
was built on runs everything 1.3-1.5x slower in phases that outlast a run,
so before each op the benchmark times a fixed pure-Python reference loop,
and scales the op's latency by REF_LOOP_S over the median loop time of the
eleven ops around it.  An op's latency is then the median of its scaled
runs over the run's passes; the op percentiles are taken over those per-op
latencies and `wall_s` is their sum.  The unscaled figures are in the facts
line.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes and prints the per-layer metrics.  The last stdout line is the
result object; the line before it carries machine facts and sample counts,
which are also written to .perfbench/ with the spans of the last traced pass.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_PROBES = 5
# Scaled times are at the host speed where the reference loop takes
# REF_LOOP_S, a round figure for its median time between ops on the machine
# the numbers in README.md come from (2.9-4.4 ms there, by phase).
REF_LOOP_N = 40_000
REF_LOOP_S = 4.0e-3
REF_WINDOW = 5          # ops on each side whose loop times set an op's speed
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Seeds 1-11 were used while building this benchmark.  Seed CONFIRM_SEED is
# kept apart: use it only to confirm a claim made with other seeds.
CONFIRM_SEED = 7919


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads() -> None:
    """BLAS may use at most nproc threads; must run before NumPy loads."""
    cap = _nproc()
    for var in BLAS_ENV:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= cap:
            os.environ[var] = str(cap)


def _check_sources() -> None:
    if not (SRC / "liarsim" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no liarsim sources under {SRC}")


def _import_liarsim():
    """Import liarsim from this checkout's src/, never from elsewhere."""
    _check_sources()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import liarsim
    import liarsim.cli
    import_s = time.perf_counter() - start
    if Path(liarsim.__file__).resolve().parent != SRC / "liarsim":
        raise SystemExit(f"perfbench: imported liarsim from {liarsim.__file__}")
    return liarsim.cli, import_s


def time_ref_loop() -> float:
    """Seconds for a fixed pure-Python loop; measures the host's speed."""
    start = time.perf_counter()
    t = 0
    for i in range(REF_LOOP_N):
        t += i * i % 7
    return time.perf_counter() - start


def scaled_latencies(p: dict) -> list[float]:
    """One pass's latencies at the host speed where the loop takes REF_LOOP_S."""
    refs = p["ref_s"]
    return [latency * REF_LOOP_S
            / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, latency in enumerate(p["latencies"])]


class Runner:
    """Executes ops against liarsim's CLI and checks their outputs."""

    def __init__(self, cli):
        self.cli = cli
        self.first_digest: dict[str, str] = {}
        self.failures: list[str] = []

    def call(self, argv) -> int:
        try:
            return self.cli.main(argv)  # looked up per call so tracing can wrap it
        except SystemExit as exc:  # argparse usage errors
            return exc.code if isinstance(exc.code, int) else 1

    def run_op(self, op) -> tuple[float, float, bool]:
        """(latency_s, check_s, ok) for one op; the caller times the
        reference loop before it."""
        problem = None
        start = time.perf_counter()
        try:
            for argv in op.calls:
                rc = self.call(argv)
                if rc != 0:
                    problem = f"exit code {rc} from {' '.join(argv[:3])}"
                    break
        except Exception:
            problem = traceback.format_exc(limit=3)
        latency = time.perf_counter() - start
        if problem is None:
            try:
                raw = [path.read_bytes() for path in op.outputs]
                problem = op.check(raw)
                digest = hashlib.sha256(b"\0".join(raw)).hexdigest()
                first = self.first_digest.setdefault(op.key, digest)
                if problem is None and digest != first:
                    problem = "outputs differ from the first run's bytes"
            except Exception:
                problem = traceback.format_exc(limit=3)
        if problem is not None:
            self.failures.append(f"{op.shape} ({op.key}): {problem}")
        return latency, time.perf_counter() - start - latency, problem is None

    def warm(self, op) -> None:
        """Run an op once, unchecked; its checked runs come in the passes,
        which count any failure."""
        try:
            for argv in op.calls:
                self.call(argv)
        except Exception:
            pass

    def run_pass(self, ops) -> dict:
        """wall_s excludes the benchmark's own output checks and reference
        loops; ref_s[i] is the loop timed just before ops[i]."""
        latencies, refs, failed, check_s = [], [], 0, 0.0
        start = time.perf_counter()
        for op in ops:
            refs.append(time_ref_loop())
            latency, spent, ok = self.run_op(op)
            latencies.append(latency)
            check_s += spent
            failed += not ok
        wall = time.perf_counter() - start - check_s - sum(refs)
        return {"wall_s": wall, "latencies": latencies, "ref_s": refs, "failed": failed}


def _setup(workload: str, seed: int, work: Path):
    """Everything a user pays before the first timed op."""
    cli, import_s = _import_liarsim()
    ops = workloads.build(workload, seed, work)
    runner = Runner(cli)
    for op in workloads.warmup_ops(ops):
        runner.warm(op)
    return runner, ops, import_s


def _probe(workload: str, seed: int) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="probe-") as tmp:
        _, _, import_s = _setup(workload, seed, Path(tmp))
        print("ready", flush=True)
        ref_s = statistics.median(time_ref_loop() for _ in range(2 * REF_WINDOW + 1))
        print(json.dumps({"import_s": import_s, "ref_s": ref_s}), flush=True)
    return 0


def _time_setups(workload: str, seed: int) -> tuple[list[float], list[float], list[float]]:
    """Set up SETUP_PROBES times, each in a fresh interpreter; the time runs
    from spawning the interpreter to the line it prints when ready.  Returns
    the set-up times, unscaled and scaled by the reference loop the probe
    times after set-up, and the probes' `import liarsim` times."""
    raw, scaled, imports = [], [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe-setup"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            ready_line = proc.stdout.readline()
            ready = time.perf_counter() - start
            line = proc.stdout.readline()
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or not ready_line.strip() or not line.strip():
            raise SystemExit(f"perfbench: set-up probe exited with {proc.returncode}")
        probe = json.loads(line)
        raw.append(ready)
        scaled.append(ready * REF_LOOP_S / probe["ref_s"])
        imports.append(probe["import_s"])
    return raw, scaled, imports


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _to_bytes(size: str) -> int:
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    return int(size[:-1]) * units[size[-1]] if size and size[-1] in units else int(size or 0)


def machine_facts() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_sizes()
    l3 = _to_bytes(caches.get("L3", "0"))
    state20 = (1 << 20) * 16  # complex128 amplitudes
    return {
        "nproc": _nproc(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "caches_per_cpu0": caches,
        "note": (f"a 20-qubit state ({state20 >> 20} MiB) "
                 f"{'fits in' if state20 <= l3 else 'exceeds'} the "
                 f"{caches.get('L3', '?')} L3, and the 4x-LLC rule would need "
                 f"25 or more qubits, beyond MAX_QUBITS = 24; *_gbps_computed is "
                 f"computed bytes over time, not measured DRAM bandwidth"),
    }


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_latencies(passes: list[dict], scaled: bool = True) -> list[float]:
    """Each op's median latency over the passes, in op-list order."""
    runs = [scaled_latencies(p) if scaled else p["latencies"] for p in passes]
    return [statistics.median(op_runs) for op_runs in zip(*runs)]


def _measure(runner: Runner, ops, seconds: float, trace: bool):
    """Whole passes for `seconds`: a round starts only if one as long as the
    last would end in time, and there is always one.  With tracing, each
    round is an untraced pass then a traced one; returns (plain, traced,
    layer metrics per traced pass, spans of the last traced pass)."""
    tracer = tracing.Tracer() if trace else None
    plain, traced, layers, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(runner.run_pass(ops))
        if tracer is not None:
            tracer.install()
            try:
                traced.append(runner.run_pass(ops))
            finally:
                tracer.uninstall()
            spans = tracer.take()
            layers.append(tracing.layer_metrics(spans))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return plain, traced, layers, spans


def _run(args) -> int:
    _check_sources()
    _limit_blas_threads()
    raw_setup, setup_times, import_times = _time_setups(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix="run-"))
    try:
        runner, ops, _ = _setup(args.workload, args.seed, tmp)
        plain, traced, layers, spans = _measure(runner, ops, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = len(ops) * (len(plain) + len(traced))
    failed = sum(p["failed"] for p in plain + traced)
    latencies = op_latencies(plain)
    wall = sum(latencies)
    raw_latencies = op_latencies(plain, scaled=False)
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall, "s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_p90_ms": (_percentile(latencies, 90) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "op_success_rate": (1.0 - failed / attempted, "ratio"),
        }
    else:
        units = _layer_units()
        metrics = {name: (statistics.median(p[name] for p in layers), units[name])
                   for name in layers[0]}
        metrics["setup.import_s"] = (statistics.median(import_times), "s")
        metrics["trace_overhead_frac"] = (sum(op_latencies(traced)) / wall - 1.0, "ratio")

    by_shape: dict[str, list[float]] = {}
    for op, latency in zip(ops, latencies):
        by_shape.setdefault(op.shape, []).append(latency * 1e3)
    facts = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(plain), "traced_passes": len(traced), "ops_per_pass": len(ops),
        "latency_samples": len(latencies), "runs_per_sample": len(plain),
        "pass_wall_s": [p["wall_s"] for p in plain],
        "pass_ref_loop_s": [statistics.median(p["ref_s"]) for p in plain],
        "unscaled": {"wall_s": sum(raw_latencies),
                     "op_p50_ms": statistics.median(raw_latencies) * 1e3,
                     "op_p90_ms": _percentile(raw_latencies, 90) * 1e3,
                     "setup_s": statistics.median(raw_setup)},
        "setup_samples_s": setup_times, "error_rate": failed / attempted,
        "shape_p50_ms": {k: statistics.median(v) for k, v in sorted(by_shape.items())},
        "failures": runner.failures[:20], "machine": machine_facts(),
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(facts, indent=2) + "\n")
    if args.trace:
        tracing.write_spans(spans, OUT_DIR / f"spans-{tag}.jsonl")
    for failure in runner.failures[:5]:
        print(f"perfbench: failed op {failure}", file=sys.stderr)
    print(json.dumps(facts))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        return _probe(args.workload, args.seed)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
