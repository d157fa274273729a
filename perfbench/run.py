"""kerneltri benchmark.

    python3 perfbench/run.py --workload {sweep,batch4,large} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/`. The
workload's inputs are generated from the seed, then rounds of operations run
closed-loop from this one process until `--seconds` have passed, finishing
the round in progress. Each output is compared as it finishes with the
first output for the same input, and those first outputs are rechecked
independently afterwards (see `Outcomes`).

Every time reported is rescaled to a fixed machine speed by a probe timed
before operations (see `Probe`); the raw wall-clock figures are recorded
beside them. `peak_rss_mb` is read as soon as the timed pass ends.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are end to end,
measured untraced. With `--trace 1` half the time runs untraced, the same
rounds then run again with a span around every call into a kerneltri
module, and the metrics are per layer, taken from those spans. The line
before it carries the environment, the tail percentile and its sample
count, `fail_ratio` and the measured input properties; the same record is
written to `perfbench/results/<workload>.json`, and the spans of a traced
run to `perfbench/results/<workload>.trace.jsonl`.
"""

import os

# Pin the BLAS pool before numpy loads it: one closed-loop client needs one
# thread, and the default (all cores) makes runs depend on the machine.
BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3
PROBE_EVERY_S = 0.02
# The probe's time on an unloaded vCPU of a 2-vCPU x86-64 VM (AVX-512,
# OpenBLAS 0.3.31, one BLAS thread): the speed every time is rescaled to.
PROBE_NOMINAL_S = 170e-6
TAIL_PERCENTILES = (99, 90)  # highest with at least TAIL_BEYOND samples above
TAIL_BEYOND = 10

SPAN_LAYERS = (
    "increasing.check", "increasing.radius", "cycles.digraph", "cycles.find_cycle",
    "cycles.moments", "triangular.scc", "triangular.verify", "triangular.nilpotent",
    "triangular.increasing", "spectral.eigenvalues", "spaces.chain",
    "operators.build", "jsonio.load", "jsonio.dump",
)
COUNTED_LAYERS = (
    "increasing.check", "cycles.find_cycle", "triangular.scc", "triangular.verify",
    "spectral.eigenvalues", "operators.build",
)


def import_package():
    """Import kerneltri from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import kerneltri

    if Path(kerneltri.__file__).resolve().parent.parent != src:
        raise ImportError(f"kerneltri imported from {kerneltri.__file__}, not {src}")


class Probe:
    """A fixed slice of small-matrix LAPACK and interpreter work, timed
    before an operation when PROBE_EVERY_S have passed since the last one.

    This machine's vCPUs switch between speeds up to 1.8x apart, several
    times a second and in a mix that drifts from minute to minute, and the
    probe slows by the same factor as the workload. Each operation's time is
    rescaled by the last probe taken before it, to what it would take at the
    probe's nominal speed, so runs made under different mixes compare. No
    operation is rescaled by a probe taken after it, which would also divide
    out a slowdown the operation itself leaves behind. Each probe runs one
    untimed slice first, so caches the previous operation left cold are
    not charged to the probe. The raw figures are recorded beside them.
    """

    def __init__(self):
        import numpy as np

        self._eigvals = np.linalg.eigvals
        self._matrix = np.random.default_rng(0).standard_normal((6, 6))
        self.times: list = []
        self._last = float("-inf")

    def _slice(self) -> None:
        x = 0.0
        self._eigvals(self._matrix)
        for j in range(60):  # interpreter work that allocates no GC-tracked object
            x = x * 0.5 + j

    def take(self) -> None:
        self._slice()
        t0 = perf_counter()
        for _ in range(8):
            self._slice()
        self._last = perf_counter()
        self.times.append(self._last - t0)

    def due(self) -> bool:
        return perf_counter() - self._last >= PROBE_EVERY_S

    def rescale(self, seconds: float, mark: int) -> float:
        """`seconds` measured after probe `mark`, at nominal speed."""
        return seconds * PROBE_NOMINAL_S / self.times[mark]


class Outcomes:
    """Every operation's output, checked as it finishes.

    Only the first output per distinct input is kept, with the number of
    operations that returned it. An exception, or an output that differs
    from the kept one, fails at once. At the end the workload rechecks the
    kept outputs, and a wrong one fails every operation that returned it.
    Memory grows with the number of distinct inputs, not of operations.
    """

    def __init__(self, wl):
        self.wl = wl
        self.kept: dict = {}  # key -> [input, output, operations that returned it]
        self.attempted = 0
        self.failed = 0

    def __call__(self, item, out) -> None:
        self.attempted += 1
        if isinstance(out, Exception):
            self.failed += 1
            return
        kept = self.kept.setdefault(self.wl.key(item), [item, out, 0])
        if kept[1] == out:
            kept[2] += 1
        else:
            self.failed += 1

    def finish(self) -> dict:
        """Recheck the kept outputs; return the measured input properties."""
        kept = list(self.kept.values())
        ok, props = self.wl.check([(item, out) for item, out, _ in kept])
        self.failed += sum(n for (_, _, n), good in zip(kept, ok) if not good)
        return props


@dataclass
class Pass:
    raw: array  # wall-clock seconds per operation
    scaled: array  # the same, rescaled to the probe's nominal speed
    rounds: int
    probes: int

    @property
    def speed(self) -> float:
        return sum(self.scaled) / sum(self.raw)


_IMPORT_CHILD = """
import sys, time
t0 = time.perf_counter()
import numpy, scipy
sys.path.insert(0, {src!r})
import kerneltri
seconds = time.perf_counter() - t0
sys.path.insert(0, {here!r})
import run
probe = run.Probe()
for _ in range(5):
    probe.take()
print(seconds, sorted(probe.times)[2])
"""


def import_seconds() -> float:
    """Import time of numpy, scipy and kerneltri in a fresh interpreter,
    rescaled by the median of five probes taken there."""
    code = _IMPORT_CHILD.format(src=str(ROOT / "src"), here=str(HERE))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
    )
    seconds, probe = map(float, out.stdout.split())
    return seconds * PROBE_NOMINAL_S / probe


def run_rounds(wl, call, sinks, seconds=None, rounds=None, tracer=None) -> Pass:
    """Closed loop: whole rounds until `seconds` pass or `rounds` are done.
    Each (input, output or exception) goes to every sink as it finishes."""
    raw, marks = array("d"), array("q")
    probe = Probe()
    start = perf_counter()
    k = 0
    while True:
        for item in wl.round(k):
            if probe.due():
                probe.take()
            marks.append(len(probe.times) - 1)
            t0 = perf_counter()
            if tracer is not None:
                tracer.start_op(len(raw))
            try:
                out = wl.run_op(item, call)
            except Exception as exc:  # counted as a failed operation
                out = exc
            if tracer is not None:
                tracer.end_op()
            raw.append(perf_counter() - t0)
            for sink in sinks:
                sink(item, out)
        k += 1
        if rounds is not None and k >= rounds:
            break
        if seconds is not None and perf_counter() - start >= seconds:
            break
    scaled = array("d", (probe.rescale(t, m) for t, m in zip(raw, marks)))
    return Pass(raw, scaled, k, len(probe.times))


def tail(latencies):
    """Highest percentile in TAIL_PERCENTILES with at least TAIL_BEYOND
    samples strictly above it (nearest rank). Falls back to the maximum."""
    s = sorted(latencies)
    n = len(s)
    for q in TAIL_PERCENTILES:
        v = s[max(0, -(-q * n // 100) - 1)]
        beyond = n - bisect_right(s, v)
        if beyond >= TAIL_BEYOND:
            return q, v, beyond
    return 100, s[-1], 0


def environment(np, scipy):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
    }


class OutputSums:
    """Running sums over the traced pass's outputs, for the per-layer
    counts and means."""

    def __init__(self):
        self.sums: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)

    def _add(self, name: str, value) -> None:
        self.sums[name] += value
        self.counts[name] += 1

    def __call__(self, item, out) -> None:
        if isinstance(out, Exception):
            return
        if "check" in out:
            verdict, pairs, exhaustive, _ = out["check"]
            self._add("pairs", pairs)
            self._add("exhaustive", exhaustive)
            if not verdict:
                self._add("witness_pairs", pairs)
        if "arcs" in out:
            self._add("arcs", out["arcs"])
            self._add("found", out["cycle"] is not None)
        if "blocks" in out:
            self._add("blocks", len(out["blocks"]))
        if "text" in out:
            self._add("bytes", len(out["text"]))

    def mean(self, name: str) -> float:
        return self.sums[name] / self.counts[name] if self.counts[name] else 0.0


def layer_metrics(tracer, sums, speed, overhead):
    """Per-layer metrics from the spans and outputs of the traced pass;
    busy times are rescaled by the pass's probe speed."""
    busy, calls = tracer.layer_times()
    busy = {name: t * speed for name, t in busy.items()}
    m = {f"{n}.busy_s": (busy.get(n, 0.0), "s") for n in SPAN_LAYERS}
    m.update({f"{n}.calls": (calls.get(n, 0), "count") for n in COUNTED_LAYERS})
    pairs = int(sums.sums["pairs"])
    check_s = busy.get("increasing.check", 0.0)
    m.update({
        "increasing.pairs_checked": (pairs, "count"),
        "increasing.pairs_per_s": (pairs / check_s if check_s else 0.0, "1/s"),
        "increasing.exhaustive_share": (sums.mean("exhaustive"), "ratio"),
        "increasing.witness_pairs": (sums.mean("witness_pairs"), "count/call"),
        "cycles.digraph.arcs": (sums.mean("arcs"), "count/call"),
        "cycles.found_share": (sums.mean("found"), "ratio"),
        "triangular.blocks": (sums.mean("blocks"), "count/call"),
        "jsonio.dump.bytes": (sums.mean("bytes"), "count/call"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "batch4", "large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    t0 = perf_counter()
    try:
        import numpy as np
        import scipy

        import_package()
    except ImportError as exc:
        print(f"error: cannot import kerneltri: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    from tracing import Tracer, plain_call
    from workloads import WORKLOADS

    # set-up: import in a fresh interpreter, generate the seeded inputs and
    # warm every code path, each several times; setup_s is the sum of the
    # two rescaled medians
    imports = [import_seconds() for _ in range(SETUP_REPEATS)]
    probe = Probe()
    raw_repeats, repeats = [], []
    for _ in range(SETUP_REPEATS):
        probe.take()
        t0 = perf_counter()
        wl = WORKLOADS[args.workload](args.seed)
        wl.warmup(plain_call)
        raw_repeats.append(perf_counter() - t0)
        repeats.append(probe.rescale(raw_repeats[-1], len(probe.times) - 1))
    setup_s = statistics.median(imports) + statistics.median(repeats)

    outcomes = Outcomes(wl)
    if args.trace:
        plain = run_rounds(wl, plain_call, [outcomes], seconds=args.seconds / 2)
        tracer, sums = Tracer(), OutputSums()
        traced = run_rounds(wl, tracer, [outcomes, sums], rounds=plain.rounds, tracer=tracer)
        overhead = sum(traced.scaled) / sum(plain.scaled)
        metrics = layer_metrics(tracer, sums, traced.speed, overhead)
        passes = [plain, traced]
    else:
        passes = [run_rounds(wl, plain_call, [outcomes], seconds=args.seconds)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = [t for p in passes for t in p.raw]
    scaled = [t for p in passes for t in p.scaled]
    q, tail_s, beyond = tail(scaled)
    if not args.trace:
        metrics = {
            "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
            "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
            "op_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "setup_s": (setup_s, "s"),
        }
    props = outcomes.finish()
    failed = outcomes.failed
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(np, scipy),
        "rounds": sum(p.rounds for p in passes),
        "tail": {"percentile": q, "beyond": beyond, "samples": len(scaled)},
        "speed": {"factor": sum(scaled) / sum(raw), "probes": sum(p.probes for p in passes)},
        "raw": {
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": statistics.median(raw) * 1e3,
            "op_tail_ms": tail(raw)[1] * 1e3,
            "import_s": import_s,
            "setup_repeats_s": raw_repeats,
        },
        "fail_ratio": {"value": failed / outcomes.attempted, "unit": "ratio"},
        "properties": props,
    }
    result = {
        "correct": failed == 0,
        "attempted": outcomes.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}.json", "w") as fh:
        json.dump(dict(info, result=result), fh, indent=1)
    if args.trace:
        tracer.write(RESULTS / f"{args.workload}.trace.jsonl",
                     {"workload": args.workload, "seed": args.seed})
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
