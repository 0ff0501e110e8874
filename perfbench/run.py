"""merminlab benchmark: seeded closed-loop workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload expansion --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics of one workload: set-up time,
verified checks per second, median and tail seconds per check, peak RSS and
the share of checks that passed their oracle.  ``--trace 1`` replays the
workload's first cycle of checks, each once plain and once with the wrappers
of ``tracing.py`` installed, and prints per-layer calls, self times and work
counts plus the tracing overhead.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; lines
before it start with ``#``.  DESIGN.md lists the workloads, their mixes and
which layer metric should move which end-to-end metric.

Files the run writes (settings inputs, spans, traced work counts) go under
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: eigvalsh at dim 1024 runs about 1.6x faster on two OpenBLAS threads than on
#: one; the count is fixed so runs compare, and never exceeds the CPUs available
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: fresh interpreters timed per run for setup_s, spread evenly over the
#: measured time so that host drift reaches them as it reaches the checks;
#: the median is reported
SETUP_SAMPLES = 7
_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1]); import merminlab.cli; "
    "print('ready', flush=True)"
)

WORKLOAD_NAMES = ("expansion", "spectra", "classical_opt")

_clock = time.perf_counter


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured wall time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def note(text: str) -> None:
    print(f"# {text}", flush=True)


def source_fingerprint() -> str:
    """Hash of the package and benchmark sources; traced counts compare only within one."""
    digest = hashlib.sha256(str(BLAS_THREADS).encode())
    files = sorted((SRC / "merminlab").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    for path in files:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def setup_seconds() -> float:
    """Seconds from starting a fresh interpreter until merminlab and its CLI are imported."""
    start = _clock()
    with subprocess.Popen(
        [sys.executable, "-c", _SETUP_CHILD, str(SRC)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    ) as child:
        line = child.stdout.readline()
        elapsed = _clock() - start
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up child exited {child.returncode} after {line!r}")
    return elapsed


# ---- running one check ----------------------------------------------------


class Tally:
    """Counts attempted and failed checks and reports each failure on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, kind, inp, call=None) -> float:
        """Run one check and verify it; returns its seconds, or inf if it failed.

        ``call`` wraps the timed operation (the traced run passes one that
        installs the wrappers); by default the check runs plain.
        """
        self.attempted += 1
        start = _clock()
        try:
            output = call(kind, inp) if call else kind.run(inp)
            seconds = _clock() - start
            error = kind.verify(inp, output)
        except Exception as exc:  # a check that raises is a failed check
            error = f"raised {type(exc).__name__}: {exc}"
        if error is None:
            return seconds
        self.failed += 1
        print(f"check {kind.name} failed: {error}", file=sys.stderr, flush=True)
        return math.inf


def warm_up(cycle, seed: int, inputs, tally: Tally) -> None:
    """One untimed check of each kind, on inputs outside the measured stream."""
    rng = random.Random(f"warm-up {seed}")
    seen = set()
    for kind in cycle:
        if kind.name not in seen:
            seen.add(kind.name)
            tally.run(kind, kind.make(rng, inputs))


# ---- end to end -----------------------------------------------------------


def tail(times: list[float], measured_s: float) -> tuple[float, int]:
    """(value, rank) of the highest percentile with ten samples beyond it.

    That is the eleventh-largest sample, at percentile 100 * rank / len(times).
    A failed check sorts above every passing one; if the tail lands on one,
    the whole measured time is reported.  With eleven or fewer samples the
    smallest is returned.
    """
    ordered = sorted(times)
    index = max(0, len(ordered) - 11)
    value = ordered[index]
    return (value if math.isfinite(value) else measured_s), index + 1


def end_to_end(workload: str, cycle, seed: int, seconds: float, inputs, tally: Tally) -> dict:
    warm_up(cycle, seed, inputs, tally)

    rng = random.Random(seed)
    times: list[float] = []
    by_kind: dict[str, list[float]] = {}
    setup: list[float] = []
    paused = 0.0  # wall time spent on set-up samples, not on checks
    start = _clock()
    while _clock() - start - paused < seconds:
        if _clock() - start - paused >= len(setup) * seconds / SETUP_SAMPLES:
            before = _clock()
            setup.append(setup_seconds())
            paused += _clock() - before
            continue
        kind = cycle[len(times) % len(cycle)]
        times.append(tally.run(kind, kind.make(rng, inputs)))
        by_kind.setdefault(kind.name, []).append(times[-1])
    measured = _clock() - start - paused
    setup.extend(setup_seconds() for _ in range(SETUP_SAMPLES - len(setup)))

    passed = [t for t in times if math.isfinite(t)]
    busy = sum(passed)
    p50 = statistics.median(times)
    tail_s, rank = tail(times, measured)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    note(
        f"{workload}: {len(times)} checks in {measured:.2f} s; check_s.tail is "
        f"p{100.0 * rank / len(times):.1f}, sample {rank} of {len(times)}, "
        f"{len(times) - rank} beyond"
    )
    note(
        "median s per kind: "
        + ", ".join(f"{k} {statistics.median(v):.4f} (x{len(v)})" for k, v in by_kind.items())
    )
    return {
        "setup_s": (statistics.median(setup), "s"),
        "checks_per_s": (len(passed) / busy if busy else 0.0, "1/s"),
        "check_s.p50": (p50 if math.isfinite(p50) else measured, "s"),
        "check_s.tail": (tail_s, "s"),
        "peak_rss_mb": (rss_mib, "MiB"),
        "pass_ratio": (len(passed) / len(times), "ratio"),
    }


# ---- per layer ------------------------------------------------------------


def _layer_metrics(totals: dict, self_s: dict[str, float]) -> dict:
    metrics = {}
    for layer, values in totals.items():
        if layer == "optimize.optimize_angles":
            restarts = values["restarts"]
            metrics["optimize.iterations"] = (values["iterations"], "count")
            metrics["optimize.restarts_at_ceiling_ratio"] = (
                values["restarts_at_ceiling"] / restarts if restarts else 0.0,
                "ratio",
            )
            counts = ()
        else:
            counts = [k for k in values if k not in ("calls", "self_s")]
        metrics[f"{layer}.calls"] = (values["calls"], "count")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
        for key in counts:
            metrics[f"{layer}.{key}"] = (values[key], "bytes" if key.startswith("bytes") else "count")
        if layer == "pauli.multiply":
            pairs = values["pairs"]
            metrics["pauli.multiply.out_per_pair"] = (
                values["terms_out"] / pairs if pairs else 0.0,
                "ratio",
            )
    return metrics


def per_layer(workload: str, cycle, seed: int, seconds: float, inputs, tally: Tally) -> tuple[dict, bool]:
    """Replay the first cycle plain and traced, as many whole times as fit in ``seconds``.

    Work counts come from one cycle and must repeat exactly on every replay
    and across runs with the same seed and sources; self times are medians
    over the replays.  Returns the metrics and whether the counts repeated.
    """
    import tracing  # like workloads, importable once main() has put src/ on the path

    warm_up(cycle, seed, inputs, tally)
    rng = random.Random(seed)
    checks = [(kind, kind.make(rng, inputs)) for kind in cycle]

    rec = tracing.Recorder()
    tracer = tracing.Tracer(rec)

    def traced(kind, inp):
        with tracer:
            root = rec.enter(f"check.{kind.name}")
            try:
                return kind.run(inp)
            finally:
                rec.leave(root)

    plain_times: list[float] = []
    traced_times: list[float] = []
    self_s: dict[str, list[float]] = {layer: [] for layer in tracing.LAYERS}
    first_counts = first_spans = first_totals = None
    repeated = True
    replays = 0
    replay_s = 0.0
    start = _clock()
    while replays == 0 or _clock() - start + replay_s <= seconds:
        began = _clock()
        for i, (kind, inp) in enumerate(checks):
            # alternate which run goes first, so neither always follows the other
            if (i + replays) % 2:
                traced_times.append(tally.run(kind, inp, traced))
                plain_times.append(tally.run(kind, inp))
            else:
                plain_times.append(tally.run(kind, inp))
                traced_times.append(tally.run(kind, inp, traced))
        replays += 1
        replay_s = _clock() - began
        spans = rec.take()
        totals = tracing.layer_totals(spans)
        counts = tracing.work_counts(totals)
        if first_counts is None:
            first_counts, first_spans, first_totals = counts, spans, totals
        elif counts != first_counts:
            repeated = False
            print("traced work counts changed between replays of one cycle", file=sys.stderr)
        for layer, values in totals.items():
            self_s[layer].append(values["self_s"])

    record = OUT / f"trace-counts-{workload}-{seed}.json"
    fingerprint = source_fingerprint()
    if record.is_file():
        previous = json.loads(record.read_text(encoding="utf-8"))
        if previous["fingerprint"] == fingerprint and previous["counts"] != first_counts:
            repeated = False
            print(f"traced work counts differ from the earlier run in {record.name}", file=sys.stderr)
    record.write_text(
        json.dumps({"fingerprint": fingerprint, "counts": first_counts}, indent=1), encoding="utf-8"
    )
    spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
    tracing.write_spans(first_spans, spans_path)

    metrics = _layer_metrics(first_totals, {k: statistics.median(v) for k, v in self_s.items()})
    pairs = [(t, p) for t, p in zip(traced_times, plain_times) if math.isfinite(t + p)]
    metrics["trace.overhead_s"] = (
        statistics.median(t for t, _ in pairs) - statistics.median(p for _, p in pairs)
        if pairs
        else 0.0,
        "s",
    )
    metrics["trace.spans"] = (len(first_spans), "count")
    note(
        f"{workload}: {replays} traced replays of {len(checks)} checks; "
        f"{len(first_spans)} spans per replay written to {spans_path.relative_to(ROOT)}"
    )
    return metrics, repeated


# ---- entry point ----------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "merminlab" / "__init__.py").is_file():
        print(f"error: merminlab sources not found under {SRC}", file=sys.stderr)
        return 2
    # BLAS reads its thread count once, when numpy is first imported
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(1, str(SRC))
    import merminlab

    if Path(merminlab.__file__).resolve().parent != SRC / "merminlab":
        print(f"error: imported merminlab from {merminlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    cycle = workloads.WORKLOADS[args.workload]
    note(
        f"workload {args.workload}: closed loop, 1 client, BLAS threads {BLAS_THREADS}, "
        f"cycle {dict(Counter(kind.name for kind in cycle))}"
    )
    OUT.mkdir(exist_ok=True)
    inputs_dir = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}"
    inputs_dir.mkdir()
    tally = Tally()
    try:
        inputs = workloads.InputDir(inputs_dir)
        if args.trace:
            metrics, repeated = per_layer(args.workload, cycle, args.seed, args.seconds, inputs, tally)
        else:
            metrics, repeated = end_to_end(args.workload, cycle, args.seed, args.seconds, inputs, tally), True
    finally:
        shutil.rmtree(inputs_dir, ignore_errors=True)

    result = {
        "correct": tally.failed == 0 and repeated,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
