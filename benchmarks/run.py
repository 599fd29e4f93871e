"""redint benchmark: closed-loop verification passes, end to end or traced.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; redint is imported from ``src/``.

``--trace 0`` measures end to end, with no wrappers installed: sequential
passes of the workload for about ``--seconds`` seconds, with a set-up probe in
a fresh interpreter before each pass and after the last. ``--trace 1`` runs an
untraced, a traced and another untraced pass, and reports per-layer metrics
(see ``tracer.py``) and the tracing overhead.

Timings are minima, because throughput on the machine it was built on
switches between two levels for seconds to minutes (README.md): ``wall_s`` is
the sum over a pass's operations of each one's fastest time over the run's
passes, ``op_max_s`` the largest of those, and ``setup_s`` the fastest probe.

Every operation's output is checked (``workloads.py``), and reruns of the
same input must give identical outputs. The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give the machine and build, the timing samples, and
``failed_ratio``. A full record, and the spans of a traced run,
are written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# End-to-end metrics and their units, as BENCHMARK.json lists them.
END_TO_END = {"wall_s": "s", "setup_s": "s", "op_max_s": "s", "peak_rss_mb": "MB"}

SETUP_TIMEOUT_S = 60


def _import_redint():
    """Import redint from this checkout's ``src/``; exit 2 if it is not there."""
    if not (SRC / "redint" / "__init__.py").is_file():
        print(f"benchmark: no redint sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import redint

    if Path(redint.__file__).resolve().parent != SRC / "redint":
        print(f"benchmark: imported redint from {redint.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def _git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """Digest of redint's sources; identifies the build where ``.git`` is absent."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "redint").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_info() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "redint_commit": _git_commit(),
        "redint_sources_sha256": _source_digest(),
    }


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter on this script to the end of
    the workload's set-up: imports, inputs, warm caches."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=SETUP_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
    return elapsed


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, message: str, count: int = 1):
        self.failed += count
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, ops, reference=None):
        """Count ``ops``; compare their outputs with ``reference`` when given."""
        self.attempted += len(ops)
        for i, op in enumerate(ops):
            if op.error is not None:
                self.fail(f"{op.label}: {op.error}")
            elif reference is not None and (i >= len(reference) or op.output != reference[i].output):
                self.fail(f"{op.label}: output differs from the first run of the same input")


def run_pass(workload, state, tally: Tally, reference=None):
    """One timed pass; returns ``(seconds, ops)``, or ``(seconds, None)`` if it raised."""
    start = time.perf_counter()
    try:
        finish = workload.run_pass(state)
    except Exception as exc:  # the pass is lost; every operation in it counts as failed
        seconds = time.perf_counter() - start
        tally.attempted += workload.ops_per_pass
        tally.fail(f"pass raised {type(exc).__name__}: {exc}", workload.ops_per_pass)
        return seconds, None
    seconds = time.perf_counter() - start
    ops = finish()
    tally.check(ops, reference)
    return seconds, ops


def summary(values):
    return {
        "n": len(values),
        "min": min(values),
        "median": statistics.median(values),
        "max": max(values),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed: int, seconds: float, tally: Tally):
    state = workload.setup(seed)
    start = time.perf_counter()
    setup, walls, passes, reference = [], [], [], None
    while True:
        setup.append(measure_setup(workload.name, seed))
        wall, ops = run_pass(workload, state, tally, reference)
        walls.append(wall)
        if ops is not None:
            reference = reference or ops
            passes.append([op.seconds for op in ops])
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(walls) > seconds:
            break
    setup.append(measure_setup(workload.name, seed))
    # fastest time of each operation over the passes; a pass that raised has none
    fastest = [min(times) for times in zip(*passes)] or [min(walls)]
    values = {
        "wall_s": sum(fastest),
        "setup_s": min(setup),
        "op_max_s": max(fastest),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    samples = {
        "wall_s": summary(walls),
        "setup_s": summary(setup),
        "op_max_s": summary([max(times) for times in passes] or walls),
    }
    return metrics, samples


def run_traced(workload, seed: int, tally: Tally):
    from redint.harness import CHECKS
    from tracer import Tracer

    state = workload.setup(seed)
    # untraced passes on both sides of the traced one; the first pass of a
    # process also pays first-call costs, so the overhead uses the faster one
    first, reference = run_pass(workload, state, tally)
    with Tracer() as tracer:
        traced, _ = run_pass(workload, state, tally, reference)
    last, _ = run_pass(workload, state, tally, reference)
    untraced = min(first, last)
    layers = tracer.layer_metrics(CHECKS)
    layers["trace.overhead_s"] = traced - untraced
    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload.name}-seed{seed}.npz")
    metrics = {
        name: (value, "s" if name.endswith("_s") or name.endswith(".s") else "count")
        for name, value in layers.items()
    }
    samples = {
        "untraced_wall_s": untraced,
        "traced_wall_s": traced,
        "self_s_total": float(tracer.self_times().sum()),
        "spans": len(tracer.starts),
    }
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")

    _import_redint()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.setup(args.seed)
        print("ready", flush=True)
        return 0

    tally = Tally()
    if args.trace:
        metrics, samples = run_traced(workload, args.seed, tally)
    else:
        metrics, samples = run_untraced(workload, args.seed, args.seconds, tally)
    machine = machine_info()
    failed_ratio = tally.failed / tally.attempted
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "samples": samples,
        "failed_ratio": failed_ratio,
        "failures": tally.messages,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    for message in tally.messages:
        print(f"FAILED {message}", file=sys.stderr)
    print("machine " + json.dumps(machine))
    print("samples " + json.dumps(samples))
    print(f"failed_ratio {failed_ratio} ({tally.failed}/{tally.attempted})")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
