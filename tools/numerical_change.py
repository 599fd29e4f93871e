"""Canonical outputs of the benchmark workloads, before and after a numerical change.

    python3 tools/numerical_change.py write OUT.json --seeds 1 97
    python3 tools/numerical_change.py compare PARENT.json CHANGE.json

``write`` runs one pass of every workload of this checkout's
``benchmarks/workloads.py`` per seed, with redint imported from this
checkout's ``src/``. It stores every report as JSON with ``wall_time_ms``
zeroed and, for each ``su2-trajectories`` start, the seven arrays of its
``reduced_dynamics_match`` with ``max_deviation``, ``energy_drift`` and
``domain_exit``.

``compare`` exits 1 if a key set, a verdict, an int, bool or string value, or
an ``expected`` entry differs between the two files. It prints each changed
float as old -> new with its ratio and, for an observed value, its margin to
its bound (how many times the bound clears it), and the largest |delta| of
each changed trajectory array.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ARRAYS = ("t", "q", "p", "q_oracle", "p_oracle", "energy", "deviation")


def write(out, seeds):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from redint import su2
    from workloads import TRAJECTORY_STEPS, TRAJECTORY_T, WORKLOADS

    record = {}
    for seed in seeds:
        for name, workload in WORKLOADS.items():
            state = workload.setup(seed)
            ops = workload.run_pass(state)()
            # trajectory outputs are digests; their arrays are stored below instead
            reports = {op.label: json.loads(op.output) for op in ops if op.output.startswith("{")}
            record[f"{name} seed={seed}"] = reports
        for i, c in enumerate(WORKLOADS["su2-trajectories"].setup(seed)[1]):
            comp = su2.reduced_dynamics_match(c, T=TRAJECTORY_T, steps=TRAJECTORY_STEPS)
            traj = {key: getattr(comp, key) for key in ("max_deviation", "energy_drift", "domain_exit")}
            traj["arrays"] = {key: getattr(comp, key).tolist() for key in ARRAYS}
            record[f"trajectory {i} seed={seed}"] = traj
    Path(out).write_text(json.dumps(record, indent=1, sort_keys=True))


def _margin(bound, new):
    if bound is None or bound["cmp"] == "eq" or new == 0.0:
        return "-"
    return f"{(bound['value'] / new if bound['cmp'] == 'le' else new / bound['value']):.3g}x"


def _walk(path, old, new, problems, fixed=False, bound=None, bounds=None):
    """Compare ``old`` with ``new``; floats may move unless ``fixed``.
    ``bounds`` are a report's ``expected`` entries while inside its ``observed``."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            problems.append(f"{path}: keys {sorted(old)} -> {sorted(new)}")
            return
        for key in old:
            where = f"{path}.{key}" if path else key
            if key == "arrays":
                for name, a in old[key].items():
                    b = new[key][name]
                    if len(a) != len(b):
                        problems.append(f"{path}.{name}: length {len(a)} -> {len(b)}")
                    elif a != b:
                        print(f"{path}.{name}: max |delta| {max(abs(x - y) for x, y in zip(a, b)):.3e}")
                continue
            _walk(
                where,
                old[key],
                new[key],
                problems,
                fixed or key == "expected",
                (bounds or {}).get(key),
                old.get("expected") if key == "observed" else None,
            )
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _walk(f"{path}[{i}]", a, b, problems, fixed, bound)
    elif type(old) is float and type(new) is float and not fixed:
        if old != new:
            ratio = f"{new / old:.3g}" if old else "-"
            print(f"{path}: {old!r} -> {new!r}  ratio {ratio}  margin {_margin(bound, new)}")
    elif old != new or type(old) is not type(new):
        problems.append(f"{path}: {old!r} -> {new!r}")


def compare(parent, change):
    problems = []
    _walk("", json.loads(Path(parent).read_text()), json.loads(Path(change).read_text()), problems)
    for line in problems:
        print("CHANGED", line)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write")
    w.add_argument("out")
    w.add_argument("--seeds", type=int, nargs="+", required=True)
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("change")
    args = parser.parse_args()
    if args.command == "write":
        write(args.out, args.seeds)
        return 0
    return compare(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
