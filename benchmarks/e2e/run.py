"""End-to-end benchmark of the repository: command line.

    python3 benchmarks/e2e/run.py one --workload paper_grid --seed 7 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py run [--seed N] [--repeats R] [--out FILE] [--smoke]
    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py pin --seed N [--scale gate]

``one`` is a single run of a single workload in this process and is what
``BENCHMARK.json`` names; its last line of output is the result object.
``run`` is a whole set: every workload, each run in a fresh subprocess, plus
calibration and the set-level probes. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"benchmarks/e2e measures the program under {ROOT}/src/repro, which is not there")
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from compare import compare_sets  # noqa: E402  (the path is set just above)
from harness import (  # noqa: E402
    EXPECTED_PATH, OUT_DIR, UNGATED, digests, load_benchmark, run_one, spread,
)
from probes import calibration, engine_probes, environment, noisy, parallel_probes  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402

DEFAULT_SEED = 42


def command_one(args: argparse.Namespace) -> int:
    # The protocol measures the numpy-accelerated engines.
    os.environ.pop("REPRO_NO_NUMPY", None)
    result = run_one(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.scale, args.verify
    )
    print(json.dumps(result))
    return 0


def _spawn_one(workload: str, args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "one",
        "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--scale", args.scale,
    ]
    if args.verify:
        command.append("--verify")
    subprocess.run(command, stdout=subprocess.DEVNULL, check=True)
    # The full report of the run; its standard output is the same object cut
    # down to the metrics BENCHMARK.json names.
    report = f"{workload}.ledger.json" if trace else f"{workload}.run.json"
    with open(os.path.join(OUT_DIR, report), encoding="utf-8") as fh:
        return json.load(fh)


def command_run(args: argparse.Namespace) -> int:
    if args.smoke:
        args.scale, args.seconds, args.repeats = "smoke", 0.0, 1
    definitions = load_benchmark()
    os.makedirs(OUT_DIR, exist_ok=True)
    result: Dict[str, Any] = {
        "environment": environment(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "calibration": {"start": calibration()},
        "workloads": {},
    }
    for name in WORKLOADS:
        runs = [_spawn_one(name, args, trace=0) for _ in range(args.repeats)]
        traced = _spawn_one(name, args, trace=1)
        attempted = sum(run["attempted"] for run in runs) + traced["attempted"]
        failed = sum(run["failed"] for run in runs) + traced["failed"]
        end_to_end = {}
        for metric in definitions["end_to_end"] + UNGATED:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            median, low, high, iqr = spread(values)
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "median": median, "min": low, "max": high,
                "iqr": iqr, "n": len(values), "values": values,
            }
        result["workloads"][name] = {
            "end_to_end": end_to_end,
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "per_layer": traced["metrics"],
            "extras": traced["extras"],
        }
    probes, attempted, failed = engine_probes(args.seed, SCALES[args.scale])
    more, more_attempted, more_failed = parallel_probes(args.seed, SCALES[args.scale], OUT_DIR)
    result["probes"] = {
        "metrics": {**probes, **more},
        "attempted": attempted + more_attempted,
        "failed": failed + more_failed,
    }
    result["calibration"]["end"] = calibration()
    result["calibration"]["noisy"] = noisy(
        result["calibration"]["start"], result["calibration"]["end"]
    )

    for line in render_set(result):
        print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    anything_failed = result["probes"]["failed"] or any(
        entry["failed"] for entry in result["workloads"].values()
    )
    return 1 if anything_failed else 0


def render_set(result: Dict[str, Any]) -> List[str]:
    env = result["environment"]
    lines = [
        f"set: commit {env['commit'][:12]}, python {env['python']}, numpy {env['numpy']}, "
        f"nproc {env['nproc']}, seed {result['seed']}, scale {result['scale']}, "
        f"{result['repeats']} run(s) of {result['seconds']} s per workload",
    ]
    for moment in ("start", "end"):
        for name, value in result["calibration"][moment].items():
            lines.append(f"  {name:<44} {value:>14.4f} {name.rsplit('_', 1)[1]:<6} ({moment})")
    if result["calibration"]["noisy"]:
        lines.append("  NOISY: the two calibrations differ by more than 0.10")
    for name, entry in result["workloads"].items():
        lines.append(f"{name}")
        for metric, stats in entry["end_to_end"].items():
            lines.append(
                f"  {metric:<44} {stats['median']:>14.4f} {stats['unit']:<6} "
                f"min {stats['min']:.4f} max {stats['max']:.4f} iqr {stats['iqr']:.4f} n={stats['n']}"
            )
        lines.append(
            f"  {'failed_share':<44} {entry['failed_share']:>14.4f} {'share':<6} "
            f"{entry['failed']} of {entry['attempted']} operations"
        )
        for metric, cell in entry["per_layer"].items():
            lines.append(f"  {metric:<44} {cell['value']:>14.6g} {cell['unit']}")
        for metric, value in entry["extras"].items():
            if isinstance(value, (int, float)):
                lines.append(f"  {metric:<44} {value:>14.6g}")
    lines.append("probes (no gated workload)")
    for metric, value in result["probes"]["metrics"].items():
        lines.append(f"  {metric:<44} {value:>14.6g}")
    lines.append(
        f"  {'failed':<44} {result['probes']['failed']:>14} of {result['probes']['attempted']}"
    )
    return lines


def command_compare(args: argparse.Namespace) -> int:
    with open(args.a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(args.b, encoding="utf-8") as fh:
        b = json.load(fh)
    lines, regressed = compare_sets(a, b, load_benchmark(), UNGATED)
    for line in lines:
        print(line)
    return 1 if regressed else 0


def command_pin(args: argparse.Namespace) -> int:
    """Record the operation digests of one seed in expected.json, after
    checking that the batch and the columnar engine agree on them."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scale = SCALES[args.scale]
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    pinned = expected.setdefault(args.scale, {}).setdefault(str(args.seed), {})
    for name, workload in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
            inputs = workload.build(args.seed, scale, None, scratch)
            produced = digests(workload.run(inputs, scale, None, "batch"))
            reference = digests(workload.run(inputs, scale, None, "columnar"))
        if produced != reference:
            print(f"{name}: batch and columnar disagree; nothing pinned", file=sys.stderr)
            return 1
        pinned[name] = produced
        print(f"{name}: {len(produced)} operation(s) pinned")
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv: List[str]) -> int:
    workloads, scales = list(WORKLOADS), list(SCALES)
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    one = commands.add_parser("one", help="one run of one workload; last line is the result")
    one.add_argument("--workload", required=True, choices=workloads)
    one.add_argument("--seed", type=int, default=DEFAULT_SEED)
    one.add_argument("--seconds", type=float, default=10.0, help="length of the timed window")
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--scale", choices=scales, default="gate")
    one.add_argument("--verify", action="store_true", help="recompute the reference even for a pinned seed")
    one.set_defaults(handler=command_one)

    run = commands.add_parser("run", help="a whole set: every workload, calibration, probes")
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--repeats", type=int, default=5, help="fresh-process runs per workload")
    run.add_argument("--seconds", type=float, default=10.0)
    run.add_argument("--scale", choices=scales, default="gate")
    run.add_argument("--verify", action="store_true")
    run.add_argument("--smoke", action="store_true", help="tiny sizes, one run, no timed window")
    run.add_argument("--out", help="write the set as JSON (input of compare)")
    run.set_defaults(handler=command_run)

    compare = commands.add_parser("compare", help="compare two sets written by run --out")
    compare.add_argument("a")
    compare.add_argument("b")
    compare.set_defaults(handler=command_compare)

    pin = commands.add_parser("pin", help="pin one seed's operation digests in expected.json")
    pin.add_argument("--seed", type=int, required=True)
    pin.add_argument("--scale", choices=scales, default="gate")
    pin.set_defaults(handler=command_pin)

    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
