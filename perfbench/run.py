"""Benchmark of the YOSO MPC reproduction: three workloads, one command.

    python3 perfbench/run.py --workload core-dot --seed 1 --seconds 10 --trace 0

Each workload runs in its own single-threaded child process
(``workloads.py``).  With ``--trace 0`` the command starts ``SETUPS``
children one after another: each is timed from its spawn to its first
checked result (``setup_s`` is their median), and the last one goes on to
run whole rounds of timed operations for ``--seconds``.  With
``--trace 1`` one child runs untraced and then traced rounds and reports
per-layer self times and counts.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the environment the figures come from.

The command refuses to run (exit 2) under ``REPRO_COST_CHECK=0`` or a
forced ``REPRO_SHARING_BACKEND``: each measures a different program.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("core-dot", "it-mlp", "service-stats")

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = {"core-dot": 3, "it-mlp": 2, "service-stats": 2}

#: Wall-clock budget for all children of one run; a child still running
#: at the deadline is killed and the run fails.
RUN_BUDGET_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s": "s",
    "online_bytes_per_mul": "B",
    "offline_bytes_per_mul": "B",
    "board_bytes": "B",
    "peak_rss_mb": "MB",
}


def refuse_unfaithful_settings() -> str | None:
    """Why this environment would measure a different program, if it would."""
    if os.environ.get("REPRO_COST_CHECK", "1") == "0":
        return "REPRO_COST_CHECK=0 turns off the always-on cost check"
    backend = os.environ.get("REPRO_SHARING_BACKEND", "").strip().lower()
    if backend not in ("", "auto"):
        return f"REPRO_SHARING_BACKEND={backend} forces a sharing backend"
    return None


def git_sha() -> str:
    """HEAD's commit id read from ``.git``, or ``unknown`` outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(
    workload: str, seed: int, seconds: float, mode: str, deadline: float
) -> tuple[float, dict]:
    """Run one workload process; returns (spawned_at, its JSON report)."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    command = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
    ]
    spawned_at = time.monotonic()
    done = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - spawned_at), check=False,
    )
    if done.returncode != 0 or not done.stdout.strip():
        raise RuntimeError(f"{workload} {mode} process exited {done.returncode}")
    return spawned_at, json.loads(done.stdout.strip().splitlines()[-1])


def measure(args, deadline: float) -> tuple[dict, dict]:
    setups = []
    warmups_ok = True
    for index in range(SETUPS[args.workload]):
        mode = "measure" if index == SETUPS[args.workload] - 1 else "setup"
        spawned_at, report = run_child(
            args.workload, args.seed, args.seconds, mode, deadline
        )
        setups.append(report["first_result_at"] - spawned_at)
        warmups_ok = warmups_ok and report["warmup_ok"]
    report["warmup_ok"] = warmups_ok
    ops = report["ops"]
    metrics = {
        key: statistics.median(op[key] for op in ops)
        for key in ("op_s", "online_bytes_per_mul", "offline_bytes_per_mul",
                    "board_bytes")
    }
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = report["peak_rss_mb"]
    return report, {
        name: {"value": metrics[name], "unit": unit}
        for name, unit in END_TO_END_UNITS.items()
    }


def trace(args, deadline: float) -> tuple[dict, dict]:
    _, report = run_child(args.workload, args.seed, args.seconds, "trace", deadline)
    layers = report["layers"]
    return report, {
        name: {"value": layers[name], "unit": unit}
        for name, unit in per_layer_units().items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # running child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    reason = refuse_unfaithful_settings()
    if reason is not None:
        print(f"refusing to measure: {reason}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        report, metrics = (trace if args.trace else measure)(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    environment = dict(report["environment"])
    environment.update(
        cpu_count=os.cpu_count(), git_sha=git_sha(), workload=args.workload,
        seed=args.seed, seconds=args.seconds, trace=args.trace,
    )
    print("environment " + json.dumps(environment))
    # A timed operation whose check fails counts in ``failed``; ``correct``
    # says whether every untimed warm-up matched its independent result.
    print(json.dumps({
        "correct": report["warmup_ok"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
