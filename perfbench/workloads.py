"""One workload process: set up, warm up, run timed rounds, report JSON.

Started by ``run.py``, never by hand.  The process is single-threaded: the
serial crypto engine (``workers=0``), the in-memory transport with no
injected delay, and native thread pools capped at one thread by the
parent.  It prints one JSON line on stdout and exits 0 when every step
ran to its end.

Modes:

* ``setup`` — build the workload and run the untimed warm-up operation;
  report when its checked result was in hand (``first_result_at``, on the
  system-wide monotonic clock, so the parent can subtract its spawn time).
* ``measure`` — ``setup``, then whole rounds of timed operations until
  ``--seconds`` have passed since the warm-up ended.
* ``trace`` — ``setup``, then whole rounds in which every second timed
  operation is traced (``layers.LayerTrace``), reporting per-layer
  medians and the traced/untraced ``op_s`` ratio.

Every operation is checked against a computation made apart from the
program.  An operation fails if its check fails, if it raises (including
the program's own ``CostExactnessError``); a failed operation counts in
``failed`` and contributes no timing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import sympy  # noqa: E402

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"repro imported from {repro.__file__}, not {ROOT / 'src'}")

from repro.accounting.symbolic import cost_check_enabled  # noqa: E402
from repro.circuits import dot_product_circuit, flatten_model, mlp_circuit  # noqa: E402
from repro.core.params import ProtocolParams  # noqa: E402
from repro.core.protocol import YosoMpc  # noqa: E402
from repro.engine.engine import SerialEngine, make_engine  # noqa: E402
from repro.errors import ServiceOverloaded  # noqa: E402
from repro.extensions import ItYosoMpc  # noqa: E402
from repro.observability import hooks  # noqa: E402
from repro.service import MpcService, ServiceClient, ServiceConfig  # noqa: E402
from repro.sharing.kernel import resolve_backend, selected_backend  # noqa: E402

from layers import LayerTrace  # noqa: E402

#: Operation kinds; each round attempts a fixed list of them.
EXECUTE = "execute"
REPRODUCE = "reproduce"
EPOCH = "epoch"


def board_digest(board) -> str:
    """SHA-256 of every delivered envelope, in posting order."""
    h = hashlib.sha256()
    for post in board:
        h.update(len(post.encoded).to_bytes(8, "big"))
        h.update(post.encoded)
    return h.hexdigest()


class CheckFailed(Exception):
    """An operation's output disagreed with the independent computation."""


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


class RepeatedExecution:
    """Shared shape of ``core-dot`` and ``it-mlp``: one execution, repeated.

    Every execution uses the same seed and inputs, so every board should
    be byte-identical; the ``reproduce`` operation checks exactly that.
    """

    def __init__(self):
        self.digests: list[str] = []

    def close(self) -> None:
        pass

    def reproduce(self) -> dict:
        require(len(self.digests) >= 2, "fewer than two executions to compare")
        require(
            len(set(self.digests)) == 1,
            f"{len(set(self.digests))} distinct boards "
            f"over {len(self.digests)} executions",
        )
        return {}

    def prepare(self, kind: str) -> None:
        return None

    def perform(self, kind: str, prepared: None) -> dict:
        if kind == REPRODUCE:
            return self.reproduce()
        started = time.perf_counter()
        result = self.execute()
        elapsed = time.perf_counter() - started
        self.check(result)
        self.digests.append(board_digest(result.bulletin))
        muls = self.n_muls
        return {
            "op_s": elapsed,
            "online_bytes_per_mul": result.online_mul_bytes() / muls,
            "offline_bytes_per_mul": result.meter.total_bytes("offline") / muls,
            "board_bytes": result.bulletin.encoded_total_bytes(),
        }


class CoreDot(RepeatedExecution):
    """The paper's protocol on a 16-element dot product, n=8, ε=0.25."""

    name = "core-dot"
    round_ops = (EXECUTE,) * 4 + (REPRODUCE,)
    length = 16

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        self.x = [rng.randrange(1 << 16) for _ in range(self.length)]
        self.y = [rng.randrange(1 << 16) for _ in range(self.length)]
        self.run_seed = rng.randrange(1 << 30)
        self.params = ProtocolParams.from_gap(8, 0.25, workers=0)
        require(
            (self.params.n, self.params.t, self.params.k) == (8, 1, 3),
            f"unexpected committee shape {self.params}",
        )
        self.circuit = dot_product_circuit(self.length)
        self.n_muls = self.circuit.n_multiplications
        self.expected = sum(a * b for a, b in zip(self.x, self.y))

    def execute(self):
        result = YosoMpc(
            self.params, rng=random.Random(self.run_seed),
            tracer=hooks.active(), transport="memory",
        ).run(self.circuit, {"alice": self.x, "bob": self.y})
        self.sharing_modulus = result.setup.tpk.n
        return result

    def check(self, result) -> None:
        require(
            result.outputs == {"alice": [self.expected]},
            f"dot product {result.outputs} != {self.expected}",
        )


class ItMlp(RepeatedExecution):
    """The 10,836-gate MLP [64, 48, 10] under the IT variant, n=11, k=5."""

    name = "it-mlp"
    round_ops = (EXECUTE,) * 3 + (REPRODUCE,)
    sizes = (64, 48, 10)
    modulus = sharing_modulus = (1 << 61) - 1

    def __init__(self, seed: int):
        super().__init__()
        rng = random.Random(seed)
        sizes = self.sizes
        self.weights = [
            [[rng.randrange(256) for _ in range(fan_in)] for _ in range(fan_out)]
            for fan_in, fan_out in zip(sizes, sizes[1:])
        ]
        self.biases = [[rng.randrange(256) for _ in range(f)] for f in sizes[1:]]
        self.x = [rng.randrange(256) for _ in range(sizes[0])]
        self.run_seed = rng.randrange(1 << 30)
        self.circuit = mlp_circuit(list(sizes))
        self.n_muls = self.circuit.n_multiplications
        self.inputs = {
            "model": flatten_model(self.weights, self.biases),
            "subject": self.x,
        }
        self.expected = self.plaintext()

    def plaintext(self) -> list[int]:
        """The MLP in Python integers (square activation), reduced mod p."""
        act = list(self.x)
        last = len(self.weights) - 1
        for i, (w, bias) in enumerate(zip(self.weights, self.biases)):
            act = [sum(a * b for a, b in zip(row, act)) + c for row, c in zip(w, bias)]
            if i != last:
                act = [v * v for v in act]
        return [v % self.modulus for v in act]

    def execute(self):
        return ItYosoMpc(
            n=11, t=1, k=5, modulus=self.modulus,
            rng=random.Random(self.run_seed),
        ).run(self.circuit, self.inputs)

    def check(self, result) -> None:
        require(
            result.outputs == {"subject": self.expected},
            "MLP scores differ from the plaintext model",
        )


class ServiceStats:
    """The statistics service, n=5, ε=0.25, over consecutive epochs.

    One long-lived service runs every epoch of the process, as a deployed
    service would: the warm-up is epoch 0 and each round is three more.
    Each close re-walks the whole board for the cost check, and each epoch
    brings envelope shapes the check has not memoized yet, so both costs
    stay in ``op_s``.  One committee member fail-stops in every epoch.
    """

    name = "service-stats"
    clients = 5000
    round_ops = (EPOCH,) * 3
    n = 5

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.svc = MpcService(
            ServiceConfig(
                workload="statistics", n=self.n, epsilon=0.25,
                seed=self.rng.randrange(1 << 30), transport="memory",
            )
        )
        self.expected_contributors = tuple(range(1, self.n))

    def close(self) -> None:
        self.svc.close()

    def prepare(self, kind: str):
        """Open the epoch and build its submissions, outside the timing."""
        announcement = self.svc.open_epoch()
        epoch = announcement.epoch
        values = [self.rng.randrange(1024) for _ in range(self.clients)]
        client_rng = random.Random(self.rng.randrange(1 << 30))
        started = time.perf_counter()
        submissions = [
            ServiceClient(f"c{epoch}-{i:05d}", announcement, rng=client_rng)
            .build_input(v)
            for i, v in enumerate(values)
        ]
        build_per_s = len(values) / (time.perf_counter() - started)
        return values, submissions, build_per_s

    def perform(self, kind: str, prepared) -> dict:
        values, submissions, build_per_s = prepared
        svc = self.svc
        board_before = svc.board.encoded_total_bytes()

        started = time.perf_counter()
        for item in submissions:
            try:
                svc.submit(item)
            except ServiceOverloaded:
                svc.ingest()
                svc.submit(item)
        svc.ingest()
        summary = svc.close_epoch(crash=self.n)
        elapsed = time.perf_counter() - started

        population = len(values)
        total = sum(values)
        moment = population * sum(v * v for v in values)
        decoded = summary.decoded
        require(summary.rejections == {}, f"rejections {summary.rejections}")
        require(decoded["population"] == population, "population differs")
        require(decoded["sum"] == total, f"sum {decoded['sum']} != {total}")
        require(
            decoded["scaled_second_moment"] == moment,
            "scaled second moment differs",
        )
        require(
            summary.contributors == self.expected_contributors,
            f"decryption contributors {summary.contributors}",
        )
        require(
            summary.reshare_contributors == self.expected_contributors,
            f"resharing contributors {summary.reshare_contributors}",
        )
        inner = summary.inner_result
        self.sharing_modulus = inner.setup.tpk.n
        muls = inner.circuit.n_multiplications
        return {
            "op_s": elapsed,
            "online_bytes_per_mul": summary.online_bytes_per_gate,
            "offline_bytes_per_mul": inner.phase_bytes("offline") / muls,
            "board_bytes": (
                svc.board.encoded_total_bytes() - board_before
                + inner.bulletin.encoded_total_bytes()
            ),
            "client_build_per_s": build_per_s,
        }


WORKLOADS = {cls.name: cls for cls in (CoreDot, ItMlp, ServiceStats)}


def run_rounds(workload, seconds: float, trace: LayerTrace | None = None):
    """Whole rounds until ``seconds`` have passed; at least one round.

    With ``trace``, every second timed operation is traced, so traced and
    untraced operations interleave through the run (the service's board
    grows from epoch to epoch, and a block of each would compare unequal
    boards); up to three rounds go on until there is at least one of each.
    """
    plain: list[dict] = []
    traced: list[dict] = []
    layers: list[dict] = []
    attempted = failed = timed_ops = rounds = 0
    started = time.perf_counter()

    def more() -> bool:
        if not rounds:
            return True
        if trace is not None and not (plain and traced) and rounds < 3:
            return True
        return time.perf_counter() - started < seconds

    while more():
        rounds += 1
        for kind in workload.round_ops:
            timed = kind != REPRODUCE
            in_trace = trace is not None and timed and timed_ops % 2 == 1
            timed_ops += timed
            attempted += 1
            try:
                prepared = workload.prepare(kind)
                if in_trace:
                    with trace.operation():
                        record = workload.perform(kind, prepared)
                    layers.append(trace.snapshot())
                else:
                    record = workload.perform(kind, prepared)
            except Exception as exc:  # noqa: BLE001 - an operation boundary
                failed += 1
                print(f"operation {kind} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                continue
            if timed:
                (traced if in_trace else plain).append(record)
    return plain, traced, layers, attempted, failed


def median_of(records: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    args = parser.parse_args(argv)

    if not cost_check_enabled():
        raise SystemExit("the always-on cost check is off; refusing to measure")
    if selected_backend() != "auto":
        raise SystemExit("a sharing backend is forced; refusing to measure")
    with make_engine(0) as engine:
        if not isinstance(engine, SerialEngine):
            raise SystemExit("workers=0 does not give the serial engine")

    workload = WORKLOADS[args.workload](args.seed)
    # A traced run also traces the cold warm-up: the circuit is compiled
    # there, and memoized for every later operation.
    trace = LayerTrace() if args.mode == "trace" else None
    cold = None
    kind = workload.round_ops[0]
    try:
        prepared = workload.prepare(kind)
        if trace is None:
            warm = workload.perform(kind, prepared)
        else:
            with trace.operation():
                warm = workload.perform(kind, prepared)
            cold = trace.snapshot()
    except CheckFailed as exc:
        print(f"warm-up check failed: {exc}", file=sys.stderr)
        warm = None
    first_result_at = time.monotonic()
    report = {
        "first_result_at": first_result_at,
        "warmup_ok": warm is not None,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "sympy": sympy.__version__,
            "sharing_backend": resolve_backend(workload.sharing_modulus, 8),
        },
    }

    if args.mode == "measure":
        ops, _, _, attempted, failed = run_rounds(workload, args.seconds)
        report.update(ops=ops, attempted=attempted, failed=failed)
    elif args.mode == "trace":
        plain, traced, layers, attempted, failed = run_rounds(
            workload, args.seconds, trace
        )
        if not plain or not traced:
            raise SystemExit("no successful traced and untraced operations")
        summary = {key: median_of(layers, key) for key in layers[0]}
        summary["circuits.compile_s"] = cold["circuits.compile_s"] if cold else 0.0
        summary["trace.overhead"] = (
            median_of(traced, "op_s") / median_of(plain, "op_s")
        )
        summary["service.client_build_per_s"] = (
            median_of(plain + traced, "client_build_per_s")
            if "client_build_per_s" in plain[0] else 0.0
        )
        report.update(layers=summary, attempted=attempted, failed=failed)
    workload.close()
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
