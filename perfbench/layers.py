"""Per-layer attribution for traced operations, recorded from outside.

The program is not changed for tracing.  For the length of one traced
operation, :class:`LayerTrace` replaces each layer's public entry points
with timing wrappers, bound wherever callers resolve them (every
``repro.*`` module attribute and class attribute that holds the
original), and installs a :class:`~repro.observability.tracer.Tracer`
through ``repro.observability.hooks.activated`` to collect the program's
own counters.  Both are undone when the operation ends, so untraced
operations in the same process run the unpatched program.

Times are *self* times: a span's duration minus the part its nested spans
cover, so the layer times of one operation plus ``glue.self_s`` (the time
no wrapped entry point accounts for) add up to the operation's wall time.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from contextlib import contextmanager

#: Time metrics, each the summed self time of the spans of that name.
TIME_METRICS = (
    "circuits.compile_s",
    "core.setup_s",
    "core.offline_s",
    "core.bridge_s",
    "core.online_s",
    "yoso.offline_s",
    "yoso.online_s",
    "engine.pow_s",
    "nizk.prove_s",
    "nizk.verify_s",
    "sharing.kernel_s",
    "wire.encode_s",
    "wire.decode_s",
    "accounting.cost_check_s",
    "service.ingest_s",
    "service.evaluate_s",
    "service.reshare_s",
    "service.verify_costs_s",
    "glue.self_s",
)

#: Benchmark-side counts, incremented by the wrappers.
COUNT_METRICS = (
    "yoso.committees",
    "yoso.activations",
    "nizk.proofs",
    "nizk.verifications",
    "accounting.envelopes_checked",
    "service.accepted",
)

#: Per-layer name -> the program's own Tracer counter it reads.
TRACER_COUNTERS = {
    "yoso.posts": "bulletin.posts",
    "engine.batches": "engine.batches",
    "engine.jobs": "engine.jobs",
    "paillier.encrypt": "paillier.encrypt",
    "paillier.partial_decrypt": "paillier.partial_decrypt",
    "paillier.exp": "paillier.exp",
    "sharing.vectors_dealt": "sharing.sharings_dealt",
    "sharing.reconstructions": "sharing.reconstructions",
    "fields.interpolations": "lagrange.interpolations",
    "wire.envelopes": "wire.posts",
    "wire.encoded_bytes": "wire.encoded_bytes",
    "wire.decodes": "wire.decodes",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit."""
    units = {name: "s" for name in TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({name: "count" for name in TRACER_COUNTERS})
    units.update({
        "circuits.mul_batches": "count",
        "circuits.slot_fill": "ratio",
        "fields.elements": "count",
        "wire.encoded_bytes": "B",
        "service.ingest_per_s": "1/s",
        "service.client_build_per_s": "1/s",
        "trace.overhead": "ratio",
    })
    return units


def _bindings(original):
    """Every (owner, attribute, value) in ``repro`` bound to ``original``.

    Module attributes cover ``from x import f`` copies; class ``__dict__``
    entries cover methods, compared through ``__func__`` for class- and
    static methods.
    """
    found = []
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                found.append((module, attr, value))
            elif isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in list(vars(value).items()):
                    if getattr(cvalue, "__func__", cvalue) is original:
                        found.append((value, cattr, cvalue))
    return found


class LayerTrace:
    """Span recorder plus the patches that feed it, applied per operation."""

    def __init__(self, clock=time.perf_counter):
        from repro.observability.tracer import Tracer

        self.tracer = Tracer()
        self.clock = clock
        self._stack: list[list] = []  # [name, start, covered-by-children]
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()
        self.reset()

    # -- recording ----------------------------------------------------------

    def reset(self) -> None:
        self.self_s = {name: 0.0 for name in TIME_METRICS}
        self.counts = {name: 0 for name in COUNT_METRICS}
        self.ingest_wall_s = 0.0
        self.programs: dict[int, object] = {}
        self.elements = itertools.count()

    def _enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def _exit(self) -> float:
        name, start, covered = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    @contextmanager
    def operation(self):
        """Trace one operation: patch, count, time, and undo the patches."""
        from repro.observability import hooks

        if self._stack:
            raise RuntimeError("operation spans do not nest")
        self.reset()
        self.tracer.reset()
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)
        try:
            with hooks.activated(self.tracer):
                self._enter("glue.self_s")
                try:
                    yield self
                finally:
                    self._exit()
        finally:
            for owner, attr, original, _ in reversed(self._patches):
                setattr(owner, attr, original)

    def snapshot(self) -> dict[str, float]:
        """The per-layer figures of the operation that just ended."""
        totals = self.tracer.counter_totals()
        out: dict[str, float] = dict(self.self_s)
        out.update(self.counts)
        for name, counter in TRACER_COUNTERS.items():
            out[name] = totals.get(counter, 0)
        programs = self.programs.values()
        slots = sum(len(p.plan.mul_batches) * p.k for p in programs)
        out["circuits.mul_batches"] = sum(len(p.plan.mul_batches) for p in programs)
        out["circuits.slot_fill"] = (
            sum(len(p.mul_wires) for p in programs) / slots if slots else 0.0
        )
        out["fields.elements"] = next(self.elements)
        out["service.ingest_per_s"] = (
            self.counts["service.accepted"] / self.ingest_wall_s
            if self.ingest_wall_s else 0.0
        )
        return out

    # -- patching -----------------------------------------------------------

    def _replace(self, original, make_wrapper) -> None:
        bindings = _bindings(original)
        if not bindings:
            raise RuntimeError(f"no binding of {original!r} to trace")
        wrapper = make_wrapper(original)
        for owner, attr, value in bindings:
            if isinstance(value, classmethod):
                replacement = classmethod(wrapper)
            elif isinstance(value, staticmethod):
                replacement = staticmethod(wrapper)
            else:
                replacement = wrapper
            self._patches.append((owner, attr, value, replacement))

    def _span(self, name, counter=None, count=None, after=None):
        """Wrapper factory: time ``name``; optionally count calls or items."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if counter is not None:
                    self.counts[counter] += count(args, kwargs) if count else 1
                self._enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    duration = self._exit()
                if after is not None:
                    after(args, kwargs, result, duration)
                return result
            return wrapper
        return make

    def _counting(self, counter):
        """Wrapper factory: count calls without a span."""
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[counter] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _plan(self) -> None:
        """Build every (owner, attribute) replacement once per process."""
        import repro.core.protocol
        from repro.accounting import symbolic
        from repro.circuits import program
        from repro.core import offline, online, setup
        from repro.engine import batch
        from repro.engine.engine import SerialEngine
        from repro.fields.ring import ZmodElement
        from repro.nizk import sigma
        from repro.service.epoch import EpochCoordinator
        from repro.service.ingest import IngestPipeline
        from repro.service.service import MpcService
        from repro.sharing.packed import PackedShamirScheme
        from repro.wire.codec import WireCodec
        from repro.yoso.network import ProtocolEnvironment

        def keep_program(args, kwargs, result, duration):
            self.programs[id(result)] = result

        self._replace(
            program.compile_circuit,
            self._span("circuits.compile_s", after=keep_program),
        )
        self._replace(setup.run_setup, self._span("core.setup_s"))
        self._replace(offline.run_offline, self._span("core.offline_s"))
        self._replace(
            offline.run_reencryption_bridge, self._span("core.bridge_s")
        )
        self._replace(online.run_online, self._span("core.online_s"))

        # Committee activation time, split by the phase the run is in
        # (setup counts as offline: both are input-independent).
        def run_committee(fn):
            @functools.wraps(fn)
            def wrapper(env, committee, role_program):
                self.counts["yoso.committees"] += 1
                online_phase = env.phase == "online"
                self._enter("yoso.online_s" if online_phase else "yoso.offline_s")
                try:
                    return fn(env, committee, role_program)
                finally:
                    self._exit()
            return wrapper

        self._replace(ProtocolEnvironment.run_committee, run_committee)
        self._replace(
            ProtocolEnvironment.activate, self._counting("yoso.activations")
        )
        self._replace(SerialEngine.pow_many, self._span("engine.pow_s"))

        for cls in (
            sigma.PlaintextKnowledgeProof,
            sigma.MultiplicationProof,
            sigma.PartialDecryptionProof,
            sigma.PlaintextDlogEqualityProof,
        ):
            self._replace(
                vars(cls)["prove"].__func__,
                self._span("nizk.prove_s", "nizk.proofs"),
            )
            self._replace(
                vars(cls)["verify"],
                self._span("nizk.verify_s", "nizk.verifications"),
            )
        self._replace(
            batch.verify_plaintext_knowledge_many,
            self._span(
                "nizk.verify_s", "nizk.verifications",
                count=lambda args, kwargs: len(
                    args[1] if len(args) > 1 else kwargs["items"]
                ),
            ),
        )

        for method in ("share_many", "reconstruct_many", "canonical_many"):
            self._replace(
                vars(PackedShamirScheme)[method], self._span("sharing.kernel_s")
            )

        def element_init(fn):
            @functools.wraps(fn)
            def wrapper(element, ring, value):
                next(self.elements)
                fn(element, ring, value)
            return wrapper

        self._replace(ZmodElement.__init__, element_init)
        self._replace(WireCodec.encode_payload, self._span("wire.encode_s"))
        self._replace(WireCodec.decode, self._span("wire.decode_s"))

        def checked(args, kwargs):
            result = args[0] if args else kwargs.get("result")
            board = kwargs.get("bulletin")
            if board is None:
                board = getattr(result, "bulletin", None)
            return len(board) if board is not None else 0

        self._replace(
            symbolic.verify_cost_exactness,
            self._span(
                "accounting.cost_check_s", "accounting.envelopes_checked",
                count=checked,
            ),
        )

        def drained(args, kwargs, result, duration):
            self.counts["service.accepted"] += result
            self.ingest_wall_s += duration

        self._replace(
            IngestPipeline.drain, self._span("service.ingest_s", after=drained)
        )
        self._replace(
            EpochCoordinator.evaluate, self._span("service.evaluate_s")
        )
        self._replace(EpochCoordinator.reshare, self._span("service.reshare_s"))
        self._replace(
            MpcService.verify_costs, self._span("service.verify_costs_s")
        )

        # The service's inner committee run is started without a tracer,
        # which would switch the counters off: hand it this one.
        def run_mpc(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                kwargs.setdefault("tracer", self.tracer)
                return fn(*args, **kwargs)
            return wrapper

        self._replace(repro.core.protocol.run_mpc, run_mpc)
