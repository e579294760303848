"""Multi-node serving cluster simulator with traced request lifecycles.

PR 1 stopped at one engine on one simulated GCD; this module composes
many of them into a Frontier *cluster*: N nodes, each hosting replicas
laid out by a :class:`ReplicaLayout` (eight TP=1 replicas per node, or
one TP=8 replica spanning it), with a load balancer routing seeded
Poisson traffic across all replicas and per-replica admission
backpressure spilling into a cluster-level queue.

The replicas here are *timing-level*: they reuse the real scheduler,
paged KV pool, and preemption rules of :class:`ServingEngine`, but
decode sentinel tokens instead of running the NumPy model, so a
4-node × 8-replica sweep over hundreds of requests costs milliseconds
while reproducing the engine's queueing behaviour exactly.  Time comes
from the same calibrated stack — the roofline prices prefill, the HBM
stream prices decode, and TP layouts pay per-layer activation
allreduces through :class:`~repro.parallel.collectives.CollectiveModel`.

Every request emits lifecycle trace events (arrive → route → admit →
prefill → [preempt →] decode → finish) as
:class:`~repro.profiling.tracer.TraceEvent` spans, and
:meth:`ClusterResult.save_trace` exports them in the same Chrome-trace
format as the training profiles: one Perfetto track group per node, one
lane per replica, plus a cluster router lane for arrivals and
backpressure queueing.

Replicas carry a *role*: a colocated layout (``prefill_replicas=0``)
runs every replica as ``mixed`` — prefill and decode on the same pool,
exactly the pre-disaggregation behaviour — while a disaggregated layout
(``"2P6DxTP1"``) dedicates the first replicas of each node to prefill
and the rest to decode.  A prefill replica runs admission + (chunked)
prefill, emits the first token, then hands the request off: the packed
KV blocks ship to a decode replica as a cluster-level transfer event on
the virtual clock, priced per-layer or whole-cache through
:class:`~repro.serving.transfer.KVTransferModel` (Slingshot NIC across
nodes, Infinity Fabric within one), after which the decode replica
imports the span and continues generation.  Decode replicas reserve the
full worst-case context at import — the KV arrived computed, so there
is nothing to recompute and preemption is impossible there.  Transfers
get their own Chrome-trace lane (``cluster/kv-transfer``), and a
transfer in flight toward a replica that dies is re-queued through the
normal failover path, never dropped.

With ``ClusterConfig.faults`` set, the cluster additionally replays a
seeded :class:`~repro.faults.FaultModel`: replicas die on the virtual
clock (a failure takes effect at the victim's first step boundary at or
after its onset — steps are atomic), stay invisible to the router until
the health check fires ``detection_s`` later, and rejoin ``recovery_s``
after death.  In-flight requests of a dead replica — including ones
routed to it during the detection window — are failed over: reset,
delayed by the capped-exponential-backoff-with-deterministic-jitter
:class:`~repro.faults.RetryPolicy`, and re-routed to survivors, or
abandoned as :class:`~repro.serving.results.FailedRequest` once their
retry budget is spent.  Stragglers stretch the victim's step durations
over their window; a degraded link stretches only the TP-allreduce
share of the affected node's replicas (TP=1 replicas pay nothing —
decode sends no cross-GCD traffic).  With ``faults`` unset (or all
processes disabled) the simulator runs the identical code path as
before, bit for bit.
"""

from __future__ import annotations

import heapq
import itertools
import math
import re
import warnings
from operator import attrgetter

import numpy as np
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..faults.model import CircuitBreaker, FaultConfig, FaultEvent, FaultModel
from ..frontier.hardware import GCDSpec, NodeSpec
from ..models.config import ModelConfig
from ..parallel.collectives import CollectiveModel
from ..profiling.export import save_lanes_chrome_trace
from ..profiling.tracer import TraceEvent
from .config import (HANDOFF_POLICIES, LB_POLICIES, FailoverConfig,
                     KVTransferConfig, RoutingConfig, ServingConfig)
from .engine import DecodeCostModel, _validate_requests
from .kv_pool import PagedKVPool
from .metrics import RequestRecord, ServingMetrics, TimelineSample
from .results import (FailedRequest, ServingResultBase, ShedRequest,
                      TimedOutRequest, TransferRecord, slo_availability)
from .scheduler import (RUNNING, ContinuousBatchScheduler, Request,
                        apply_degradation, estimate_backlog_eta,
                        next_prefill_target)
from .transfer import KVTransferModel

__all__ = ["ReplicaLayout", "ClusterConfig", "ReplicaServer",
           "ClusterSimulator", "ClusterResult", "LB_POLICIES",
           "HANDOFF_POLICIES", "REPLICA_ROLES", "format_cluster"]

#: Roles a replica can serve under (``mixed`` = colocated baseline).
REPLICA_ROLES = ("prefill", "decode", "mixed")

#: Timing-level replicas decode this placeholder instead of real tokens;
#: it is outside every vocabulary, so an ``eos_id`` never matches and a
#: cluster request always runs to its ``max_new_tokens``.
_SENTINEL = -1


def _no_load(replica: "ReplicaServer") -> int:
    """Round-robin's load: every replica equal, the rotation decides."""
    return 0


@dataclass(frozen=True)
class ReplicaLayout:
    """How one node's eight GCDs are carved into serving replicas.

    The two layouts the paper's Observation 2 contrasts for training
    reappear in serving: ``8xTP1`` (eight independent replicas, no
    communication, weights must fit one GCD) versus ``1xTP8`` (one
    replica sharding weights and KV across the node, paying the
    allreduce tax every decode step).

    ``prefill_replicas`` assigns roles: 0 (the default) keeps every
    replica ``mixed`` — the colocated baseline — while ``n > 0``
    dedicates the first ``n`` replicas of each node to prefill and the
    rest to decode (label ``"2P6DxTP1"``), with finished prefills
    shipping their KV to a decode replica.
    """

    replicas_per_node: int = 8
    tp: int = 1
    #: replicas per node dedicated to prefill (0 = colocated ``mixed``)
    prefill_replicas: int = 0

    def __post_init__(self) -> None:
        if self.replicas_per_node < 1:
            raise ValueError(
                f"replicas_per_node must be >= 1: {self.replicas_per_node}")
        if self.tp < 1:
            raise ValueError(f"tp must be >= 1: {self.tp}")
        if self.prefill_replicas < 0:
            raise ValueError(
                f"prefill_replicas must be >= 0: {self.prefill_replicas}")
        if self.prefill_replicas >= self.replicas_per_node \
                and self.prefill_replicas > 0:
            raise ValueError(
                f"prefill_replicas ({self.prefill_replicas}) must leave "
                f"at least one decode replica of the "
                f"{self.replicas_per_node} per node")

    @property
    def gcds_used(self) -> int:
        return self.replicas_per_node * self.tp

    @property
    def disaggregated(self) -> bool:
        return self.prefill_replicas > 0

    @property
    def decode_replicas(self) -> int:
        """Decode-role replicas per node (0 when colocated)."""
        if not self.disaggregated:
            return 0
        return self.replicas_per_node - self.prefill_replicas

    def role_of(self, replica_index: int) -> str:
        """Role of the ``replica_index``-th replica on any node."""
        if not 0 <= replica_index < self.replicas_per_node:
            raise ValueError(
                f"replica_index must be in [0, {self.replicas_per_node}): "
                f"{replica_index}")
        if not self.disaggregated:
            return "mixed"
        return "prefill" if replica_index < self.prefill_replicas \
            else "decode"

    @property
    def label(self) -> str:
        if self.disaggregated:
            return (f"{self.prefill_replicas}P"
                    f"{self.decode_replicas}DxTP{self.tp}")
        return f"{self.replicas_per_node}xTP{self.tp}"

    @classmethod
    def from_label(cls, label: str) -> "ReplicaLayout":
        """Parse ``"8xTP1"`` / ``"1xTP8"`` / ``"2P6DxTP1"`` labels."""
        try:
            replicas, tp_text = label.lower().split("xtp")
            tp = int(tp_text)
            roles = re.fullmatch(r"(\d+)p(\d+)d", replicas)
            if roles is not None:
                prefill, decode = int(roles.group(1)), int(roles.group(2))
                if prefill == 0:
                    raise ValueError
                per_node = prefill + decode
            else:
                prefill, per_node = 0, int(replicas)
        except (ValueError, TypeError):
            raise ValueError(
                f"layout must look like '8xTP1', '1xTP8', or '2P6DxTP1': "
                f"{label!r}"
            ) from None
        # Validation errors (e.g. zero decode replicas) surface as-is.
        return cls(replicas_per_node=per_node, tp=tp,
                   prefill_replicas=prefill)

    def validate(self, model_config: ModelConfig, node: NodeSpec,
                 gcd: GCDSpec) -> None:
        if self.gcds_used > node.num_gcds:
            raise ValueError(
                f"layout {self.label} needs {self.gcds_used} GCDs but a "
                f"node has {node.num_gcds}")
        weights = 2.0 * model_config.num_parameters() / self.tp
        if weights > gcd.hbm_bytes:
            raise ValueError(
                f"layout {self.label}: {weights / 1e9:.1f} GB of weights "
                f"per GCD exceed the {gcd.hbm_gb:.0f} GB HBM — raise tp")


@dataclass(frozen=True)
class ClusterConfig:
    """Topology, routing, transfer pricing, and per-replica knobs.

    ``serving`` configures every replica identically; its
    ``tensor_parallel`` field is superseded by ``layout.tp`` (the layout
    owns the node geometry).  Routing policy, the admission backpressure
    cap, and the prefill→decode handoff policy live in ``routing``;
    KV-shipment pricing for disaggregated layouts lives in ``transfer``.

    The pre-disaggregation flat kwargs ``policy`` and
    ``max_outstanding_per_replica`` are deprecated: passing them warns
    and folds them into ``routing``.  The effective values are mirrored
    back onto the flat attributes, so existing *readers* keep working
    unchanged.
    """

    num_nodes: int = 4
    layout: ReplicaLayout = ReplicaLayout()
    serving: ServingConfig = ServingConfig()
    routing: RoutingConfig = RoutingConfig()
    #: KV-transfer pricing (disaggregated layouts only)
    transfer: KVTransferConfig = KVTransferConfig()
    #: fault process to replay (None, or all-inf rates, = exact no-op)
    faults: FaultConfig | None = None
    #: detection / recovery / retry semantics when ``faults`` is active
    failover: FailoverConfig = FailoverConfig()
    #: deprecated — pass ``routing=RoutingConfig(policy=...)``
    policy: str | None = None
    #: deprecated — pass ``routing=RoutingConfig(max_outstanding_per_replica=...)``
    max_outstanding_per_replica: int | None = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1: {self.num_nodes}")
        routing = self.routing
        if self.policy is not None:
            warnings.warn(
                "ClusterConfig(policy=...) is deprecated; pass "
                "routing=RoutingConfig(policy=...)",
                DeprecationWarning, stacklevel=3)
            routing = replace(routing, policy=self.policy)
        if self.max_outstanding_per_replica is not None:
            warnings.warn(
                "ClusterConfig(max_outstanding_per_replica=...) is "
                "deprecated; pass routing=RoutingConfig("
                "max_outstanding_per_replica=...)",
                DeprecationWarning, stacklevel=3)
            routing = replace(
                routing,
                max_outstanding_per_replica=self.max_outstanding_per_replica)
        object.__setattr__(self, "routing", routing)
        # Mirror the effective values so pre-redesign readers of the
        # flat attributes observe the same configuration.
        object.__setattr__(self, "policy", routing.policy)
        object.__setattr__(self, "max_outstanding_per_replica",
                           routing.max_outstanding_per_replica)


class ReplicaServer:
    """One timing-level serving replica inside the cluster.

    Reuses :class:`ContinuousBatchScheduler` and :class:`PagedKVPool`
    unchanged — admission, token budgets, LIFO preemption, and recompute
    behave exactly as in :class:`ServingEngine` — but decodes sentinel
    tokens on the virtual clock instead of running the model.  The
    cluster's event heap always steps the busy replica furthest behind,
    so routing policies observe each replica's queue state at every
    arrival instant.
    """

    def __init__(self, node_index: int, replica_index: int,
                 model_config: ModelConfig, serving: ServingConfig,
                 cost: DecodeCostModel, pool: PagedKVPool,
                 role: str = "mixed"):
        if role not in REPLICA_ROLES:
            raise ValueError(
                f"role must be one of {REPLICA_ROLES}: {role!r}")
        self.node_index = node_index
        self.replica_index = replica_index
        self.role = role
        #: finished prefills awaiting KV shipment, as ``(request,
        #: handoff_time)`` — drained by the cluster after every step
        self.outbox: list[tuple[Request, float]] = []
        #: flat position in the cluster's replica list (set by the owner)
        self.index = 0
        self.model_config = model_config
        self.pool = pool
        self.cost = cost
        self.scheduler = ContinuousBatchScheduler(
            pool, serving.scheduler_config())
        self.max_steps = serving.max_steps
        self.prefill_chunk = serving.prefill_chunk_tokens
        # Timing-level prefix cache: tracks token structure + refcounts
        # (no KV payload — decode is sentinel-level), discounting the
        # billed prefill of matched prefixes.  Cached blocks are charged
        # to this replica's pool; admission reclaims them LRU-first.
        self.prefix_cache = serving.build_prefix_cache(
            model_config, pool, store_kv=False)
        if self.prefix_cache is not None:
            self.scheduler.reclaim = self._cache_reclaim
        # Timing-level speculative decoding: decode steps emit a seeded
        # truncated-geometric number of sentinels per request (per-token
        # acceptance probability ``spec.acceptance``), priced as one
        # stacked verify pass plus, for a model draft, k draft steps.
        self.spec = serving.spec_decode
        self.draft_cost = None
        self._spec_rng = None
        self.spec_steps = 0
        self.draft_proposed = 0
        self.draft_accepted = 0
        if self.spec is not None:
            if self.spec.acceptance is None:
                raise ValueError(
                    "cluster replicas decode sentinel tokens, so "
                    "SpecDecodeConfig.acceptance (the assumed per-token "
                    "draft acceptance probability) must be set")
            draft_cfg = self.spec.draft_config(model_config)
            if draft_cfg is not None:
                self.draft_cost = DecodeCostModel(
                    draft_cfg, gcd=cost.gcd,
                    step_overhead_s=cost.step_overhead_s, tp=cost.tp,
                    collectives=cost.collectives)
            self._spec_rng = np.random.default_rng(np.random.SeedSequence(
                (0x5BEC, node_index, replica_index)))
        self.clock = 0.0
        self.records: list[RequestRecord] = []
        self.timeline: list[TimelineSample] = []
        self.events: list[TraceEvent] = []
        self._steps = 0
        # -- overload state (inert defaults; `OverloadConfig()` keeps
        #    every branch below cold so the default path stays
        #    bit-identical) ---------------------------------------------
        self.overload = serving.overload
        #: set by the cluster when any request carries a deadline
        self.deadline_checks = False
        #: cancelled requests as ``(request, cancelled_at, stage)`` —
        #: drained by the cluster after every step, like the outbox
        self.timeouts: list[tuple[Request, float, str]] = []
        self.breaker = CircuitBreaker(
            self.overload.breaker_cooldown_s,
            self.overload.breaker_probes) if self.overload.breaker else None
        # -- fault state (inert defaults; the fault-free path never
        #    mutates them, keeping that path bit-identical) -------------
        #: whether the replica processes work (False between fail/recover)
        self.alive = True
        #: the router's view; stays True until the health check fires
        self.healthy = True
        #: active (start, end, factor) step-duration stretch windows
        self.slow_windows: list[tuple[float, float, float]] = []
        #: share of a decode step spent in TP allreduces (0 for TP=1) —
        #: what a degraded link can actually slow down.  Taken at a
        #: representative single-request, 512-token context point; the
        #: ratio moves little across batch shapes.
        self.comm_fraction = 0.0
        if cost.tp > 1:
            step_s = cost.decode_step_time(1, 512)
            if step_s > 0:
                self.comm_fraction = min(1.0, cost._tp_comm(1) / step_s)

    @property
    def name(self) -> str:
        return f"node{self.node_index}/replica{self.replica_index}"

    # -- state the load balancer reads ---------------------------------
    @property
    def busy(self) -> bool:
        return not self.scheduler.idle

    @property
    def outstanding(self) -> int:
        """Routed-but-unfinished requests (waiting + running)."""
        return len(self.scheduler.waiting) + len(self.scheduler.running)

    @property
    def kv_demand_tokens(self) -> int:
        """Worst-case KV token demand of everything routed here."""
        return sum(r.budget_tokens for r in self.scheduler.waiting) \
            + sum(r.budget_tokens for r in self.scheduler.running)

    # ------------------------------------------------------------------
    def _event(self, request_id: int, stage: str, start: float,
               duration: float = 0.0) -> None:
        phase = "compute" if stage in ("prefill", "prefill-chunk",
                                       "decode") else "io"
        self.events.append(TraceEvent(f"req{request_id}/{stage}", start,
                                      duration, stage, phase))

    def _fault_event(self, stage: str, start: float,
                     duration: float = 0.0) -> None:
        self.events.append(TraceEvent(f"fault/{stage}", start, duration,
                                      stage, "fault"))

    # -- prefix-cache hooks ---------------------------------------------
    def _cache_reclaim(self, blocks: int) -> int:
        """LRU-evict cache blocks for admission; traces the eviction."""
        freed = self.prefix_cache.evict(blocks)
        if freed:
            self.events.append(TraceEvent(f"cache/evict x{freed}",
                                          self.clock, 0.0, "cache-evict",
                                          "io"))
        return freed

    def _release_cache(self, req: Request) -> None:
        if req.cache_match is not None:
            self.prefix_cache.release(req.cache_match)
            req.cache_match = None

    def _cache_admit(self, req: Request) -> int:
        """Match + lease the cached prefix; returns matched tokens."""
        match = self.prefix_cache.match(req.prompt)
        matched = 0
        if match.hit:
            req.cache_match = match
            req.prefill_pos = match.tokens
            matched = match.tokens
        self._event(req.request_id,
                    "cache-hit" if matched else "cache-miss", self.clock)
        return matched

    def _cache_allowed(self, req: Request) -> bool:
        """Degraded requests bypass the cache when so configured."""
        return self.prefix_cache is not None and not (
            req.degraded and self.overload.degrade_bypass_cache)

    # -- overload hooks -------------------------------------------------
    def _timeout(self, req: Request, stage: str) -> None:
        self._event(req.request_id, "timeout", self.clock)
        self.timeouts.append((req, self.clock, stage))

    def _cancel_timeouts(self) -> None:
        """Cancel expired requests, unwinding every piece of held state.

        Runs at each step boundary (cancellation granularity matches the
        simulation's time granularity): queued requests just leave the
        queue; running ones additionally release their pool allocation
        and prefix-cache lease.  Requests parked in the outbox already
        freed both at handoff — only the pending shipment is dropped.
        """
        now = self.clock
        sched = self.scheduler
        expired = [r for r in sched.waiting
                   if r.deadline_s is not None and now > r.deadline_s]
        for req in expired:
            sched.waiting.remove(req)
            if self.prefix_cache is not None:
                self._release_cache(req)
            stage = "decode" if req.prefill_pos >= req.prompt_len \
                else "queued"
            self._timeout(req, stage)
        expired = [r for r in sched.running
                   if r.deadline_s is not None and now > r.deadline_s]
        for req in expired:
            sched.running.remove(req)
            self.pool.free(req.request_id)
            if self.prefix_cache is not None:
                self._release_cache(req)
            stage = "prefill" if req.prefill_pos < req.prompt_len \
                else "decode"
            self._timeout(req, stage)
        if self.outbox:
            kept = []
            for req, ready in self.outbox:
                if req.deadline_s is not None and now > req.deadline_s:
                    self._timeout(req, "handoff")
                else:
                    kept.append((req, ready))
            self.outbox = kept

    def _breaker_event(self, transition: str, start: float) -> None:
        self.events.append(TraceEvent(
            f"breaker/{transition}", start, 0.0,
            f"breaker-{transition}", "fault"))

    def breaker_allows(self, now: float) -> bool:
        """Whether the circuit breaker admits traffic at ``now``."""
        if self.breaker is None:
            return True
        was_open = self.breaker.state == "open"
        ok = self.breaker.available(now)
        if was_open and self.breaker.state == "half-open":
            self._breaker_event("half-open", now)
        return ok

    def breaker_admit(self, now: float) -> None:
        if self.breaker is not None:
            self.breaker.note_admit(now)

    def breaker_trip(self, now: float, hold_s: float) -> None:
        if self.breaker is not None:
            self.breaker.trip(now, hold_s)
            self._breaker_event("open", now)

    # -- fault-injection hooks (driven by the cluster simulator) --------
    def _slowdown(self) -> float:
        """Product of active stretch factors at the current clock."""
        factor = 1.0
        for start, end, f in self.slow_windows:
            if start <= self.clock < end:
                factor *= f
        return factor

    def kill(self, now: float) -> None:
        """Fail the replica at ``now`` (a step boundary >= the onset)."""
        self.alive = False
        self.clock = max(self.clock, now)
        self._fault_event("fail", self.clock)

    def take_in_flight(self) -> list[Request]:
        """Extract every routed-but-unfinished request (detection time).

        Frees the dead replica's pool allocations so a later
        :meth:`revive` starts from an empty pool; the caller owns the
        returned requests (they are failed over or abandoned).
        """
        sched = self.scheduler
        doomed = list(sched.running) + list(sched.waiting)
        # Handed-off requests whose transfer has not departed yet die
        # with the replica too (their KV lived in its HBM).
        doomed += [req for req, _ in self.outbox]
        self.outbox.clear()
        for req in sched.running:
            self.pool.free(req.request_id)
        sched.running.clear()
        sched.waiting.clear()
        if self.prefix_cache is not None:
            # A dead replica loses its HBM contents: release the doomed
            # requests' leases, then drop every cached block.
            for req in doomed:
                self._release_cache(req)
            self.prefix_cache.clear()
        return doomed

    def revive(self, now: float) -> None:
        """Bring the replica back into the candidate set at ``now``."""
        self.alive = True
        self.healthy = True
        self.clock = max(self.clock, now)
        self._fault_event("recover", self.clock)

    def enqueue(self, request: Request, now: float) -> None:
        """Accept a routed request; the caller has advanced us to now."""
        self._event(request.request_id, "route", now)
        self.scheduler.submit(request)

    def _finish(self, request: Request) -> None:
        if self.prefix_cache is not None:
            self._release_cache(request)
        self.scheduler.finish(request, self.clock)
        self._event(request.request_id, "decode", request.first_token_time,
                    self.clock - request.first_token_time)
        self._event(request.request_id, "finish", self.clock)
        self.records.append(RequestRecord(
            request_id=request.request_id, arrival=request.arrival_time,
            admit=request.admit_time, first_token=request.first_token_time,
            finish=self.clock, prompt_len=request.prompt_len,
            output_len=len(request.output),
            preemptions=request.preemptions, retries=request.retries,
            deadline=request.deadline_s, degraded=request.degraded))
        if self.breaker is not None \
                and self.breaker.state == "half-open":
            # A probe admission completed: the replica proved itself.
            self.breaker.note_success()
            self._breaker_event("close", self.clock)

    # -- disaggregation: prefill hand-off and decode import -------------
    def _hand_off(self, req: Request) -> None:
        """Prefill done: free local state, park in the outbox.

        The request leaves this replica's scheduler and pool at the
        handoff instant — the KV is on its way out, and the freed slots
        are what lets a dedicated prefill replica sustain throughput.
        The cluster drains the outbox after every step and turns each
        entry into a priced KV-transfer toward a decode replica.
        """
        if self.prefix_cache is not None:
            self._release_cache(req)
        self.scheduler.running.remove(req)
        self.pool.free(req.request_id)
        self._event(req.request_id, "handoff", self.clock)
        self.outbox.append((req, self.clock))

    def _admit_imports(self) -> None:
        """Admission for decode-role replicas: import handed-off KV.

        The KV arrives already computed, so there is nothing to
        re-prefill and recompute-preemption is impossible here; instead
        the full worst-case context (``budget_tokens``) is reserved up
        front, so an imported request always runs to completion without
        evicting anyone.  ``admit_time`` / ``first_token_time`` keep the
        values the prefill replica set — TTFT was already served there.
        """
        sched = self.scheduler
        sched._sort_waiting()
        remaining: list[Request] = []
        for req in sched.waiting:
            if (len(sched.running) < sched.config.max_batch_size
                    and sched.batch_budget_tokens() + req.budget_tokens
                    <= sched.config.max_batch_tokens
                    and self.pool.allocate(req.request_id,
                                           req.budget_tokens)):
                req.state = RUNNING
                sched.running.append(req)
                self._event(req.request_id, "kv-import", self.clock)
            else:
                remaining.append(req)
        sched.waiting = remaining

    def step(self) -> None:
        """One scheduling iteration: admit + prefill, or one decode step."""
        if self._steps >= self.max_steps:
            raise RuntimeError(
                f"{self.name} exceeded {self.max_steps} steps")
        self._steps += 1
        sched = self.scheduler
        if self.deadline_checks:
            self._cancel_timeouts()

        # A prefill replica hands admitted requests off within the same
        # step, leaving ``running`` empty again — progress that the
        # deadlock guard below must see, or a backlogged prefill replica
        # would be declared stuck the moment its admit round overflows.
        progress = False
        if self.role == "decode":
            self._admit_imports()
        else:
            for req in sched.admit(self.clock):
                progress = True
                self._event(req.request_id, "admit", self.clock)
                overload = self.overload
                if overload.degrading and len(sched.waiting) \
                        >= overload.degrade_queue_depth:
                    apply_degradation(req, overload.degrade_max_new_tokens)
                    self._event(req.request_id, "degrade", self.clock)
                matched = 0
                if self._cache_allowed(req):
                    matched = self._cache_admit(req)
                elif self.prefix_cache is not None:
                    self.prefix_cache.stats.bypassed += 1
                if self.prefill_chunk is not None:
                    continue  # encoded chunk by chunk below
                start = self.clock
                if matched:
                    # The cached prefix skips its prefill; the suffix is
                    # priced as a chunk attending over the resident
                    # prefix.
                    duration = self.cost.chunked_prefill_time(
                        req.prompt_len - matched, matched)
                else:
                    duration = self.cost.prefill_time(req.prompt_len)
                if self.slow_windows:
                    stretch = self._slowdown()
                    if stretch != 1.0:
                        duration *= stretch
                req.prefill_pos = req.prompt_len
                req.output.append(_SENTINEL)
                self.clock = start + duration
                self._event(req.request_id, "prefill", start, duration)
                if self._cache_allowed(req):
                    self.prefix_cache.insert(req.prompt)
                req.first_token_time = self.clock
                if req.done:
                    self._finish(req)
                elif self.role == "prefill":
                    self._hand_off(req)

            if self.prefill_chunk is not None:
                target = next_prefill_target(sched.running)
                if target is not None:
                    progress = True
                    chunk = min(self.prefill_chunk,
                                target.prompt_len - target.prefill_pos)
                    duration = self.cost.chunked_prefill_time(
                        chunk, target.prefill_pos)
                    if self.slow_windows:
                        stretch = self._slowdown()
                        if stretch != 1.0:
                            duration *= stretch
                    start = self.clock
                    target.prefill_pos += chunk
                    self.clock = start + duration
                    self._event(target.request_id, "prefill-chunk", start,
                                duration)
                    if target.prefill_pos >= target.prompt_len:
                        target.output.append(_SENTINEL)
                        if self._cache_allowed(target):
                            self.prefix_cache.insert(target.prompt)
                        target.first_token_time = self.clock
                        if target.done:
                            self._finish(target)
                        elif self.role == "prefill":
                            self._hand_off(target)

        if not sched.running:
            if sched.waiting and not progress:
                # Queue non-empty yet nothing admitted: force space for
                # the head request (it fits alone, per validation),
                # draining the cache before declaring deadlock.
                victim = sched.preempt_victim()
                if victim is None:
                    if self.prefix_cache is not None \
                            and self._cache_reclaim(
                                self.pool.num_blocks) > 0:
                        return
                    raise RuntimeError(
                        f"{self.name} deadlock: empty batch but admission "
                        f"failed")
                if self.prefix_cache is not None:
                    self._release_cache(victim)
                self._event(victim.request_id, "preempt", self.clock)
            return

        batch = [r for r in sched.running
                 if r.prefill_pos >= r.prompt_len]
        # Speculative window for this step, clipped exactly as in the
        # engine (a plain step is spec_extra == 1).
        k_eff = 0
        spec_extra = 1
        if self.spec is not None and batch:
            ctx_max = max(r.context_len for r in batch)
            rem_min = min(r.max_new_tokens - len(r.output) for r in batch)
            k_eff = min(self.spec.k,
                        self.model_config.max_seq_len - 1 - ctx_max,
                        rem_min - 1)
            if k_eff >= 1:
                spec_extra = k_eff + 1
            else:
                k_eff = 0
        for req in batch:
            if req not in sched.running:
                continue  # preempted earlier in this same step
            preempted_self = False
            while not self.pool.allocate(req.request_id,
                                         req.context_len + spec_extra):
                # Unreferenced cache blocks are reclaimed before anyone
                # is preempted — eviction costs nothing, preemption
                # discards prefill progress.
                if self.prefix_cache is not None \
                        and self._cache_reclaim(1) > 0:
                    continue
                if spec_extra > 1:
                    # Never preempt anyone just to fit the speculative
                    # window: fall back to a plain step (engine rule).
                    k_eff = 0
                    spec_extra = 1
                    continue
                # Same youngest-first (vLLM recompute) rule as the engine.
                victim = sched.running[-1]
                sched.preempt(victim)
                if self.prefix_cache is not None:
                    self._release_cache(victim)
                self._event(victim.request_id, "preempt", self.clock)
                if victim is req:
                    preempted_self = True
                    break
            if preempted_self:
                continue
        survivors = [r for r in batch if r in sched.running]
        if not survivors:
            return
        if k_eff >= 1:
            # Seeded truncated-geometric acceptance: each of the k_eff
            # drafted positions is kept with probability ``acceptance``
            # until the first rejection; the bonus token always lands.
            for req in survivors:
                room = min(k_eff, req.max_new_tokens - len(req.output) - 1)
                accepted = 0
                while accepted < room \
                        and self._spec_rng.random() < self.spec.acceptance:
                    accepted += 1
                req.output.extend([_SENTINEL] * (accepted + 1))
                self.draft_accepted += accepted
            self.spec_steps += 1
            self.draft_proposed += k_eff * len(survivors)
            total_ctx = sum(r.context_len for r in survivors)
            step_s = self.cost.verify_step_time(len(survivors), total_ctx,
                                                k_eff + 1)
            if self.draft_cost is not None:
                step_s += k_eff * self.draft_cost.decode_step_time(
                    len(survivors), total_ctx)
        else:
            for req in survivors:
                req.output.append(_SENTINEL)
            total_ctx = sum(r.context_len for r in survivors)
            # Billed with the executed batch shape (no max(1, ...)
            # floor): a step that decodes nothing charges nothing.
            step_s = self.cost.decode_step_time(len(survivors), total_ctx)
        if self.slow_windows:
            stretch = self._slowdown()
            if stretch != 1.0:
                step_s *= stretch
        self.clock += step_s
        for req in survivors:
            if req.done:
                self._finish(req)
        self.timeline.append(TimelineSample(
            time=self.clock, queue_depth=sched.queue_depth,
            batch_size=len(survivors),
            pool_utilization=self.pool.utilization,
            context_tokens=total_ctx))


@dataclass
class ClusterResult(ServingResultBase):
    """Everything one cluster run produced (shares the serving base)."""

    policy: str = ""
    num_nodes: int = 0
    layout: str = ""
    #: request id -> (node index, replica index)
    assignments: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: arrivals that hit cluster-level backpressure before routing
    queued_requests: int = 0
    #: process -> lane -> lifecycle events (Chrome-trace shaped)
    lanes: dict[str, dict[str, list[TraceEvent]]] = field(
        default_factory=dict)
    #: requests submitted to the cluster (completed + failed, always)
    submitted: int = 0
    #: requests abandoned after exhausting their failover retries
    failed_records: list[FailedRequest] = field(default_factory=list)
    #: failover re-routes summed over completed and failed requests
    retries_total: int = 0
    #: fraction of submitted requests that completed within the TTFT SLO
    #: (bare completion when no SLO is configured); 1.0 without faults
    availability: float = 1.0
    #: the replayed fault schedule, as ``FaultEvent.to_dict()`` rows
    fault_events: list[dict] = field(default_factory=list)
    #: prefill→decode KV transfers priced on the interconnect
    transfers: int = 0
    #: total wire seconds across those transfers
    transfer_seconds: float = 0.0
    #: in-flight transfers re-queued because their destination died
    transfer_requeues: int = 0
    #: per-transfer detail (src/dst replica, tokens, bytes, duration)
    transfer_records: list[TransferRecord] = field(default_factory=list)
    #: deepest the cluster-level queue ever got
    max_queue_depth: int = 0
    #: ``(time, depth)`` samples of the cluster queue, recorded whenever
    #: the depth changes (also exported as a Chrome-trace counter)
    queue_depth_series: list[tuple[float, int]] = field(
        default_factory=list)
    #: circuit-breaker trips summed over all replicas
    breaker_trips: int = 0

    def per_node_requests(self) -> dict[int, int]:
        """Completed-request count per node index."""
        counts: dict[int, int] = {}
        for node, _replica in self.assignments.values():
            counts[node] = counts.get(node, 0) + 1
        return counts

    def save_trace(self, path: str | Path) -> Path:
        """Export the lifecycle trace as Chrome JSON (one track per node)."""
        return save_lanes_chrome_trace(self.lanes, path)

    def to_dict(self) -> dict:
        data = super().to_dict()
        data.update(
            policy=self.policy, num_nodes=self.num_nodes,
            layout=self.layout, queued_requests=self.queued_requests,
            assignments={str(i): list(a)
                         for i, a in sorted(self.assignments.items())},
            submitted=self.submitted,
            failed=[f.to_dict() for f in self.failed_records],
            retries_total=self.retries_total,
            availability=self.availability,
            fault_events=self.fault_events,
            transfers=self.transfers,
            transfer_seconds=self.transfer_seconds,
            transfer_requeues=self.transfer_requeues,
            transfer_records=[t.to_dict()
                              for t in self.transfer_records],
            max_queue_depth=self.max_queue_depth,
            queue_depth_series=[list(s) for s in self.queue_depth_series],
            breaker_trips=self.breaker_trips)
        return data


class ClusterSimulator:
    """Route Poisson traffic across simulated Frontier serving nodes."""

    def __init__(self, model_config: ModelConfig,
                 config: ClusterConfig | None = None, *,
                 gcd: GCDSpec | None = None, node: NodeSpec | None = None,
                 collectives: CollectiveModel | None = None):
        self.model_config = model_config
        self.config = config or ClusterConfig()
        self.gcd = gcd or GCDSpec()
        self.node = node or NodeSpec()
        layout = self.config.layout
        layout.validate(model_config, self.node, self.gcd)
        serving = self.config.serving
        cost = DecodeCostModel(
            model_config, gcd=self.gcd,
            step_overhead_s=serving.step_overhead_s, tp=layout.tp,
            collectives=collectives or CollectiveModel(self.node))
        pool_config = serving.pool_config()
        if pool_config.num_blocks is None and pool_config.hbm_gb is None:
            # A TP group aggregates its GCDs' HBM; the pool budget is
            # that aggregate minus the (unsharded-total) weights.
            pool_config = replace(pool_config,
                                  hbm_gb=layout.tp * self.gcd.hbm_gb)
        self.replicas = [
            ReplicaServer(n, r, model_config, serving, cost,
                          PagedKVPool(model_config, pool_config,
                                      gcd=self.gcd),
                          role=layout.role_of(r))
            for n in range(self.config.num_nodes)
            for r in range(layout.replicas_per_node)
        ]
        for i, replica in enumerate(self.replicas):
            replica.index = i
        #: event heap of ``(clock, index)`` for replicas that may have
        #: work; entries go stale when their replica idles, dies or
        #: steps, and are skipped on the way out (see :meth:`_laggard`)
        self._ready: list[tuple[float, int]] = []
        self._rr_next = 0
        self._router_events: list[TraceEvent] = []
        self.assignments: dict[int, tuple[int, int]] = {}
        self._pending: list[Request] = []
        # -- disaggregation state (all inert for colocated layouts) -----
        self.transfer_model = KVTransferModel(
            model_config, self.config.transfer,
            collectives=cost.collectives, node=self.node)
        #: in-flight KV transfers: (arrive_time, seq, request, src, dst)
        self._transfers: list[tuple[float, int, Request, int, int]] = []
        self._transfer_events: list[TraceEvent] = []
        #: transfers in flight toward each replica (flat index) — makes
        #: the handoff load metric see work the wire has not delivered
        self._inbound: dict[int, int] = {}
        self._handoff_next = 0            # handoff rotation cursor
        self._affinity: dict[int, int] = {}  # session -> decode replica
        self.transfer_records: list[TransferRecord] = []
        self.transfer_requeues = 0
        # -- overload state (inert under the default OverloadConfig) ----
        self._overload = serving.overload
        self._shed: list[ShedRequest] = []
        self._timed_out: list[TimedOutRequest] = []
        #: (time, depth) samples — recorded only once a queue appears,
        #: so queue-free runs carry no series (and no trace lane)
        self._queue_series: list[tuple[float, int]] = []
        #: the router's wall-clock view, advanced with each event; the
        #: breaker and pending-queue expiry need a "now" outside the
        #: arrival branches
        self._router_clock = 0.0
        self._has_deadlines = False
        # -- failover state (all inert on the fault-free path) ----------
        self._seq = itertools.count()     # heap tie-break counter
        self._deferred: list[tuple[float, int, Request]] = []  # retries
        self._detections: list[tuple[float, int, int]] = []
        self._recoveries: list[tuple[float, int, int]] = []
        self._failed: list[FailedRequest] = []
        self._fault_events: list[dict] = []

    # -- load balancing ------------------------------------------------
    def _candidates(self) -> list[ReplicaServer]:
        """Replicas arrivals may route to: prefill-capable, under cap."""
        cap = self.config.routing.max_outstanding_per_replica
        candidates = [r for r in self.replicas
                      if r.healthy and r.role != "decode"
                      and r.outstanding < cap]
        if self._overload.breaker:
            # Route around open breakers; half-open ones admit only
            # their probe allowance until a success closes them.
            candidates = [r for r in candidates
                          if r.breaker_allows(self._router_clock)]
        return candidates

    def _rotating_min(self, candidates: list[ReplicaServer], load,
                      cursor: int) -> ReplicaServer:
        """Least-``load`` candidate, ties to the first at/after ``cursor``.

        One pass with the key ``(load, (index - cursor) % n)``; under a
        constant ``load`` the rotation alone decides, which is
        round-robin.  The rotating tie-break is what keeps the
        load-aware policies balanced — a fixed lowest-index tie-break
        would funnel all ties onto the first replicas and leave the rest
        idle, which is exactly the imbalance a load balancer exists to
        avoid.
        """
        n = len(self.replicas)
        return min(candidates,
                   key=lambda r: (load(r), (r.index - cursor) % n))

    def _choose(self, request: Request) -> ReplicaServer | None:
        """Pick a replica under the backpressure cap, per policy."""
        candidates = self._candidates()
        if not candidates:
            return None
        policy = self.config.routing.policy
        if policy == "least-outstanding":
            load = attrgetter("outstanding")
        elif policy == "jskq":
            # Join the shortest KV queue — route by worst-case token
            # demand, so one long-context request counts for many short.
            load = attrgetter("kv_demand_tokens")
        elif policy == "cache-aware":
            # Route to the replica whose prefix cache holds the longest
            # prefix of this prompt (a pure peek — probing must not
            # perturb the caches); ties fall back to least-outstanding.
            prompt = request.prompt
            load = lambda r: (
                -(r.prefix_cache.peek(prompt)
                  if r.prefix_cache is not None else 0), r.outstanding)
        else:  # round-robin
            load = _no_load
        chosen = self._rotating_min(candidates, load, self._rr_next)
        self._rr_next = (chosen.index + 1) % len(self.replicas)
        return chosen

    def _dispatch(self, request: Request, replica: ReplicaServer,
                  now: float) -> None:
        self.assignments[request.request_id] = (replica.node_index,
                                                replica.replica_index)
        replica.breaker_admit(now)
        replica.enqueue(request, now)
        self._schedule(replica)

    def _dispatch_pending(self) -> None:
        """FIFO-drain the cluster queue into replicas that freed capacity."""
        if self._has_deadlines and self._pending:
            self._expire_pending(self._router_clock)
        while self._pending:
            replica = self._choose(self._pending[0])
            if replica is None:
                break
            request = self._pending.pop(0)
            self._dispatch(request, replica,
                           max(request.arrival_time, replica.clock))
        self._sample_queue(self._router_clock)

    # -- overload: shedding, timeout bookkeeping, queue depth -----------
    def _sample_queue(self, now: float) -> None:
        """Record the cluster queue depth when it changes.

        The series starts at the first nonzero depth — a run that never
        queues carries no series (and therefore no counter lane in the
        trace), keeping queue-free runs' artifacts unchanged.
        """
        depth = len(self._pending)
        if not self._queue_series:
            if depth == 0:
                return
            self._queue_series.append((now, depth))
        elif self._queue_series[-1][1] != depth:
            self._queue_series.append((now, depth))

    def _timeout_router(self, req: Request, now: float,
                        stage: str) -> None:
        """Record a deadline cancellation decided at the router."""
        self._timed_out.append(TimedOutRequest(
            request_id=req.request_id, arrival=req.arrival_time,
            deadline=req.deadline_s, cancelled_at=now, stage=stage,
            prompt_len=req.prompt_len, output_len=len(req.output)))
        self._router_events.append(TraceEvent(
            f"req{req.request_id}/timeout", now, 0.0, "timeout", "io"))

    def _expire_pending(self, now: float) -> None:
        """Drop cluster-queued requests whose deadline already passed."""
        kept = []
        for req in self._pending:
            if req.deadline_s is not None and now > req.deadline_s:
                self._timeout_router(req, now, "queued")
            else:
                kept.append(req)
        self._pending = kept

    def _shed_request(self, req: Request, now: float,
                      reason: str) -> None:
        self._shed.append(ShedRequest(
            request_id=req.request_id, arrival=req.arrival_time,
            shed_at=now, policy=self._overload.shed_policy,
            reason=reason, tier=req.tier, prompt_len=req.prompt_len,
            deadline=req.deadline_s))
        self._router_events.append(TraceEvent(
            f"req{req.request_id}/shed", now, 0.0, "shed", "io"))

    def _shed_reason(self, req: Request, now: float) -> str | None:
        """Admission-control verdict for an arrival; None admits it.

        ``deadline-estimate`` prices the cluster-wide backlog (pending
        queue plus every healthy prefill-capable replica's work) through
        the shared cost model, spreading it across those replicas;
        arrivals whose deadline the optimistic estimate already breaks
        are provably unattainable.  The queue-depth policies only act
        when the arrival would join the cluster queue.
        """
        overload = self._overload
        policy = overload.shed_policy
        if policy == "deadline-estimate":
            if req.deadline_s is None:
                return None
            servers = [r for r in self.replicas
                       if r.alive and r.healthy and r.role != "decode"]
            if not servers:
                return None
            backlog = list(self._pending)
            for r in servers:
                backlog += r.scheduler.waiting
                backlog += r.scheduler.running
            eta = estimate_backlog_eta(
                servers[0].cost, backlog, req,
                servers[0].scheduler.config.max_batch_size,
                servers=len(servers))
            if now + overload.estimate_margin * eta > req.deadline_s:
                return "deadline-unattainable"
            return None
        would_queue = bool(self._pending) or not self._candidates()
        if not would_queue:
            return None
        if policy == "bounded-queue":
            if len(self._pending) >= overload.max_queue_depth:
                return "queue-full"
            return None
        # priority: interactive arrivals displace queued batch work
        if len(self._pending) < overload.max_queue_depth:
            return None
        if req.tier == "batch":
            return "queue-full"
        for i in range(len(self._pending) - 1, -1, -1):
            if self._pending[i].tier == "batch":
                victim = self._pending.pop(i)
                self._shed_request(victim, now, "priority-evict")
                return None
        return "queue-full"

    def _breaker_ready(self) -> float:
        """Earliest instant an open breaker half-opens (inf if none).

        An extra router event source: with every prefill-capable replica
        behind an open breaker and the fleet idle, nothing else would
        advance the clock to the point the pending queue can drain.
        """
        holds = [r.breaker.ready_at for r in self.replicas
                 if r.breaker is not None and r.healthy
                 and r.role != "decode" and r.breaker.state == "open"]
        return min(holds, default=math.inf)

    def _drain_timeouts(self, replica: ReplicaServer) -> None:
        """Convert a replica's raw cancellations into timeout records."""
        for req, at, stage in replica.timeouts:
            self._timed_out.append(TimedOutRequest(
                request_id=req.request_id, arrival=req.arrival_time,
                deadline=req.deadline_s, cancelled_at=at, stage=stage,
                prompt_len=req.prompt_len, output_len=len(req.output)))
        replica.timeouts.clear()

    # -- prefill → decode handoff ---------------------------------------
    def _choose_decode(self, req: Request) -> ReplicaServer | None:
        """Pick the decode replica a finished prefill ships its KV to.

        ``least-outstanding`` counts in-flight transfers toward a
        replica as load (the wire has committed them); ``session-
        affinity`` pins a session's turns to one decode replica so their
        decode contexts stay co-resident, re-pinning only when the
        sticky target is gone.  No backpressure cap applies: a handoff
        is mid-pipeline, the request already holds cluster resources.
        """
        candidates = [r for r in self.replicas
                      if r.healthy and r.role == "decode"]
        if not candidates:
            return None
        policy = self.config.routing.handoff
        if policy == "session-affinity" and req.session_id is not None:
            sticky = self._affinity.get(req.session_id)
            if sticky is not None:
                replica = self.replicas[sticky]
                if replica.healthy and replica.role == "decode":
                    return replica
        # Own rotation cursor: sharing the arrival cursor would let
        # handoffs perturb arrival placement.
        if policy == "round-robin":
            load = _no_load
        else:  # least-outstanding; also session-affinity's initial pin
            inbound = self._inbound
            load = lambda r: r.outstanding + inbound.get(r.index, 0)
        chosen = self._rotating_min(candidates, load, self._handoff_next)
        self._handoff_next = (chosen.index + 1) % len(self.replicas)
        if policy == "session-affinity" and req.session_id is not None:
            self._affinity[req.session_id] = chosen.index
        return chosen

    def _collect_outbox(self, src: ReplicaServer,
                        fo: FailoverConfig | None) -> None:
        """Turn ``src``'s completed prefills into in-flight KV transfers.

        Called after every replica step, for the replica that stepped —
        only a step fills an outbox or a timeout list.  Each outbox
        entry picks a decode replica, is priced through
        :class:`KVTransferModel` (Slingshot across nodes, Infinity
        Fabric within one), and joins the transfer heap to be delivered
        at ``handoff + duration``.  Replica-level deadline cancellations
        are drained here too — the same after-every-step choke point.
        """
        if src.timeouts:
            self._drain_timeouts(src)
        if src.outbox:
            entries, src.outbox = src.outbox, []
            for req, ready in entries:
                dst = self._choose_decode(req)
                if dst is None:
                    # Every decode replica is down: ride the normal
                    # failover path (re-prefill elsewhere later).
                    if fo is None:  # pragma: no cover — layout invariant
                        raise RuntimeError(
                            "no decode replica available for handoff")
                    self._fail_over(req, ready, fo)
                    continue
                tokens = req.prefill_pos
                same_node = dst.node_index == src.node_index
                if req.deadline_s is not None \
                        and self.transfer_model.delivery_time(
                            tokens, ready, same_node=same_node) \
                        > req.deadline_s:
                    # Dead on arrival: cancel the pending shipment
                    # instead of burning wire time on doomed KV.
                    self._timeout_router(req, ready, "handoff")
                    continue
                duration = self.transfer_model.transfer_time(
                    tokens, same_node=same_node)
                arrive = ready + duration
                self._inbound[dst.index] = \
                    self._inbound.get(dst.index, 0) + 1
                heapq.heappush(self._transfers,
                               (arrive, next(self._seq), req,
                                src.index, dst.index))
                self.transfer_records.append(TransferRecord(
                    request_id=req.request_id,
                    src=(src.node_index, src.replica_index),
                    dst=(dst.node_index, dst.replica_index),
                    tokens=tokens,
                    bytes=self.transfer_model.bytes_for(tokens),
                    start=ready, duration_s=duration,
                    same_node=same_node))
                self._transfer_events.append(TraceEvent(
                    f"req{req.request_id}/kv-transfer", ready, duration,
                    "kv-transfer", "comm"))

    def _deliver(self, fo: FailoverConfig | None) -> None:
        """Complete the earliest in-flight transfer at its destination."""
        arrive, _, req, _src, dst_flat = heapq.heappop(self._transfers)
        self._inbound[dst_flat] -= 1
        dst = self.replicas[dst_flat]
        if not dst.healthy:  # pragma: no cover — detection re-queues
            # in-flight transfers toward a dead replica before this
            # can fire; kept as a defensive no-silent-drop backstop.
            self.transfer_requeues += 1
            self._transfer_events.append(TraceEvent(
                f"req{req.request_id}/kv-requeue", arrive, 0.0,
                "kv-requeue", "comm"))
            self._fail_over(req, arrive, fo, stage="kv-in-flight")
            return
        # A dead-but-undetected destination accepts the import into its
        # queue — the same stale-router window arrivals see; detection
        # fails the request over with the rest of its in-flight work.
        self.assignments[req.request_id] = (dst.node_index,
                                            dst.replica_index)
        dst.enqueue(req, max(arrive, dst.clock))
        self._schedule(dst)

    def _requeue_transfers(self, dst_flat: int, now: float,
                           fo: FailoverConfig) -> None:
        """Failover: re-queue in-flight transfers toward a dead replica.

        No silent drop — each affected request rides the normal retry
        path (backoff, re-route, re-prefill), exactly like the dead
        replica's resident requests.  Transfers *from* a dead replica
        are unaffected: their bytes already left its HBM.
        """
        kept = []
        for entry in self._transfers:
            if entry[4] != dst_flat:
                kept.append(entry)
                continue
            req = entry[2]
            self._inbound[dst_flat] -= 1
            self.transfer_requeues += 1
            self._transfer_events.append(TraceEvent(
                f"req{req.request_id}/kv-requeue", now, 0.0,
                "kv-requeue", "comm"))
            self._fail_over(req, now, fo, stage="kv-in-flight")
        if len(kept) != len(self._transfers):
            self._transfers = kept
            heapq.heapify(self._transfers)

    # ------------------------------------------------------------------
    def run(self, requests: list[Request]) -> ClusterResult:
        """Serve the workload to completion across all nodes."""
        if not requests:
            raise ValueError("no requests to serve")
        first = self.replicas[0]
        _validate_requests(requests, first.pool, first.scheduler.config,
                           self.model_config.max_seq_len)
        arrivals = sorted(requests, key=lambda r: (r.arrival_time,
                                                   r.request_id))
        self.assignments: dict[int, tuple[int, int]] = {}
        self._pending: list[Request] = []
        self._has_deadlines = any(r.deadline_s is not None
                                  for r in arrivals)
        for replica in self.replicas:
            replica.deadline_checks = self._has_deadlines
        faults = self.config.faults
        if faults is None or faults.fault_free:
            queued = self._run_fault_free(arrivals)
        else:
            queued = self._run_with_faults(arrivals, faults)
        return self._assemble(arrivals, queued)

    # -- the replica event heap ------------------------------------------
    def _schedule(self, replica: ReplicaServer) -> None:
        """Put ``replica`` on the event heap at its current clock."""
        heapq.heappush(self._ready, (replica.clock, replica.index))

    def _laggard(self) -> ReplicaServer | None:
        """The live busy replica with the smallest ``(clock, index)``.

        Peeks the event heap, discarding stale entries on the way: the
        replica died or idled, or stepped past the entry's clock.  Every
        live busy replica always holds an entry at its current clock
        (pushed on enqueue, on revival and after each step that leaves
        it busy), so the first fresh entry is the fleet's laggard, with
        the index breaking clock ties.
        """
        ready = self._ready
        while ready:
            clock, index = ready[0]
            replica = self.replicas[index]
            if replica.alive and replica.clock == clock and replica.busy:
                return replica
            heapq.heappop(ready)
        return None

    def _step(self, replica: ReplicaServer,
              fo: FailoverConfig | None) -> None:
        """Step one replica, re-arm its heap entry, collect its output."""
        replica.step()
        if replica.busy:
            self._schedule(replica)
        self._collect_outbox(replica, fo)

    def _advance_replicas(self, t_target: float,
                          fo: FailoverConfig | None) -> float:
        """Advance the fleet to ``t_target``, collecting handoffs.

        Steps the laggard among busy replicas one at a time so a
        prefill completing mid-advance can schedule a KV delivery
        *earlier* than the target — the target then shrinks so the
        delivery is processed in clock order.  Returns the (possibly
        shrunk) target; idle and dead replicas' clocks are lifted to it.
        """
        while True:
            laggard = self._laggard()
            if laggard is None or laggard.clock >= t_target:
                break
            self._step(laggard, fo)
            if self._transfers and self._transfers[0][0] < t_target:
                t_target = self._transfers[0][0]
        for replica in self.replicas:
            if replica.clock < t_target:
                replica.clock = t_target
        return t_target

    def _run_fault_free(self, arrivals: list[Request]) -> int:
        """Arrival/delivery/drain loop without faults; returns queued.

        For colocated layouts no transfers ever exist and this reduces
        to the original exact arrival loop; disaggregated layouts
        interleave KV deliveries with arrivals on the virtual clock
        (ties resolve delivery first — imported work is mid-pipeline).
        """
        queued = 0
        index = 0
        while True:
            t_arrive = arrivals[index].arrival_time \
                if index < len(arrivals) else math.inf
            t_deliver = self._transfers[0][0] if self._transfers \
                else math.inf
            t_router = min(t_arrive, t_deliver)

            if math.isinf(t_router):
                # Drain: step the laggard until queued work can route
                # and every replica idles (handoffs may appear anytime).
                self._dispatch_pending()
                laggard = self._laggard()
                if laggard is None:
                    if self._pending:  # pragma: no cover — cap >= 1
                        raise RuntimeError(
                            "cluster stalled with queued requests")
                    break
                self._step(laggard, None)
                self._router_clock = max(self._router_clock,
                                         laggard.clock)
                continue

            t_router = self._advance_replicas(t_router, None)
            self._router_clock = max(self._router_clock, t_router)
            self._dispatch_pending()
            t_deliver = self._transfers[0][0] if self._transfers \
                else math.inf
            if t_deliver <= t_router:
                self._deliver(None)
                continue

            req = arrivals[index]
            index += 1
            t = req.arrival_time
            self._router_events.append(TraceEvent(
                f"req{req.request_id}/arrive", t, 0.0, "arrive", "io"))
            if self._overload.shedding:
                reason = self._shed_reason(req, t)
                if reason is not None:
                    self._shed_request(req, t, reason)
                    self._sample_queue(t)
                    continue
            replica = self._choose(req) if not self._pending else None
            if replica is None:
                # Backpressure: every replica is at its admission cap
                # (or earlier arrivals are still queued ahead of us).
                queued += 1
                self._router_events.append(TraceEvent(
                    f"req{req.request_id}/queue", t, 0.0, "queue", "io"))
                self._pending.append(req)
                self._sample_queue(t)
            else:
                self._dispatch(req, replica, t)
        return queued

    # -- failover path --------------------------------------------------
    def _run_with_faults(self, arrivals: list[Request],
                         faults: FaultConfig) -> int:
        """Arrival/drain loop interleaved with the seeded fault process.

        The router's next event is the earliest of: arrival, health-check
        detection, replica recovery, retry-backoff expiry, KV-transfer
        delivery.  Fault onsets at or before that instant are applied
        first (each takes effect at its victim's next step boundary), so
        no replica ever computes past an unapplied fault.
        """
        fm = FaultModel(faults, len(self.replicas),
                        gcds_per_component=self.config.layout.tp,
                        num_link_domains=self.config.num_nodes)
        fo = self.config.failover
        queued = 0
        index = 0  # next arrival
        while True:
            t_arrive = arrivals[index].arrival_time \
                if index < len(arrivals) else math.inf
            t_detect = self._detections[0][0] \
                if self._detections else math.inf
            t_recover = self._recoveries[0][0] \
                if self._recoveries else math.inf
            t_retry = self._deferred[0][0] if self._deferred else math.inf
            t_deliver = self._transfers[0][0] if self._transfers \
                else math.inf
            t_breaker = self._breaker_ready() \
                if self._overload.breaker and self._pending else math.inf
            t_router = min(t_arrive, t_detect, t_recover, t_retry,
                           t_deliver, t_breaker)

            if math.isinf(t_router):
                # No router events left: drain survivors, still letting
                # fault onsets they reach interrupt them.
                laggard = self._laggard()
                if laggard is None:
                    break
                if fm.peek_time() <= laggard.clock:
                    self._apply_fault(fm.pop(), fo)
                else:
                    self._step(laggard, fo)
                    self._router_clock = max(self._router_clock,
                                             laggard.clock)
                    self._dispatch_pending()
                continue

            if fm.peek_time() <= t_router:
                self._apply_fault(fm.pop(), fo)
                continue

            t_router = self._advance_replicas(t_router, fo)
            self._router_clock = max(self._router_clock, t_router)
            self._dispatch_pending()

            # Equal-time ties resolve detection -> recovery -> delivery
            # -> retry -> arrival: a router must notice a death before
            # it can route around it, revive, deliver into the slot, or
            # hand it to new work.  A mid-advance handoff can shrink
            # t_router below every queue head — then only the delivery
            # branch can fire.
            t_deliver = self._transfers[0][0] if self._transfers \
                else math.inf
            if t_detect == t_router:
                _, _, flat = heapq.heappop(self._detections)
                replica = self.replicas[flat]
                replica.healthy = False
                replica._fault_event("detect", t_router)
                # Open the breaker across the expected outage: detection
                # fires detection_s after death, recovery recovery_s, so
                # the remaining downtime is their difference (a fail-stop
                # replica never returns — hold the breaker open forever).
                replica.breaker_trip(
                    t_router, math.inf if fo.fail_stop
                    else fo.recovery_s - fo.detection_s)
                for req in replica.take_in_flight():
                    self._fail_over(req, t_router, fo)
                # In-flight transfers toward the dead replica are
                # re-queued with its resident requests — never dropped.
                self._requeue_transfers(flat, t_router, fo)
            elif t_recover == t_router:
                _, _, flat = heapq.heappop(self._recoveries)
                self.replicas[flat].revive(t_router)
                self._schedule(self.replicas[flat])
                self._dispatch_pending()
            elif t_deliver <= t_router:
                self._deliver(fo)
            elif t_retry == t_router:
                # Retries bypass admission control: the request already
                # holds mid-pipeline investment (a served TTFT, billed
                # prefill) that shedding it would discard.
                _, _, req = heapq.heappop(self._deferred)
                replica = self._choose(req) if not self._pending else None
                if replica is None:
                    self._router_events.append(TraceEvent(
                        f"req{req.request_id}/queue", t_router, 0.0,
                        "queue", "io"))
                    self._pending.append(req)
                    self._sample_queue(t_router)
                else:
                    self._dispatch(req, replica, t_router)
            elif t_arrive > t_router:
                # Breaker-reopen tick: _dispatch_pending above already
                # routed what the half-open breaker's probes admit.
                continue
            else:
                req = arrivals[index]
                index += 1
                self._router_events.append(TraceEvent(
                    f"req{req.request_id}/arrive", t_router, 0.0,
                    "arrive", "io"))
                if self._overload.shedding:
                    reason = self._shed_reason(req, t_router)
                    if reason is not None:
                        self._shed_request(req, t_router, reason)
                        self._sample_queue(t_router)
                        continue
                replica = self._choose(req) if not self._pending else None
                if replica is None:
                    queued += 1
                    self._router_events.append(TraceEvent(
                        f"req{req.request_id}/queue", t_router, 0.0,
                        "queue", "io"))
                    self._pending.append(req)
                    self._sample_queue(t_router)
                else:
                    self._dispatch(req, replica, t_router)

        if self._pending:
            raise ValueError(
                f"cluster has zero surviving replicas: "
                f"{len(self._pending)} requests cannot be served because "
                f"every replica failed and recovery_s="
                f"{fo.recovery_s} never revives one; set a finite "
                f"recovery_s or raise mtbf_hours "
                f"(={faults.mtbf_hours})")
        return queued

    def _apply_fault(self, event: FaultEvent, fo: FailoverConfig) -> None:
        """Take one sampled fault into effect at its victim."""
        self._fault_events.append(event.to_dict())
        if event.kind == "failure":
            replica = self.replicas[event.component]
            if not replica.alive:
                return  # struck an already-down replica: absorbed
            # The victim finishes steps it started before the onset
            # (steps are atomic); death lands on the first boundary
            # at or after it.
            while replica.alive and replica.busy \
                    and replica.clock < event.time_s:
                self._step(replica, fo)
                self._dispatch_pending()
            replica.kill(event.time_s)
            heapq.heappush(self._detections,
                           (replica.clock + fo.detection_s,
                            next(self._seq), replica.index))
            if not fo.fail_stop:
                heapq.heappush(self._recoveries,
                               (replica.clock + fo.recovery_s,
                                next(self._seq), replica.index))
        elif event.kind == "straggler":
            replica = self.replicas[event.component]
            replica.slow_windows.append(
                (event.time_s, event.time_s + event.window_s,
                 event.factor))
            replica._fault_event("straggler", event.time_s,
                                 event.window_s)
            # A straggler is overload's soft failure: open the breaker
            # across the slow window so fresh traffic routes around it.
            replica.breaker_trip(event.time_s, event.window_s)
        else:  # link-degrade: the component is a *node* index
            for replica in self.replicas:
                if replica.node_index != event.component:
                    continue
                if replica.comm_fraction <= 0.0:
                    continue  # TP=1 decode sends no cross-GCD traffic
                # Only the allreduce share slows by 1/factor.
                stretch = 1.0 + replica.comm_fraction \
                    * (1.0 / event.factor - 1.0)
                replica.slow_windows.append(
                    (event.time_s, event.time_s + event.window_s,
                     stretch))
                replica._fault_event("link-degrade", event.time_s,
                                     event.window_s)

    def _fail_over(self, req: Request, now: float,
                   fo: FailoverConfig, stage: str = "queued") -> None:
        """Re-queue a killed request with backoff, or abandon it.

        An expired deadline short-circuits the retry: there is no point
        re-prefilling work whose answer can no longer arrive in time.
        ``stage`` names where the request was when its replica (or its
        KV transfer's destination) died, for the timeout record.
        """
        if self._has_deadlines and req.deadline_s is not None \
                and now > req.deadline_s:
            self._timeout_router(req, now, stage)
            return
        retry = fo.retry
        if req.retries >= retry.max_retries:
            self._failed.append(FailedRequest(
                request_id=req.request_id, arrival=req.arrival_time,
                failed_at=now, retries=req.retries,
                prompt_len=req.prompt_len))
            self._router_events.append(TraceEvent(
                f"req{req.request_id}/failed", now, 0.0, "failed", "io"))
            return
        req.reset_for_failover()
        ready = now + retry.delay(req.request_id, req.retries)
        heapq.heappush(self._deferred,
                       (ready, next(self._seq), req))
        self._router_events.append(TraceEvent(
            f"req{req.request_id}/retry", now, 0.0, "retry", "io"))

    # -- result assembly ------------------------------------------------
    def _assemble(self, arrivals: list[Request],
                  queued: int) -> ClusterResult:
        submitted = len(arrivals)
        records = sorted((rec for r in self.replicas for rec in r.records),
                         key=lambda rec: rec.request_id)
        failed = sorted(self._failed, key=lambda f: f.request_id)
        shed = sorted(self._shed, key=lambda s: s.request_id)
        timed_out = sorted(self._timed_out, key=lambda t: t.request_id)
        if len(records) + len(failed) + len(shed) + len(timed_out) \
                != submitted:
            raise RuntimeError(  # pragma: no cover — simulator invariant
                f"request accounting broken: {len(records)} completed + "
                f"{len(failed)} failed + {len(shed)} shed + "
                f"{len(timed_out)} timed out != {submitted} submitted")
        if not records:
            fo = self.config.failover
            faults = self.config.faults
            raise ValueError(
                f"no requests completed: all {submitted} were shed "
                f"({len(shed)}), timed out ({len(timed_out)}), or "
                f"exhausted max_retries={fo.retry.max_retries} under "
                f"mtbf_hours="
                f"{faults.mtbf_hours if faults else math.inf}; relax "
                f"the overload policy, raise max_retries, shorten "
                f"recovery_s, or raise mtbf_hours")
        timeline = sorted((s for r in self.replicas for s in r.timeline),
                          key=lambda s: s.time)
        cache_stats = None
        caches = [r.prefix_cache for r in self.replicas
                  if r.prefix_cache is not None]
        if caches:
            cache_stats = caches[0].stats
            for extra in caches[1:]:
                cache_stats = cache_stats.merged(extra.stats)
        metrics = ServingMetrics.from_records(
            records, timeline,
            makespan=max(rec.finish for rec in records),
            peak_pool_utilization=max(r.pool.peak_utilization
                                      for r in self.replicas),
            preemptions=sum(r.scheduler.total_preemptions
                            for r in self.replicas),
            cache=cache_stats, shed=len(shed), timed_out=len(timed_out),
            deadline_total=sum(1 for r in arrivals
                               if r.deadline_s is not None),
            spec_steps=sum(r.spec_steps for r in self.replicas),
            draft_proposed=sum(r.draft_proposed for r in self.replicas),
            draft_accepted=sum(r.draft_accepted for r in self.replicas))
        slo = self.config.failover.slo_ttft_s
        lanes: dict[str, dict[str, list[TraceEvent]]] = {
            "cluster": {"router": self._router_events}}
        if self.config.layout.disaggregated:
            # Transfers get their own lane next to the router: wire time
            # is cluster-level, owned by neither endpoint replica.
            lanes["cluster"]["kv-transfer"] = self._transfer_events
        if self._queue_series:
            # Queue depth as a counter lane: each sample's value rides
            # the TraceEvent duration slot (the exporter turns
            # category="counter" into Chrome ``ph: "C"`` events).
            lanes["cluster"]["queue-depth"] = [
                TraceEvent("cluster-queue-depth", t, float(depth),
                           "counter", "io")
                for t, depth in self._queue_series]
        for replica in self.replicas:
            role = f", {replica.role}" if replica.role != "mixed" else ""
            lanes.setdefault(f"node{replica.node_index}", {})[
                f"replica{replica.replica_index} "
                f"(TP={self.config.layout.tp}{role})"] = replica.events
        return ClusterResult(
            records=records, metrics=metrics,
            shed_records=shed, timeout_records=timed_out,
            policy=self.config.routing.policy,
            num_nodes=self.config.num_nodes,
            layout=self.config.layout.label,
            assignments=self.assignments, queued_requests=queued,
            lanes=lanes, submitted=submitted, failed_records=failed,
            retries_total=sum(rec.retries for rec in records)
            + sum(f.retries for f in failed),
            availability=slo_availability(records, submitted, slo),
            fault_events=self._fault_events,
            transfers=len(self.transfer_records),
            transfer_seconds=sum(t.duration_s
                                 for t in self.transfer_records),
            transfer_requeues=self.transfer_requeues,
            transfer_records=self.transfer_records,
            max_queue_depth=max((d for _, d in self._queue_series),
                                default=0),
            queue_depth_series=list(self._queue_series),
            breaker_trips=sum(r.breaker.trips for r in self.replicas
                              if r.breaker is not None))


def format_cluster(results: list[ClusterResult],
                   title: str = "cluster sweep") -> str:
    """Render per-policy/per-size results as an aligned comparison table."""
    if not results:
        raise ValueError("no cluster results to format")
    header = ["policy", "nodes", "layout", "p50 TTFT", "p99 TTFT",
              "p50 TPOT", "p99 TPOT", "tok/s", "preempt", "queued",
              "avail", "retries", "failed", "hit%", "saved"]
    with_transfers = any(res.transfers for res in results)
    if with_transfers:
        header += ["xfers", "xfer ms", "requeued"]
    with_overload = any(res.metrics.shed or res.metrics.timed_out
                        or res.metrics.degraded for res in results)
    if with_overload:
        header += ["shed", "t/o", "degr", "goodput", "attain"]
    rows = []
    for res in results:
        ttft = res.percentiles("ttft", (50.0, 99.0))
        tpot = res.percentiles("tpot", (50.0, 99.0))
        m = res.metrics
        row = [
            res.policy, str(res.num_nodes), res.layout,
            f"{ttft[50.0] * 1e3:.2f} ms", f"{ttft[99.0] * 1e3:.2f} ms",
            f"{tpot[50.0] * 1e3:.2f} ms", f"{tpot[99.0] * 1e3:.2f} ms",
            f"{m.tokens_per_s:.0f}",
            str(m.preemptions), str(res.queued_requests),
            f"{res.availability:.1%}", str(res.retries_total),
            str(len(res.failed_records)),
            f"{m.cache_hit_rate:.0%}" if m.cache_lookups else "-",
            str(m.prefill_tokens_saved) if m.cache_lookups else "-"]
        if with_transfers:
            mean_ms = res.transfer_seconds / res.transfers * 1e3 \
                if res.transfers else 0.0
            row += [str(res.transfers), f"{mean_ms:.3f}",
                    str(res.transfer_requeues)]
        if with_overload:
            row += [str(m.shed), str(m.timed_out), str(m.degraded),
                    f"{m.goodput_tokens_per_s:.0f}",
                    f"{m.deadline_attainment:.1%}"]
        rows.append(row)
    widths = [max(len(header[i]), max(len(row[i]) for row in rows))
              for i in range(len(header))]
    lines = [title, "-" * len(title),
             "  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines += ["  ".join(cell.ljust(widths[i])
                        for i, cell in enumerate(row)) for row in rows]
    return "\n".join(lines)
