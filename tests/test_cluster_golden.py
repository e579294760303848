"""Golden scheduling test for the cluster simulator.

Small seeded runs of every routing policy, a disaggregated layout, the
failover path and deadline shedding, compared field by field against
per-request timings and placements stored in
``tests/data/cluster_golden.json``.  Each run's step order decides every
admit, first-token and finish time, so a change to how the simulator
picks the next replica to step (or how it breaks clock ties) shows up
here even when every aggregate still looks plausible.

The stored file is regenerated only when a scheduling change is
intended::

    PYTHONPATH=src python tests/test_cluster_golden.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.faults import FaultConfig, RetryPolicy
from repro.models import preset
from repro.serving import (ClusterConfig, ClusterSimulator, FailoverConfig,
                           OverloadConfig, ReplicaLayout, Request,
                           RoutingConfig,
                           ServingConfig, SessionWorkloadConfig,
                           WorkloadConfig, synthesize_sessions,
                           synthesize_workload)

GOLDEN = Path(__file__).parent / "data" / "cluster_golden.json"

MODEL = "llama-1.7b-hf-52k"


def _workload(model_config, n=64, rate=3000.0, seed=0, **kw):
    defaults = dict(prompt_len_range=(64, 256), output_len_range=(16, 64),
                    prompt_skew=0.15, heavy_multiplier=8)
    defaults.update(kw)
    return synthesize_workload(
        WorkloadConfig(num_requests=n, arrival_rate=rate, seed=seed,
                       **defaults), model_config)


def _failover():
    return FailoverConfig(detection_s=0.01, recovery_s=0.5,
                          retry=RetryPolicy(max_retries=3, seed=5),
                          slo_ttft_s=1.0)


def _routing(policy):
    # 16 replicas under a tight cap and a small pool: arrivals tie on
    # load, spill into the cluster queue and preempt each other, so the
    # rotation cursor, the pending-queue drain and LIFO preemption all
    # shape the schedule.
    def build(model_config):
        cfg = ClusterConfig(
            num_nodes=2, layout=ReplicaLayout.from_label("8xTP1"),
            routing=RoutingConfig(policy=policy,
                                  max_outstanding_per_replica=3),
            serving=ServingConfig(num_blocks=32))
        return cfg, _workload(model_config, seed=1, prompt_skew=0.0)
    return build


def _bursts(n=96, waves=3):
    """Identical requests arriving in simultaneous waves.

    Replicas serving identical work step in lockstep, so their clocks
    tie exactly; which of them steps first then decides where the
    cluster queue drains to and in what order handoffs ship.
    """
    return [Request(request_id=i, prompt=np.arange(1, 129),
                    max_new_tokens=16 + 16 * (i % 2),
                    arrival_time=0.001 * (i * waves // n))
            for i in range(n)]


def _burst(layout):
    def build(model_config):
        cfg = ClusterConfig(
            num_nodes=2, layout=ReplicaLayout.from_label(layout),
            routing=RoutingConfig(policy="least-outstanding",
                                  max_outstanding_per_replica=2))
        return cfg, _bursts()
    return build


def _cache_aware(model_config):
    cfg = ClusterConfig(
        num_nodes=1, layout=ReplicaLayout.from_label("4xTP1"),
        routing=RoutingConfig(policy="cache-aware"),
        serving=ServingConfig(prefix_cache=True, prefix_cache_blocks=64))
    return cfg, synthesize_sessions(
        SessionWorkloadConfig(num_sessions=8, arrival_rate=50.0, seed=0),
        model_config)


def _disagg(model_config):
    cfg = ClusterConfig(
        num_nodes=2, layout=ReplicaLayout.from_label("2P6DxTP1"),
        routing=RoutingConfig(policy="least-outstanding"))
    return cfg, _workload(model_config, n=48, rate=800.0, seed=2)


def _faults(model_config):
    cfg = ClusterConfig(
        num_nodes=1, layout=ReplicaLayout.from_label("8xTP1"),
        routing=RoutingConfig(policy="least-outstanding"),
        serving=ServingConfig(max_batch_tokens=8192),
        faults=FaultConfig(mtbf_hours=0.0002, seed=11),
        failover=_failover())
    return cfg, _workload(model_config, n=64, rate=30.0, seed=3,
                          prompt_len_range=(128, 512),
                          output_len_range=(128, 256), prompt_skew=0.0)


def _disagg_faults(model_config):
    cfg = ClusterConfig(
        num_nodes=1, layout=ReplicaLayout.from_label("6P2DxTP1"),
        routing=RoutingConfig(policy="least-outstanding"),
        serving=ServingConfig(max_batch_tokens=8192),
        faults=FaultConfig(mtbf_hours=0.0002, seed=28),
        failover=_failover())
    return cfg, _workload(model_config, n=64, rate=30.0, seed=3,
                          prompt_len_range=(128, 512),
                          output_len_range=(128, 256), prompt_skew=0.0)


def _deadline_shed(model_config):
    cfg = ClusterConfig(
        num_nodes=1, layout=ReplicaLayout.from_label("8xTP1"),
        routing=RoutingConfig(policy="round-robin"),
        serving=ServingConfig(
            max_batch_tokens=8192,
            overload=OverloadConfig(shed_policy="deadline-estimate")))
    return cfg, _workload(model_config, n=64, rate=5000.0, seed=3,
                          prompt_len_range=(128, 512),
                          output_len_range=(128, 256), prompt_skew=0.0,
                          deadline_s=0.6)


def _faults_deadline_breaker(model_config):
    cfg = ClusterConfig(
        num_nodes=1, layout=ReplicaLayout.from_label("8xTP1"),
        routing=RoutingConfig(policy="least-outstanding"),
        serving=ServingConfig(
            max_batch_tokens=8192,
            overload=OverloadConfig(breaker=True)),
        faults=FaultConfig(mtbf_hours=0.0002, straggler_mtbe_hours=0.0005,
                           seed=11),
        failover=_failover())
    return cfg, _workload(model_config, n=64, rate=40.0, seed=3,
                          prompt_len_range=(128, 512),
                          output_len_range=(128, 256), prompt_skew=0.0,
                          deadline_s=1.5)


SCENARIOS = {
    "least-outstanding": _routing("least-outstanding"),
    "jskq": _routing("jskq"),
    "round-robin": _routing("round-robin"),
    "cache-aware": _cache_aware,
    "burst-ties": _burst("8xTP1"),
    "burst-ties-disagg": _burst("2P6DxTP1"),
    "disagg-2P6D": _disagg,
    "faults-mtbf": _faults,
    "disagg-faults": _disagg_faults,
    "deadline-estimate": _deadline_shed,
    "faults-deadline-breaker": _faults_deadline_breaker,
}


def snapshot(name: str) -> dict:
    """Everything the step order decides for one scenario, JSON-shaped."""
    model_config = preset(MODEL)
    cfg, requests = SCENARIOS[name](model_config)
    result = ClusterSimulator(model_config, cfg).run(requests)
    return {
        "records": [[r.request_id, r.arrival, r.admit, r.first_token,
                     r.finish, r.output_len, r.preemptions, r.retries]
                    for r in result.records],
        "assignments": [[rid, *where] for rid, where
                        in sorted(result.assignments.items())],
        "failed": [[f.request_id, f.failed_at, f.retries]
                   for f in result.failed_records],
        "shed": [[s.request_id, s.shed_at, s.reason]
                 for s in result.shed_records],
        "timed_out": [[t.request_id, t.cancelled_at, t.stage]
                      for t in result.timeout_records],
        "transfers": [[t.request_id, *t.src, *t.dst, t.start]
                      for t in result.transfer_records],
        "fault_events": len(result.fault_events),
        "preemptions": result.metrics.preemptions,
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_schedule_matches_golden(golden, name):
    got = json.loads(json.dumps(snapshot(name)))
    want = golden[name]
    for key in want:
        assert got[key] == want[key], f"{name}: {key} differs"


def test_golden_scenarios_exercise_their_paths(golden):
    """The stored runs really reach the paths they are meant to pin."""
    assert golden["disagg-2P6D"]["transfers"]
    assert golden["faults-mtbf"]["fault_events"] > 0
    assert any(r[7] > 0 for r in golden["faults-mtbf"]["records"])
    assert golden["disagg-faults"]["transfers"]
    assert golden["deadline-estimate"]["shed"]
    assert golden["faults-deadline-breaker"]["fault_events"] > 0
    assert golden["deadline-estimate"]["timed_out"]
    for name in ("least-outstanding", "jskq", "round-robin"):
        assert golden[name]["preemptions"] > 0
        placed = {tuple(a[1:]) for a in golden[name]["assignments"]}
        assert len(placed) == 16


def _dumps(data: dict) -> str:
    """JSON with one row per line, so a schedule change diffs by row."""
    def field(key, value):
        if isinstance(value, list) and value:
            rows = ",\n".join(f"   {json.dumps(row)}" for row in value)
            return f"  {json.dumps(key)}: [\n{rows}\n  ]"
        return f"  {json.dumps(key)}: {json.dumps(value)}"
    blocks = [f" {json.dumps(name)}: {{\n"
              + ",\n".join(field(k, v) for k, v in snap.items()) + "\n }"
              for name, snap in data.items()]
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: snapshot(name) for name in sorted(SCENARIOS)}
    GOLDEN.write_text(_dumps(data))
    for name, snap in data.items():
        print(f"{name}: {len(snap['records'])} completed, "
              f"{len(snap['shed'])} shed, {len(snap['timed_out'])} timed "
              f"out, {len(snap['failed'])} failed, "
              f"{len(snap['transfers'])} transfers, "
              f"{snap['fault_events']} fault events, "
              f"{snap['preemptions']} preemptions")
