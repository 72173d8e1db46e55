"""ServingConfig consolidation, the EstimationClient protocol, gate --only.

Covers the PR 6 API-redesign satellites: one validated config object for
every serving knob (dict round-trip for deployment files, hard errors on
typos) that is the only way to configure a service, a single client
protocol every serving depth satisfies, and the
regression gate accepting comma-separated ``--only`` bench lists.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ServingError
from repro.serving import (
    CascadeConfig,
    EstimationClient,
    EstimationService,
    MicroBatchScheduler,
    ModelRegistry,
    ServingConfig,
    WorkerPool,
)
from repro.serving.updates import RefreshPolicy


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
def test_defaults_validate_and_match_refresh_policy_defaults():
    config = ServingConfig()
    assert config.refresh_policy() == RefreshPolicy()


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_batch", 0),
        ("max_wait_us", -1),
        ("cache_size", -1),
        ("budget_bytes", 0),
        ("workers", -1),
        ("min_shard", 0),
        ("drift_threshold", 1.5),
        ("ingest_threshold", -0.1),
        ("qerror_threshold", 0.5),
        ("retrain_drift_threshold", 2.0),
        ("fast_fraction", 0.0),
        ("train_duty", 1.5),
        ("min_interval_seconds", -1.0),
        ("poll_interval", 0.0),
    ],
)
def test_invalid_fields_fail_at_construction(field, value):
    with pytest.raises(ServingError, match=field.split("_")[0]):
        ServingConfig(**{field: value})


def test_config_is_frozen():
    config = ServingConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.max_batch = 128


# ----------------------------------------------------------------------
# Dict round-trip
# ----------------------------------------------------------------------
def test_dict_round_trip_is_exact():
    config = ServingConfig(workers=4, max_batch=32, budget_bytes=1 << 20, qerror_threshold=8.0)
    assert ServingConfig.from_dict(config.to_dict()) == config
    # and the dict is JSON-serializable (deployment-file friendly)
    assert ServingConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config


def test_unknown_keys_are_hard_errors():
    with pytest.raises(ServingError, match="max_batchh"):
        ServingConfig.from_dict({"max_batchh": 32})


def test_per_request_sampling_bound_is_not_a_config_field():
    with pytest.raises(ServingError, match="max_rel_var"):
        ServingConfig.from_dict({"max_rel_var": 0.1})


@pytest.mark.parametrize(
    "retired, value", [("n_samples", 64), ("worker_start", "spawn"), ("max_inflight", 2)]
)
def test_removed_fields_are_rejected(retired, value):
    """The sample count is the model's; workers always spawn, two shards deep."""
    with pytest.raises(ServingError, match=retired):
        ServingConfig.from_dict({retired: value})
    with pytest.raises(TypeError, match=retired):
        ServingConfig(**{retired: value})


def test_result_cache_is_retired():
    assert ServingConfig().cache_size == 0
    assert ServingConfig.from_dict({"cache_size": 0}) == ServingConfig()
    for size in (1, 1024):
        with pytest.raises(ServingError, match="result cache was removed"):
            ServingConfig(cache_size=size)


# ----------------------------------------------------------------------
# ServingConfig is the only way in: the pre-config keywords are gone
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "legacy", ["max_batch", "max_wait_us", "cache_size", "n_samples"]
)
def test_legacy_service_kwargs_are_rejected(legacy):
    with pytest.raises(TypeError, match=legacy):
        EstimationService(**{legacy: 8})


# ----------------------------------------------------------------------
# EstimationClient protocol
# ----------------------------------------------------------------------
def test_every_serving_depth_satisfies_the_protocol(oracle_engine):
    from tests.serving.conftest import FakeModel

    registry = ModelRegistry()
    registry.register("m", FakeModel(tag=1.0))
    scheduler = MicroBatchScheduler(lambda: (oracle_engine, 0))
    pool = WorkerPool(n_workers=1, name="protocol")
    service = EstimationService(registry)
    try:
        for client in (oracle_engine, scheduler, service):
            assert isinstance(client, EstimationClient), type(client)
        # The pool has one way in, the scheduler's executor hook.
        assert not isinstance(pool, EstimationClient)
    finally:
        service.close()
        scheduler.close()
        pool.close()


def test_harness_concurrency_accepts_plain_estimators(oracle_engine, workload):
    """evaluate_estimator(concurrency=N) no longer requires submit()."""
    from repro.eval.harness import evaluate_estimator

    class Plain:
        """estimate-only client: no submit, no estimate_batch."""

        def __init__(self, engine):
            self._engine = engine

        def estimate(self, query, **kwargs):
            return float(self._engine.estimate(query, **kwargs))

    truths = [1.0] * len(workload)
    result = evaluate_estimator(
        "plain", Plain(oracle_engine), workload, truths, concurrency=3
    )
    assert len(result.estimates) == len(workload)
    assert all(est > 0 for est in result.estimates)


# ----------------------------------------------------------------------
# check_regression --only comma lists
# ----------------------------------------------------------------------
def _run_gate(tmp_path: Path, only_args, extra=()):
    baseline = {
        "tolerance": 0.25,
        "metrics": {
            "alpha.qps": {"value": 100.0, "direction": "higher"},
            "beta.qps": {"value": 100.0, "direction": "higher"},
            "gamma.qps": {"value": 100.0, "direction": "higher"},
        },
    }
    (tmp_path / "baseline.json").write_text(json.dumps(baseline))
    (tmp_path / "alpha.json").write_text(json.dumps({"bench": "alpha", "qps": 200.0}))
    (tmp_path / "beta.json").write_text(json.dumps({"bench": "beta", "qps": 200.0}))
    script = Path(__file__).resolve().parents[2] / "benchmarks" / "check_regression.py"
    return subprocess.run(
        [
            sys.executable, str(script),
            "--baseline", str(tmp_path / "baseline.json"),
            *only_args, *extra,
            str(tmp_path / "alpha.json"), str(tmp_path / "beta.json"),
        ],
        capture_output=True, text=True,
    )


def test_only_accepts_comma_separated_bench_names(tmp_path):
    proc = _run_gate(tmp_path, ["--only", "alpha,beta"], extra=["--require-all"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "gamma" not in proc.stdout  # unselected bench ignored entirely


def test_only_comma_and_repeat_forms_are_equivalent(tmp_path):
    comma = _run_gate(tmp_path, ["--only", "alpha,beta"])
    repeated = _run_gate(tmp_path, ["--only", "alpha", "--only", "beta"])
    assert comma.returncode == repeated.returncode == 0
    assert comma.stdout == repeated.stdout


def test_only_still_rejects_unknown_names_in_comma_lists(tmp_path):
    proc = _run_gate(tmp_path, ["--only", "alpha,delta"])
    assert proc.returncode != 0
    assert "delta" in (proc.stdout + proc.stderr)


# ----------------------------------------------------------------------
# CascadeConfig (the `cascade` section, PR 10)
# ----------------------------------------------------------------------
def test_cascade_defaults_validate():
    cascade = CascadeConfig()
    assert cascade.tiers == ("per_table", "neural")
    assert cascade.calibration_path is None
    assert cascade.default_max_q_error == 4.0
    assert cascade.default_budget_ms is None
    assert cascade.min_class_queries == 8
    assert cascade.demote_staleness_qerror == 2.0


@pytest.mark.parametrize(
    "field,value",
    [
        ("tiers", ()),
        ("tiers", ("per_table", "per_table")),
        ("tiers", ("per_table", "")),
        ("default_max_q_error", 0.5),
        ("default_budget_ms", 0.0),
        ("default_budget_ms", -1.0),
        ("min_class_queries", 0),
        ("demote_staleness_qerror", 0.9),
    ],
)
def test_invalid_cascade_fields_fail_at_construction(field, value):
    with pytest.raises(ServingError):
        CascadeConfig(**{field: value})


def test_cascade_unknown_keys_are_hard_errors():
    with pytest.raises(ServingError):
        CascadeConfig.from_dict({"tierss": ("a", "b")})


def test_cascade_tiers_list_is_normalized_to_tuple():
    cascade = CascadeConfig.from_dict({"tiers": ["per_table", "neural"]})
    assert cascade.tiers == ("per_table", "neural")


def test_cascade_section_round_trips_inside_serving_config():
    config = ServingConfig(
        max_batch=16,
        cascade=CascadeConfig(
            tiers=("per_table", "deepdb", "neural"),
            calibration_path="/tmp/calibration.json",
            default_max_q_error=1.5,
            default_budget_ms=2.0,
            min_class_queries=4,
            demote_staleness_qerror=3.0,
        ),
    )
    assert ServingConfig.from_dict(config.to_dict()) == config
    # JSON-transportable, like every other section.
    assert ServingConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
    # Config-less posture stays cascade-free after a round trip.
    assert ServingConfig.from_dict(ServingConfig().to_dict()).cascade is None


def test_cascade_section_must_be_a_cascade_config():
    with pytest.raises(ServingError):
        ServingConfig(cascade="per_table,neural")
