"""The five workloads: what each builds, drives, checks and reports.

Names are fixed (later issues cite them); ``BENCHMARK.json`` carries the
one-line why of each and the README the long form. Every workload is a
closed loop. A run is set-up, a discarded warm-up, then measured windows;
a traced run spends the same ``--seconds`` on two untraced reference
windows, three traced windows and the layer micro-measurements.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import layers
import numpy as np
import tracing
from fixture import (
    EVAL_SEED,
    FP32_ENVELOPE,
    MODEL_NAME,
    STUB_NAME,
    Fixture,
    build_fixture,
    draw_servable,
    evaluation_set,
    out_of_range,
    peak_rss_mb,
    pinned_estimates,
    qerr_summary,
)
from loadgen import (
    Client,
    LoadStats,
    RequestStream,
    RunningClients,
    batch_client,
    run_phase,
    submit_client,
    summarize,
    tier_counts,
    wire_client,
)
from spec import PERF_DIR
from stubs import ConstantModel

from repro.baselines.per_table import PerTableStatsEstimator
from repro.core.estimator import NeuroCard
from repro.core.inference import compiled_model
from repro.core.persistence import save_model
from repro.core.refresh import clone_estimator
from repro.eval.harness import true_cardinalities
from repro.eval.updates import partition_stream
from repro.serving import (
    BackgroundRefresher,
    CascadeConfig,
    EstimationService,
    EstimatorCascade,
    HttpEstimationClient,
    QueryFeatures,
    ServingConfig,
    StreamingIngestor,
)
from repro.serving.metrics import parse_samples

WARMUP_S = 1.0
N_WINDOWS = 5
#: One connection per core of the 2-core box the benchmark was sized on.
N_CONNECTIONS = 2
#: Warm-up answers compared against the sequential engine, per run.
N_PINNED_CHECKS = 32


@dataclass
class Result:
    """Everything one run produced; ``run.py`` prints and stores it."""

    workload: str
    seed: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.violations


class Workload:
    """Windowed closed-loop run; subclasses say what is built and driven."""

    name = ""
    #: Whether this process serves (its RSS counts) or only generates load.
    serves_in_process = True
    batch = 1

    def __init__(self, seed: int, scale: str, seconds: float, scratch: Path):
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.scratch = scratch
        #: Pinned per-request seeds are ``seed_base + k``: unique per request
        #: and disjoint between runs with different ``--seed``.
        self.seed_base = seed * 10_000_019
        self.fx: Optional[Fixture] = None
        self.tracer: Optional[tracing.Tracer] = None
        self.config = ServingConfig(cache_size=0)
        #: The in-process service, for the workloads that serve in-process.
        self.service: Optional[EstimationService] = None

    # -- what subclasses provide ---------------------------------------
    def setup(self) -> None:
        self.fx = build_fixture(self.seed, self.scale)

    def clients(self) -> List[Client]:
        raise NotImplementedError

    def trace_on(self) -> None:
        raise NotImplementedError

    def server_spans(self, path: Path) -> List[dict]:
        """The serving side's spans, also written to ``path``."""
        spans = self.tracer.documents()
        tracing.write_spans(path, spans)
        return spans

    def close(self) -> None:
        if self.service is not None:
            self.service.close()

    def topology_layers(self, headline: LoadStats) -> Dict[str, float]:
        """Layer metrics only this workload's topology can measure."""
        return self.scheduler_and_kernels(
            compiled_model(self.served_model().inference).stats(), {"mean_batch_size": 0.0}
        )

    def scheduler_and_kernels(self, compiled: dict, scheduler: dict) -> Dict[str, float]:
        """Counters read from the public ``stats()`` of the serving side."""
        return {
            "serving.scheduler.mean_batch_size": scheduler["mean_batch_size"],
            "serving.scheduler.batch_fill": scheduler["mean_batch_size"] / self.config.max_batch,
            "nn.compiled.pattern_entries": compiled["pattern_entries"],
            "nn.compiled.dynamic_cache_bytes": compiled["dynamic_cache_bytes"],
        }

    def served_model(self) -> NeuroCard:
        return self.fx.model

    def extras(self) -> Dict[str, object]:
        """Figures worth keeping in the result file that are not metrics of
        the untraced run."""
        return {}

    # -- inputs ---------------------------------------------------------
    @property
    def queries(self) -> Sequence:
        return self.fx.queries

    def streams(self, n_threads: int) -> List[RequestStream]:
        return [
            RequestStream(self.queries, self.seed_base, t, n_threads) for t in range(n_threads)
        ]

    # -- measurement ----------------------------------------------------
    def measure(self, trace: bool, result: Result) -> Tuple[LoadStats, Optional[LoadStats]]:
        """(headline phase, traced phase or None); ``result`` takes any
        failure seen while driving."""
        if not trace:
            window = self.seconds / N_WINDOWS
            return run_phase(self.clients(), WARMUP_S, N_WINDOWS, window), None
        window = self.seconds / 10
        reference = run_phase(self.clients(), WARMUP_S, 2, window)
        self.trace_on()
        return reference, run_phase(self.clients(), WARMUP_S / 2, 3, window)

    @staticmethod
    def served(records) -> List[float]:
        """Every estimate the calls in ``records`` returned."""
        return [float(v) for r in records if r[3] is not None for v in r[3]]

    def accuracy(self) -> Tuple[List[float], List[float]]:
        """(estimates, truths) of the serving model on the pinned evaluation
        set, each query on its own pinned Monte Carlo stream."""
        queries, truths = evaluation_set(self.fx)
        return pinned_estimates(self.served_model(), queries), truths

    def reference_answer(self, query, seed: int, tier: Optional[str]) -> float:
        return self.fx.model.estimate(query, rng=np.random.default_rng(seed))

    def verify(self, phases: Sequence[LoadStats], result: Result) -> None:
        """Output checks shared by every workload (see README, "Checks")."""
        limit = self.fx.counts.full_join_size
        for stats in phases:
            result.attempted += stats.attempted
            result.failed += stats.failed
            bad = out_of_range(np.array(self.served(stats.measured + stats.warmup)), limit)
            if bad:
                result.failed += bad
                result.violations.append(f"{bad} estimates outside [0, {limit:.0f}]")
        if self.batch == 1:
            samples = [
                (self.queries[k % len(self.queries)], self.seed_base + k, values[0], tier)
                for _t, _lat, k, values, tier in phases[0].warmup
                if values is not None
            ][:N_PINNED_CHECKS]
            worst = 0.0
            for query, seed, served, tier in samples:
                reference = self.reference_answer(query, seed, tier)
                worst = max(worst, abs(served - reference) / max(abs(reference), 1.0))
            result.attempted += len(samples)
            result.extra["pinned_max_rel_dev"] = worst
            if worst > FP32_ENVELOPE:
                result.failed += 1
                result.violations.append(
                    f"pinned-seed answer deviates {worst:.2e} from sequential "
                    f"(> {FP32_ENVELOPE:.0e})"
                )


# ----------------------------------------------------------------------
class OfflineBatch(Workload):
    name = "offline_batch"
    batch = 32

    def clients(self) -> List[Client]:
        return [batch_client(self.fx.model, self.queries, self.batch)]

    def trace_on(self) -> None:
        self.tracer = tracing.Tracer()
        self.tracer.wrap_model_class(NeuroCard)


# ----------------------------------------------------------------------
class ServerProcess:
    """The benchmark's own server entry script, as a child process."""

    def __init__(self, artifact: Path, scale: str, calibration: Optional[Path] = None):
        command = [sys.executable, str(PERF_DIR / "server.py")]
        command += ["--artifact", str(artifact), "--scale", scale]
        if calibration is not None:
            command += ["--calibration", str(calibration)]
        self.proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        try:
            self.ready = self._read("ready")
        except BaseException:
            self.close()
            raise
        self.port = self.ready["port"]

    def _read(self, event: str) -> dict:
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited while waiting for {event!r}")
            doc = json.loads(line)
            if doc.get("event") == event:
                return doc

    def command(self, line: str, event: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self._read(event)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc.stdin.close()


class WireNeural(Workload):
    name = "wire_neural"
    serves_in_process = False
    tenant = "bench"

    def __init__(self, *args):
        super().__init__(*args)
        self.server: Optional[ServerProcess] = None
        self.calibration: Optional[Path] = None

    def setup(self) -> None:
        super().setup()
        self.prepare()
        artifact = self.scratch / "model.npz"
        with self.fx.clock.time("save"):
            save_model(self.fx.model, artifact)
        with self.fx.clock.time("server"):
            self.server = ServerProcess(artifact, self.scale, self.calibration)
        self._streams = self.streams(N_CONNECTIONS)

    def prepare(self) -> None:
        """Inputs and files the server needs beyond the model artifact."""

    def http(self, model: str = MODEL_NAME, tenant: Optional[str] = None):
        # max_retries=0: exactly one wire request per call, so the scraped
        # counters can be reconciled against the generator's tallies.
        return HttpEstimationClient(
            "127.0.0.1", self.server.port, model, tenant=tenant or self.tenant, max_retries=0
        )

    def clients(self) -> List[Client]:
        return [wire_client(self.http, stream) for stream in self._streams]

    def trace_on(self) -> None:
        self.server.command("trace_on", "trace_on")

    def server_spans(self, path: Path) -> List[dict]:
        self.server.command(f"trace_dump {path}", "trace_dump")
        return tracing.read_spans(path)

    def verify(self, phases: Sequence[LoadStats], result: Result) -> None:
        super().verify(phases, result)
        # Every request of the tenant got exactly one reply before its
        # client moved on, so the server's counters must equal ours.
        replies = sum(s.issued - s.issued_failed for s in phases)
        http = self.http()
        samples = parse_samples(http.metrics_text())
        http.close()
        ok = samples.get(f'repro_http_requests_total{{code="200",tenant="{self.tenant}"}}', 0.0)
        queries = samples.get(f'repro_http_queries_total{{tenant="{self.tenant}"}}', 0.0)
        result.extra["metrics_scraped"] = {"requests_200": ok, "queries": queries}
        if ok != replies or queries != replies:
            result.failed += 1
            result.violations.append(
                f"/metrics counts {ok:.0f} requests / {queries:.0f} queries, "
                f"generator saw {replies} replies"
            )

    def topology_layers(self, headline: LoadStats) -> Dict[str, float]:
        stats = self.server.command("stats", "stats")
        null = self.http(STUB_NAME, tenant="null")
        query = self.queries[0]
        roundtrip_s = layers.median_time(lambda: null.estimate(query, seed=0), 300)
        null.close()
        out = self.scheduler_and_kernels(stats["compiled"], stats["service"]["models"][MODEL_NAME])
        out["serving.http.null_roundtrip_us"] = roundtrip_s * 1e6
        return out

    def close(self) -> None:
        if self.server is not None:
            self.server.close()


class WireCascadeMix(WireNeural):
    name = "wire_cascade_mix"
    n_easy, n_hard, n_calibration = 400, 100, 160

    def prepare(self) -> None:
        fx = self.fx
        with fx.clock.time("inputs"):
            easy, hard, self.rejected_frac = draw_servable(
                fx.schema, fx.counts, self.n_easy, self.n_hard, self.seed
            )
            mix = easy + hard
            order = np.random.default_rng(self.seed).permutation(len(mix))
            self._queries = [mix[i] for i in order]
            # Held-out and single-table only: every multi-table class stays
            # uncalibrated ("thin"), so it is routed last-resort to the
            # neural tier and the escalated share is a property of the
            # traffic (100 in 500), not of how accurate the model trained.
            held_out, _, _ = draw_servable(
                fx.schema, fx.counts, self.n_calibration, 0, self.seed + 7_919
            )
            held_out_truths = true_cardinalities(fx.schema, held_out, fx.counts)
        with fx.clock.time("cascade"):
            defaults = CascadeConfig()
            self.per_table = PerTableStatsEstimator(fx.schema, fx.counts)
            self.cascade = EstimatorCascade(
                fx.schema,
                default_max_q_error=defaults.default_max_q_error,
                min_class_queries=defaults.min_class_queries,
            )
            self.cascade.register(defaults.tiers[0], self.per_table)
            self.cascade.register(defaults.tiers[1], fx.model, neural=True)
            self.calibration = self.scratch / "calibration.json"
            self.cascade.calibrate(held_out, held_out_truths).save(self.calibration)

    @property
    def queries(self):
        return self._queries

    def reference_answer(self, query, seed, tier):
        if tier == "per_table":
            return self.per_table.estimate(query)
        return super().reference_answer(query, seed, tier)

    def accuracy(self) -> Tuple[List[float], List[float]]:
        """A pinned 400 + 100 mix answered the way the server routes it:
        single-table queries by the exact per-table tier, the rest by the
        model on pinned streams."""
        fx = self.fx
        easy, hard, _ = draw_servable(fx.schema, fx.counts, self.n_easy, self.n_hard, EVAL_SEED)
        estimates = [self.per_table.estimate(q) for q in easy]
        estimates += pinned_estimates(fx.model, hard)
        return estimates, true_cardinalities(fx.schema, easy + hard, fx.counts)

    def escalation(self, stats: LoadStats) -> Tuple[float, float]:
        counts = tier_counts(stats.measured)
        total = max(sum(counts.values()), 1)
        return counts.get("neural", 0) / total, counts.get("per_table", 0) / total

    def verify(self, phases, result) -> None:
        super().verify(phases, result)
        rate, _ = self.escalation(phases[0])
        answered = phases[0].attempted - phases[0].failed
        # Windows end mid-cycle, so the share is 0.20 only up to the
        # imbalance of one partial pass over the 500 shuffled queries.
        tolerance = max(0.01, 20.0 / max(answered, 1))
        result.extra["escalation_rate"] = rate
        if abs(rate - self.n_hard / (self.n_easy + self.n_hard)) > tolerance:
            result.failed += 1
            result.violations.append(f"escalation rate {rate:.4f} is not 0.20 +- {tolerance:.3f}")

    def topology_layers(self, headline: LoadStats) -> Dict[str, float]:
        out = super().topology_layers(headline)
        rate, cheap_share = self.escalation(headline)
        single = [q for q in self.queries if len(q.tables) == 1]
        schema = self.fx.schema
        out.update(
            {
                "serving.cascade.features_us": layers.median_each(
                    lambda q: QueryFeatures.extract(q, schema), self.queries
                )
                * 1e6,
                "serving.cascade.route_us": layers.median_each(self.cascade.route, self.queries)
                * 1e6,
                "serving.cascade.escalation_rate": rate,
                "serving.cascade.tier_share.per_table": cheap_share,
                "baselines.per_table.estimate_us": layers.median_each(
                    self.per_table.estimate, single
                )
                * 1e6,
                "generator.rejected_frac": self.rejected_frac,
            }
        )
        return out


# ----------------------------------------------------------------------
class PoolNeural(Workload):
    name = "pool_neural"
    workers, threads, depth = 2, 2, 4

    def setup(self) -> None:
        super().setup()
        with self.fx.clock.time("pool"):
            self.config = ServingConfig(cache_size=0, workers=self.workers)
            self.service = EstimationService(config=self.config)
            self.service.register(MODEL_NAME, self.fx.model)
            self.service.scheduler(MODEL_NAME)
            self.pool = self.service.pool(MODEL_NAME)
            # Spawns the workers and waits until each has attached the model.
            self.pool.publish(self.fx.model, self.service.registry.version(MODEL_NAME))
        self._streams = self.streams(self.threads)

    def clients(self) -> List[Client]:
        return [submit_client(self.service, stream, self.depth) for stream in self._streams]

    def trace_on(self) -> None:
        self.tracer = tracing.Tracer()
        self.tracer.wrap_model_class(NeuroCard)
        self.tracer.wrap_service(self.service, MODEL_NAME)

    def topology_layers(self, headline: LoadStats) -> Dict[str, float]:
        out = self.scheduler_and_kernels(
            compiled_model(self.fx.model.inference).stats(),
            self.service.scheduler(MODEL_NAME).stats(),
        )
        pool_stats = self.pool.stats()
        # Measured last: publishing ahead of the registry's version makes the
        # scheduler's later batches fall back inline, so the load is over.
        version = self.service.registry.version(MODEL_NAME)
        start = time.perf_counter()
        self.pool.publish(self.fx.model, version + 1)
        publish_s = time.perf_counter() - start
        stub = ConstantModel()
        queries = list(self.queries[:8])

        def dispatch() -> None:
            rngs = [np.random.default_rng(0) for _ in queries]
            self.pool.submit_batch(stub, version + 2, queries, rngs=rngs).result(timeout=60)

        dispatch()  # ships the stub to the workers once
        out.update(
            {
                "serving.workers.publish_ms": publish_s * 1e3,
                "serving.workers.dispatch_overhead_us": layers.median_time(dispatch, 200) * 1e6,
                "serving.workers.chunks_per_batch": pool_stats["chunks"]
                / max(pool_stats["batches"], 1),
                "serving.workers.inline_fallbacks": pool_stats["inline_fallbacks"],
                "serving.workers.respawns": pool_stats["respawns"],
                "serving.workers.shared_bytes": pool_stats["shared_bytes"],
            }
        )
        return out


# ----------------------------------------------------------------------
class RefreshUnderLoad(Workload):
    name = "refresh_under_load"
    #: Incremental budget per refresh, as a share of the original training
    #: budget. Sized so 8 cycles fit the default ``--seconds`` (README).
    fast_fraction = 0.04

    def __init__(self, *args):
        super().__init__(*args)
        self.cycles: List[Tuple[float, float]] = []
        self.ingest_s: List[float] = []
        self.observe_s: List[float] = []

    def setup(self) -> None:
        # One refresh cycle per 1.25 s of --seconds: 9 partitions, 8 cycles
        # at the default 10 s.
        n_partitions = max(3, int(round(0.8 * self.seconds)) + 1)

        def first_snapshot(schema):
            self.snapshots, self.deltas = partition_stream(schema, n_partitions)
            return self.snapshots[0]

        self.fx = build_fixture(self.seed, self.scale, train_on=first_snapshot)
        with self.fx.clock.time("service"):
            self.config = ServingConfig(cache_size=0, fast_fraction=self.fast_fraction)
            self.service = EstimationService(config=self.config)
            self.service.register(MODEL_NAME, self.fx.model)
            self.service.scheduler(MODEL_NAME)
            self.ingestor = StreamingIngestor(self.snapshots[0])
            # Not started: the main thread forces each refresh, so a cycle
            # is exactly ingest -> train -> swap with no poll latency in it.
            self.refresher = BackgroundRefresher(
                self.service, MODEL_NAME, self.ingestor, policy=self.config.refresh_policy()
            )
        self._streams = self.streams(1)

    def clients(self) -> List[Client]:
        return [submit_client(self.service, stream, 1) for stream in self._streams]

    def trace_on(self) -> None:
        self.tracer = tracing.Tracer()
        self.tracer.wrap_model_class(NeuroCard)
        self.tracer.wrap_service(self.service, MODEL_NAME)

    def served_model(self) -> NeuroCard:
        return self.service.registry.get(MODEL_NAME)

    def cycle(self, delta, result: Result) -> Tuple[float, float]:
        """ingest -> forced fast refresh -> swapped model visible."""
        registry = self.service.registry
        before = registry.version(MODEL_NAME)
        start = time.perf_counter()
        version = self.ingestor.ingest_many(delta)
        ingested = time.perf_counter()
        self.refresher.monitor.observe(*self.ingestor.snapshot())
        observed = time.perf_counter()
        event = self.refresher.refresh_now("fast")
        visible = registry.get(MODEL_NAME).data_version == version
        end = time.perf_counter()
        self.ingest_s.append(ingested - start)
        self.observe_s.append(observed - ingested)
        result.attempted += 1
        if not event.ok or not visible or registry.version(MODEL_NAME) != before + 1:
            result.failed += 1
            result.violations.append(
                f"refresh to data version {version} failed: ok={event.ok} "
                f"error={event.error!r} registry {before}->{registry.version(MODEL_NAME)}"
            )
        return start, end

    def measure(self, trace, result):
        deltas = self.deltas[1:]
        n_idle = max(1, len(deltas) // 4) if trace else 0
        under_load = deltas[: len(deltas) - n_idle]
        n_reference = len(under_load) - len(under_load) // 2 if trace else len(under_load)
        with RunningClients(self.clients()) as running:
            time.sleep(WARMUP_S)
            for i, delta in enumerate(under_load):
                if i == n_reference:
                    self.trace_on()
                self.cycles.append(self.cycle(delta, result))
        records = running.records
        warmup_end = self.cycles[0][0]
        reference = self._cycle_stats(records, self.cycles[:n_reference], warmup_end)
        traced = None
        if trace:
            # warmup_end=0: the warm-up records belong to the reference phase.
            traced = self._cycle_stats(records, self.cycles[n_reference:], 0.0)
            self.idle = [self.cycle(delta, result) for delta in deltas[len(under_load) :]]
        return reference, traced

    @staticmethod
    def _cycle_stats(records, cycles, warmup_end) -> LoadStats:
        """Completions inside the refresh cycles over their total duration."""
        stats = summarize(records, cycles, warmup_end)
        stats.throughput_qps = stats.estimates / sum(end - start for start, end in cycles)
        return stats

    def refresh_s(self) -> float:
        return statistics.median(end - start for start, end in self.cycles)

    def extras(self) -> Dict[str, object]:
        return {"refresh_s": self.refresh_s()}

    def topology_layers(self, headline: LoadStats) -> Dict[str, float]:
        out = self.scheduler_and_kernels(
            compiled_model(self.served_model().inference).stats(),
            self.service.scheduler(MODEL_NAME).stats(),
        )
        registry = self.service.registry
        clones = [clone_estimator(registry.get(MODEL_NAME)) for _ in range(3)]
        swap_s = layers.median_each(lambda clone: registry.swap(MODEL_NAME, clone), clones)
        out.update(
            {
                "refresh_s": self.refresh_s(),
                "core.refresh.fast_refresh_idle_s": statistics.median(
                    end - start for start, end in self.idle
                ),
                "serving.registry.swap_ms": swap_s * 1e3,
                "serving.updates.ingest_ms": statistics.median(self.ingest_s) * 1e3,
                "serving.updates.observe_ms": statistics.median(self.observe_s) * 1e3,
            }
        )
        return out


WORKLOADS = {
    cls.name: cls
    for cls in (OfflineBatch, WireNeural, WireCascadeMix, PoolNeural, RefreshUnderLoad)
}


# ----------------------------------------------------------------------
def run(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: str,
    out_dir: Path,
    t0: float,
    layer_names: Sequence[str],
) -> Result:
    """Set up, drive, check and tear down one workload; returns its result."""
    scratch = out_dir / f"scratch-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, scale, seconds, scratch)
    result = Result(name, seed, trace)
    try:
        workload.setup()
        setup_s = time.perf_counter() - t0
        headline, traced = workload.measure(trace, result)
        workload.verify([s for s in (headline, traced) if s is not None], result)
        estimates, truths = workload.accuracy()
        result.attempted += len(estimates)
        bad = out_of_range(np.array(estimates), workload.fx.counts.full_join_size)
        if bad:
            result.failed += bad
            result.violations.append(f"{bad} evaluation estimates out of range")
        qerr_p50, qerr_p95 = qerr_summary(estimates, truths)
        model_bytes = workload.served_model().size_bytes
        if trace:
            spans_path = out_dir / f"{name}.seed{seed}.spans.jsonl"
            server_spans = workload.server_spans(spans_path)
            client_spans = tracing.client_spans(traced.measured, workload.seed_base)
            tracing.write_spans(out_dir / f"{name}.seed{seed}.client-spans.jsonl", client_spans)
            per_layer = dict.fromkeys(layer_names, 0.0)
            per_layer.update(tracing.analyze(server_spans, client_spans))
            per_layer["trace.overhead_frac"] = 1.0 - traced.throughput_qps / headline.throughput_qps
            per_layer.update(layers.common(workload.fx, scratch, workload.config.max_wait_us))
            per_layer.update(workload.topology_layers(headline))
            per_layer["client.latency_p99_ms"] = headline.latency_p99_ms
            per_layer["failed_frac"] = result.failed / max(result.attempted, 1)
            result.per_layer = {key: float(value) for key, value in per_layer.items()}
            result.extra["dangling_span_parents"] = tracing.dangling_parents(server_spans)
            result.extra["spans"] = str(spans_path)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    result.end_to_end = {
        "setup_s": setup_s,
        "throughput_qps": headline.throughput_qps,
        "latency_p50_ms": headline.latency_p50_ms,
        "latency_p95_ms": headline.latency_p95_ms,
        "qerr_p50": qerr_p50,
        "qerr_p95": qerr_p95,
        "model_bytes": float(model_bytes),
        "peak_rss_mb": peak_rss_mb(workload.serves_in_process),
    }
    result.extra.update(
        {
            "setup_stages_s": workload.fx.clock.stages,
            "window_qps": headline.window_qps,
            "latency_pooled": headline.pooled,
            "calls": headline.attempted,
            "latency_p99_ms": headline.latency_p99_ms,
            **workload.extras(),
        }
    )
    return result
