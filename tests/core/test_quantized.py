"""Quantized compiled kernels: drift bounds, state transport, accounting.

The precision ladder (see ``docs/accuracy.md``): the reference engine
(``off``) is the oracle and stays unquantized; fp32 estimates sit within
serving round-off of it; int16/int8 kernels trade precision for memory
and fold bandwidth under *measured, bounded* drift vs the reference —
int16 within 1e-3 relative, int8 within 5e-2. Those documented bounds are
asserted here on a trained model, and the drift summary must surface
through ``stats()`` (and from there the serving ``/metrics`` gauges).
"""

import numpy as np
import pytest

from repro.core.config import NeuroCardConfig
from repro.core.estimator import NeuroCard
from repro.core.inference import (
    attach_engine_state,
    build_engine,
    compiled_model,
    export_engine_state,
    measure_quantization_drift,
)
from repro.errors import EstimationError, TrainingError
from repro.nn.compiled import CompiledResMADE
from tests.core.test_compiled import batch, engines, fitted, workload  # noqa: F401

#: Documented per-query relative drift ceilings vs the reference engine.
DRIFT_BOUNDS = {"int16": 1e-3, "int8": 5e-2}


def quantized_engine(estimator, quantization):
    return build_engine(
        estimator.model,
        estimator.layout,
        estimator.counts.full_join_size,
        "fp32",
        quantization=quantization,
    )


class TestDriftBounds:
    @pytest.mark.parametrize("quantization", ["int16", "int8"])
    def test_estimates_within_documented_drift(self, fitted, quantization):
        """Quantized estimates stay within the accuracy ladder's ceiling."""
        _, estimator = fitted
        oracle = engines(estimator, "off")[0]
        quantized = quantized_engine(estimator, quantization)
        queries = workload()
        ref = batch(oracle, queries)
        got = batch(quantized, queries)
        rel = np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)
        assert rel.max() <= DRIFT_BOUNDS[quantization]

    @pytest.mark.parametrize("quantization", ["int16", "int8"])
    def test_measure_drift_records_stats(self, fitted, quantization):
        """measure_quantization_drift lands the summary in stats()."""
        _, estimator = fitted
        engine = quantized_engine(estimator, quantization)
        rel = measure_quantization_drift(engine, workload(), n_samples=64, seed=9)
        assert rel.shape == (len(workload()),)
        stats = compiled_model(engine).stats()
        assert stats["quantization_bits"] == {"int16": 16, "int8": 8}[quantization]
        assert stats["quantization_drift_queries"] == len(workload())
        assert stats["quantization_drift_rel_max"] == pytest.approx(rel.max())
        assert stats["quantization_drift_rel_max"] <= DRIFT_BOUNDS[quantization]
        assert (
            stats["quantization_drift_rel_p50"]
            <= stats["quantization_drift_rel_p90"]
            <= stats["quantization_drift_rel_max"]
        )

    def test_measure_drift_rejects_unquantized_engines(self, fitted):
        _, estimator = fitted
        engine = engines(estimator, "fp32")[0]
        with pytest.raises(EstimationError):
            measure_quantization_drift(engine, workload(), n_samples=32)


class TestStateTransport:
    @pytest.mark.parametrize("quantization", ["off", "int16", "int8"])
    def test_export_attach_roundtrip_is_bitwise(self, fitted, quantization):
        """The exported table is the whole kernel: it is what ``size_bytes``
        counts, and read-only views of it serve bitwise-identical estimates."""
        _, estimator = fitted
        source = quantized_engine(estimator, quantization)
        queries = workload() + workload()[:2]  # one batch of 8
        want = batch(source, queries)
        state = export_engine_state(source)
        assert compiled_model(source).size_bytes == sum(a.nbytes for a in state.values())
        stale = [n for n in state if n.startswith("pattern_") or n in ("perm", "b_in")]
        assert not stale
        views = {name: array.view() for name, array in state.items()}
        for view in views.values():
            view.flags.writeable = False
        clone = quantized_engine(estimator, quantization)
        attach_engine_state(clone, views)
        attached = compiled_model(clone)
        assert attached.is_compiled and attached.stats()["attached"] == 1
        assert attached.size_bytes == compiled_model(source).size_bytes
        np.testing.assert_array_equal(batch(clone, queries), want)

    def test_quantized_buffers_shrink_size_bytes(self, fitted):
        """int16 ≈ halves and int8 ≈ quarters the compiled footprint."""
        _, estimator = fitted
        sizes = {}
        for quantization in ("off", "int16", "int8"):
            engine = quantized_engine(estimator, quantization)
            compiled_resmade = compiled_model(engine)
            compiled_resmade.compile()
            sizes[quantization] = compiled_resmade.size_bytes
        assert sizes["int16"] < 0.7 * sizes["off"]
        assert sizes["int8"] < 0.5 * sizes["off"]


class TestValidation:
    def test_config_rejects_unknown_quantization(self):
        with pytest.raises(TrainingError):
            NeuroCardConfig(quantization="int4").validate()

    def test_config_requires_fp32_kernels(self):
        with pytest.raises(TrainingError, match="require compiled_inference='fp32'"):
            NeuroCardConfig(quantization="int8", compiled_inference="off").validate()

    def test_build_engine_rejects_quantized_reference(self, fitted):
        _, estimator = fitted
        with pytest.raises(EstimationError, match="require compiled_inference='fp32'"):
            build_engine(
                estimator.model,
                estimator.layout,
                estimator.counts.full_join_size,
                "off",
                quantization="int8",
            )

    def test_compiled_resmade_rejects_unknown_quantization(self, fitted):
        _, estimator = fitted
        with pytest.raises(EstimationError):
            CompiledResMADE(estimator.model, quantization="float8")

    def test_estimator_builds_quantized_engine_from_config(self):
        """config.quantization reaches the engine the estimator serves from."""
        from tests.core.test_estimator import correlated_schema, small_config

        schema = correlated_schema(n_root=40, seed=2)
        config = small_config(
            train_tuples=2_000, sampler_threads=1, progressive_samples=32
        )
        config.quantization = "int8"
        estimator = NeuroCard(schema, config).fit()
        assert compiled_model(estimator.inference).quantization == "int8"
        assert estimator.estimate(workload()[0]) >= 0.0
