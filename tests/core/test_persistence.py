"""Save/load round-trips for trained estimators."""

import json

import numpy as np
import pytest

from repro.core.persistence import _params_crc, load_model, save_model
from repro.errors import EstimationError, PersistenceError
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.relational.table import Table
from tests.core.test_estimator import correlated_schema, small_config
from tests.nn.test_unfold import fit_capturing
from repro.core.estimator import NeuroCard


@pytest.fixture(scope="module")
def trained():
    schema = correlated_schema(n_root=150)
    config = small_config(train_tuples=30_000)
    return schema, NeuroCard(schema, config).fit()


class TestRoundtrip:
    def test_estimates_survive_roundtrip(self, trained, tmp_path):
        schema, estimator = trained
        path = save_model(estimator, tmp_path / "model.npz")
        loaded = load_model(path, schema)
        query = Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 1)])
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        assert estimator.estimate(query, rng=rng1) == pytest.approx(
            loaded.estimate(query, rng=rng2)
        )

    def test_estimate_batch_survives_roundtrip(self, trained, tmp_path):
        """A reloaded estimator feeds the batched serving path unchanged."""
        schema, estimator = trained
        path = save_model(estimator, tmp_path / "batched.npz")
        loaded = load_model(path, schema)
        queries = [
            Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 1)]),
            Query.make(["R"], [Predicate("R", "year", ">=", 1995)]),
            Query.make(["R", "C2"], [Predicate("C2", "score", "<=", 10)]),
        ]
        before = estimator.estimate_batch(queries, rng=np.random.default_rng(13))
        after = loaded.estimate_batch(queries, rng=np.random.default_rng(13))
        assert before.shape == after.shape == (3,)
        assert np.all(np.isfinite(after)) and np.all(after >= 0)
        # Identical weights + pinned streams -> identical batched estimates.
        np.testing.assert_allclose(before, after, rtol=1e-9)

    def test_weights_identical(self, trained, tmp_path):
        schema, estimator = trained
        path = save_model(estimator, tmp_path / "m.npz")
        loaded = load_model(path, schema)
        for a, b in zip(estimator.model.parameters(), loaded.model.parameters()):
            assert np.array_equal(a.value, b.value)

    def test_snapshot_metadata_roundtrip(self, trained, tmp_path):
        """data_version + row counts survive save/load and are readable
        without loading any weights (the refresher's freshness probe)."""
        from repro.core.persistence import read_snapshot_metadata

        schema, estimator = trained
        estimator.data_version = 3
        try:
            path = save_model(estimator, tmp_path / "versioned.npz")
        finally:
            estimator.data_version = 0  # shared fixture: restore
        meta = read_snapshot_metadata(path)
        assert meta["data_version"] == 3
        assert meta["n_rows"] == {
            name: table.n_rows for name, table in schema.tables.items()
        }
        assert meta["tuples_seen"] == estimator.train_result.tuples_seen
        loaded = load_model(path, schema)
        assert loaded.data_version == 3

    def test_unfitted_rejected(self, tmp_path):
        schema = correlated_schema(n_root=30)
        with pytest.raises(EstimationError):
            save_model(NeuroCard(schema, small_config()), tmp_path / "x.npz")

    def test_wrong_schema_rejected(self, trained, tmp_path):
        schema, estimator = trained
        path = save_model(estimator, tmp_path / "m2.npz")
        from repro.relational.schema import JoinSchema
        from repro.relational.table import Table

        other = JoinSchema(
            tables={"Z": Table.from_dict("Z", {"a": [1]})}, edges=[], root="Z"
        )
        with pytest.raises(EstimationError):
            load_model(path, other)

    def test_changed_dictionaries_rejected(self, trained, tmp_path):
        schema, estimator = trained
        path = save_model(estimator, tmp_path / "m3.npz")
        from repro.relational.table import Table

        mutated = schema.replace_table(
            Table.from_dict("C2", {"rid": [0, 1], "score": [999, 1000]})
        )
        with pytest.raises(EstimationError):
            load_model(path, mutated)


class TestCompatibilityValidation:
    """Schema/config drift fails early with a clear PersistenceError."""

    def test_extra_column_rejected_with_table_name(self, trained, tmp_path):
        """Mismatched column *counts* fail at validation, not weight loading."""
        schema, estimator = trained
        path = save_model(estimator, tmp_path / "cols.npz")
        c2 = schema.table("C2")
        widened = schema.replace_table(
            Table.from_dict(
                "C2",
                {
                    "rid": list(c2.codes("rid")),
                    "score": list(c2.codes("score")),
                    "extra": [0] * c2.n_rows,
                },
            )
        )
        with pytest.raises(PersistenceError, match="'C2' columns changed"):
            load_model(path, widened)

    def test_renamed_column_rejected(self, trained, tmp_path):
        schema, estimator = trained
        path = save_model(estimator, tmp_path / "renamed.npz")
        c2 = schema.table("C2")
        renamed = schema.replace_table(
            Table.from_dict(
                "C2",
                {"rid": list(c2.codes("rid")), "points": list(c2.codes("score"))},
            )
        )
        with pytest.raises(PersistenceError, match="columns changed"):
            load_model(path, renamed)

    def test_changed_domain_names_offending_column(self, trained, tmp_path):
        schema, estimator = trained
        path = save_model(estimator, tmp_path / "domain.npz")
        mutated = schema.replace_table(
            Table.from_dict("C2", {"rid": [0, 1], "score": [999, 1000]})
        )
        with pytest.raises(PersistenceError, match="C2.(rid|score)"):
            load_model(path, mutated)

    def test_bad_saved_config_rejected(self, trained, tmp_path):
        """A config from a different build fails with a clear message."""
        schema, estimator = trained
        path = save_model(estimator, tmp_path / "config.npz")
        _corrupt_meta(path, lambda m: m["config"].update(not_a_real_knob=1))
        with pytest.raises(PersistenceError, match="config"):
            load_model(path, schema)

    def _assert_doctored_artifacts_answer_like_a_round_trip(
        self, trained, tmp_path, key, modes
    ):
        schema, estimator = trained
        path = save_model(estimator, tmp_path / "current.npz")
        queries = [
            Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 1)]),
            Query.make(["R"], [Predicate("R", "year", ">=", 1995)]),
            Query.make(["R", "C2"], [Predicate("C2", "score", "<=", 10)]),
            Query.make(["R", "C1", "C2"], [Predicate("R", "year", "<", 1994)]),
        ] * 2

        def answers(artifact):
            loaded = load_model(artifact, schema)
            rngs = [np.random.default_rng(40 + i) for i in range(len(queries))]
            return loaded.estimate_batch(queries, rngs=rngs)

        want = answers(path)
        for mode in modes:
            doctored = save_model(estimator, tmp_path / f"{key}-{mode}.npz")
            _corrupt_meta(doctored, lambda m: m["config"].update({key: mode}))
            assert np.array_equal(answers(doctored), want), (key, mode)

    def test_artifact_naming_a_retired_kernel_mode_loads_as_fp32(self, trained, tmp_path):
        """Artifacts from before the quantized kernel modes were deleted carry
        the mode in their config. They only ever held fp32 parameters, so
        whatever mode they name, they load and answer bitwise like a fresh
        round trip."""
        self._assert_doctored_artifacts_answer_like_a_round_trip(
            trained, tmp_path, "quantization", ("off", "int8")
        )

    def test_artifact_naming_an_inference_mode_loads_as_fp32(self, trained, tmp_path):
        """Artifacts from before the inference-mode knob was deleted carry
        ``compiled_inference``. Whether it read the reference ``"off"`` or
        ``"fp32"``, the parameters are the same, so they load onto the one
        served engine and answer bitwise like a fresh round trip."""
        self._assert_doctored_artifacts_answer_like_a_round_trip(
            trained, tmp_path, "compiled_inference", ("off", "fp32")
        )

    def test_v1_artifact_without_columns_still_loads(self, trained, tmp_path):
        """Back-compat: pre-metadata artifacts load via the domains check."""
        schema, estimator = trained
        path = save_model(estimator, tmp_path / "v1.npz")

        def downgrade(meta):
            meta.pop("columns")
            meta["format_version"] = 1

        _corrupt_meta(path, downgrade)
        loaded = load_model(path, schema)
        query = Query.make(["R"], [Predicate("R", "year", ">=", 1995)])
        assert loaded.estimate(query, rng=np.random.default_rng(3)) >= 0

    def test_unknown_format_version_rejected(self, trained, tmp_path):
        schema, estimator = trained
        path = save_model(estimator, tmp_path / "future.npz")
        _corrupt_meta(path, lambda m: m.update(format_version=99))
        with pytest.raises(PersistenceError, match="unsupported model format"):
            load_model(path, schema)


class TestCompiledCacheExemption:
    """The kernel table is derived state: never persisted, folded on load."""

    def test_artifact_is_weights_only_and_excludes_compiled_buffers(
        self, trained, tmp_path
    ):
        schema, estimator = trained
        assert estimator.compiled.size_bytes > 0
        path = save_model(estimator, tmp_path / "compiled.npz")
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
            assert meta["format_version"] == 4
            assert all(
                key == "__meta__" or key.startswith("param::") for key in data.files
            )

    def test_load_folds_the_loaded_weights(self, trained, tmp_path):
        schema, estimator = trained
        path = save_model(estimator, tmp_path / "folded.npz")
        loaded = load_model(path, schema)
        # The served table is folded from the *loaded* weights, not from the
        # seeded skeleton they were copied into: entry for entry the
        # original's, so a pinned stream answers identically.
        want = estimator.compiled.export_state()
        got = loaded.compiled.export_state()
        assert list(got) == list(want)
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)
        query = Query.make(["R"], [Predicate("R", "year", ">=", 1995)])
        a = estimator.estimate(query, rng=np.random.default_rng(6))
        b = loaded.estimate(query, rng=np.random.default_rng(6))
        assert a == b


class TestServedFormArtifacts:
    """A served estimator saves the training form its table was folded from."""

    @pytest.fixture(scope="class")
    def captured(self):
        schema = correlated_schema(n_root=80)
        estimator, (model, params) = fit_capturing(
            schema, small_config(train_tuples=4096, sampler_threads=1)
        )
        names = [p.name for p in model.parameters()]
        return schema, estimator, names, params

    @staticmethod
    def saved(path):
        """``(arrays, crc)``: the artifact's parameter arrays and stored CRC."""
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
            arrays = {k: data[k] for k in data.files if k != "__meta__"}
        return arrays, meta["checksum"]["params"]

    def test_save_writes_the_trained_parameters_and_their_crc(self, captured, tmp_path):
        schema, estimator, names, params = captured
        want = {f"param::{i}::{name}": value for i, (name, value) in enumerate(zip(names, params))}
        arrays, crc = self.saved(save_model(estimator, tmp_path / "m.npz"))
        assert sorted(arrays) == sorted(want)
        for key, value in want.items():
            assert arrays[key].dtype == value.dtype and np.array_equal(arrays[key], value), key
        assert crc == _params_crc(sorted(want.items()))

    def test_load_then_save_round_trips_bitwise(self, captured, tmp_path):
        schema, estimator, _, _ = captured
        first = save_model(estimator, tmp_path / "first.npz")
        again = save_model(load_model(first, schema), tmp_path / "again.npz")
        (a, crc_a), (b, crc_b) = self.saved(first), self.saved(again)
        assert crc_a == crc_b and sorted(a) == sorted(b)
        for key in a:
            assert np.array_equal(a[key], b[key]), key

    def test_unseeded_masked_entries_resave_seeded(self, captured, tmp_path):
        """An artifact whose masked weights are not the seeded ones (dead
        bytes: no forward reads them) loads to the same answers and re-saves
        with the seeded values there."""
        schema, estimator, names, _ = captured
        path = save_model(estimator, tmp_path / "m.npz")
        arrays, _ = self.saved(path)
        model = estimator.training_model()
        i = names.index("block0.lin1.W")
        key = f"param::{i}::block0.lin1.W"
        masked = ~model.blocks[0].lin1.mask
        assert masked.any()
        arrays[key] = np.where(masked, np.float32(7.0), arrays[key])
        with np.load(path) as data:
            meta = json.loads(bytes(data["__meta__"]).decode("utf-8"))
        meta["checksum"]["params"] = _params_crc(sorted(arrays.items()))
        np.savez_compressed(
            path, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
            **arrays,
        )
        loaded = load_model(path, schema)
        query = Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 1)])
        assert loaded.estimate(query, rng=np.random.default_rng(1)) == estimator.estimate(
            query, rng=np.random.default_rng(1)
        )
        resaved, crc = self.saved(save_model(loaded, tmp_path / "resaved.npz"))
        original, crc_original = self.saved(save_model(estimator, tmp_path / "orig.npz"))
        assert crc == crc_original
        assert np.array_equal(resaved[key], original[key])


def _corrupt_meta(path, mutate) -> None:
    """Rewrite the artifact's __meta__ blob in place (test-only tampering)."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    mutate(meta)
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)
