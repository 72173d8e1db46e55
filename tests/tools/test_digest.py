"""The parity digest's comparison helpers: deviations, bitwise checks, table diffs."""

import importlib.util
import json
import math
import os

import numpy as np
import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "..", "tools", "digest.py")
_spec = importlib.util.spec_from_file_location("digest_tool", os.path.abspath(TOOL))
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


class TestMaxRelDev:
    def test_relative_to_the_reference_side(self):
        assert digest.max_rel_dev([1.1, 2.0], [1.0, 2.0]) == pytest.approx(0.1)
        assert digest.max_rel_dev([2.0], [2.2]) == pytest.approx(0.2 / 2.2)

    def test_zeros(self):
        assert digest.max_rel_dev([0.0, 0.0], [0.0, 0.0]) == 0.0
        assert math.isinf(digest.max_rel_dev([1e-9], [0.0]))
        assert digest.max_rel_dev([], []) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            digest.max_rel_dev([1.0], [1.0, 2.0])


def side(
    answers, losses=(1.0, 0.5), params=None, table=None, model_bytes=100,
    refresh_losses=(0.4,), refresh_params=None,
):
    return {
        "scale": "tiny",
        "answers": {k: np.asarray(v, dtype=np.float64) for k, v in answers.items()},
        "losses": np.asarray(losses),
        "params": params if params is not None else [np.ones((2, 3), np.float32)],
        "refresh_losses": np.asarray(refresh_losses),
        "refresh_params": (
            refresh_params if refresh_params is not None else [np.zeros(3, np.float32)]
        ),
        "model_bytes": model_bytes,
        "table": table if table is not None else {
            "a": {"shape": [2], "dtype": "float32", "nbytes": 8}
        },
    }


def answer_sets(base):
    return {name: list(base) for name in digest.ANSWER_SETS}


class TestDigest:
    def test_identical_sides_are_all_equal(self):
        one = side(answer_sets([1.0, 2.0]))
        two = side(answer_sets([1.0, 2.0]))
        result = digest.digest(one, two)
        assert result["all_equal"]
        assert result["max_answer_rel_dev"] == 0.0
        assert all(entry["equal"] for entry in result["answers"].values())
        assert result["fit"] == {
            "losses_equal": True, "params_equal": True, "n_losses": [2, 2], "n_params": [1, 1]
        }
        assert result["refresh"] == {
            "losses_equal": True, "params_equal": True, "n_losses": [1, 1], "n_params": [1, 1]
        }
        json.dumps(result)  # the report's last line

    def test_one_answer_set_moving_is_reported_by_name(self):
        moved = answer_sets([1.0, 2.0])
        moved["b8"] = [1.0, 2.0 * (1 + 3e-6)]
        result = digest.digest(side(answer_sets([1.0, 2.0])), side(moved))
        assert not result["all_equal"]
        assert not result["answers"]["b8"]["equal"]
        assert result["answers"]["b8"]["max_rel_dev"] == pytest.approx(3e-6)
        assert result["answers"]["b32"] == {"max_rel_dev": 0.0, "equal": True}
        assert result["max_answer_rel_dev"] == pytest.approx(3e-6)

    def test_batched_against_sequential_per_side(self):
        answers = answer_sets([1.0, 4.0])
        answers["b32"] = [1.0, 4.0 * (1 - 1e-6)]
        sides = digest.digest(side(answer_sets([1.0, 4.0])), side(answers))
        vs = sides["batched_vs_sequential"]
        assert vs["parent"] == {"b1": 0.0, "b8": 0.0, "b32": 0.0}
        assert vs["change"]["b32"] == pytest.approx(1e-6) and vs["change"]["b1"] == 0.0

    def test_fit_is_bitwise_not_approximate(self):
        answers = answer_sets([1.0])
        nudged = [np.nextafter(np.ones((2, 3), np.float32), 2, dtype=np.float32)]
        result = digest.digest(side(answers), side(answers, params=nudged))
        assert not result["fit"]["params_equal"] and not result["all_equal"]
        result = digest.digest(side(answers), side(answers, losses=(1.0, 0.5 + 1e-12)))
        assert not result["fit"]["losses_equal"]

    def test_refresh_is_compared_apart_from_the_fit(self):
        """A refresh that lands on other weights, or took another loss path,
        breaks equality even when the fit matched bitwise."""
        answers = answer_sets([1.0])
        nudged = [np.nextafter(np.zeros(3, np.float32), 1, dtype=np.float32)]
        result = digest.digest(side(answers), side(answers, refresh_params=nudged))
        assert result["fit"]["params_equal"] and not result["refresh"]["params_equal"]
        assert not result["all_equal"]
        result = digest.digest(side(answers), side(answers, refresh_losses=(0.41,)))
        assert not result["refresh"]["losses_equal"] and not result["all_equal"]
        moved = answer_sets([1.0])
        moved["refresh"] = [1.5]
        result = digest.digest(side(answers), side(moved))
        assert not result["answers"]["refresh"]["equal"] and not result["all_equal"]

    def test_model_bytes_alone_breaks_equality(self):
        answers = answer_sets([1.0])
        result = digest.digest(side(answers), side(answers, model_bytes=90))
        assert result["model_bytes"] == {"parent": 100, "change": 90}
        assert not result["all_equal"]


class TestArraysEqual:
    def test_count_shape_dtype_and_bits(self):
        a = [np.zeros(3, np.float32), np.ones((2, 2))]
        assert digest.arrays_equal(a, [x.copy() for x in a])
        assert not digest.arrays_equal(a, a[:1])
        assert not digest.arrays_equal(a, [a[0].astype(np.float64), a[1]])
        assert not digest.arrays_equal(a, [a[0].reshape(3, 1), a[1]])
        assert not digest.arrays_equal(a, [a[0] + 1e-30, a[1] * 2])


class TestTableDiff:
    def test_added_removed_resized_and_totals(self):
        parent = {
            "cuts": {"shape": [4], "dtype": "int64", "nbytes": 32},
            "lut::0": {"shape": [5, 8], "dtype": "float32", "nbytes": 160},
            "head::0": {"shape": [1, 4], "dtype": "float32", "nbytes": 16},
        }
        change = {
            "cuts": {"shape": [4], "dtype": "int64", "nbytes": 32},
            "win::0": {"shape": [2, 8], "dtype": "float32", "nbytes": 64},
            "head::0": {"shape": [2, 4], "dtype": "float32", "nbytes": 32},
        }
        diff = digest.table_diff(parent, change)
        assert diff["parent_bytes"] == 208 and diff["change_bytes"] == 128
        assert diff["added"] == {"win::0": 64}
        assert diff["removed"] == {"lut::0": 160}
        assert diff["resized"] == {"head::0": [16, 32]}

    def test_same_bytes_other_shape_is_resized(self):
        parent = {"w": {"shape": [2, 4], "dtype": "float32", "nbytes": 32}}
        change = {"w": {"shape": [4, 2], "dtype": "float32", "nbytes": 32}}
        assert digest.table_diff(parent, change)["resized"] == {"w": [32, 32]}
        assert digest.table_diff(parent, parent)["resized"] == {}


def test_side_record_roundtrips_through_its_file(tmp_path):
    record = side(
        answer_sets([1.0, 2.5]),
        params=[np.arange(6, dtype=np.float32).reshape(2, 3), np.zeros(4)],
    )
    path = str(tmp_path / "side.npz")
    digest.save_side(record, path)
    loaded = digest.load_side(path)
    assert loaded["scale"] == "tiny" and loaded["model_bytes"] == 100
    assert loaded["table"] == record["table"]
    assert digest.arrays_equal(loaded["params"], record["params"])
    assert digest.arrays_equal(loaded["refresh_params"], record["refresh_params"])
    assert digest.digest(record, loaded)["all_equal"]
