"""Tests for module state serialisation."""

import numpy as np
import pytest

from repro.nn import (
    Linear,
    Module,
    load_module,
    load_state_dict,
    save_module,
    state_dict,
)


def build_model(rng) -> Module:
    model = Module()
    model.add_child("first", Linear(3, 4, rng))
    model.add_child("second", Linear(4, 2, rng))
    return model


class TestStateDict:
    def test_round_trip_in_memory(self, rng):
        model = build_model(rng)
        state = state_dict(model)
        other = build_model(np.random.default_rng(99))
        load_state_dict(other, state)
        for name, parameter in other.parameters().items():
            assert np.array_equal(parameter.value, state[name])

    def test_state_is_a_copy(self, rng):
        model = build_model(rng)
        state = state_dict(model)
        model.parameters()["first.weight"].value[...] = 0.0
        assert not np.allclose(state["first.weight"], 0.0)

    def test_strict_missing_key(self, rng):
        model = build_model(rng)
        state = state_dict(model)
        del state["first.weight"]
        with pytest.raises(KeyError):
            load_state_dict(model, state)
        # Non-strict tolerates it.
        load_state_dict(model, state, strict=False)

    def test_shape_mismatch(self, rng):
        model = build_model(rng)
        state = state_dict(model)
        state["first.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError, match="shape mismatch"):
            load_state_dict(model, state, strict=False)

    def test_file_round_trip(self, tmp_path, rng):
        model = build_model(rng)
        path = tmp_path / "model.npz"
        save_module(model, path)
        other = build_model(np.random.default_rng(99))
        load_module(other, path)
        for name, parameter in model.parameters().items():
            assert np.array_equal(parameter.value, other.parameters()[name].value)
