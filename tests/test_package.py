"""The package's public surface: furcasep.__all__ and the names retired from it."""

import importlib

import pytest

import furcasep

# (module, name) pairs removed from the public surface; none may come back unnoticed
RETIRED = (
    ("metrics", "sdr_improvement"),
    ("model", "FULL_SCALE_CONFIG"),
    ("spectral", "ifft"),
    ("spectral", "MaskSet"),
    ("training", "initial_dev_check"),
)


def test_all_is_sorted_and_unique():
    assert furcasep.__all__ == sorted(set(furcasep.__all__))


def test_every_entry_resolves():
    assert [name for name in furcasep.__all__ if not hasattr(furcasep, name)] == []


@pytest.mark.parametrize("module, name", RETIRED)
def test_retired_name_is_gone(module, name):
    assert name not in furcasep.__all__
    assert not hasattr(furcasep, name)
    assert not hasattr(importlib.import_module(f"furcasep.{module}"), name)


def test_loss_on_example_is_gone():
    assert not hasattr(furcasep.FurcaNet, "loss_on_example")
