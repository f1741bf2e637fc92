"""The central REPRO_* knob registry (repro.core.knobs)."""

import os

import pytest

from repro.core import knobs
from repro.core.knobs import (
    REPRO_ENV_PREFIX,
    Knob,
    all_knobs,
    forced_env,
    is_registered,
    knob_names,
    numeric_knob_names,
    raw_value,
    register,
    repro_env_snapshot,
    value,
)


# -- declarations ----------------------------------------------------------------------


def test_every_mode_knob_is_declared():
    names = knob_names()
    for name in (
        "REPRO_DTYPE",
        "REPRO_POOL",
        "REPRO_STORE",
        "REPRO_CLUSTER_HOST",
        "REPRO_CLUSTER_PORT",
    ):
        assert name in names


def test_one_knob_per_concern():
    # Scenario parameters (the Monte Carlo trial count among them) are set
    # with --param only: no spec reads an environment override.
    assert len(knob_names()) == 10
    from repro.scenarios import REGISTRY

    assert len(REGISTRY) > 0
    for scenario in REGISTRY:
        assert not hasattr(scenario.spec, "env_params"), scenario.spec.name


def test_numeric_knobs_cover_the_result_affecting_surface():
    numeric = set(numeric_knob_names())
    assert "REPRO_DTYPE" in numeric
    # Execution shape must never be classified as numerics.
    assert "REPRO_CLUSTER_WORKERS" not in numeric
    assert "REPRO_POOL" not in numeric


@pytest.mark.parametrize("name", ["REPRO_RNG", "REPRO_MC_TRIALS"])
def test_the_retired_rng_knob_is_not_declared(name):
    # Monte Carlo sampling has one stream contract, and its trial count is a
    # scenario parameter: no environment knob selects either.
    assert not is_registered(name)
    with pytest.raises(KeyError, match="unknown knob"):
        knobs.get(name)


def test_register_is_idempotent_and_conflicts_raise():
    knob = knobs.get("REPRO_DTYPE")
    again = register(
        "REPRO_DTYPE",
        default="float64",
        choices=("float64", "float32"),
        affects_numerics=True,
        description=knob.description,
    )
    assert again == knob
    with pytest.raises(ValueError, match="different declaration"):
        register("REPRO_DTYPE", default="float32", choices=("float64", "float32"))


def test_unknown_knob_is_an_actionable_keyerror():
    with pytest.raises(KeyError, match="repro/core/knobs.py"):
        knobs.get("REPRO_NO_SUCH_KNOB")
    with pytest.raises(KeyError):
        raw_value("REPRO_NO_SUCH_KNOB")
    assert not is_registered("REPRO_NO_SUCH_KNOB")


def test_knob_validation():
    with pytest.raises(ValueError, match="must start with"):
        Knob(name="OTHER_THING")
    with pytest.raises(ValueError, match="type must be one of"):
        Knob(name="REPRO_X", type="bool")
    with pytest.raises(ValueError, match="not in"):
        Knob(name="REPRO_X", default="c", choices=("a", "b"))


# -- typed values ----------------------------------------------------------------------


def test_value_coerces_and_falls_back_to_default():
    with forced_env("REPRO_CLUSTER_PORT", "17"):
        assert value("REPRO_CLUSTER_PORT") == 17
    with forced_env("REPRO_CLUSTER_WAIT_S", "2.5"):
        assert value("REPRO_CLUSTER_WAIT_S") == 2.5
    assert value("REPRO_DTYPE") in ("float64", "float32")  # default applies
    assert value("REPRO_CLUSTER_PORT") is None or isinstance(
        value("REPRO_CLUSTER_PORT"), int
    )


def test_value_rejects_bad_coercion_and_choices():
    with forced_env("REPRO_CLUSTER_PORT", "many"):
        with pytest.raises(ValueError, match="must parse as int"):
            value("REPRO_CLUSTER_PORT")
    with forced_env("REPRO_DTYPE", "float16"):
        with pytest.raises(ValueError, match="must be one of"):
            value("REPRO_DTYPE")


def test_forced_env_restores_previous_state():
    name = "REPRO_POOL"
    before = os.environ.get(name)
    with forced_env(name, "warm"):
        assert raw_value(name) == "warm"
    assert os.environ.get(name) == before
    with pytest.raises(KeyError):
        with forced_env("REPRO_NO_SUCH_KNOB", "x"):
            pass


# -- the snapshot contract -------------------------------------------------------------


def test_snapshot_contains_every_set_registered_knob():
    with forced_env("REPRO_DTYPE", "float32"), forced_env("REPRO_CACHE_MAX_ENTRIES", "5"):
        snapshot = repro_env_snapshot()
        assert snapshot["REPRO_DTYPE"] == "float32"
        assert snapshot["REPRO_CACHE_MAX_ENTRIES"] == "5"
    assert all(key.startswith(REPRO_ENV_PREFIX) for key in repro_env_snapshot())


def test_snapshot_safety_net_captures_unregistered_prefix_vars(monkeypatch):
    monkeypatch.setenv("REPRO_FUTURE_KNOB", "on")
    assert repro_env_snapshot()["REPRO_FUTURE_KNOB"] == "on"


def test_numeric_knobs_always_snapshotted_when_set(monkeypatch):
    # The registry-derivation guarantee: set every numeric knob, every one
    # appears -- no hand-maintained list to forget an entry.
    for index, name in enumerate(numeric_knob_names()):
        knob = knobs.get(name)
        raw = knob.default
        if raw is None:
            raw = str(index) if knob.type in ("int", "float") else "x"
        monkeypatch.setenv(name, raw)
    snapshot = repro_env_snapshot()
    for name in numeric_knob_names():
        assert name in snapshot


def test_all_knobs_sorted_and_documented():
    listed = all_knobs()
    assert list(listed) == sorted(listed, key=lambda k: k.name)
    for knob in listed:
        assert knob.description, f"{knob.name} needs a description"
