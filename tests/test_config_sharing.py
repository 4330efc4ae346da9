"""Machines share what they derive from a frozen config, nothing else.

A config object is validated once and keeps its derived values (device
bandwidths, latencies and stat names, SM names, PB capacity).  An
invalid config must still fail on every machine built from it, and a
machine built after another one ran must start as empty as the first.
"""

from dataclasses import replace

import pytest

from repro import GPUSystem, ModelName, small_system
from repro.check.corpus import library_program
from repro.common.errors import ConfigError
from repro.formal.bridge import base_config, simulate_program


def invalid_config():
    config = small_system(ModelName.SBRP)
    return replace(config, sbrp=replace(config.sbrp, window=0))


def test_invalid_config_raises_on_every_machine():
    config = invalid_config()
    for _ in range(3):
        with pytest.raises(ConfigError):
            GPUSystem(config)
    with pytest.raises(ConfigError):
        GPUSystem(invalid_config())  # equal, but a distinct object


def machine_state(system):
    gpu = system.gpu
    sub = gpu.subsystem
    channels = [*sub.gddr, sub.pcie_down, sub.pcie_up]
    channels += [nvm.read_channel for nvm in sub.nvm]
    state = {
        "stats": system.stats.snapshot(),
        "crash": system.gpu.subsystem.crash_image(0),
        "log": sub.persist_log.records(),
        "next_free": [c.next_free for c in channels],
        "wpq": [list(nvm._wpq) for nvm in sub.nvm],
        "l1": [sm.l1.holds_lines() for sm in gpu.sms],
        "now": gpu.engine.now,
    }
    states = getattr(gpu.model, "states", None)
    if states is not None:
        state["pb"] = [len(st.pb) for st in states.values()]
        state["masks"] = [(st.odm, st.edm, st.fsm) for st in states.values()]
    return state


@pytest.mark.parametrize("model", list(ModelName), ids=lambda m: m.value)
def test_fresh_machine_after_a_run_starts_empty(model):
    program = library_program("mp_ofence")
    config = base_config(program, model)
    before = machine_state(GPUSystem(config))
    assert before["log"] == [] and before["wpq"] == [[], []]
    assert not any(before["l1"]) and not any(before["next_free"])
    obs = simulate_program(program, model, config=config)
    assert obs.keys, "the run must have persisted something"
    assert machine_state(GPUSystem(config)) == before
