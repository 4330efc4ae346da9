"""The persistency hook protocol and the per-persist records.

A hook returns its completion time, or ``None`` when the warp blocks;
``PersistRecord`` and ``WriteAck`` are immutable tuples."""

import numbers

import pytest

import repro.persistency
import repro.persistency.base
from repro import DrainPolicy, GPUSystem, ModelName, SBRPConfig, Scope, small_system
from repro.check.mutants import MUTANTS
from repro.memory.devices import WriteAck
from repro.memory.subsystem import PersistRecord
from repro.persistency import EpochModel, GPMModel, SBRPModel

HOOKS = (
    "pm_store",
    "ofence",
    "dfence",
    "pacq",
    "prel",
    "threadfence",
    "evict_dirty_pm",
)

#: The shrunk L1's size: lines this far apart share one set, so a
#: store evicts a dirty line once the set's ways fill (the lazy SBRP
#: drain leaves them dirty).
L1_SIZE = 2048
LINES = 24

TARGETS = [
    (ModelName.GPM, GPMModel),
    (ModelName.EPOCH, EpochModel),
    (ModelName.SBRP, SBRPModel),
    *[(ModelName.SBRP, cls) for cls in MUTANTS.values()],
]


def every_hook_kernel(w, data, flags):
    leader = w.lane == 0
    if w.warp_in_block == 0:
        for i in range(LINES):
            yield w.st(data.base + L1_SIZE * i, i + 1, mask=leader)
        yield w.ofence()
        yield w.threadfence(Scope.BLOCK)
        yield w.threadfence(Scope.DEVICE)
        yield w.prel(flags.base, 1, Scope.BLOCK)
        yield w.prel(flags.base + 4, 1, Scope.DEVICE)
    else:
        for addr in (flags.base, flags.base + 4):
            op = w.pacq(addr, Scope.BLOCK)
            while (yield op) == 0:
                pass
        yield w.st(data.base, 99, mask=leader)
        yield w.dfence()


def recording_factory(cls, calls):
    """Build *cls* with every hook wrapped to log its return value."""

    def factory(config, stats):
        model = cls(config, stats)
        for name in HOOKS:
            def hook(*args, _hook=getattr(model, name), _name=name):
                value = _hook(*args)
                calls.append((_name, value))
                return value

            setattr(model, name, hook)
        return model

    return factory


@pytest.mark.parametrize(
    "model, cls", TARGETS, ids=[cls.__name__ for _, cls in TARGETS]
)
def test_every_hook_returns_a_number_or_none(model, cls):
    calls = []
    config = small_system(
        model,
        num_sms=1,
        threads_per_block=64,
        l1_size=L1_SIZE,
        sbrp=SBRPConfig(drain_policy=DrainPolicy.LAZY),
    )
    system = GPUSystem(config, model_factory=recording_factory(cls, calls))
    data = system.pm_create("data", L1_SIZE * LINES)
    flags = system.pm_create("flags", 128)
    system.launch(every_hook_kernel, grid_blocks=1, args=(data, flags))
    system.sync()
    assert {name for name, _ in calls} == set(HOOKS)
    for name, value in calls:
        assert value is None or (
            isinstance(value, numbers.Real) and not isinstance(value, bool)
        ), (name, value)


def test_outcome_is_gone():
    assert "Outcome" not in repro.persistency.__all__
    assert not hasattr(repro.persistency, "Outcome")
    assert not hasattr(repro.persistency.base, "Outcome")


@pytest.mark.parametrize(
    "record, field",
    [
        (PersistRecord(1, 0, 128, {128: 5}, 10.0), "accept_time"),
        (PersistRecord(1, 0, 128, {128: 5}, 10.0), "words"),
        (WriteAck(10.0, 12.0), "ack_time"),
        (WriteAck(10.0, 12.0), "accept_time"),
    ],
)
def test_record_fields_are_read_only(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)


def test_records_keep_their_field_names():
    assert PersistRecord._fields == (
        "seq", "sm_id", "line_addr", "words", "accept_time",
    )
    assert WriteAck._fields == ("accept_time", "ack_time")
