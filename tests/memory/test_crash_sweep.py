"""Crash images in one sweep: ``MemorySubsystem.crash_images`` must
yield, at every instant, the image a per-instant rebuild gives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import GPUConfig, MemoryConfig
from repro.faults.injector import FaultInjector
from repro.faults.plans import TornPersistPlan
from repro.memory.address_space import PM_BASE
from repro.memory.backing import BackingStore
from repro.memory.subsystem import MemorySubsystem, PersistRecord
from repro.metrics.registry import MetricsRegistry

LINES = 4
WORDS_PER_LINE = 3
#: The addresses a caller watches (one word of each of the first two
#: lines); records on the other lines are non-litmus traffic.
WATCHED = {PM_BASE, PM_BASE + 128}


def word(line: int, index: int) -> int:
    return PM_BASE + 128 * line + 4 * index


record_spec = st.tuples(
    st.integers(0, 12),  # acceptance time: small range, so ties are common
    st.integers(0, LINES - 1),
    st.dictionaries(
        st.integers(0, WORDS_PER_LINE - 1), st.integers(1, 9), min_size=1
    ),
)


@st.composite
def logs(draw):
    specs = draw(st.lists(record_spec, max_size=12))
    # Issue sequence numbers are unrelated to acceptance order.
    seqs = draw(st.permutations(range(1, len(specs) + 1)))
    records = [
        PersistRecord(
            seq,
            0,
            PM_BASE + 128 * line,
            {word(line, i): v for i, v in words.items()},
            float(accept),
        )
        for seq, (accept, line, words) in zip(seqs, specs)
    ]
    durable = draw(
        st.dictionaries(
            st.sampled_from([word(n, i) for n in range(LINES) for i in range(2)]),
            st.integers(1, 9),
            max_size=3,
        )
    )
    times = sorted(
        draw(
            st.lists(
                st.integers(-1, 30).map(lambda t: t / 2.0), min_size=1, max_size=20
            )
        )
    )
    return records, durable, times


plans = st.one_of(
    st.none(),
    st.builds(
        TornPersistPlan,
        span_cycles=st.sampled_from([0.5, 2.0, 5.0]),
        seed=st.integers(1, 5),
    ),
)


def subsystem(records, durable, plan):
    faults = FaultInjector(plan) if plan is not None else None
    sub = MemorySubsystem(
        MemoryConfig(), GPUConfig(), BackingStore(), MetricsRegistry(), faults=faults
    )
    sub.backing.durable.update(durable)
    for record in records:
        sub.persist_log.append(record)
    return sub


def reference_image(records, durable, time, injector):
    """``dict(durable)`` plus the sorted accepted prefix at *time*."""
    prefix = sorted(
        (r for r in records if r.accept_time <= time),
        key=lambda r: (r.accept_time, r.seq),
    )
    if injector is not None:
        prefix = injector.torn_records(prefix, time)
    image = dict(durable)
    for record in prefix:
        image.update(record.words)
    return image


@settings(max_examples=300, deadline=None)
@given(logs(), plans)
def test_sweep_matches_per_instant_reference(log, plan):
    records, durable, times = log
    sub = subsystem(records, durable, plan)
    reference = FaultInjector(plan) if plan is not None else None
    named = None
    previous = float("-inf")
    for time, (image, landed) in zip(times, sub.crash_images(times)):
        expected = reference_image(records, durable, time, reference)
        assert image == expected
        if plan is None:
            assert landed == sorted(
                (r for r in records if previous < r.accept_time <= time),
                key=lambda r: (r.accept_time, r.seq),
            )
        else:
            assert landed is None
        # A caller that rebuilds its view of WATCHED only when a landed
        # record touched it stays exact.
        if (
            named is None
            or landed is None
            or any(not WATCHED.isdisjoint(r.words) for r in landed)
        ):
            named = {a: image.get(a, 0) for a in WATCHED}
        assert named == {a: expected.get(a, 0) for a in WATCHED}
        previous = time
    if plan is not None:
        # The injector saw exactly the per-instant calls: same tallies.
        assert sub.faults.counts == reference.counts


@settings(max_examples=150, deadline=None)
@given(logs(), plans)
def test_single_instant_is_the_reference(log, plan):
    records, durable, times = log
    sub = subsystem(records, durable, plan)
    reference = FaultInjector(plan) if plan is not None else None
    for time in times:
        assert sub.crash_image(time) == reference_image(
            records, durable, time, reference
        )
    if plan is not None:
        assert sub.faults.counts == reference.counts


def test_torn_plans_are_exercised():
    """The tear path really runs: the last line tears while resident."""
    record = PersistRecord(1, 0, PM_BASE, {PM_BASE: 1, PM_BASE + 4: 2}, 10.0)
    plan = TornPersistPlan(span_cycles=5.0)
    sub = subsystem([record], {}, plan)
    images = [dict(image) for image, _ in sub.crash_images([10.0, 12.0, 20.0])]
    assert len(images[0]) < 2 and len(images[1]) < 2
    assert images[2] == {PM_BASE: 1, PM_BASE + 4: 2}
    assert sub.faults.counts["torn_records"] == 2
