"""The litmus configs are built once per set of primitives.

``base_config`` is memoised on (model, SM count, block size) and
``Variant.configure`` additionally on ``Variant.knobs(model)``.  A
memoised config must equal the one the unmemoised recipe builds, an
equal geometry must return the very same object, and the caches stay
within their bounds however many programs stream through."""

from dataclasses import replace

import pytest

from repro.check import enumerator
from repro.check.corpus import corpus_programs
from repro.check.enumerator import VARIANTS, Variant
from repro.check.fuzzer import generate_stream
from repro.common.config import DrainPolicy, ModelName, small_system
from repro.common.errors import ConfigError
from repro.formal import bridge
from repro.formal.bridge import base_config
from repro.formal.events import LitmusProgram

MODELS = [ModelName.GPM, ModelName.EPOCH, ModelName.SBRP]


def geometry(program):
    blocks = sorted({t.block for t in program.threads})
    widest = max(sum(1 for t in program.threads if t.block == b) for b in blocks)
    return max(2, len(blocks)), 32 * max(2, widest)


def built_fresh(variant, model, num_sms, threads_per_block):
    """The config built step by step, with nothing shared."""
    config = small_system(
        model, num_sms=num_sms, threads_per_block=threads_per_block
    )
    sbrp = model is ModelName.SBRP
    if sbrp and variant.drain_policy is not None:
        config = replace(
            config,
            sbrp=replace(config.sbrp, drain_policy=DrainPolicy(variant.drain_policy)),
        )
    if sbrp and variant.window is not None:
        config = replace(config, sbrp=replace(config.sbrp, window=variant.window))
    if sbrp and variant.demote_block_scope:
        config = replace(
            config, sbrp=replace(config.sbrp, demote_block_scope=True)
        )
    if variant.wpq_entries is not None:
        config = replace(
            config, memory=replace(config.memory, wpq_entries=variant.wpq_entries)
        )
    if variant.nvm_bw_scale is not None:
        config = replace(
            config, memory=replace(config.memory, nvm_bw_scale=variant.nvm_bw_scale)
        )
    return config


def single_thread(name, block_count=1, threads_per_block=1):
    """*block_count* blocks of *threads_per_block* one-write threads."""
    program = LitmusProgram(name)
    for block in range(block_count):
        for _ in range(threads_per_block):
            program.thread(block=block).w("pA", block + 1)
    return program


#: One program per geometry: the directed corpus's, plus a wider block
#: and more blocks than the two-SM minimum.
GEOMETRY_PROGRAMS = {
    geometry(p): p
    for p in [
        *corpus_programs(),
        single_thread("three_threads", 1, 3),
        single_thread("three_blocks", 3),
    ]
}


@pytest.mark.parametrize(
    "num_sms, threads_per_block", sorted(GEOMETRY_PROGRAMS)
)
@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.value)
@pytest.mark.parametrize("variant", VARIANTS, ids=lambda v: v.name)
def test_memoised_config_equals_a_fresh_build(
    variant, model, num_sms, threads_per_block
):
    program = GEOMETRY_PROGRAMS[num_sms, threads_per_block]
    config = variant.configure(base_config(program, model))
    assert config == built_fresh(variant, model, num_sms, threads_per_block)


def test_equal_geometry_returns_the_identical_object():
    first, second = single_thread("a"), single_thread("b")
    for model in MODELS:
        base = base_config(first, model)
        assert base_config(second, model) is base
        for variant in VARIANTS:
            assert variant.configure(base) is variant.configure(
                base_config(second, model)
            )
    assert VARIANTS[0].configure(base) is base


def test_configure_rejects_a_config_that_is_no_base_config():
    base = base_config(single_thread("a"))
    other = replace(base, memory=replace(base.memory, wpq_entries=3))
    with pytest.raises(ConfigError):
        Variant("base").configure(other)


def test_caches_stay_within_their_bounds_over_a_program_stream():
    caches = (bridge.litmus_config, enumerator._configured)
    bounds = [cache.cache_info().maxsize for cache in caches]
    # The fuzzed stream repeats a few geometries; the wide programs add
    # a new one each, more than either cache holds.
    stream = generate_stream(3, 300 - 40) + [
        single_thread(f"wide{n}", n) for n in range(3, 43)
    ]
    for program in stream:
        for model in MODELS:
            base = base_config(program, model)
            for variant in VARIANTS:
                variant.configure(base)
            for cache, bound in zip(caches, bounds):
                assert cache.cache_info().currsize <= bound
    assert all(
        cache.cache_info().currsize == bound for cache, bound in zip(caches, bounds)
    )
