"""The differential oracle: stock models pass, image checks have teeth."""

import pytest

from repro.check.corpus import corpus_programs
from repro.check.fuzzer import generate_program
from repro.check.enumerator import SMOKE_VARIANTS, VARIANTS, Variant, variants_by_name
from repro.check.oracle import allowed_unconstrained, check_program, failing_variants
from repro.common.config import ModelName, Scope
from repro.common.errors import ConfigError
from repro.formal.bridge import base_config
from repro.formal.events import EventKind, LitmusProgram


def mp_program():
    return next(p for p in corpus_programs() if p.name == "mp_ofence_split")


class TestAllowedUnconstrained:
    def test_empty_image_always_allowed(self):
        allowed = allowed_unconstrained(mp_program())
        assert () in allowed

    def test_full_final_image_allowed(self):
        program = mp_program()
        allowed = allowed_unconstrained(program)
        full = tuple(
            sorted(
                (e.loc, e.value)
                for e in program.events()
                if e.is_persist
            )
        )
        assert full in allowed

    def test_unwritten_value_not_allowed(self):
        allowed = allowed_unconstrained(mp_program())
        assert (("pA", 999),) not in allowed

    def test_completed_dfence_makes_predecessors_mandatory(self):
        program = next(p for p in corpus_programs() if p.name == "dfence_split")
        dfence = next(e.eid for e in program.events() if e.kind is EventKind.DFENCE)
        unconstrained = allowed_unconstrained(program)
        completed = allowed_unconstrained(program, [dfence])
        assert () in unconstrained and completed < unconstrained
        assert all({"pA", "pC"} <= dict(image).keys() for image in completed)


STOCK_MODELS = [ModelName.SBRP, ModelName.GPM, ModelName.EPOCH]


class TestStockConformance:
    @pytest.mark.parametrize("model", STOCK_MODELS)
    def test_corpus_program_has_no_violations(self, model):
        report = check_program(mp_program(), model, SMOKE_VARIANTS)
        assert report["violations"] == 0
        assert failing_variants(report) == []

    # Fuzzed programs with colliding warp ready times, a timing-core
    # path the directed corpus does not reach.
    @pytest.mark.parametrize("model", STOCK_MODELS)
    @pytest.mark.parametrize("index", [2, 29])
    def test_fuzzed_program_has_no_violations(self, index, model):
        report = check_program(generate_program(7, index), model, SMOKE_VARIANTS)
        assert report["violations"] == 0
        assert failing_variants(report) == []

    def test_report_shape(self):
        report = check_program(mp_program(), ModelName.SBRP, [VARIANTS[0]])
        assert report["program"] == "mp_ofence_split"
        assert report["model"] == "sbrp"
        assert report["mutant"] is None
        assert [v["variant"] for v in report["variants"]] == ["base"]
        assert 0 < report["coverage"]["observed_allowed"]
        assert report["coverage"]["observed_allowed"] <= report["coverage"]["allowed"]


class TestVariants:
    def test_round_trip(self):
        for variant in VARIANTS:
            assert Variant.from_json(variant.to_json()) == variant

    def test_names_unique(self):
        names = [v.name for v in VARIANTS]
        assert len(names) == len(set(names))

    def test_variants_by_name_rejects_unknown(self):
        with pytest.raises(ConfigError):
            variants_by_name(["no_such_variant"])

    def test_congested_variant_overrides_memory(self):
        congested = variants_by_name(["congested"])[0]
        config = congested.configure(base_config(mp_program(), ModelName.SBRP))
        assert config.memory.wpq_entries == 1
        assert config.memory.nvm_bw_scale == 0.02

    def test_reversed_variant_flips_thread_order(self):
        reversed_ = variants_by_name(["reversed"])[0]
        program = mp_program()
        order = reversed_.thread_order(program)
        assert order == list(reversed(range(len(program.threads))))
        assert variants_by_name(["base"])[0].thread_order(program) is None
