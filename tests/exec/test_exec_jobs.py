"""ScenarioJob identity: hashing and serialization."""

import dataclasses
import enum

import pytest

from repro.bench.runner import ScenarioResult, scenario_config
from repro.common.config import (
    GPUConfig,
    MemoryConfig,
    ModelName,
    PMPlacement,
    SBRPConfig,
    SystemConfig,
    stable_hash,
)
from repro.common.errors import ConfigError
from repro.exec import MODE_RECOVERY, MODE_SCENARIO, ScenarioJob


@pytest.fixture
def config() -> SystemConfig:
    return scenario_config(ModelName.SBRP, PMPlacement.NEAR)


@pytest.fixture
def job(config) -> ScenarioJob:
    return ScenarioJob(app="srad", config=config, app_params={"side": 32})


class TestStableHash:
    def test_deterministic_and_order_insensitive(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_enums_hash_as_values(self):
        assert stable_hash(ModelName.SBRP) == stable_hash("sbrp")
        assert stable_hash([PMPlacement.NEAR]) == stable_hash(["near"])

    def test_distinct_objects_distinct_hashes(self):
        assert stable_hash({"a": 1}) != stable_hash({"a": 2})


class TestConfigSerialization:
    def test_round_trip(self, config):
        rebuilt = SystemConfig.from_dict(config.to_dict())
        assert rebuilt == config
        assert _key(rebuilt) == _key(config)

    def test_round_trip_survives_json(self, config):
        import json

        rebuilt = SystemConfig.from_dict(json.loads(json.dumps(config.to_dict())))
        assert rebuilt == config

    def test_retired_top_level_keys_are_ignored(self, config):
        # Reports written before a field was retired still carry it.
        legacy = {**config.to_dict(), "retired": {"enabled": True}}
        assert SystemConfig.from_dict(legacy) == config

    def test_retired_nested_and_seed_keys_are_ignored(self, config):
        # Fault-campaign reproducers written while the eADR switch and
        # the unused top-level seed existed carry both.
        legacy = config.to_dict()
        legacy["memory"]["eadr"] = True
        legacy["seed"] = 3
        assert SystemConfig.from_dict(legacy) == config
        assert "seed" not in config.to_dict()
        assert "eadr" not in config.to_dict()["memory"]

    def test_retired_engine_and_batching_keys_are_ignored(self, config):
        # Results written while the timing-core and batched-stepping
        # switches existed carry ``engine`` and ``batch_warps``.
        legacy = {**config.to_dict(), "engine": "reference", "batch_warps": True}
        assert SystemConfig.from_dict(legacy) == config
        assert "engine" not in config.to_dict()


def _altered(value):
    """A different value of the same general shape as *value*."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, enum.Enum):
        members = list(type(value))
        return members[(members.index(value) + 1) % len(members)]
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * 2 + 1.0
    raise AssertionError(f"no alteration rule for {value!r}")


def _key(config: SystemConfig) -> str:
    """The memo key of a fixed job on *config*."""
    return ScenarioJob(app="srad", config=config, app_params={"side": 32}).key


class TestCacheKeyProperty:
    """replace()-ing ANY field of any sub-config must change the memo
    key of a job on that config."""

    def _assert_all_fields_matter(self, base_system, attr, sub_config):
        for field in dataclasses.fields(sub_config):
            old = getattr(sub_config, field.name)
            changed = dataclasses.replace(
                sub_config, **{field.name: _altered(old)}
            )
            system = dataclasses.replace(base_system, **{attr: changed})
            assert _key(system) != _key(base_system), (
                f"job key ignored {attr}.{field.name}"
            )

    def test_gpu_fields(self, config):
        self._assert_all_fields_matter(config, "gpu", config.gpu)

    def test_memory_fields(self, config):
        self._assert_all_fields_matter(config, "memory", config.memory)

    def test_sbrp_fields(self, config):
        self._assert_all_fields_matter(config, "sbrp", config.sbrp)

    def test_top_level_fields(self, config):
        changed = dataclasses.replace(config, model=ModelName.EPOCH)
        assert _key(changed) != _key(config)

    def test_equal_configs_share_key(self, config):
        twin = scenario_config(ModelName.SBRP, PMPlacement.NEAR)
        assert _key(twin) == _key(config)


class TestScenarioJob:
    def test_json_round_trip(self, job):
        rebuilt = ScenarioJob.from_json(job.to_json())
        assert rebuilt == job
        assert rebuilt.key == job.key
        assert rebuilt.spec_hash == job.spec_hash

    def test_key_changes_with_app_params(self, job):
        other = dataclasses.replace(job, app_params={"side": 48})
        assert other.key != job.key
        assert other.spec_hash != job.spec_hash

    def test_key_changes_with_app_and_config(self, job, config):
        assert dataclasses.replace(job, app="scan").key != job.key
        far = scenario_config(ModelName.SBRP, PMPlacement.FAR)
        assert dataclasses.replace(job, config=far).key != job.key

    def test_key_changes_with_mode_and_verify(self, job):
        recovery = dataclasses.replace(job, mode=MODE_RECOVERY)
        assert recovery.key != job.key
        unverified = dataclasses.replace(job, verify=False)
        assert unverified.key != job.key

    def test_trace_options_change_the_key_not_the_spec_hash(self, job):
        # The spec hash names trace files, so tracing leaves it alone;
        # a traced job's key covers the whole job, so it is never
        # answered by an untraced run.
        for traced in (
            dataclasses.replace(job, trace_dir="out"),
            dataclasses.replace(job, trace_dir="out", trace_tag="t"),
        ):
            assert traced.spec_hash == job.spec_hash
            assert traced.key != job.key
            assert traced.key == stable_hash(traced.to_json())
        assert len({
            dataclasses.replace(job, trace_dir="out", trace_tag=tag).key
            for tag in (None, "t", "u")
        }) == 3

    def test_an_untraced_job_key_ignores_its_trace_tag(self, job):
        # The tag only names trace files; untraced figures that tag their
        # cells must still share runs with the untagged ones.
        assert job.key == job.spec_hash
        assert dataclasses.replace(job, trace_tag="t").key == job.key

    def test_unknown_mode_rejected(self, config):
        with pytest.raises(ConfigError):
            ScenarioJob(app="srad", config=config, mode="bogus")

    def test_label(self, job):
        assert job.label == "srad@SBRP-near"
        recovery = dataclasses.replace(job, mode=MODE_RECOVERY)
        assert "recovery" in recovery.label

    def test_recover_enters_the_spec_only_when_set(self, job):
        assert "recover" not in job.spec
        recovering = dataclasses.replace(job, recover=True)
        assert recovering.spec["recover"] is True
        assert recovering.key != job.key
        assert ScenarioJob.from_json(recovering.to_json()) == recovering

    def test_recover_only_valid_in_scenario_mode(self, config):
        with pytest.raises(ConfigError):
            ScenarioJob(app="srad", config=config, mode=MODE_RECOVERY, recover=True)

    def test_twin_is_the_recovering_scenario_of_the_cell(self, job):
        twin = dataclasses.replace(job, recover=True)
        assert job.twin == twin
        assert dataclasses.replace(job, mode=MODE_RECOVERY).twin == twin
        assert twin.mode == MODE_SCENARIO
        assert twin.twin is None


class TestScenarioResultSerialization:
    def test_round_trip_survives_json(self):
        import json

        result = ScenarioResult(
            app="srad",
            label="SBRP-near",
            cycles=123.5,
            stats={"l1.read_miss_pm": 7.0, "persist.lines": 3.0},
            detail={"outcome": "consistent"},
            metrics={"persist.lines": 3},
        )
        rebuilt = ScenarioResult.from_json(
            json.loads(json.dumps(result.to_json()))
        )
        assert rebuilt == result
        assert rebuilt.stat("persist.lines") == 3.0

    def test_round_trip_with_profile(self):
        # a record cached when results still carried an ASCII profile
        # reads back with the profile dropped and everything else intact.
        record = {
            "app": "srad",
            "label": "SBRP-near",
            "cycles": 123.5,
            "stats": {"l1.read_miss_pm": 7.0, "persist.lines": 3.0},
            "profile": "ascii profile",
        }
        rebuilt = ScenarioResult.from_json(record)
        assert rebuilt == ScenarioResult(
            app="srad",
            label="SBRP-near",
            cycles=123.5,
            stats={"l1.read_miss_pm": 7.0, "persist.lines": 3.0},
        )
        assert not hasattr(rebuilt, "profile")
        assert "profile" not in rebuilt.to_json()
        assert rebuilt.stat("persist.lines") == 3.0

    def test_round_trip_without_profile_survives_json(self):
        import json

        result = ScenarioResult(
            app="scan", label="GPM", cycles=9.0, stats={"a.b": 1.5}
        )
        rebuilt = ScenarioResult.from_json(
            json.loads(json.dumps(result.to_json()))
        )
        assert rebuilt == result
        assert rebuilt.detail is None and rebuilt.metrics is None
        assert "profile" not in result.to_json()


class TestJobExecute:
    def test_execute_runs_scenario(self, job):
        result = job.execute()
        assert result.app == "srad"
        assert result.label == "SBRP-near"
        assert result.cycles > 0
        assert result.stat("persist.lines") > 0

    def test_execute_recovery_mode(self, config):
        job = ScenarioJob(
            app="reduction",
            config=config,
            app_params={"blocks": 2, "per_thread": 1},
            mode=MODE_RECOVERY,
        )
        result = job.execute()
        assert result.cycles > 0
        assert result.stat("recovery.cycles") == result.cycles
