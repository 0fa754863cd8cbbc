"""Tests for configuration objects, value types and the error hierarchy."""

import pytest

from repro import errors
from repro.config import BatchingConfig, MultiRingConfig, RecoveryConfig, RingConfig
from repro.errors import ConfigurationError, ReproError
from repro.sim.disk import StorageMode
from repro.types import Value, skip_value


class TestValue:
    def test_values_get_unique_uids(self):
        assert Value.create("a", 10).uid != Value.create("a", 10).uid

    def test_size_is_clamped_to_non_negative(self):
        assert Value.create("a", -5).size_bytes == 0

    def test_skip_values_are_marked_and_empty(self):
        skip = skip_value(created_at=1.5, proposer="c")
        assert skip.is_skip
        assert skip.size_bytes == 0
        assert skip.payload is None
        assert not Value.create("a", 1).is_skip

    def test_metadata_is_carried(self):
        value = Value.create("payload", 128, proposer="p1", created_at=2.0)
        assert value.proposer == "p1"
        assert value.created_at == 2.0
        assert value.payload == "payload"


class TestMultiRingConfig:
    def test_paper_presets(self):
        lan = MultiRingConfig.datacenter()
        wan = MultiRingConfig.wide_area()
        assert (lan.m, lan.delta, lan.lam) == (1, 5e-3, 9000.0)
        assert (wan.m, wan.delta, wan.lam) == (1, 20e-3, 2000.0)

    def test_presets_accept_overrides(self):
        config = MultiRingConfig.datacenter(m=4, rate_leveling=False)
        assert config.m == 4
        assert not config.rate_leveling
        assert config.delta == 5e-3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiRingConfig(m=0)
        with pytest.raises(ConfigurationError):
            MultiRingConfig(delta=0)
        with pytest.raises(ConfigurationError):
            MultiRingConfig(lam=-1)

    def test_skip_quota(self):
        assert MultiRingConfig(m=1, delta=0.01, lam=1000).skip_quota_per_interval == 10
        assert MultiRingConfig(m=1, delta=0.001, lam=100).skip_quota_per_interval >= 1


class TestRingAndBatchingConfig:
    def test_with_storage_returns_new_config(self):
        base = RingConfig()
        sync = base.with_storage(StorageMode.SYNC_SSD)
        assert base.storage_mode is StorageMode.MEMORY
        assert sync.storage_mode is StorageMode.SYNC_SSD

    def test_paper_buffer_defaults(self):
        config = RingConfig()
        assert config.memory_slots == 15000

    def test_batching_validation(self):
        with pytest.raises(ConfigurationError):
            BatchingConfig(max_batch_bytes=0)
        with pytest.raises(ConfigurationError):
            BatchingConfig(max_batch_delay=-1)
        assert BatchingConfig().max_batch_bytes == 32 * 1024


class TestRecoveryConfigDefaults:
    def test_defaults_are_consistent(self):
        config = RecoveryConfig()
        assert config.trim_quorum_fraction + config.recovery_quorum_fraction > 1.0
        assert config.checkpoint_interval > 0

    def test_quorum_of_single_replica(self):
        assert RecoveryConfig().recovery_quorum_size(1) == 1


class TestErrorHierarchy:
    def test_every_library_error_derives_from_repro_error(self):
        for name in errors.__all__:
            if name == "ReproError":
                continue
            error_class = getattr(errors, name)
            assert issubclass(error_class, ReproError), name

    def test_errors_can_be_caught_as_repro_error(self):
        with pytest.raises(ReproError):
            raise errors.MulticastError("boom")


class TestPackageSurface:
    def test_top_level_exports(self):
        import repro

        assert repro.__version__ == "1.0.0"
        for name in repro.__all__:
            assert hasattr(repro, name), name
