"""Process sharding: hash placement, the supervisor, and slice parity."""

import json

import pytest

from repro.errors import ReproError, ShardCrashed, ShardError
from repro.fleet import (
    FleetConfig,
    plan_sequencers,
    plan_shards,
    run_fleet,
    run_fleet_sharded,
    shard_of,
)
from repro.fleet.sharding import fnv1a32


def small_config(**overrides):
    base = dict(
        groups=24,
        members=3,
        nodes=8,
        clients=240,
        client_rate=0.5,
        hot_fraction=0.1,
        hot_multiplier=50.0,
        duration=2.0,
        warmup=0.2,
        settle=1.0,
        seed=7,
    )
    base.update(overrides)
    return FleetConfig(**base)


def outcomes(result):
    """The execution-independent projection of a fleet result."""
    return json.dumps(
        [report.as_dict() for report in result.per_group], sort_keys=True
    )


class TestPlacement:
    def test_fnv1a32_pinned_vectors(self):
        # Independently computed; placement is a wire-visible contract.
        assert fnv1a32(0) == 0x4B95F515
        assert fnv1a32(1) == 0xFB69B604
        assert shard_of(1, 1) == 0

    def test_shard_of_is_stable_across_fleet_sizes(self):
        # A group's home depends only on (id, shards) — never on how
        # many other groups exist.
        for gid in (1, 127, 128, 16384, 2097152, 2 ** 32 - 1):
            homes = {shard_of(gid, 4) for __ in range(3)}
            assert len(homes) == 1
            assert 0 <= homes.pop() < 4

    def test_shard_of_rejects_bad_count(self):
        with pytest.raises(ShardError, match=">= 1"):
            shard_of(1, 0)

    def test_plan_covers_each_group_once(self):
        config = small_config(shards=4)
        plan = plan_shards(config)
        assert len(plan) == 4
        flat = sorted(index for slice_ in plan for index in slice_)
        assert flat == list(range(config.groups))
        for slice_ in plan:
            assert slice_ == sorted(slice_)
            for index in slice_:
                assert shard_of(index + 1, 4) == plan.index(slice_)

    def test_plan_is_reasonably_balanced(self):
        config = FleetConfig(groups=1000, clients=1000, shards=4)
        sizes = [len(slice_) for slice_ in plan_shards(config)]
        assert sum(sizes) == 1000
        assert max(sizes) - min(sizes) < 200  # hash spread, not clumps

    def test_config_validates_shards(self):
        with pytest.raises(ReproError, match=">= 0"):
            small_config(shards=-1)
        with pytest.raises(ReproError, match="sim runtime"):
            small_config(shards=2, runtime="asyncio")
        with pytest.raises(ReproError, match="cannot split"):
            small_config(shards=25)


class TestSlices:
    def test_slice_runs_merge_to_full_fleet(self):
        """Any partition reproduces the unpartitioned per-group outcomes."""
        config = small_config()
        full = run_fleet(config)
        evens = run_fleet(config, indices=range(0, config.groups, 2))
        odds = run_fleet(config, indices=range(1, config.groups, 2))
        merged = sorted(
            evens.per_group + odds.per_group, key=lambda r: r.group_id
        )
        assert [r.as_dict() for r in merged] == [
            r.as_dict() for r in full.per_group
        ]

    def test_sequencer_plan_matches_live_assignment(self):
        config = small_config()
        plan = plan_sequencers(config)
        result = run_fleet(config)
        assert [r.sequencer for r in result.per_group] == plan


class TestSupervisor:
    def test_sharded_run_matches_in_process(self):
        config = small_config()
        sharded = run_fleet_sharded(small_config(shards=2))
        assert outcomes(sharded) == outcomes(run_fleet(config))
        assert sharded.shards == 2
        assert len(sharded.shard_stats) == 2
        assert sharded.groups == config.groups
        assert sharded.clients == config.clients
        assert sharded.delivered == sum(
            r.delivered for r in sharded.per_group
        )
        assert sharded.pool_loads  # merged back from per-shard slices
        assert all(s["cpu_s"] > 0 for s in sharded.shard_stats)
        assert sharded.ok, sharded.violations

    def test_single_shard_as_dict_round_trips(self):
        result = run_fleet_sharded(small_config(shards=1))
        payload = result.as_dict()
        assert payload["shards"] == 1
        assert len(payload["shard_stats"]) == 1
        assert "shards" in result.summary()

    def test_telemetry_rolls_up_across_shards(self):
        config = small_config(telemetry=True, shards=2)
        result = run_fleet_sharded(config)
        assert result.telemetry is not None
        merged = result.telemetry
        assert merged["source"] == "merge"
        assert merged["merged_from"] == 2
        assert merged["snapshot"]["fleet"]["groups"] == config.groups
        assert merged["snapshot"]["fleet"]["delivered"] == result.delivered
        assert len(merged["snapshot"]["groups"]) == config.groups
        assert "repro_fleet_delivered_total" in merged["prometheus"]

    def test_crashed_shard_raises_structured_error(self):
        # An impossible slice makes the worker die after spawn; the
        # supervisor must surface the death, not hang.
        config = small_config(shards=2)
        bad = plan_shards(config)[0] + [config.groups + 50]  # bogus index

        import repro.fleet.sharding as sharding

        original = sharding.plan_shards
        sharding.plan_shards = lambda cfg: [bad, original(cfg)[1]]
        try:
            with pytest.raises(ShardCrashed) as excinfo:
                run_fleet_sharded(config)
        finally:
            sharding.plan_shards = original
        assert excinfo.value.shard == 0
        assert "IndexError" in str(excinfo.value) or "shard 0" in str(
            excinfo.value
        )
