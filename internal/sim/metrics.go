package sim

import "pos/internal/telemetry"

// Data-plane telemetry for the batched engine: pool efficiency and shard
// group progress, exposed at /metrics through the process-wide registry.
var (
	eventPoolHits = telemetry.Default.Counter("pos_sim_event_pool_hits_total",
		"Scheduled events served from the engine's free list.")
	eventPoolMisses = telemetry.Default.Counter("pos_sim_event_pool_misses_total",
		"Scheduled events that required a fresh allocation.")

	shardWindows = telemetry.Default.Counter("pos_sim_shard_windows_total",
		"Shard rounds executed across all shard groups (one per shard per round).")
	shardStallWindows = telemetry.Default.Counter("pos_sim_shard_stall_windows_total",
		"Rounds in which a shard executed zero events while the group kept running (a driver waiting for work).")
	shardGroupsActive = telemetry.Default.Gauge("pos_sim_shard_groups_active",
		"Shard groups currently inside Run — the health watchdog's shard-progress probe is armed only while this is non-zero.")
)
