// Sharded datacenter execution: run one Datacenter's clusters concurrently
// on the ThreadPool, bit-identically at every thread count.
//
// The unit of parallelism is the VCluster (Stillwell et al.'s per-cluster
// decomposition): shard k owns the clusters whose index is k modulo the
// shard count, and — because placement routing (Datacenter::route) is a
// pure function of (VmId, spec) — no event of one shard ever reads or
// writes another shard's state. A shard is the replay engine's one control
// plane (sim/replay.cpp) scoped to its clusters: its own EventQueue,
// partial RunResult counters, FaultInjector and MigrationEngine (scoped so
// the per-shard timetables and flights partition the whole-datacenter
// ones), planners and heat caches, and its own sample log of metric
// observations. The serial replay() is the same control plane owning
// every cluster, so replay_sharded with one shard simply calls replay().
//
// Determinism comes from two disciplines, both inherited from
// sim/parallel.hpp rather than invented here:
//
//  * *Grid-seeded schedules* — everything stochastic (the fault timetable)
//    is a pure function of (seed, k), never of thread scheduling; within a
//    shard the EventQueue's insertion-order tie-break applies unchanged.
//  * *Fixed-order reduction* — per-shard sample logs are merged into the
//    single MetricsCollector in the documented cross-shard order: ascending
//    time, ties to the lowest shard index, within a shard in log order
//    (shard_merge_order is that comparator, exposed for tests). The merged
//    stream feeds the collector the exact global aggregates, so the
//    floating-point sequence — and hence every RunResult field — is
//    bit-identical at every thread count.
//
// With more than one shard, execution alternates parallel windows with
// serial barriers: the horizon is cut into `barriers` windows; within a
// window every shard runs independently (EventQueue::run_until); at each
// barrier the sample logs are merged and dropped (bounding memory), every
// cluster's placement-index dirty log is replayed in one batch
// (VCluster::flush_index), and — when the debug-audit flag is set — the
// full datacenter audit runs. After the last window each shard drains its
// queue completely (fault repairs and retries may fire past the horizon).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sim/datacenter.hpp"
#include "sim/metrics.hpp"
#include "sim/replay.hpp"
#include "workload/trace.hpp"

namespace slackvm::sim {

/// Largest shard count user input (CLI flags, scenario files) accepts: far
/// past any useful parallelism, and small enough that a typo fails fast
/// instead of building a datacenter of ~1e19 clusters.
inline constexpr std::size_t kMaxShards = 4096;

/// Knobs of a sharded replay. The defaults run the serial replay (one
/// shard, inline on the calling thread). `threads`, `barriers` and
/// `watchdog_ms` have no effect at one shard.
struct ShardOptions {
  /// Shard count: clusters are dealt round-robin across shards. May exceed
  /// the cluster count (excess shards simply own nothing).
  std::size_t shards = 1;
  /// Worker threads driving the shards (sim/parallel.hpp semantics: 1 =
  /// inline serial, 0 = all hardware threads). Results are bit-identical at
  /// every value; only wall-clock time changes.
  std::size_t threads = 1;
  /// Barrier windows the horizon is cut into (>= 1). More barriers bound
  /// sample-log memory tighter and refresh placement indexes more often;
  /// fewer maximize the parallel stretches. Results are identical either
  /// way — barriers only batch work, they never reorder it.
  std::size_t barriers = 8;
  /// Periodic consolidation, as in replay().
  std::optional<RebalanceOptions> rebalance;
  /// Fault injection, as in replay(); each shard owns the timetable events
  /// that target its clusters.
  const FaultConfig* faults = nullptr;
  /// Stall watchdog over every barrier wait (sim/parallel.hpp): when a
  /// window makes no progress for this long, per-shard progress (clusters
  /// owned, events fired, simulated time, in-flight migrations) is dumped
  /// to stderr and — with `watchdog_fatal` — the process aborts instead of
  /// hanging. 0 disables. Ignored without a cross-thread wait (one shard,
  /// or threads <= 1).
  std::size_t watchdog_ms = 0;
  bool watchdog_fatal = true;
};

/// One metric observation recorded by a shard after one of its events:
/// the aggregates over the shard's own clusters at `time`.
struct ShardSample {
  core::SimTime time = 0;
  core::Resources alloc;
  core::Resources config;
  std::size_t vms = 0;
  std::size_t active = 0;
};

/// The documented cross-shard ordering, as a standalone function over
/// per-shard sample logs (each log ascending in time): returns the merged
/// (shard, index-within-log) sequence — ascending time, ties across shards
/// to the lowest shard index, within a shard in log order. The engine's
/// streaming merge follows exactly this comparator; the shard test suite
/// pins it.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> shard_merge_order(
    std::span<const std::vector<ShardSample>> logs);

/// Drain `source` (sim/event_source.hpp) against `dc` (which must be
/// fresh) with the clusters sharded per `options`. Rows are pulled
/// incrementally: at each barrier the serial demux routes every row
/// arriving before the next window's deadline to the shard owning its
/// routed cluster (Datacenter::route — the same pure function the
/// materialized path uses), in row order, on the workload lane; the final
/// window drains the source completely. Resident memory is therefore
/// O(active window + one window's arrivals), never O(trace). The source
/// must provide a horizon hint (barrier windows and the fault timetable
/// need it up-front) — pre-scan streaming files with TraceReader::scan, or
/// materialize. Deterministic, and bit-identical across options.threads.
/// With options.shards <= 1 this is replay() with the same rebalance and
/// faults (and no usage monitor): lazy row pumping, no windows, no hint
/// needed unless a periodic schedule is armed.
[[nodiscard]] RunResult replay_sharded(Datacenter& dc, EventSource& source,
                                       const ShardOptions& options = {});

/// Replay a materialized trace: wraps it in a MaterializedSource and runs
/// the engine above, so the two paths are bit-identical by construction.
[[nodiscard]] RunResult replay_sharded(Datacenter& dc, const workload::Trace& trace,
                                       const ShardOptions& options = {});

}  // namespace slackvm::sim
