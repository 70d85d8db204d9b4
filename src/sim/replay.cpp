// The replay engine: one control plane (Shard) and its two drivers, the
// serial replay() and the windowed replay_sharded() (sim/replay.hpp,
// sim/shard.hpp).
#include "sim/replay.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <sstream>

#include "core/error.hpp"
#include "perf/contention.hpp"
#include "sched/rebalancer.hpp"
#include "sim/audit.hpp"
#include "sim/event_source.hpp"
#include "sim/parallel.hpp"
#include "sim/shard.hpp"

namespace slackvm::sim {

namespace {

/// Streams samples into the single MetricsCollector. The global aggregates
/// are maintained as exact integer sums: when shard k reports a new sample,
/// only its delta against k's previous sample moves the totals, so the
/// value handed to the collector equals the sum of every shard's latest
/// aggregates — for one shard, exactly that shard's observation.
class SampleMerger {
 public:
  SampleMerger(std::size_t shards, core::SimTime initial_end)
      : latest_(shards), end_time_(initial_end) {}

  /// Merge and drop every shard's log in the documented cross-shard order.
  void merge(std::span<std::vector<ShardSample>* const> logs) {
    std::vector<std::vector<ShardSample>> taken(logs.size());
    for (std::size_t k = 0; k < logs.size(); ++k) {
      taken[k] = std::move(*logs[k]);
      logs[k]->clear();
    }
    for (const auto& [shard, index] : shard_merge_order(taken)) {
      apply(shard, taken[shard][index]);
    }
  }

  void apply(std::size_t shard, const ShardSample& s) {
    ShardSample& prev = latest_[shard];
    alloc_cores_ += static_cast<std::int64_t>(s.alloc.cores) - prev.alloc.cores;
    alloc_mem_ += s.alloc.mem_mib - prev.alloc.mem_mib;
    config_cores_ += static_cast<std::int64_t>(s.config.cores) - prev.config.cores;
    config_mem_ += s.config.mem_mib - prev.config.mem_mib;
    vms_ += static_cast<std::int64_t>(s.vms) - static_cast<std::int64_t>(prev.vms);
    active_ +=
        static_cast<std::int64_t>(s.active) - static_cast<std::int64_t>(prev.active);
    prev = s;
    const core::Resources alloc{static_cast<core::CoreCount>(alloc_cores_),
                                alloc_mem_};
    const core::Resources config{static_cast<core::CoreCount>(config_cores_),
                                 config_mem_};
    const auto active = static_cast<std::size_t>(active_);
    metrics_.observe(s.time, alloc, config, static_cast<std::size_t>(vms_), active);
    peak_active_ = std::max(peak_active_, active);
    end_time_ = std::max(end_time_, s.time);
  }

  void finish(RunResult& result) const {
    result.peak_active_pms = peak_active_;
    metrics_.finish(end_time_, result);
  }

 private:
  MetricsCollector metrics_;
  std::vector<ShardSample> latest_;  ///< last merged sample per shard
  std::int64_t alloc_cores_ = 0;
  std::int64_t alloc_mem_ = 0;
  std::int64_t config_cores_ = 0;
  std::int64_t config_mem_ = 0;
  std::int64_t vms_ = 0;
  std::int64_t active_ = 0;
  std::size_t peak_active_ = 0;
  core::SimTime end_time_;
};

/// One control plane over the clusters `scope` owns: the event queue, the
/// partial RunResult counters, the fault injector, the migration engine,
/// the planners, the heat caches, the row/rebalance/heat/usage schedules
/// and the end-of-run migration audit. All mutation happens inside its
/// queue's events, and it only ever touches its own clusters, so shards
/// over disjoint scopes may run concurrently. Immovable: event closures
/// capture `this`.
class Shard {
 public:
  /// `direct` set: every observation goes straight into it (the serial
  /// driver). Unset: observations are appended to `log` for the windowed
  /// driver's barrier merge.
  Shard(Datacenter& dc, ShardScope scope, const std::optional<RebalanceOptions>& rebalance,
        const FaultConfig* faults, SampleMerger* direct)
      : dc_(dc),
        scope_(scope),
        rebalance_(rebalance ? &*rebalance : nullptr),
        direct_(direct) {
    if (rebalance_ != nullptr) {
      rebalance_->interference.validate();
    }
    for (std::size_t c = 0; c < dc.clusters().size(); ++c) {
      if (scope.owns(c)) {
        clusters_.push_back(c);
      }
    }
    heat_caches_.resize(clusters_.size());
    const auto observe = [this](core::SimTime t) { this->observe(t); };
    if (faults != nullptr && faults->enabled()) {
      injector_.emplace(dc, queue, *faults, partial_, observe, scope);
    }
    if (rebalance_ != nullptr && rebalance_->migration.enabled) {
      // All flight state is per-cluster, so the union of scoped engines
      // evolves exactly like one engine over the whole datacenter.
      engine_.emplace(dc, queue, rebalance_->migration, partial_, observe, scope);
      if (injector_.has_value()) {
        // Faults must abort/reroute the flights they touch *before* they
        // mutate the fleet (sim/migration.hpp failure semantics).
        injector_->set_migration_engine(&*engine_);
      }
    }
  }
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// Schedule one trace row: arrival then departure, both on the workload
  /// lane, so a row inserted mid-run still wins time ties against control
  /// events exactly as if every row had been scheduled first. The row's
  /// identity waits in the pending-row slab until it arrives — the
  /// source's buffers are long recycled by then — so both closures are
  /// 16 trivially copyable bytes that std::function stores inline.
  void schedule_row(const core::VmInstance& vm) {
    std::uint32_t slot = 0;
    if (!free_rows_.empty()) {
      slot = free_rows_.back();
      free_rows_.pop_back();
      rows_[slot] = PendingRow{vm.id, vm.spec};
    } else {
      slot = static_cast<std::uint32_t>(rows_.size());
      rows_.push_back(PendingRow{vm.id, vm.spec});
    }
    queue.schedule_lane(vm.arrival, EventQueue::kLaneWorkload,
                        [this, slot](core::SimTime t) { arrive(slot, t); });
    queue.schedule_lane(vm.departure, EventQueue::kLaneWorkload,
                        [this, id = vm.id](core::SimTime t) {
      // A departing VM first cancels any migration intent it carries
      // (rolling back an in-flight reservation) — the engine must let go
      // before the VM leaves the placement maps. A VM still waiting for a
      // retry (or parked degraded) is not in the datacenter; the injector
      // absorbs its departure.
      if (engine_.has_value()) {
        engine_->on_departure(id, t);
      }
      if (!injector_.has_value() || !injector_->absorb_departure(id)) {
        remove(id);
      }
      observe(t);
    });
  }

  /// Lay out the periodic schedules over [0, horizon): rebalance ticks,
  /// then heat ticks, then usage ticks, with the fault timetable armed
  /// last. Within the control lane equal times fire in insertion order, so
  /// a coincident tick rebalances against the *previous* window's heat and
  /// every run resolves timetable ties the same way; workload events win
  /// time ties regardless via their lane.
  void schedule_controls(core::SimTime horizon, UsageMonitor* usage_monitor) {
    if (rebalance_ != nullptr && horizon > 0 && !clusters_.empty()) {
      for (core::SimTime t = rebalance_->interval; t < horizon; t += rebalance_->interval) {
        queue.schedule(t, [this](core::SimTime now) { rebalance_pass(now); });
      }
      const sched::InterferenceOptions& itf = rebalance_->interference;
      if (itf.enabled) {
        for (core::SimTime t = itf.heat_interval; t < horizon; t += itf.heat_interval) {
          queue.schedule(t, [this](core::SimTime now) { heat_pass(now); });
        }
      }
    }
    if (usage_monitor != nullptr && horizon > 0) {
      for (core::SimTime t = usage_monitor->interval() / 2; t < horizon;
           t += usage_monitor->interval()) {
        queue.schedule(t, [this, usage_monitor](core::SimTime now) {
          usage_monitor->record(sample_usage(dc_, now));
        });
      }
    }
    if (injector_.has_value()) {
      injector_->arm(horizon);
    }
  }

  /// After the queue drained: audit the migration engine and add this
  /// shard's counters into `result`.
  void finish(RunResult& result) const {
    if (engine_.has_value()) {
      // A drained queue means every intent reached a terminal bucket; the
      // engine re-derives the counter identity and the reservation <->
      // flight bijection from first principles.
      SLACKVM_ASSERT(engine_->in_flight() == 0 && engine_->pending_intents() == 0);
      const std::vector<std::string> violations = engine_->audit();
      if (!violations.empty()) {
        std::string message = "replay: migration audit failed:";
        for (const std::string& v : violations) {
          message += "\n  " + v;
        }
        SLACKVM_THROW(message);
      }
    }
    const RunResult& p = partial_;
    result.migrations += p.migrations;
    result.placed_vms += p.placed_vms;
    result.host_failures += p.host_failures;
    result.host_repairs += p.host_repairs;
    result.drained_hosts += p.drained_hosts;
    result.evacuated_vms += p.evacuated_vms;
    result.evac_replaced += p.evac_replaced;
    result.evac_migrated += p.evac_migrated;
    result.evac_retries += p.evac_retries;
    result.evac_departed += p.evac_departed;
    result.degraded_vms += p.degraded_vms;
    result.deferred_arrivals += p.deferred_arrivals;
    result.arrivals_dropped += p.arrivals_dropped;
    result.mig_planned += p.mig_planned;
    result.mig_committed += p.mig_committed;
    result.mig_cancelled += p.mig_cancelled;
    result.mig_rolled_back += p.mig_rolled_back;
    result.mig_timed_out += p.mig_timed_out;
    result.mig_degraded += p.mig_degraded;
    result.mig_retries += p.mig_retries;
    result.heat_updates += p.heat_updates;
    result.itf_passes += p.itf_passes;
    result.itf_hot_hosts += p.itf_hot_hosts;
    result.itf_evictions += p.itf_evictions;
    result.itf_applied += p.itf_applied;
    result.itf_requested += p.itf_requested;
    result.itf_skipped += p.itf_skipped;
  }

  /// One progress line for the stall watchdog (read from another thread;
  /// the queue and engine probes it uses are the cross-thread-safe ones).
  void describe(std::ostream& os) const {
    os << clusters_.size() << " clusters, " << queue.fired_count()
       << " events fired, sim time " << queue.approx_now();
    if (engine_.has_value()) {
      os << ", " << engine_->in_flight() << " migrations in flight";
    }
  }

  EventQueue queue;
  std::vector<ShardSample> log;  ///< windowed driver: drained at each barrier

 private:
  /// Aggregates over the owned clusters after an event — O(owned clusters)
  /// thanks to the arenas' running totals — then the per-event audit (a
  /// no-op unless the debug-audit flag is set).
  void observe(core::SimTime t) {
    ShardSample s;
    s.time = t;
    for (const std::size_t c : clusters_) {
      const sched::VCluster& cluster = *dc_.clusters()[c];
      s.alloc += cluster.total_alloc();
      s.config += cluster.total_config();
      s.vms += cluster.vm_count();
      s.active += cluster.nonempty_hosts();
    }
    if (direct_ != nullptr) {
      direct_->apply(0, s);
    } else {
      log.push_back(s);
    }
    audit();
  }

  /// The shard owning every cluster audits the whole datacenter; a shard
  /// of a windowed run audits only its own clusters (the others mutate
  /// concurrently) and the full audit runs at barriers. Both are no-ops
  /// unless the debug-audit flag is set.
  void audit() const {
    if (scope_.of == 1) {
      debug_audit_check(dc_);
      return;
    }
    for (const std::size_t c : clusters_) {
      debug_audit_check(*dc_.clusters()[c]);
    }
  }

  /// A row's arrival: release its pending-row slot, then place the VM.
  void arrive(std::uint32_t slot, core::SimTime t) {
    const PendingRow row = rows_[slot];
    free_rows_.push_back(slot);
    if (injector_.has_value()) {
      // Under fault injection capacity can be transiently exhausted;
      // arrivals defer into the retry/degraded machinery instead.
      injector_->deploy_or_defer(row.id, row.spec, t);
    } else {
      dc_.deploy(row.id, row.spec);
      ++partial_.placed_vms;
    }
    observe(t);
  }

  /// Departure removal probes the owned clusters only, once each: a shard
  /// never reads another shard's placement maps.
  void remove(core::VmId id) {
    for (const std::size_t c : clusters_) {
      if (dc_.cluster(c).try_remove(id)) {
        return;
      }
    }
    SLACKVM_THROW("replay: departure of an unknown VM");
  }

  /// One consolidation pass per owned cluster. With interference on, the
  /// cluster's polluter pass runs first, so its evictions claim in-flight
  /// slots (engine mode) or capacity (instant mode) before consolidation.
  /// Engine mode hands every move to the engine as an intent against the
  /// live, reservation-aware state: flights already in the air make
  /// request() reject repeats, and the per-cluster in-flight budget bounds
  /// the launch rate; request() observes itself. Instant mode applies the
  /// plans and observes once.
  void rebalance_pass(core::SimTime now) {
    const bool interference = rebalance_->interference.enabled;
    for (const std::size_t c : clusters_) {
      sched::VCluster& cluster = dc_.cluster(c);
      if (interference) {
        const sched::MigrationPlan hot =
            rebalancer_.plan_interference(cluster, contention_, rebalance_->interference);
        ++partial_.itf_passes;
        partial_.itf_hot_hosts += hot.hot_hosts;
        partial_.itf_evictions += hot.migrations.size();
        if (engine_.has_value()) {
          for (const sched::Migration& m : hot.migrations) {
            engine_->request(c, m, now);
            ++partial_.itf_requested;
          }
        } else {
          const std::size_t applied = sched::Rebalancer::apply_plan(cluster, hot);
          partial_.itf_applied += applied;
          partial_.itf_skipped += hot.migrations.size() - applied;
          partial_.migrations += applied;
        }
      }
      const sched::MigrationPlan plan =
          rebalancer_.plan(cluster, rebalance_->budget_per_pass);
      if (engine_.has_value()) {
        for (const sched::Migration& m : plan.migrations) {
          engine_->request(c, m, now);
        }
      } else {
        partial_.migrations += sched::Rebalancer::apply_plan(cluster, plan);
      }
    }
    if (!engine_.has_value()) {
      observe(now);
    }
  }

  /// Refresh every owned host's heat EWMA through the index-safe funnel.
  /// Heat is cluster-local state, and no observation fires: a run only
  /// differs from a heat-free run through actual placement changes. The
  /// demand cache is handed over only when the cluster's index machinery
  /// is on, so --index=off keeps the naive sample as the live reference.
  void heat_pass(core::SimTime now) {
    const sched::InterferenceOptions& itf = rebalance_->interference;
    for (std::size_t i = 0; i < clusters_.size(); ++i) {
      sched::VCluster& cluster = dc_.cluster(clusters_[i]);
      DemandCache* cache = cluster.index_enabled() ? &heat_caches_[i] : nullptr;
      partial_.heat_updates +=
          update_cluster_heat(cluster, now, itf.heat_alpha, itf.heat_bucket, cache);
    }
    audit();
  }

  Datacenter& dc_;
  ShardScope scope_;
  std::vector<std::size_t> clusters_;  ///< owned cluster indices, ascending
  const RebalanceOptions* rebalance_;  ///< null: no consolidation passes
  SampleMerger* direct_;
  RunResult partial_;  ///< integer counters only (summed by finish())
  std::optional<FaultInjector> injector_;
  std::optional<MigrationEngine> engine_;  ///< time-extended migration flights
  const sched::Rebalancer rebalancer_{};
  /// Default-calibrated contention curve for the polluter pass; stateless,
  /// so every shard's instance answers identically.
  const perf::ContentionModel contention_{};
  std::vector<DemandCache> heat_caches_;  ///< heat-tick caches, one per owned cluster
  /// Rows scheduled but not yet arrived, indexed by the arrival closure's
  /// slot; freed slots are reused, so the slab spans the pending window.
  struct PendingRow {
    core::VmId id;
    core::VmSpec spec;
  };
  std::vector<PendingRow> rows_;
  std::vector<std::uint32_t> free_rows_;
};

void finish_result(const Datacenter& dc, const SampleMerger& merger, RunResult& result) {
  result.opened_pms = dc.opened_pms();
  result.opened_per_cluster = dc.opened_per_cluster();
  merger.finish(result);
}

}  // namespace

std::vector<std::pair<std::size_t, std::size_t>> shard_merge_order(
    std::span<const std::vector<ShardSample>> logs) {
  std::size_t total = 0;
  for (const auto& log : logs) {
    total += log.size();
  }
  std::vector<std::pair<std::size_t, std::size_t>> order;
  order.reserve(total);
  std::vector<std::size_t> pos(logs.size(), 0);
  while (order.size() < total) {
    // Lowest time wins; the strict < keeps the first (lowest-index) shard
    // on ties, and within a shard the log is consumed in order.
    std::size_t best = logs.size();
    for (std::size_t k = 0; k < logs.size(); ++k) {
      if (pos[k] < logs[k].size() &&
          (best == logs.size() || logs[k][pos[k]].time < logs[best][pos[best]].time)) {
        best = k;
      }
    }
    SLACKVM_ASSERT(best < logs.size());
    order.emplace_back(best, pos[best]++);
  }
  return order;
}

RunResult replay(Datacenter& dc, EventSource& source,
                 const std::optional<RebalanceOptions>& rebalance,
                 UsageMonitor* usage_monitor, const FaultConfig* faults) {
  // Row-count hint: pre-size the host vectors before the churn.
  // Purely a performance hint — absent for unscanned streams.
  if (const std::optional<std::size_t> rows = source.size_hint()) {
    dc.reserve(*rows);
  }

  // Periodic control schedules (consolidation passes, usage samples, the
  // fault timetable) must be laid out before the first event fires, which
  // needs the horizon up-front. A plain replay converges to the horizon by
  // observation instead (the last departure is the latest event).
  const std::optional<core::SimTime> horizon_hint = source.horizon_hint();
  const bool wants_horizon = rebalance.has_value() || usage_monitor != nullptr ||
                             (faults != nullptr && faults->enabled());
  if (wants_horizon && !horizon_hint.has_value()) {
    SLACKVM_THROW(
        "replay: rebalance/usage-monitor/fault schedules need the trace "
        "horizon up-front, but this event source has no horizon hint; "
        "pre-scan the file (TraceReader::scan) or materialize the trace");
  }
  const core::SimTime horizon = horizon_hint.value_or(0.0);

  // Fault events (repairs, backoff retries) may legitimately fire past the
  // trace horizon; the run ends at the later of the two.
  SampleMerger merger(1, horizon);
  Shard shard(dc, ShardScope{}, rebalance, faults, &merger);

  // The pump invariant: before any event at time T fires, every row with
  // arrival <= T is scheduled. Rows arrive in nondecreasing order and
  // depart strictly after they arrive, so pulling until the next row
  // arrives after the queue's earliest pending event maintains it — and
  // the queue never holds more than the trace's active window.
  const auto pump = [&shard, &source]() {
    while (const core::VmInstance* row = source.peek()) {
      if (!shard.queue.empty() && row->arrival > shard.queue.next_time()) {
        break;
      }
      shard.schedule_row(*row);
      source.advance();
    }
  };
  pump();
  shard.schedule_controls(horizon, usage_monitor);
  while (pump(), !shard.queue.empty()) {
    shard.queue.step();
  }

  RunResult result;
  shard.finish(result);
  finish_result(dc, merger, result);
  return result;
}

RunResult replay(Datacenter& dc, const workload::Trace& trace,
                 const std::optional<RebalanceOptions>& rebalance,
                 UsageMonitor* usage_monitor, const FaultConfig* faults) {
  MaterializedSource source(trace);
  return replay(dc, source, rebalance, usage_monitor, faults);
}

RunResult replay_sharded(Datacenter& dc, EventSource& source,
                         const ShardOptions& options) {
  if (options.shards <= 1) {
    return replay(dc, source, options.rebalance, nullptr, options.faults);
  }
  const std::size_t shard_count = options.shards;
  const std::size_t barrier_count = std::max<std::size_t>(1, options.barriers);

  // Barrier windows, the SampleMerger's end time and the fault timetable
  // all need the horizon before anything runs; an unhinted source cannot
  // be sharded.
  const std::optional<core::SimTime> horizon_hint = source.horizon_hint();
  if (!horizon_hint.has_value()) {
    SLACKVM_THROW(
        "replay_sharded: barrier windows need the trace horizon up-front, "
        "but this event source has no horizon hint; pre-scan the file "
        "(TraceReader::scan) or materialize the trace");
  }
  const core::SimTime horizon = *horizon_hint;

  if (const std::optional<std::size_t> rows = source.size_hint()) {
    dc.reserve(*rows);
  }

  // Shard k owns {c : c % shards == k}.
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::vector<ShardSample>*> logs;
  shards.reserve(shard_count);
  for (std::size_t k = 0; k < shard_count; ++k) {
    shards.push_back(std::make_unique<Shard>(dc, ShardScope{k, shard_count},
                                             options.rebalance, options.faults, nullptr));
    logs.push_back(&shards.back()->log);
  }

  // Serial demux: route every row arriving before `deadline` to the shard
  // owning its routed cluster (Datacenter::route is pure in the row). All
  // of a row's events lie in the window (departures are strictly after
  // arrivals; events at or past the deadline wait for a later window
  // either way). Rows are pumped in row order, so within a shard the
  // workload-lane insertion order — and hence every time tie — is the same
  // as if all rows were scheduled up-front.
  const auto pump_until = [&dc, &source, &shards, shard_count](core::SimTime deadline) {
    while (const core::VmInstance* row = source.peek()) {
      if (row->arrival >= deadline) {
        break;
      }
      shards[dc.route(row->id, row->spec) % shard_count]->schedule_row(*row);
      source.advance();
    }
  };

  for (const auto& shard : shards) {
    shard->schedule_controls(horizon, nullptr);
  }

  SampleMerger merger(shard_count, horizon);
  ParallelRunner runner(options.threads);

  // Bounded-wait barrier watchdog: a shard that stops draining its window
  // turns into a per-shard progress dump on stderr (and an abort when
  // fatal) instead of an undiagnosable hang.
  WatchdogConfig watchdog;
  watchdog.timeout = std::chrono::milliseconds(options.watchdog_ms);
  watchdog.fatal = options.watchdog_fatal;
  watchdog.on_stall = [&shards] {
    std::ostringstream os;
    os << "replay_sharded: barrier stalled; per-shard progress:\n";
    for (std::size_t k = 0; k < shards.size(); ++k) {
      os << "  shard " << k << ": ";
      shards[k]->describe(os);
      os << '\n';
    }
    std::fputs(os.str().c_str(), stderr);
    std::fflush(stderr);
  };
  const WatchdogConfig* dog = options.watchdog_ms > 0 ? &watchdog : nullptr;

  // Windowed execution: parallel stretches separated by serial barriers.
  // Each window's arrivals are demuxed serially before the window runs, so
  // the shards only ever pull from their own queues while in parallel.
  for (std::size_t b = 1; b < barrier_count; ++b) {
    const core::SimTime deadline =
        horizon * static_cast<double>(b) / static_cast<double>(barrier_count);
    pump_until(deadline);
    runner.for_each(
        shard_count,
        [&shards, deadline](std::size_t k) { shards[k]->queue.run_until(deadline); },
        dog);
    // Barrier (serial): merge + drop the window's samples, replay every
    // placement index's dirty log in one linear batch, and — in tests —
    // audit the whole datacenter.
    merger.merge(logs);
    for (std::size_t c = 0; c < dc.clusters().size(); ++c) {
      dc.cluster(c).flush_index();
    }
    debug_audit_check(dc);
  }
  // Final window: demux the remaining rows (arrivals at exactly the last
  // deadline, or past a 0 horizon), then drain completely (fault
  // repairs/retries may fire past the horizon).
  pump_until(std::numeric_limits<core::SimTime>::infinity());
  runner.for_each(
      shard_count, [&shards](std::size_t k) { shards[k]->queue.run(); }, dog);
  merger.merge(logs);
  debug_audit_check(dc);

  RunResult result;
  for (const auto& shard : shards) {
    shard->finish(result);
  }
  finish_result(dc, merger, result);
  return result;
}

RunResult replay_sharded(Datacenter& dc, const workload::Trace& trace,
                         const ShardOptions& options) {
  MaterializedSource source(trace);
  return replay_sharded(dc, source, options);
}

}  // namespace slackvm::sim
