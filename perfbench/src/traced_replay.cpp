#include "traced_replay.hpp"

#include <algorithm>
#include <string>

#include "core/error.hpp"
#include "perf/contention.hpp"
#include "sched/rebalancer.hpp"
#include "sim/audit.hpp"
#include "sim/event_queue.hpp"
#include "sim/migration.hpp"

namespace perfbench {

using slackvm::core::SimTime;
using slackvm::core::VmInstance;
namespace sched = slackvm::sched;
namespace sim = slackvm::sim;

const VmInstance* TimedSource::peek() {
  const VmInstance* row = nullptr;
  tracer_->time(Layer::kIngest, [&] { row = inner_->peek(); });
  if (holding_row_) {
    ++stops_;
  }
  holding_row_ = row != nullptr;
  return row;
}

void TimedSource::advance() {
  tracer_->time(Layer::kIngest, [&] { inner_->advance(); });
  holding_row_ = false;
}

// Structural copy of sim::replay (src/sim/replay.cpp): same schedule, same
// insertion order, same calls — only wrapped in spans. Comments here only
// mark where a span goes; the reasoning behind each step lives in the
// original.
sim::RunResult traced_replay(Tracer& tracer, TraceCounters& counters,
                             sim::Datacenter& dc, sim::EventSource& source,
                             const std::optional<sim::RebalanceOptions>& rebalance,
                             sim::UsageMonitor* usage_monitor,
                             const sim::FaultConfig* faults) {
  sim::EventQueue queue;
  sim::MetricsCollector metrics;
  sim::RunResult result;

  if (const std::optional<std::size_t> rows = source.size_hint()) {
    tracer.time(Layer::kPlace, [&] { dc.reserve(*rows); });
  }

  const std::optional<SimTime> horizon_hint = source.horizon_hint();
  const bool wants_horizon = rebalance.has_value() || usage_monitor != nullptr ||
                             (faults != nullptr && faults->enabled());
  if (wants_horizon && !horizon_hint.has_value()) {
    SLACKVM_THROW("traced_replay: periodic schedules need a horizon hint");
  }
  // Only the engine-driven rebalance loop is mirrored: no workload runs the
  // instant apply_plan modes.
  if (rebalance && !rebalance->migration.enabled) {
    SLACKVM_THROW("traced_replay: instant-mode rebalancing is not mirrored");
  }
  const SimTime horizon = horizon_hint.value_or(0.0);
  SimTime end_time = horizon;

  auto observe = [&dc, &metrics, &result, &end_time, &tracer](SimTime t) {
    tracer.time(Layer::kMetrics, [&] {
      end_time = std::max(end_time, t);
      const std::size_t active = dc.active_pms();
      metrics.observe(t, dc.total_alloc(), dc.total_config(), dc.vm_count(), active);
      result.peak_active_pms = std::max(result.peak_active_pms, active);
      sim::debug_audit_check(dc);
    });
  };

  std::optional<sim::FaultInjector> injector;
  if (faults != nullptr && faults->enabled()) {
    injector.emplace(dc, queue, *faults, result, observe);
  }
  std::optional<sim::MigrationEngine> engine;
  if (rebalance && rebalance->migration.enabled) {
    engine.emplace(dc, queue, rebalance->migration, result, observe);
    if (injector.has_value()) {
      injector->set_migration_engine(&*engine);
    }
  }

  const auto schedule_row = [&](const VmInstance& vm) {
    tracer.time(Layer::kQueue, [&] {
      queue.schedule_lane(
          vm.arrival, sim::EventQueue::kLaneWorkload,
          [&dc, &result, vm, &observe, &injector, &tracer, &counters](SimTime t) {
            if (injector.has_value()) {
              tracer.time(Layer::kFaultDeploy,
                          [&] { injector->deploy_or_defer(vm.id, vm.spec, t); });
            } else {
              const std::size_t opened = dc.opened_pms();
              counters.place_ns.push_back(
                  tracer.time(Layer::kPlace, [&] { dc.deploy(vm.id, vm.spec); }));
              if (dc.opened_pms() != opened) {
                ++counters.place_opened;
              }
              ++result.placed_vms;
            }
            observe(t);
          });
      queue.schedule_lane(
          vm.departure, sim::EventQueue::kLaneWorkload,
          [&dc, &observe, &injector, &engine, &tracer, &counters,
           id = vm.id](SimTime t) {
            if (engine.has_value()) {
              tracer.time(Layer::kMigrationDeparture,
                          [&] { engine->on_departure(id, t); });
            }
            bool absorbed = false;
            if (injector.has_value()) {
              tracer.time(Layer::kFaultAbsorb,
                          [&] { absorbed = injector->absorb_departure(id); });
            }
            if (!absorbed) {
              counters.remove_ns.push_back(
                  tracer.time(Layer::kRemove, [&] { dc.remove(id); }));
            }
            observe(t);
          });
    });
  };

  // One ingest span per pump: the source pulls are its self time, the
  // queue inserts its children.
  const auto pump = [&]() {
    tracer.time(Layer::kIngest, [&] {
      while (const VmInstance* row = source.peek()) {
        if (!queue.empty() && row->arrival > queue.next_time()) {
          break;
        }
        schedule_row(*row);
        source.advance();
        ++counters.ingest_rows;
      }
    });
    counters.peak_pending = std::max(counters.peak_pending, queue.pending());
  };
  pump();

  const sched::Rebalancer rebalancer;
  const slackvm::perf::ContentionModel contention;
  std::vector<sim::DemandCache> heat_caches(dc.clusters().size());
  const bool interference = rebalance && rebalance->interference.enabled;
  if (interference) {
    rebalance->interference.validate();
  }
  tracer.time(Layer::kQueue, [&] {
    if (rebalance && horizon > 0) {
      for (SimTime t = rebalance->interval; t < horizon; t += rebalance->interval) {
        queue.schedule(t, [&, interference](SimTime now) {
          for (std::size_t c = 0; c < dc.clusters().size(); ++c) {
            if (interference) {
              sched::MigrationPlan hot;
              tracer.time(Layer::kPlanInterference, [&] {
                hot = rebalancer.plan_interference(dc.cluster(c), contention,
                                                   rebalance->interference);
              });
              counters.plan_moves += hot.migrations.size();
              ++result.itf_passes;
              result.itf_hot_hosts += hot.hot_hosts;
              result.itf_evictions += hot.migrations.size();
              for (const sched::Migration& m : hot.migrations) {
                tracer.time(Layer::kMigrationRequest, [&] { engine->request(c, m, now); });
                ++result.itf_requested;
              }
            }
            sched::MigrationPlan plan;
            counters.consolidate_ns.push_back(tracer.time(Layer::kPlanConsolidate, [&] {
              plan = rebalancer.plan(dc.cluster(c), rebalance->budget_per_pass);
            }));
            counters.plan_moves += plan.migrations.size();
            for (const sched::Migration& m : plan.migrations) {
              tracer.time(Layer::kMigrationRequest, [&] { engine->request(c, m, now); });
            }
          }
        });
      }
    }
    if (interference && horizon > 0) {
      const SimTime heat_interval = rebalance->interference.heat_interval;
      for (SimTime t = heat_interval; t < horizon; t += heat_interval) {
        queue.schedule(t, [&dc, &result, &rebalance, &heat_caches, &tracer,
                           &counters](SimTime now) {
          const sched::InterferenceOptions& itf = rebalance->interference;
          for (std::size_t c = 0; c < dc.clusters().size(); ++c) {
            sim::DemandCache* cache =
                dc.cluster(c).index_enabled() ? &heat_caches[c] : nullptr;
            std::size_t refreshed = 0;
            tracer.time(Layer::kHeat, [&] {
              refreshed = sim::update_cluster_heat(dc.cluster(c), now, itf.heat_alpha,
                                                   itf.heat_bucket, cache);
            });
            result.heat_updates += refreshed;
            counters.heat_refreshes += refreshed;
          }
          sim::debug_audit_check(dc);
        });
      }
    }
    if (usage_monitor != nullptr && horizon > 0) {
      for (SimTime t = usage_monitor->interval() / 2; t < horizon;
           t += usage_monitor->interval()) {
        queue.schedule(t, [&dc, usage_monitor, &tracer](SimTime now) {
          tracer.time(Layer::kUsage,
                      [&] { usage_monitor->record(sim::sample_usage(dc, now)); });
        });
      }
    }
    if (injector.has_value()) {
      injector->arm(horizon);
    }
  });

  while (true) {
    pump();
    if (queue.empty()) {
      break;
    }
    tracer.time(Layer::kQueue, [&] { queue.step(); });
    ++counters.queue_events;
  }

  if (engine.has_value()) {
    SLACKVM_ASSERT(engine->in_flight() == 0 && engine->pending_intents() == 0);
    const std::vector<std::string> violations = engine->audit();
    if (!violations.empty()) {
      std::string message = "traced_replay: migration audit failed:";
      for (const std::string& v : violations) {
        message += "\n  " + v;
      }
      SLACKVM_THROW(message);
    }
  }
  for (const sim::DemandCache& cache : heat_caches) {
    counters.heat_rebuilds += cache.rebuilds();
  }

  result.opened_pms = dc.opened_pms();
  result.opened_per_cluster = dc.opened_per_cluster();
  metrics.finish(end_time, result);
  return result;
}

}  // namespace perfbench
