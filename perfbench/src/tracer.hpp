// Outside-in span timer for the traced benchmark run.
//
// Every span wraps one call from the benchmark's own code into a layer's
// public function. Spans nest (a queue step encloses the placement and
// metrics calls its event makes), so each layer is charged its *self* time:
// the span's duration minus the part covered by child spans. The stack is
// plain data, so a span costs two steady_clock reads and a vector push/pop.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kIngest,            ///< workload::TraceReader / EventSource pulls
  kGenerate,          ///< workload::Generator::generate
  kQueue,             ///< sim::EventQueue schedule + step (event dispatch)
  kPlace,             ///< sim::Datacenter::deploy (routing + sched filter/index/score)
  kRemove,            ///< sim::Datacenter::remove
  kMetrics,           ///< replay's observe: Datacenter aggregates + MetricsCollector
  kHeat,              ///< sim::update_cluster_heat (DemandCache)
  kUsage,             ///< sim::sample_usage + UsageMonitor::record
  kPlanConsolidate,   ///< sched::Rebalancer::plan
  kPlanInterference,  ///< sched::Rebalancer::plan_interference
  kMigrationRequest,  ///< sim::MigrationEngine::request
  kMigrationDeparture,  ///< sim::MigrationEngine::on_departure
  kFaultDeploy,       ///< sim::FaultInjector::deploy_or_defer
  kFaultAbsorb,       ///< sim::FaultInjector::absorb_departure
  kShard,             ///< sim::replay_sharded, minus its source pulls
  kCount,
};

inline constexpr std::array<std::string_view, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames{"ingest",           "generate",
                "queue",            "place",
                "remove",           "metrics",
                "heat",             "usage",
                "plan.consolidate", "plan.interference",
                "migration.request", "migration.departure",
                "fault.deploy_or_defer", "fault.absorb",
                "shard"};

struct LayerStats {
  std::int64_t self_ns = 0;
  std::uint64_t calls = 0;
};

class Tracer {
 public:
  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Run `fn` inside a span charged to `layer`; returns the span's total
  /// (inclusive) duration in nanoseconds.
  template <class Fn>
  std::int64_t time(Layer layer, Fn&& fn) {
    stack_.push_back(0);
    const std::int64_t start = now_ns();
    fn();
    const std::int64_t total = now_ns() - start;
    const std::int64_t children = stack_.back();
    stack_.pop_back();
    LayerStats& stats = layers_[static_cast<std::size_t>(layer)];
    stats.self_ns += total - children;
    ++stats.calls;
    if (!stack_.empty()) {
      stack_.back() += total;
    }
    return total;
  }

  [[nodiscard]] const LayerStats& stats(Layer layer) const {
    return layers_[static_cast<std::size_t>(layer)];
  }

  [[nodiscard]] std::int64_t total_self_ns() const {
    std::int64_t sum = 0;
    for (const LayerStats& s : layers_) {
      sum += s.self_ns;
    }
    return sum;
  }

 private:
  std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> layers_{};
  std::vector<std::int64_t> stack_;  ///< child time accumulated per open span
};

}  // namespace perfbench
