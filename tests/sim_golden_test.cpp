// Golden results: checked-in digests of every RunResult field (and the
// UsageReport where a monitor runs) for a fixed matrix of replays, so a
// refactor of the replay engine has a fixed target instead of a reference
// implementation kept beside it.
//
// Matrix, on a small generated trace: the control-plane variants below x
// shards {1, 8} x {dedicated, shared}, plus a small distribution sweep at
// shards {1, 8}. One shard runs through replay(), eight through
// replay_sharded(). The usage monitor is a replay() argument only, so its
// cases run at one shard.
//
// Each case's digest lives in tests/golden/<case>.txt: one `field value`
// line per field, doubles as hex-floats, so a single-ulp change fails.
// A digest changes only on purpose. Regenerate every file with
//
//   build/tests/sim_golden_tests --regenerate
//
// and list the regeneration and its reason in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "perf/contention.hpp"
#include "sched/policy.hpp"
#include "sim/experiment.hpp"
#include "sim/replay.hpp"
#include "sim/shard.hpp"
#include "sim/usage_monitor.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"

namespace slackvm::sim {
namespace {

bool g_regenerate = false;

const core::Resources kWorker{32, core::gib(128)};

// --- digests ----------------------------------------------------------------

class Digest {
 public:
  void count(const std::string& name, std::size_t value) {
    out_ << name << ' ' << value << '\n';
  }
  void real(const std::string& name, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", value);
    out_ << name << ' ' << buf << '\n';
  }

  void result(const std::string& prefix, const RunResult& r) {
    count(prefix + "opened_pms", r.opened_pms);
    count(prefix + "peak_active_pms", r.peak_active_pms);
    count(prefix + "migrations", r.migrations);
    for (const auto& [cluster, opened] : r.opened_per_cluster) {
      count(prefix + "opened_per_cluster[" + cluster + "]", opened);
    }
    count(prefix + "placed_vms", r.placed_vms);
    count(prefix + "peak_vms", r.peak_vms);
    real(prefix + "avg_unalloc_cpu_share", r.avg_unalloc_cpu_share);
    real(prefix + "avg_unalloc_mem_share", r.avg_unalloc_mem_share);
    real(prefix + "peak_unalloc_cpu_share", r.peak_unalloc_cpu_share);
    real(prefix + "peak_unalloc_mem_share", r.peak_unalloc_mem_share);
    real(prefix + "duration", r.duration);
    real(prefix + "avg_active_pms", r.avg_active_pms);
    real(prefix + "avg_alloc_cores", r.avg_alloc_cores);
    count(prefix + "host_failures", r.host_failures);
    count(prefix + "host_repairs", r.host_repairs);
    count(prefix + "drained_hosts", r.drained_hosts);
    count(prefix + "evacuated_vms", r.evacuated_vms);
    count(prefix + "evac_replaced", r.evac_replaced);
    count(prefix + "evac_migrated", r.evac_migrated);
    count(prefix + "evac_retries", r.evac_retries);
    count(prefix + "evac_departed", r.evac_departed);
    count(prefix + "degraded_vms", r.degraded_vms);
    count(prefix + "deferred_arrivals", r.deferred_arrivals);
    count(prefix + "arrivals_dropped", r.arrivals_dropped);
    count(prefix + "mig_planned", r.mig_planned);
    count(prefix + "mig_committed", r.mig_committed);
    count(prefix + "mig_cancelled", r.mig_cancelled);
    count(prefix + "mig_rolled_back", r.mig_rolled_back);
    count(prefix + "mig_timed_out", r.mig_timed_out);
    count(prefix + "mig_degraded", r.mig_degraded);
    count(prefix + "mig_retries", r.mig_retries);
    count(prefix + "heat_updates", r.heat_updates);
    count(prefix + "itf_passes", r.itf_passes);
    count(prefix + "itf_hot_hosts", r.itf_hot_hosts);
    count(prefix + "itf_evictions", r.itf_evictions);
    count(prefix + "itf_applied", r.itf_applied);
    count(prefix + "itf_requested", r.itf_requested);
    count(prefix + "itf_skipped", r.itf_skipped);
  }

  void usage(const UsageReport& u) {
    count("usage.samples", u.samples);
    real("usage.avg_fleet_utilization", u.avg_fleet_utilization);
    real("usage.avg_alloc_heat", u.avg_alloc_heat);
    real("usage.overload_host_hours", u.overload_host_hours);
    real("usage.peak_fleet_utilization", u.peak_fleet_utilization);
    real("usage.p90_inflation", u.p90_inflation);
    count("usage.inflation_samples", u.inflation_samples);
  }

  [[nodiscard]] std::string str() const { return out_.str(); }

 private:
  std::ostringstream out_;
};

// "s8" for eight shards. Appends rather than `"s" + std::to_string(n)`,
// which trips GCC 12's -Wrestrict false positive at -O3.
std::string shard_tag(std::size_t shards) {
  std::string tag = "s";
  tag += std::to_string(shards);
  return tag;
}

std::string golden_path(const std::string& name) {
  return std::string(SLACKVM_GOLDEN_DIR) + "/" + name + ".txt";
}

void check_golden(const std::string& name, const std::string& digest) {
  const std::string path = golden_path(name);
  if (g_regenerate) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << digest;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (regenerate with sim_golden_tests --regenerate)";
  std::ostringstream stored;
  stored << in.rdbuf();
  EXPECT_EQ(stored.str(), digest) << "golden mismatch for " << name;
}

// --- the replay matrix ------------------------------------------------------

enum class Variant {
  kPlain,
  kFaults,
  kInstant,
  kEngine,
  kInstantItf,
  kEngineItfFaults,
  kUsage,  ///< usage monitor over the engine + interference + faults loop
};

struct Case {
  Variant variant;
  std::size_t shards;
  bool shared;

  [[nodiscard]] std::string name() const {
    static const char* const kNames[] = {"plain",      "faults",     "instant",
                                         "engine",     "instant_itf", "engine_itf_faults",
                                         "usage"};
    return std::string(shared ? "shared" : "dedicated") + "_" + shard_tag(shards) + "_" +
           kNames[static_cast<int>(variant)];
  }
  [[nodiscard]] bool faults() const {
    return variant == Variant::kFaults || variant == Variant::kEngineItfFaults ||
           variant == Variant::kUsage;
  }
  [[nodiscard]] bool interference() const {
    return variant == Variant::kInstantItf || variant == Variant::kEngineItfFaults ||
           variant == Variant::kUsage;
  }
  [[nodiscard]] std::optional<RebalanceOptions> rebalance() const {
    if (variant == Variant::kPlain || variant == Variant::kFaults) {
      return std::nullopt;
    }
    RebalanceOptions reb;
    reb.interval = 2.0 * 3600;
    reb.budget_per_pass = 16;
    reb.migration.enabled = variant == Variant::kEngine ||
                            variant == Variant::kEngineItfFaults ||
                            variant == Variant::kUsage;
    if (interference()) {
      reb.interference.enabled = true;
      reb.interference.heat_interval = 1800.0;
      reb.interference.heat_alpha = 0.5;
      reb.interference.threshold = 1.02;  // low enough to keep the pass firing
    }
    return reb;
  }
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name(); }

std::vector<Case> replay_cases() {
  std::vector<Case> cases;
  for (const bool shared : {false, true}) {
    for (const std::size_t shards : {std::size_t{1}, std::size_t{8}}) {
      for (int v = 0; v <= static_cast<int>(Variant::kUsage); ++v) {
        const auto variant = static_cast<Variant>(v);
        if (variant == Variant::kUsage && shards != 1) {
          continue;
        }
        cases.push_back(Case{variant, shards, shared});
      }
    }
  }
  return cases;
}

workload::GeneratorConfig generator_config(std::size_t population) {
  workload::GeneratorConfig cfg;
  cfg.target_population = population;
  cfg.horizon = 2.0 * 24 * 3600;
  cfg.mean_lifetime = 1.0 * 24 * 3600;
  cfg.seed = 42;
  return cfg;
}

const workload::Trace& golden_trace() {
  static const workload::Trace trace =
      workload::Generator(workload::azure_catalog(), workload::make_mix(10, 30, 60),
                          generator_config(400))
          .generate();
  return trace;
}

// Hard kills evict VMs into the evacuation engine; with a drain lead the
// victims migrate off before the failure instead.
FaultConfig golden_faults(core::SimTime drain_lead) {
  FaultConfig faults;
  faults.count = 12;
  faults.seed = 777;
  faults.repair_delay = 3600.0;
  faults.drain_lead = drain_lead;
  return faults;
}

class GoldenReplay : public ::testing::TestWithParam<Case> {};

TEST_P(GoldenReplay, MatchesDigest) {
  const Case& c = GetParam();
  const std::optional<RebalanceOptions> rebalance = c.rebalance();
  const FaultConfig faults = golden_faults(c.variant == Variant::kFaults ? 0.0 : 900.0);
  const FaultConfig* fault_ptr = c.faults() ? &faults : nullptr;
  const PolicyFactory shared_policy = [&c]() -> std::unique_ptr<sched::PlacementPolicy> {
    if (c.interference()) {
      return sched::make_interference_policy(4.0);
    }
    return sched::make_progress_policy();
  };
  Datacenter dc =
      c.shared ? Datacenter::shared_sharded(kWorker, shared_policy, c.shards)
               : Datacenter::dedicated(kWorker,
                                       {core::OversubLevel{1}, core::OversubLevel{2},
                                        core::OversubLevel{3}},
                                       sched::make_first_fit);

  Digest digest;
  if (c.shards == 1) {
    const perf::ContentionModel model;
    std::optional<UsageMonitor> monitor;
    if (c.variant == Variant::kUsage) {
      monitor.emplace(3.0 * 3600);
      monitor->track_inflation(&model);
    }
    digest.result("", replay(dc, golden_trace(), rebalance,
                             monitor ? &*monitor : nullptr, fault_ptr));
    if (monitor) {
      digest.usage(monitor->report());
    }
  } else {
    ShardOptions options;
    options.shards = c.shards;
    options.threads = 2;
    options.rebalance = rebalance;
    options.faults = fault_ptr;
    digest.result("", replay_sharded(dc, golden_trace(), options));
  }
  check_golden(c.name(), digest.str());
}

INSTANTIATE_TEST_SUITE_P(Matrix, GoldenReplay, ::testing::ValuesIn(replay_cases()),
                         [](const ::testing::TestParamInfo<Case>& param) {
                           return param.param.name();
                         });

// --- the distribution sweep -------------------------------------------------

class GoldenSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GoldenSweep, MatchesDigest) {
  ExperimentConfig cfg;
  cfg.generator = generator_config(40);
  cfg.parallelism = 2;
  cfg.shards = GetParam();
  cfg.faults.count = 3;
  cfg.rebalance_interval = 6.0 * 3600;
  cfg.rebalance_budget = 16;
  cfg.migration.enabled = true;
  cfg.interference.enabled = true;
  cfg.interference.threshold = 1.02;
  Digest digest;
  for (const PackingComparison& cmp :
       run_distribution_sweep(workload::azure_catalog(), cfg)) {
    const std::string prefix = cmp.provider + "/" + cmp.distribution + "/";
    digest.result(prefix + "baseline.", cmp.baseline);
    digest.result(prefix + "slackvm.", cmp.slackvm);
  }
  check_golden("sweep_" + shard_tag(GetParam()), digest.str());
}

INSTANTIATE_TEST_SUITE_P(Shards, GoldenSweep,
                         ::testing::Values(std::size_t{1}, std::size_t{8}),
                         [](const ::testing::TestParamInfo<std::size_t>& param) {
                           return shard_tag(param.param);
                         });

}  // namespace
}  // namespace slackvm::sim

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--regenerate") == 0) {
      slackvm::sim::g_regenerate = true;
    }
  }
  return RUN_ALL_TESTS();
}
