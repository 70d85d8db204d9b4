// slackbench — the end-to-end replay benchmark's worker binary.
//
// perfbench/run.py drives it; every invocation is one fresh process so that
// peak RSS is per repetition. Subcommands:
//
//   slackbench env
//       compiler, build type, optimisation flag and nproc, as JSON.
//   slackbench setup --workload W --seed N --work DIR [--cpu C]
//       generate W's inputs (files into DIR; fig4_grid's traces in memory),
//       run the repetition's preparation (open, scan, build the datacenter),
//       and print the rows a repetition replays and the set-up time.
//   slackbench rep --workload W --seed N --work DIR [--traced] [--cpu C]
//       prepare, run the workload once through the product's public entry
//       point (untraced) or through the mirrored, span-timed loop (traced),
//       print one "R <canonical result>" line per RunResult, then one JSON
//       summary line.
//
// Workloads: trace_stream, control_loop, fig4_grid (see perfbench/README.md
// for why each exists). trace_stream's traced run also measures the shard
// layer: sim::replay_sharded over the same file.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/error.hpp"
#include "core/oversub.hpp"
#include "perf/contention.hpp"
#include "sched/policy.hpp"
#include "sim/datacenter.hpp"
#include "sim/event_source.hpp"
#include "sim/experiment.hpp"
#include "sim/fault.hpp"
#include "sim/replay.hpp"
#include "sim/shard.hpp"
#include "sim/usage_monitor.hpp"
#include "tracer.hpp"
#include "traced_replay.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"
#include "workload/trace_reader.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace slackvm;
using perfbench::Layer;
using perfbench::TimedSource;
using perfbench::TraceCounters;
using perfbench::Tracer;

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

constexpr double kDay = 24.0 * 3600.0;
const core::Resources kWorker{32, core::gib(128)};

// --- workload parameters -----------------------------------------------------

// trace_stream: a real-format (5-column) Azure file. The mean lifetime is
// half the horizon, so ~6e5 rows keep ~2.6e5 VMs alive at the peak: as many
// pending events, on ~8e3 hosts. The shard measurement replays the same
// file on Datacenter::shared_sharded with kShards cells.
constexpr std::size_t kStreamRows = 600000;
constexpr double kStreamLifetimeDays = 3.5;
constexpr std::size_t kShards = 4;

// control_loop: a native-format J-mix (3:1-heavy) Azure file, replayed with
// seeded host failures, engine migration, the interference policy, the heat
// feeder, the polluter pass and an inflation-tracking UsageMonitor.
constexpr std::size_t kControlRows = 120000;
constexpr std::size_t kControlFaults = 60;
constexpr double kUsageInterval = 6.0 * 3600.0;

// fig4_grid: both providers' 15-cell Fig 4 grids, serial, one repetition.
constexpr std::size_t kFig4Population = 4000;

constexpr double kHorizonDays = 7.0;

std::string stream_path(const std::string& work) { return work + "/stream.csv"; }
std::string control_path(const std::string& work) { return work + "/control.csv"; }

/// The same recipe as tools/trace_synth: Little's law picks the steady
/// population that yields ~rows arrivals over the horizon.
std::size_t write_trace(const std::string& path, const std::string& provider, char dist,
                        std::size_t rows, double lifetime_days,
                        workload::TraceFormat format, std::uint64_t seed) {
  workload::GeneratorConfig cfg;
  cfg.horizon = kHorizonDays * kDay;
  cfg.mean_lifetime = lifetime_days * kDay;
  cfg.seed = seed;
  const double population = static_cast<double>(rows) * cfg.mean_lifetime / cfg.horizon;
  cfg.target_population = static_cast<std::size_t>(population);
  const workload::Generator gen(workload::catalog_by_name(provider),
                                workload::distribution(dist), cfg);
  const workload::Trace trace = gen.generate();
  std::ofstream out(path, std::ios::binary);
  workload::write_csv_fast(trace, out, format);
  out.flush();
  if (!out) {
    throw core::SlackError("cannot write " + path);
  }
  return trace.size();
}

sim::RebalanceOptions control_rebalance() {
  sim::RebalanceOptions r;
  r.interval = 3600.0;
  r.budget_per_pass = 32;
  r.migration.enabled = true;
  r.migration.bandwidth_mibps = 16.0;
  r.migration.max_concurrent_per_host = 4;
  r.migration.max_in_flight = 16;
  r.migration.max_retries = 10;
  r.migration.backoff_base = 600.0;
  r.interference.enabled = true;
  r.interference.heat_interval = 900.0;
  r.interference.heat_alpha = 0.5;
  r.interference.heat_bucket = 0.25;
  r.interference.heat_weight = 4.0;
  r.interference.threshold = 1.02;
  r.interference.evictions_per_pass = 4;
  return r;
}

sim::FaultConfig control_faults(std::uint64_t seed) {
  sim::FaultConfig f;
  f.count = kControlFaults;
  return sim::resolve_fault_seed(f, seed);
}

sim::ExperimentConfig fig4_config(std::uint64_t seed) {
  sim::ExperimentConfig cfg;
  cfg.generator.target_population = kFig4Population;
  cfg.generator.seed = seed;
  cfg.repetitions = 1;
  cfg.parallelism = 1;
  return cfg;
}

// --- canonical result digest -------------------------------------------------

class Line {
 public:
  explicit Line(std::string label) : text_(std::move(label)) {}
  Line& u(const char* key, std::size_t v) {
    text_ += ' ';
    text_ += key;
    text_ += '=';
    text_ += std::to_string(v);
    return *this;
  }
  Line& d(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    text_ += ' ';
    text_ += key;
    text_ += '=';
    text_ += buf;
    return *this;
  }
  Line& map(const char* key, const std::map<std::string, std::size_t>& m) {
    text_ += ' ';
    text_ += key;
    text_ += "={";
    bool first = true;
    for (const auto& [name, v] : m) {
      text_ += first ? "" : ",";
      text_ += name + ":" + std::to_string(v);
      first = false;
    }
    text_ += '}';
    return *this;
  }
  [[nodiscard]] std::string str() const { return text_; }

 private:
  std::string text_;
};

/// Everything one repetition reports besides timings.
struct Outcome {
  std::vector<std::string> lines;  ///< canonical digest, one line per result
  std::size_t rows = 0;            ///< VM rows replayed (summed over replays)
  std::size_t attempted = 0;       ///< arrivals + migration intents
  std::size_t failed = 0;          ///< dropped/degraded/rolled back/timed out
  std::size_t identity_violations = 0;
  std::size_t opened_pms = 0;      ///< PMs opened by the SlackVM organisation
  std::size_t evacuated = 0;
  std::size_t mig_planned = 0;
  std::size_t mig_committed = 0;
  double pm_saving_pct = 0.0;
  double p90_inflation = 0.0;
};

/// Append one RunResult: its canonical line (every field; doubles as
/// hex-floats), its failure count, and its counter identities.
void add_result(Outcome& out, const std::string& label, const sim::RunResult& r,
                std::size_t rows) {
  out.lines.push_back(Line(label)
                          .u("opened_pms", r.opened_pms)
                          .u("peak_active_pms", r.peak_active_pms)
                          .u("migrations", r.migrations)
                          .map("opened_per_cluster", r.opened_per_cluster)
                          .u("placed_vms", r.placed_vms)
                          .u("peak_vms", r.peak_vms)
                          .d("avg_unalloc_cpu_share", r.avg_unalloc_cpu_share)
                          .d("avg_unalloc_mem_share", r.avg_unalloc_mem_share)
                          .d("peak_unalloc_cpu_share", r.peak_unalloc_cpu_share)
                          .d("peak_unalloc_mem_share", r.peak_unalloc_mem_share)
                          .d("duration", r.duration)
                          .d("avg_active_pms", r.avg_active_pms)
                          .d("avg_alloc_cores", r.avg_alloc_cores)
                          .u("host_failures", r.host_failures)
                          .u("host_repairs", r.host_repairs)
                          .u("drained_hosts", r.drained_hosts)
                          .u("evacuated_vms", r.evacuated_vms)
                          .u("evac_replaced", r.evac_replaced)
                          .u("evac_migrated", r.evac_migrated)
                          .u("evac_retries", r.evac_retries)
                          .u("evac_departed", r.evac_departed)
                          .u("degraded_vms", r.degraded_vms)
                          .u("deferred_arrivals", r.deferred_arrivals)
                          .u("arrivals_dropped", r.arrivals_dropped)
                          .u("mig_planned", r.mig_planned)
                          .u("mig_committed", r.mig_committed)
                          .u("mig_cancelled", r.mig_cancelled)
                          .u("mig_rolled_back", r.mig_rolled_back)
                          .u("mig_timed_out", r.mig_timed_out)
                          .u("mig_degraded", r.mig_degraded)
                          .u("mig_retries", r.mig_retries)
                          .u("heat_updates", r.heat_updates)
                          .u("itf_passes", r.itf_passes)
                          .u("itf_hot_hosts", r.itf_hot_hosts)
                          .u("itf_evictions", r.itf_evictions)
                          .u("itf_applied", r.itf_applied)
                          .u("itf_requested", r.itf_requested)
                          .u("itf_skipped", r.itf_skipped)
                          .str());
  out.rows += rows;
  out.attempted += rows + r.mig_planned;
  out.failed += r.arrivals_dropped + r.degraded_vms + r.mig_rolled_back +
                r.mig_timed_out + r.mig_degraded;
  out.evacuated += r.evacuated_vms;
  out.mig_planned += r.mig_planned;
  out.mig_committed += r.mig_committed;
  if (r.evacuated_vms != r.evac_replaced + r.evac_departed + r.degraded_vms) {
    ++out.identity_violations;
  }
  if (r.mig_planned != r.mig_committed + r.mig_cancelled + r.mig_rolled_back +
                           r.mig_timed_out + r.mig_degraded) {
    ++out.identity_violations;
  }
  if (r.itf_evictions != r.itf_applied + r.itf_requested + r.itf_skipped) {
    ++out.identity_violations;
  }
}

void add_usage(Outcome& out, const sim::UsageReport& u) {
  out.lines.push_back(Line("usage")
                          .u("samples", u.samples)
                          .d("avg_fleet_utilization", u.avg_fleet_utilization)
                          .d("avg_alloc_heat", u.avg_alloc_heat)
                          .d("overload_host_hours", u.overload_host_hours)
                          .d("peak_fleet_utilization", u.peak_fleet_utilization)
                          .d("p90_inflation", u.p90_inflation)
                          .u("inflation_samples", u.inflation_samples)
                          .str());
  out.p90_inflation = u.p90_inflation;
}

/// The Fig 4 projection run_savings_heatmap applies to each comparison.
void add_comparisons(Outcome& out, const std::vector<sim::PackingComparison>& cmps) {
  for (const sim::PackingComparison& cmp : cmps) {
    const std::string label = "fig4/" + cmp.provider + "/" + cmp.distribution;
    add_result(out, label + "/baseline", cmp.baseline, cmp.baseline.placed_vms);
    add_result(out, label + "/slackvm", cmp.slackvm, cmp.slackvm.placed_vms);
    const workload::LevelMix& mix = workload::distribution(cmp.distribution[0]);
    const int pct_1to1 = static_cast<int>(mix.share_1to1 * 100.0 + 0.5);
    const int pct_2to1 = static_cast<int>(mix.share_2to1 * 100.0 + 0.5);
    const double saving = cmp.pm_saving_pct();
    out.lines.push_back(Line(label + "/cell")
                            .u("pct_1to1", static_cast<std::size_t>(pct_1to1))
                            .u("pct_2to1", static_cast<std::size_t>(pct_2to1))
                            .d("saving_pct", saving)
                            .str());
    out.opened_pms += cmp.slackvm.opened_pms;
    if (cmp.provider == "ovhcloud" && cmp.distribution == "F") {
      out.pm_saving_pct = saving;
    }
  }
}

// --- workloads ---------------------------------------------------------------

enum class Workload { kTraceStream, kControlLoop, kFig4Grid };

Workload parse_workload(const std::string& name) {
  if (name == "trace_stream") {
    return Workload::kTraceStream;
  }
  if (name == "control_loop") {
    return Workload::kControlLoop;
  }
  if (name == "fig4_grid") {
    return Workload::kFig4Grid;
  }
  throw core::SlackError("unknown workload '" + name + "'");
}

const std::vector<std::string>& fig4_providers() {
  static const std::vector<std::string> providers{"ovhcloud", "azure"};
  return providers;
}

/// fig4_grid's inputs: every cell's trace, generated as run_distribution_
/// sweep generates them (its repetition 0 uses the configured seed). The
/// sweep takes no traces, so it generates them again inside its timed call;
/// set-up generates them to count the rows the repetition must replay:
/// each trace once per organisation.
std::size_t generate_fig4_grid(std::uint64_t seed) {
  const sim::ExperimentConfig cfg = fig4_config(seed);
  std::size_t rows = 0;
  for (const std::string& provider : fig4_providers()) {
    const workload::Catalog& catalog = workload::catalog_by_name(provider);
    for (const workload::LevelMix& mix : workload::paper_distributions()) {
      rows += 2 * workload::Generator(catalog, mix, cfg.generator).generate().size();
    }
  }
  return rows;
}

/// Generate the workload's inputs (files for the replay workloads). Returns
/// the rows a repetition replays.
std::size_t generate_inputs(Workload w, const std::string& work, std::uint64_t seed) {
  switch (w) {
    case Workload::kTraceStream:
      return write_trace(stream_path(work), "azure", 'F', kStreamRows,
                         kStreamLifetimeDays, workload::TraceFormat::kReal, seed);
    case Workload::kControlLoop:
      return write_trace(control_path(work), "azure", 'J', kControlRows, 2.0,
                         workload::TraceFormat::kNative, seed);
    case Workload::kFig4Grid:
      return generate_fig4_grid(seed);
  }
  return 0;
}

/// Everything a repetition builds before its timed call.
struct Prepared {
  std::optional<sim::Datacenter> dc;
  std::unique_ptr<sim::StreamingTraceSource> source;
  std::size_t scanned_rows = 0;
  std::optional<sim::RebalanceOptions> rebalance;
  sim::FaultConfig faults;
  std::unique_ptr<perf::ContentionModel> contention;
  std::unique_ptr<sim::UsageMonitor> monitor;
  sim::ExperimentConfig fig4;
};

void prepare(Prepared& p, Workload w, const std::string& work, std::uint64_t seed) {
  switch (w) {
    case Workload::kTraceStream:
      // Plain serial streaming replay: no hints needed, so no scan pre-pass.
      p.dc.emplace(sim::Datacenter::shared(kWorker, sched::make_progress_policy));
      p.source = std::make_unique<sim::StreamingTraceSource>(
          workload::TraceReader(stream_path(work)));
      return;
    case Workload::kControlLoop: {
      const workload::TraceReader::ScanInfo scan =
          workload::TraceReader::scan(control_path(work));
      p.scanned_rows = scan.rows;
      const sim::RebalanceOptions rebalance = control_rebalance();
      const double weight = rebalance.interference.heat_weight;
      p.dc.emplace(sim::Datacenter::shared(
          kWorker, [weight] { return sched::make_interference_policy(weight); }));
      p.source = std::make_unique<sim::StreamingTraceSource>(
          workload::TraceReader(control_path(work)), scan);
      p.rebalance = rebalance;
      p.faults = control_faults(seed);
      p.contention = std::make_unique<perf::ContentionModel>();
      p.monitor = std::make_unique<sim::UsageMonitor>(kUsageInterval);
      p.monitor->track_inflation(p.contention.get());
      return;
    }
    case Workload::kFig4Grid:
      p.fig4 = fig4_config(seed);
      return;
  }
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(Tracer::now_ns() - start_ns) * 1e-9;
}

/// One untraced repetition: the product's public entry point, timed.
Outcome run_untraced(Prepared& p, Workload w, double& wall_s) {
  Outcome out;
  const std::int64_t start = Tracer::now_ns();
  switch (w) {
    case Workload::kTraceStream: {
      const sim::RunResult r = sim::replay(*p.dc, *p.source);
      wall_s = seconds_since(start);
      add_result(out, "trace_stream", r, r.placed_vms);
      out.opened_pms = r.opened_pms;
      break;
    }
    case Workload::kControlLoop: {
      const sim::RunResult r =
          sim::replay(*p.dc, *p.source, p.rebalance, p.monitor.get(), &p.faults);
      wall_s = seconds_since(start);
      add_result(out, "control_loop", r, p.scanned_rows);
      add_usage(out, p.monitor->report());
      out.opened_pms = r.opened_pms;
      break;
    }
    case Workload::kFig4Grid: {
      std::vector<sim::PackingComparison> all;
      for (const std::string& provider : fig4_providers()) {
        const std::vector<sim::PackingComparison> cmps =
            sim::run_distribution_sweep(workload::catalog_by_name(provider), p.fig4);
        all.insert(all.end(), cmps.begin(), cmps.end());
      }
      wall_s = seconds_since(start);
      add_comparisons(out, all);
      break;
    }
  }
  return out;
}

/// run_distribution_sweep for one provider (repetitions 1, serial, no
/// faults or rebalance), mirrored from src/sim/experiment.cpp's run_cell.
std::vector<sim::PackingComparison> traced_sweep(Tracer& tracer, TraceCounters& counters,
                                                 const std::string& provider,
                                                 const sim::ExperimentConfig& cfg) {
  const workload::Catalog& catalog = workload::catalog_by_name(provider);
  std::vector<sim::PackingComparison> out;
  for (const workload::LevelMix& mix : workload::paper_distributions()) {
    workload::Trace trace;
    tracer.time(Layer::kGenerate, [&] {
      trace = workload::Generator(catalog, mix, cfg.generator).generate();
    });
    std::vector<core::OversubLevel> levels;
    for (const std::uint8_t ratio : core::kPaperLevelRatios) {
      if (mix.share(core::OversubLevel{ratio}) > 0.0) {
        levels.push_back(core::OversubLevel{ratio});
      }
    }
    sim::Datacenter baseline = sim::Datacenter::dedicated(
        cfg.host_config, levels, sched::make_first_fit, cfg.mem_oversub);
    baseline.set_index_enabled(cfg.use_index);
    sim::RunResult b;
    {
      sim::MaterializedSource source(trace);
      b = perfbench::traced_replay(tracer, counters, baseline, source);
    }
    sim::Datacenter slackvm = sim::Datacenter::shared(
        cfg.host_config, sched::make_progress_policy, cfg.mem_oversub);
    slackvm.set_index_enabled(cfg.use_index);
    sim::RunResult s;
    {
      sim::MaterializedSource source(trace);
      s = perfbench::traced_replay(tracer, counters, slackvm, source);
    }
    sim::PackingComparison cmp;
    cmp.provider = catalog.provider();
    cmp.distribution = mix.name;
    cmp.baseline = sim::mean_result(std::span(&b, 1));
    cmp.slackvm = sim::mean_result(std::span(&s, 1));
    out.push_back(std::move(cmp));
  }
  return out;
}

std::int64_t percentile_ns(std::vector<std::int64_t> v, double q) {
  if (v.empty()) {
    return 0;
  }
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

using Metrics = std::vector<std::pair<std::string, double>>;

/// Per-layer metrics of one traced repetition.
Metrics layer_metrics(const Tracer& tracer, const TraceCounters& c, const Outcome& out,
                      double traced_wall_s) {
  const auto self_s = [&](Layer l) {
    return static_cast<double>(tracer.stats(l).self_ns) * 1e-9;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  Metrics m;
  for (std::size_t i = 0; i < perfbench::kLayerNames.size(); ++i) {
    m.emplace_back(std::string(perfbench::kLayerNames[i]) + ".self_s",
                   self_s(static_cast<Layer>(i)));
  }
  m.emplace_back("ingest.rows_per_s",
                 ratio(static_cast<double>(c.ingest_rows), self_s(Layer::kIngest)));
  m.emplace_back("queue.events", static_cast<double>(c.queue_events));
  m.emplace_back("queue.ns_per_event",
                 ratio(self_s(Layer::kQueue) * 1e9, static_cast<double>(c.queue_events)));
  m.emplace_back("queue.peak_pending", static_cast<double>(c.peak_pending));
  m.emplace_back("place.calls", static_cast<double>(c.place_ns.size()));
  m.emplace_back("place.p50_ns", static_cast<double>(percentile_ns(c.place_ns, 0.50)));
  m.emplace_back("place.p99_ns", static_cast<double>(percentile_ns(c.place_ns, 0.99)));
  m.emplace_back("place.open_share", ratio(static_cast<double>(c.place_opened),
                                           static_cast<double>(c.place_ns.size())));
  m.emplace_back("remove.p99_ns", static_cast<double>(percentile_ns(c.remove_ns, 0.99)));
  m.emplace_back("metrics.calls",
                 static_cast<double>(tracer.stats(Layer::kMetrics).calls));
  m.emplace_back("heat.host_refreshes", static_cast<double>(c.heat_refreshes));
  m.emplace_back("heat.ns_per_host", ratio(self_s(Layer::kHeat) * 1e9,
                                           static_cast<double>(c.heat_refreshes)));
  m.emplace_back("heat.rebuild_share", ratio(static_cast<double>(c.heat_rebuilds),
                                             static_cast<double>(c.heat_refreshes)));
  m.emplace_back("plan.consolidate.p99_ms",
                 static_cast<double>(percentile_ns(c.consolidate_ns, 0.99)) * 1e-6);
  m.emplace_back("plan.moves", static_cast<double>(c.plan_moves));
  m.emplace_back("migration.commit_ratio",
                 ratio(static_cast<double>(out.mig_committed),
                       static_cast<double>(out.mig_planned)));
  m.emplace_back("fault.evacuated", static_cast<double>(out.evacuated));
  const double covered = static_cast<double>(tracer.total_self_ns()) * 1e-9;
  m.emplace_back("trace.wall_s", traced_wall_s);
  m.emplace_back("trace.coverage", ratio(covered, traced_wall_s));
  m.emplace_back("residual.self_s", traced_wall_s - covered);
  return m;
}

/// sim::replay_sharded over the trace_stream file on Datacenter::
/// shared_sharded, ready to run on `threads` threads.
struct ShardRun {
  std::optional<sim::Datacenter> dc;
  std::unique_ptr<sim::StreamingTraceSource> source;
  sim::ShardOptions options;
  std::size_t rows = 0;
};

ShardRun prepare_shards(const std::string& work, std::size_t threads) {
  ShardRun run;
  const workload::TraceReader::ScanInfo scan =
      workload::TraceReader::scan(stream_path(work));
  run.rows = scan.rows;
  run.dc.emplace(
      sim::Datacenter::shared_sharded(kWorker, sched::make_progress_policy, kShards));
  run.source = std::make_unique<sim::StreamingTraceSource>(
      workload::TraceReader(stream_path(work)), scan);
  run.options.shards = kShards;
  run.options.threads = threads;
  return run;
}

/// The shard layer. Its internals run on pool threads, so it is traced at
/// its serial seam only: the demux's source pulls (ingest) inside one shard
/// span, on min(nproc, kShards) threads. The same shards on one thread give
/// the speedup, and must produce the identical result.
void measure_shards(const std::string& work, const cpu_set_t& cpus, Outcome& out,
                    Metrics& metrics) {
  // A repetition may be pinned to one CPU; the pool needs them all.
  if (sched_setaffinity(0, sizeof cpus, &cpus) != 0) {
    throw core::SlackError("cannot restore the CPU set for the sharded replay");
  }
  const std::size_t threads =
      std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kShards);
  Tracer tracer;
  ShardRun parallel = prepare_shards(work, threads);
  TimedSource source(*parallel.source, tracer);
  sim::RunResult r;
  const std::int64_t parallel_ns = tracer.time(Layer::kShard, [&] {
    r = sim::replay_sharded(*parallel.dc, source, parallel.options);
  });
  ShardRun serial = prepare_shards(work, 1);
  const std::int64_t start = Tracer::now_ns();
  const sim::RunResult r1 = sim::replay_sharded(*serial.dc, *serial.source, serial.options);
  const double serial_s = seconds_since(start);
  Outcome threaded_out;
  Outcome serial_out;
  add_result(threaded_out, "sharded", r, parallel.rows);
  add_result(serial_out, "sharded", r1, serial.rows);
  out.identity_violations += threaded_out.identity_violations;
  if (serial_out.lines != threaded_out.lines) {
    ++out.identity_violations;
  }
  const double speedup = serial_s / (static_cast<double>(parallel_ns) * 1e-9);
  for (auto& [name, value] : metrics) {
    if (name == "shard.self_s") {
      value = static_cast<double>(tracer.stats(Layer::kShard).self_ns) * 1e-9;
    }
  }
  metrics.emplace_back("shard.speedup", speedup);
  metrics.emplace_back("shard.parallel_efficiency", speedup / static_cast<double>(threads));
  metrics.emplace_back("shard.barriers", static_cast<double>(source.stops() + 1));
}

/// One traced repetition: the mirrored loop, with per-layer metrics.
Outcome run_traced(Prepared& p, Workload w, const std::string& work, const cpu_set_t& cpus,
                   double& wall_s, Metrics& metrics) {
  Tracer tracer;
  TraceCounters counters;
  Outcome out;
  switch (w) {
    case Workload::kTraceStream: {
      const std::int64_t start = Tracer::now_ns();
      const sim::RunResult r =
          perfbench::traced_replay(tracer, counters, *p.dc, *p.source);
      wall_s = seconds_since(start);
      add_result(out, "trace_stream", r, r.placed_vms);
      out.opened_pms = r.opened_pms;
      break;
    }
    case Workload::kControlLoop: {
      const std::int64_t start = Tracer::now_ns();
      const sim::RunResult r = perfbench::traced_replay(
          tracer, counters, *p.dc, *p.source, p.rebalance, p.monitor.get(), &p.faults);
      wall_s = seconds_since(start);
      add_result(out, "control_loop", r, p.scanned_rows);
      add_usage(out, p.monitor->report());
      out.opened_pms = r.opened_pms;
      break;
    }
    case Workload::kFig4Grid: {
      std::vector<sim::PackingComparison> all;
      const std::int64_t start = Tracer::now_ns();
      for (const std::string& provider : fig4_providers()) {
        const std::vector<sim::PackingComparison> cmps =
            traced_sweep(tracer, counters, provider, p.fig4);
        all.insert(all.end(), cmps.begin(), cmps.end());
      }
      wall_s = seconds_since(start);
      add_comparisons(out, all);
      break;
    }
  }
  metrics = layer_metrics(tracer, counters, out, wall_s);
  if (w == Workload::kTraceStream) {
    measure_shards(work, cpus, out, metrics);
  }
  return out;
}

// --- output ------------------------------------------------------------------

void print_json_metrics(const Metrics& m) {
  bool first = true;
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
}

long peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

struct Args {
  std::string command;
  std::string workload;
  std::string work = ".";
  std::uint64_t seed = 42;
  bool traced = false;
  int cpu = -1;             ///< pin the process to this CPU (-1 = no pinning)
};

Args parse_args(int argc, char** argv) {
  Args a;
  if (argc < 2) {
    throw core::SlackError("usage: slackbench env|setup|rep [options]");
  }
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw core::SlackError("missing value for " + key);
      }
      return argv[++i];
    };
    if (key == "--workload") {
      a.workload = value();
    } else if (key == "--seed") {
      a.seed = std::stoull(value());
    } else if (key == "--work") {
      a.work = value();
    } else if (key == "--traced") {
      a.traced = true;
    } else if (key == "--cpu") {
      a.cpu = std::stoi(value());
    } else {
      throw core::SlackError("unknown option " + key);
    }
  }
  return a;
}

int run(const Args& a) {
  if (a.command == "env") {
    std::printf("{\"compiler\": \"%s\", \"build_type\": \"%s\", \"optimized\": %s, "
                "\"nproc\": %u}\n",
                __VERSION__, PERFBENCH_BUILD_TYPE, kOptimized ? "true" : "false",
                std::thread::hardware_concurrency());
    return 0;
  }
  if (!kOptimized) {
    std::fprintf(stderr, "slackbench: refusing to measure a build without "
                         "optimisation (__OPTIMIZE__ undefined)\n");
    return 3;
  }
  cpu_set_t all_cpus;
  if (sched_getaffinity(0, sizeof all_cpus, &all_cpus) != 0) {
    throw core::SlackError("cannot read the CPU set");
  }
  if (a.cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(a.cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0) {
      throw core::SlackError("cannot pin to CPU " + std::to_string(a.cpu));
    }
  }
  const Workload w = parse_workload(a.workload);
  if (a.command == "setup") {
    // Timed in-process, so process start and dynamic loading are not counted.
    const std::int64_t start = Tracer::now_ns();
    const std::size_t rows = generate_inputs(w, a.work, a.seed);
    Prepared p;
    prepare(p, w, a.work, a.seed);
    const double setup_s = seconds_since(start);
    std::printf("{\"rows\": %zu, \"setup_s\": %.9f}\n", rows, setup_s);
    return 0;
  }
  if (a.command != "rep") {
    throw core::SlackError("unknown command '" + a.command + "'");
  }
  Prepared p;
  prepare(p, w, a.work, a.seed);
  double wall_s = 0.0;
  Metrics layers;
  const Outcome out = a.traced ? run_traced(p, w, a.work, all_cpus, wall_s, layers)
                               : run_untraced(p, w, wall_s);
  for (const std::string& line : out.lines) {
    std::printf("R %s\n", line.c_str());
  }
  std::printf("{\"wall_s\": %.9f, \"rss_kib\": %ld, \"rows\": %zu, "
              "\"attempted\": %zu, \"failed\": %zu, \"identity_violations\": %zu, "
              "\"opened_pms\": %zu, \"pm_saving_pct\": %.17g, \"p90_inflation\": %.17g, "
              "\"layers\": {",
              wall_s, peak_rss_kib(), out.rows, out.attempted, out.failed,
              out.identity_violations, out.opened_pms, out.pm_saving_pct,
              out.p90_inflation);
  print_json_metrics(layers);
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "slackbench: %s\n", e.what());
    return 1;
  }
}
