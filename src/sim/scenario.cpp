#include "sim/scenario.hpp"

#include <cstdint>
#include <istream>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <string_view>

#include "core/error.hpp"
#include "core/parse.hpp"
#include "sim/shard.hpp"

namespace slackvm::sim {

const workload::Catalog& Scenario::catalog() const {
  return workload::catalog_by_name(provider);
}

const workload::LevelMix& Scenario::mix() const {
  return workload::distribution(distribution);
}

PackingComparison Scenario::run() const { return compare_packing(catalog(), mix(), config); }

Scenario parse_scenario(std::istream& input) {
  Scenario scenario;
  std::string line;
  std::size_t line_no = 0;
  // First-seen line per scalar key: every scalar key may appear at most
  // once, so a stale duplicate (the classic copy-paste edit that silently
  // loses) is a parse error, not a last-one-wins surprise. Directives
  // (fail/drain/repair) are events and stay repeatable.
  std::map<std::string, std::size_t> seen;
  while (std::getline(input, line)) {
    ++line_no;
    // Strip trailing comments.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream in(line);
    std::string key;
    if (!(in >> key)) {
      continue;  // blank
    }
    const std::string where = "scenario line " + std::to_string(line_no) + ": ";
    const auto fail = [&](const std::string& message) { SLACKVM_THROW(where + message); };
    // Checked numeric parsing (core/parse.hpp): the whole token must be the
    // number; errors name the line and the key.
    const auto count = [&](std::string_view text, const std::string& what,
                           std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
      return core::parse_count(text, where + what, max);
    };
    const auto real = [&](std::string_view text, const std::string& what) {
      return core::parse_real(text, where + what);
    };
    const bool directive = key == "fail" || key == "drain" || key == "repair";
    if (!directive) {
      const auto [first, inserted] = seen.emplace(key, line_no);
      if (!inserted) {
        fail("duplicate key '" + key + "' (first set on line " +
             std::to_string(first->second) + ")");
      }
    }
    std::string value;
    if (!(in >> value)) {
      fail("missing value for '" + key + "'");
    }
    // Validate eagerly so errors surface at parse time, not mid-run, and
    // name the line.
    const auto check = [&](auto&& validate) {
      try {
        (void)validate();
      } catch (const core::SlackError& e) {
        fail(e.what());
      }
    };
    if (key == "name") {
      scenario.name = value;
    } else if (key == "provider") {
      scenario.provider = value;
      check([&] { return &scenario.catalog(); });
    } else if (key == "distribution") {
      if (value.size() != 1) {
        fail("distribution must be a single letter A..O");
      }
      scenario.distribution = value[0];
      check([&] { return &scenario.mix(); });
    } else if (key == "population") {
      scenario.config.generator.target_population = count(value, key);
      if (scenario.config.generator.target_population == 0) {
        fail("population must be positive");
      }
    } else if (key == "seed") {
      scenario.config.generator.seed = count(value, key);
    } else if (key == "repetitions") {
      scenario.config.repetitions = count(value, key);
    } else if (key == "parallelism") {
      scenario.config.parallelism = count(value, key);
    } else if (key == "shards") {
      scenario.config.shards = count(value, key, kMaxShards);
      if (scenario.config.shards == 0) {
        fail("shards must be >= 1");
      }
    } else if (key == "mem_oversub") {
      scenario.config.mem_oversub = real(value, key);
    } else if (key == "horizon_days") {
      scenario.config.generator.horizon = real(value, key) * 24 * 3600;
    } else if (key == "lifetime_days") {
      scenario.config.generator.mean_lifetime = real(value, key) * 24 * 3600;
    } else if (key == "diurnal") {
      scenario.config.generator.diurnal_amplitude = real(value, key);
    } else if (key == "faults") {
      scenario.config.faults.count = count(value, key);
    } else if (key == "fault_seed") {
      scenario.config.faults.seed = count(value, key);
    } else if (key == "repair_delay_s") {
      scenario.config.faults.repair_delay = real(value, key);
    } else if (key == "drain_lead_s") {
      scenario.config.faults.drain_lead = real(value, key);
    } else if (key == "evac_retries") {
      scenario.config.faults.max_retries = count(value, key);
    } else if (key == "evac_backoff_s") {
      scenario.config.faults.backoff_base = real(value, key);
    } else if (key == "rebalance_s") {
      scenario.config.rebalance_interval = real(value, key);
      if (scenario.config.rebalance_interval < 0) {
        fail("rebalance_s must be >= 0");
      }
    } else if (key == "rebalance_budget") {
      scenario.config.rebalance_budget = count(value, key);
    } else if (key == "migration") {
      if (value == "engine") {
        scenario.config.migration.enabled = true;
      } else if (value == "instant") {
        scenario.config.migration.enabled = false;
      } else {
        fail("migration must be engine|instant");
      }
    } else if (key == "mig_bw_mibps") {
      scenario.config.migration.bandwidth_mibps = real(value, key);
      if (!(scenario.config.migration.bandwidth_mibps > 0)) {
        fail("mig_bw_mibps must be > 0");
      }
    } else if (key == "mig_cap") {
      scenario.config.migration.max_concurrent_per_host = count(value, key);
      if (scenario.config.migration.max_concurrent_per_host == 0) {
        fail("mig_cap must be >= 1");
      }
    } else if (key == "mig_in_flight") {
      scenario.config.migration.max_in_flight = count(value, key);
      if (scenario.config.migration.max_in_flight == 0) {
        fail("mig_in_flight must be >= 1");
      }
    } else if (key == "mig_timeout_s") {
      scenario.config.migration.timeout = real(value, key);
      if (scenario.config.migration.timeout < 0) {
        fail("mig_timeout_s must be >= 0");
      }
    } else if (key == "mig_retries") {
      scenario.config.migration.max_retries = count(value, key);
    } else if (key == "mig_backoff_s") {
      scenario.config.migration.backoff_base = real(value, key);
      if (scenario.config.migration.backoff_base < 0) {
        fail("mig_backoff_s must be >= 0");
      }
    } else if (key == "interference") {
      if (value == "on" || value == "1") {
        scenario.config.interference.enabled = true;
      } else if (value == "off" || value == "0") {
        scenario.config.interference.enabled = false;
      } else {
        fail("interference must be on|off");
      }
    } else if (key == "heat_interval_s") {
      scenario.config.interference.heat_interval = real(value, key);
      if (!(scenario.config.interference.heat_interval > 0)) {
        fail("heat_interval_s must be > 0");
      }
    } else if (key == "heat_alpha") {
      scenario.config.interference.heat_alpha = real(value, key);
      if (!(scenario.config.interference.heat_alpha > 0) ||
          scenario.config.interference.heat_alpha > 1.0) {
        fail("heat_alpha must be in (0, 1]");
      }
    } else if (key == "heat_bucket") {
      scenario.config.interference.heat_bucket = real(value, key);
      if (!(scenario.config.interference.heat_bucket > 0)) {
        fail("heat_bucket must be > 0");
      }
    } else if (key == "heat_weight") {
      scenario.config.interference.heat_weight = real(value, key);
      if (scenario.config.interference.heat_weight < 0) {
        fail("heat_weight must be >= 0");
      }
    } else if (key == "itf_threshold") {
      scenario.config.interference.threshold = real(value, key);
      if (scenario.config.interference.threshold < 1.0) {
        fail("itf_threshold must be >= 1");
      }
    } else if (key == "itf_evictions") {
      scenario.config.interference.evictions_per_pass = count(value, key);
      if (scenario.config.interference.evictions_per_pass == 0) {
        fail("itf_evictions must be >= 1");
      }
    } else if (key == "fail" || key == "drain" || key == "repair") {
      FaultDirective event;
      event.kind = key == "fail"    ? FaultDirective::Kind::kFail
                   : key == "drain" ? FaultDirective::Kind::kDrain
                                    : FaultDirective::Kind::kRepair;
      bool have_host = false;
      bool have_at = false;
      // `value` holds the first field; the rest stream in.
      std::string token = value;
      do {
        const auto eq = token.find('=');
        if (eq == std::string::npos) {
          fail("directive fields are key=value, got '" + token + "'");
        }
        const std::string field = token.substr(0, eq);
        const std::string field_value = token.substr(eq + 1);
        if (field == "host") {
          event.host = static_cast<sched::HostId>(
              count(field_value, key + " " + field, std::numeric_limits<sched::HostId>::max()));
          have_host = true;
        } else if (field == "at") {
          event.at = real(field_value, key + " " + field);
          have_at = true;
        } else if (field == "cluster") {
          event.cluster = count(field_value, key + " " + field);
        } else {
          fail("unknown directive field '" + field + "'");
        }
      } while (in >> token);
      if (!have_host || !have_at) {
        fail("'" + key + "' needs host= and at=");
      }
      scenario.config.faults.directives.push_back(event);
    } else if (key == "trace") {
      scenario.config.trace_path = value;
    } else if (key == "host_cores") {
      scenario.config.host_config.cores = static_cast<core::CoreCount>(
          count(value, key, std::numeric_limits<core::CoreCount>::max()));
    } else if (key == "host_mem_gib") {
      scenario.config.host_config.mem_mib = core::gib(static_cast<std::int64_t>(count(
          value, key, std::numeric_limits<std::int64_t>::max() / core::kMibPerGib)));
    } else {
      fail("unknown key '" + key + "'");
    }
    // Scalar keys take exactly one value: leftover tokens are either a
    // forgotten '#' or a mangled line, so reject them with the position
    // instead of silently dropping them. Directives consumed the whole
    // line themselves above.
    if (!directive) {
      std::string extra;
      if (in >> extra) {
        fail("trailing token '" + extra + "' after '" + key + " " + value + "'");
      }
    }
  }
  return scenario;
}

void write_scenario(const Scenario& scenario, std::ostream& output) {
  output << "name " << scenario.name << '\n';
  output << "provider " << scenario.provider << '\n';
  output << "distribution " << scenario.distribution << '\n';
  output << "population " << scenario.config.generator.target_population << '\n';
  output << "seed " << scenario.config.generator.seed << '\n';
  output << "repetitions " << scenario.config.repetitions << '\n';
  output << "parallelism " << scenario.config.parallelism << '\n';
  output << "shards " << scenario.config.shards << '\n';
  output << "mem_oversub " << scenario.config.mem_oversub << '\n';
  output << "horizon_days " << scenario.config.generator.horizon / (24 * 3600) << '\n';
  output << "lifetime_days " << scenario.config.generator.mean_lifetime / (24 * 3600)
         << '\n';
  output << "diurnal " << scenario.config.generator.diurnal_amplitude << '\n';
  if (!scenario.config.trace_path.empty()) {
    output << "trace " << scenario.config.trace_path << '\n';
  }
  output << "host_cores " << scenario.config.host_config.cores << '\n';
  output << "host_mem_gib " << scenario.config.host_config.mem_mib / core::kMibPerGib
         << '\n';
  const FaultConfig& faults = scenario.config.faults;
  output << "faults " << faults.count << '\n';
  output << "fault_seed " << faults.seed << '\n';
  output << "repair_delay_s " << faults.repair_delay << '\n';
  output << "drain_lead_s " << faults.drain_lead << '\n';
  output << "evac_retries " << faults.max_retries << '\n';
  output << "evac_backoff_s " << faults.backoff_base << '\n';
  output << "rebalance_s " << scenario.config.rebalance_interval << '\n';
  output << "rebalance_budget " << scenario.config.rebalance_budget << '\n';
  const MigrationConfig& migration = scenario.config.migration;
  output << "migration " << (migration.enabled ? "engine" : "instant") << '\n';
  output << "mig_bw_mibps " << migration.bandwidth_mibps << '\n';
  output << "mig_cap " << migration.max_concurrent_per_host << '\n';
  output << "mig_in_flight " << migration.max_in_flight << '\n';
  output << "mig_timeout_s " << migration.timeout << '\n';
  output << "mig_retries " << migration.max_retries << '\n';
  output << "mig_backoff_s " << migration.backoff_base << '\n';
  const sched::InterferenceOptions& itf = scenario.config.interference;
  output << "interference " << (itf.enabled ? "on" : "off") << '\n';
  output << "heat_interval_s " << itf.heat_interval << '\n';
  output << "heat_alpha " << itf.heat_alpha << '\n';
  output << "heat_bucket " << itf.heat_bucket << '\n';
  output << "heat_weight " << itf.heat_weight << '\n';
  output << "itf_threshold " << itf.threshold << '\n';
  output << "itf_evictions " << itf.evictions_per_pass << '\n';
  for (const FaultDirective& directive : faults.directives) {
    const char* kind = directive.kind == FaultDirective::Kind::kFail    ? "fail"
                       : directive.kind == FaultDirective::Kind::kDrain ? "drain"
                                                                        : "repair";
    output << kind << " host=" << directive.host << " at=" << directive.at
           << " cluster=" << directive.cluster << '\n';
  }
}

}  // namespace slackvm::sim
