#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "core/error.hpp"

namespace slackvm::sim {
namespace {

TEST(ScenarioParse, ReadsAllKeys) {
  std::istringstream in(R"(# a comment
name       test-case
provider   azure
distribution E
population 250
seed       7
repetitions 2
mem_oversub 1.5
horizon_days 3
lifetime_days 1
diurnal    0.4
host_cores 64
host_mem_gib 256
)");
  const Scenario scenario = parse_scenario(in);
  EXPECT_EQ(scenario.name, "test-case");
  EXPECT_EQ(scenario.provider, "azure");
  EXPECT_EQ(scenario.distribution, 'E');
  EXPECT_EQ(scenario.config.generator.target_population, 250U);
  EXPECT_EQ(scenario.config.generator.seed, 7U);
  EXPECT_EQ(scenario.config.repetitions, 2U);
  EXPECT_DOUBLE_EQ(scenario.config.mem_oversub, 1.5);
  EXPECT_DOUBLE_EQ(scenario.config.generator.horizon, 3.0 * 24 * 3600);
  EXPECT_DOUBLE_EQ(scenario.config.generator.mean_lifetime, 1.0 * 24 * 3600);
  EXPECT_DOUBLE_EQ(scenario.config.generator.diurnal_amplitude, 0.4);
  EXPECT_EQ(scenario.config.host_config.cores, 64U);
  EXPECT_EQ(scenario.config.host_config.mem_mib, core::gib(256));
  EXPECT_EQ(&scenario.catalog(), &workload::azure_catalog());
  EXPECT_EQ(scenario.mix().name, "E");
}

TEST(ScenarioParse, DefaultsApply) {
  std::istringstream in("population 100\n");
  const Scenario scenario = parse_scenario(in);
  EXPECT_EQ(scenario.provider, "ovhcloud");
  EXPECT_EQ(scenario.distribution, 'F');
  EXPECT_EQ(scenario.config.repetitions, 1U);
}

TEST(ScenarioParse, TrailingCommentsStripped) {
  std::istringstream in("provider azure # the big one\npopulation 50\n");
  EXPECT_EQ(parse_scenario(in).provider, "azure");
}

TEST(ScenarioParse, UnknownKeyRejectedWithLineNumber) {
  std::istringstream in("population 100\nflavor big\n");
  try {
    (void)parse_scenario(in);
    FAIL() << "expected SlackError";
  } catch (const core::SlackError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// The placement index is not a scenario option: an old file that still
// sets it fails at its line instead of being silently accepted.
TEST(ScenarioParse, RemovedIndexKeyRejectedWithLineNumber) {
  std::istringstream in("population 100\nshards 2\nindex on\n");
  try {
    (void)parse_scenario(in);
    FAIL() << "expected SlackError";
  } catch (const core::SlackError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("scenario line 3:"), std::string::npos) << message;
    EXPECT_NE(message.find("unknown key 'index'"), std::string::npos) << message;
  }
}

TEST(ScenarioParse, BadValuesRejected) {
  std::istringstream bad_number("population many\n");
  EXPECT_THROW((void)parse_scenario(bad_number), core::SlackError);
  std::istringstream missing_value("provider\n");
  EXPECT_THROW((void)parse_scenario(missing_value), core::SlackError);
  std::istringstream bad_dist("distribution Z\npopulation 10\n");
  EXPECT_THROW((void)parse_scenario(bad_dist), core::SlackError);
  std::istringstream bad_provider("provider gcp\npopulation 10\n");
  EXPECT_THROW((void)parse_scenario(bad_provider), core::SlackError);
}

TEST(ScenarioParse, RoundTripsThroughWriter) {
  Scenario original;
  original.name = "rt";
  original.provider = "azure";
  original.distribution = 'H';
  original.config.generator.target_population = 123;
  original.config.generator.seed = 9;
  original.config.mem_oversub = 1.25;
  original.config.shards = 4;
  std::stringstream buffer;
  write_scenario(original, buffer);
  const Scenario restored = parse_scenario(buffer);
  EXPECT_EQ(restored.name, original.name);
  EXPECT_EQ(restored.provider, original.provider);
  EXPECT_EQ(restored.distribution, original.distribution);
  EXPECT_EQ(restored.config.generator.target_population, 123U);
  EXPECT_DOUBLE_EQ(restored.config.mem_oversub, 1.25);
  EXPECT_EQ(restored.config.shards, 4U);
}

TEST(ScenarioParse, TraceKeyRoundTrips) {
  std::istringstream in("population 10\ntrace traces/sap_month.csv\n");
  const Scenario scenario = parse_scenario(in);
  EXPECT_EQ(scenario.config.trace_path, "traces/sap_month.csv");

  // Defaults to empty (generated workload) and round-trips through the
  // writer when set.
  std::istringstream plain("population 10\n");
  EXPECT_TRUE(parse_scenario(plain).config.trace_path.empty());
  std::stringstream buffer;
  write_scenario(scenario, buffer);
  EXPECT_NE(buffer.str().find("trace traces/sap_month.csv"), std::string::npos);
  EXPECT_EQ(parse_scenario(buffer).config.trace_path, "traces/sap_month.csv");
}

TEST(ScenarioParse, ShardsKeyParsedAndValidated) {
  std::istringstream in("population 100\nshards 8\n");
  EXPECT_EQ(parse_scenario(in).config.shards, 8U);
  std::istringstream zero("population 100\nshards 0\n");
  EXPECT_THROW((void)parse_scenario(zero), core::SlackError);
}

TEST(ScenarioParse, DuplicateScalarKeyRejectedWithBothLines) {
  std::istringstream in("population 100\nseed 1\npopulation 200\n");
  try {
    (void)parse_scenario(in);
    FAIL() << "expected SlackError";
  } catch (const core::SlackError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate key 'population'"), std::string::npos) << what;
    EXPECT_NE(what.find("first set on line 1"), std::string::npos) << what;
  }
}

TEST(ScenarioParse, DirectiveKeysMayRepeat) {
  std::istringstream in(R"(population 100
fail host=0 at=3600
fail host=1 at=7200
drain host=2 at=1800
repair host=0 at=9000
repair host=1 at=9600 cluster=1
)");
  const Scenario scenario = parse_scenario(in);
  ASSERT_EQ(scenario.config.faults.directives.size(), 5U);
  EXPECT_EQ(scenario.config.faults.directives[4].cluster, 1U);
}

TEST(ScenarioParse, TrailingTokensRejected) {
  std::istringstream in("population 100 extra\n");
  try {
    (void)parse_scenario(in);
    FAIL() << "expected SlackError";
  } catch (const core::SlackError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("trailing token 'extra'"), std::string::npos) << what;
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  }
  // A trailing comment is not a trailing token.
  std::istringstream commented("population 100 # fleet size\n");
  EXPECT_EQ(parse_scenario(commented).config.generator.target_population, 100U);
}

TEST(ScenarioParse, MigrationKeysParsedValidatedAndRoundTripped) {
  std::istringstream in(R"(population 100
rebalance_s 7200
rebalance_budget 8
migration engine
mig_bw_mibps 512
mig_cap 3
mig_in_flight 24
mig_timeout_s 900
mig_retries 5
mig_backoff_s 120
)");
  const Scenario scenario = parse_scenario(in);
  EXPECT_DOUBLE_EQ(scenario.config.rebalance_interval, 7200.0);
  EXPECT_EQ(scenario.config.rebalance_budget, 8U);
  EXPECT_TRUE(scenario.config.migration.enabled);
  EXPECT_DOUBLE_EQ(scenario.config.migration.bandwidth_mibps, 512.0);
  EXPECT_EQ(scenario.config.migration.max_concurrent_per_host, 3U);
  EXPECT_EQ(scenario.config.migration.max_in_flight, 24U);
  EXPECT_DOUBLE_EQ(scenario.config.migration.timeout, 900.0);
  EXPECT_EQ(scenario.config.migration.max_retries, 5U);
  EXPECT_DOUBLE_EQ(scenario.config.migration.backoff_base, 120.0);

  std::stringstream buffer;
  write_scenario(scenario, buffer);
  const Scenario restored = parse_scenario(buffer);
  EXPECT_DOUBLE_EQ(restored.config.rebalance_interval, 7200.0);
  EXPECT_EQ(restored.config.rebalance_budget, 8U);
  EXPECT_TRUE(restored.config.migration.enabled);
  EXPECT_DOUBLE_EQ(restored.config.migration.bandwidth_mibps, 512.0);
  EXPECT_EQ(restored.config.migration.max_concurrent_per_host, 3U);
  EXPECT_EQ(restored.config.migration.max_in_flight, 24U);
  EXPECT_DOUBLE_EQ(restored.config.migration.timeout, 900.0);
  EXPECT_EQ(restored.config.migration.max_retries, 5U);
  EXPECT_DOUBLE_EQ(restored.config.migration.backoff_base, 120.0);

  std::istringstream bad_mode("population 10\nmigration teleport\n");
  EXPECT_THROW((void)parse_scenario(bad_mode), core::SlackError);
  std::istringstream bad_bw("population 10\nmig_bw_mibps 0\n");
  EXPECT_THROW((void)parse_scenario(bad_bw), core::SlackError);
  std::istringstream bad_cap("population 10\nmig_cap 0\n");
  EXPECT_THROW((void)parse_scenario(bad_cap), core::SlackError);
  std::istringstream bad_interval("population 10\nrebalance_s -1\n");
  EXPECT_THROW((void)parse_scenario(bad_interval), core::SlackError);
}

TEST(ScenarioParse, InterferenceKeysParsedValidatedAndRoundTripped) {
  std::istringstream in(R"(population 100
rebalance_s 7200
interference on
heat_interval_s 600
heat_alpha 0.5
heat_bucket 0.2
heat_weight 2.5
itf_threshold 1.1
itf_evictions 3
)");
  const Scenario scenario = parse_scenario(in);
  const sched::InterferenceOptions& itf = scenario.config.interference;
  EXPECT_TRUE(itf.enabled);
  EXPECT_DOUBLE_EQ(itf.heat_interval, 600.0);
  EXPECT_DOUBLE_EQ(itf.heat_alpha, 0.5);
  EXPECT_DOUBLE_EQ(itf.heat_bucket, 0.2);
  EXPECT_DOUBLE_EQ(itf.heat_weight, 2.5);
  EXPECT_DOUBLE_EQ(itf.threshold, 1.1);
  EXPECT_EQ(itf.evictions_per_pass, 3U);

  std::stringstream buffer;
  write_scenario(scenario, buffer);
  const Scenario restored = parse_scenario(buffer);
  const sched::InterferenceOptions& rt = restored.config.interference;
  EXPECT_TRUE(rt.enabled);
  EXPECT_DOUBLE_EQ(rt.heat_interval, 600.0);
  EXPECT_DOUBLE_EQ(rt.heat_alpha, 0.5);
  EXPECT_DOUBLE_EQ(rt.heat_bucket, 0.2);
  EXPECT_DOUBLE_EQ(rt.heat_weight, 2.5);
  EXPECT_DOUBLE_EQ(rt.threshold, 1.1);
  EXPECT_EQ(rt.evictions_per_pass, 3U);

  // Off by default; "off" parses; every knob is range-checked.
  std::istringstream plain("population 10\n");
  EXPECT_FALSE(parse_scenario(plain).config.interference.enabled);
  std::istringstream off("population 10\ninterference off\n");
  EXPECT_FALSE(parse_scenario(off).config.interference.enabled);
  std::istringstream bad_switch("population 10\ninterference maybe\n");
  EXPECT_THROW((void)parse_scenario(bad_switch), core::SlackError);
  std::istringstream bad_interval("population 10\nheat_interval_s 0\n");
  EXPECT_THROW((void)parse_scenario(bad_interval), core::SlackError);
  std::istringstream bad_alpha("population 10\nheat_alpha 1.5\n");
  EXPECT_THROW((void)parse_scenario(bad_alpha), core::SlackError);
  std::istringstream bad_bucket("population 10\nheat_bucket -0.1\n");
  EXPECT_THROW((void)parse_scenario(bad_bucket), core::SlackError);
  std::istringstream bad_weight("population 10\nheat_weight -1\n");
  EXPECT_THROW((void)parse_scenario(bad_weight), core::SlackError);
  std::istringstream bad_threshold("population 10\nitf_threshold 0.9\n");
  EXPECT_THROW((void)parse_scenario(bad_threshold), core::SlackError);
  std::istringstream bad_evictions("population 10\nitf_evictions 0\n");
  EXPECT_THROW((void)parse_scenario(bad_evictions), core::SlackError);
}

TEST(ScenarioParse, DuplicateInterferenceKeyRejected) {
  std::istringstream in("population 10\nheat_alpha 0.3\nheat_alpha 0.4\n");
  try {
    (void)parse_scenario(in);
    FAIL() << "expected SlackError";
  } catch (const core::SlackError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate key 'heat_alpha'"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
}

// Numeric values must be the whole token: signs on counts, trailing bytes,
// non-finite reals and overflow are errors naming the line and the key,
// never a wrapped, truncated or infinite value.
TEST(ScenarioParse, MalformedNumbersRejectedWithLineAndKey) {
  const struct {
    const char* line;
    const char* key;
  } cases[] = {
      {"shards -3", "shards"},
      {"seed 12x", "seed"},
      {"population 99999999999999999999999", "population"},
      {"shards 5000", "shards"},
      {"repetitions +2", "repetitions"},
      {"mem_oversub nan", "mem_oversub"},
      {"horizon_days 1e999", "horizon_days"},
      {"rebalance_s inf", "rebalance_s"},
      {"host_cores 4294967296", "host_cores"},
      {"host_mem_gib -1", "host_mem_gib"},
      {"fail host=-1 at=10", "fail host"},
      {"drain host=1 at=10s", "drain at"},
      {"repair host=1 at=10 cluster=1x", "repair cluster"},
  };
  for (const auto& c : cases) {
    std::istringstream in(std::string("population 100\n") + c.line + "\n");
    try {
      (void)parse_scenario(in);
      ADD_FAILURE() << "accepted '" << c.line << "'";
    } catch (const core::SlackError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
      EXPECT_NE(what.find(c.key), std::string::npos) << what;
    }
  }
  // Plain well-formed values still parse.
  std::istringstream ok("population 100\nmem_oversub 1.5\nrebalance_s 3.6e3\n");
  const Scenario scenario = parse_scenario(ok);
  EXPECT_EQ(scenario.config.mem_oversub, 1.5);
  EXPECT_EQ(scenario.config.rebalance_interval, 3600.0);
}

TEST(ScenarioRun, SmallScenarioExecutes) {
  std::istringstream in(R"(name smoke
provider ovhcloud
distribution F
population 60
horizon_days 2
lifetime_days 1
)");
  const Scenario scenario = parse_scenario(in);
  const PackingComparison cmp = scenario.run();
  EXPECT_GT(cmp.baseline.opened_pms, 0U);
  EXPECT_LE(cmp.slackvm.opened_pms, cmp.baseline.opened_pms + 1);
}

}  // namespace
}  // namespace slackvm::sim
