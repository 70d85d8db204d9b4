// `slackvm generate` writes traces that read back bit-exactly: the file's
// timestamps are the generator's doubles, not a 6-significant-digit
// rounding of them, so a replay of the file equals a replay of the
// in-memory trace.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"
#include "workload/trace_reader.hpp"

namespace slackvm {
namespace {

TEST(CliGenerate, WrittenTraceReadsBackBitExact) {
  const std::string path = testing::TempDir() + "cli_generate_roundtrip.csv";
  const std::string command = std::string(SLACKVM_CLI) +
                              " generate --provider azure --dist F --population 2000"
                              " --seed 3 --out '" + path + "' > /dev/null";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;

  // The same trace in memory: cmd_generate's generator configuration.
  workload::GeneratorConfig cfg;
  cfg.target_population = 2000;
  cfg.seed = 3;
  const workload::Trace expected =
      workload::Generator(workload::azure_catalog(), workload::distribution('F'), cfg)
          .generate();
  const workload::Trace written = workload::TraceReader(path).read_all();
  std::remove(path.c_str());

  ASSERT_EQ(written.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const core::VmInstance& a = expected.vms()[i];
    const core::VmInstance& b = written.vms()[i];
    ASSERT_EQ(a.id, b.id) << "row " << i;
    ASSERT_EQ(a.spec, b.spec) << "row " << i;
    // Bit-exact on purpose (EXPECT_EQ, not EXPECT_DOUBLE_EQ).
    ASSERT_EQ(a.arrival, b.arrival) << "row " << i;
    ASSERT_EQ(a.departure, b.departure) << "row " << i;
  }
}

}  // namespace
}  // namespace slackvm
