// Hostile-input mutation corpus: valid trace and scenario files, mutated
// from a fixed seed, must either parse or end in a SlackError that says
// where the input went wrong — never a crash, a hang or another exception.
//
//  * mutations: truncation, byte flips, 25-digit (and 10-/19-digit)
//    numbers, NaN/inf and other non-finite spellings, mixed CRLF/lone-CR
//    line ends, duplicated lines (duplicate rows and duplicate keys),
//    unknown keys and columns, and stacks of two or three of these;
//  * inputs: both trace formats (native and real) read through the
//    contiguous, chunked-read and mmap backings of workload::TraceReader
//    plus its scan() pre-pass, and sim::parse_scenario.
//
// Trace errors must carry the line and the column, scenario errors
// "scenario line N:". The three trace backings must also agree: the same
// rows, or the same error. Generated in-test (no fuzzing engine needed), so
// the corpus is identical on every run and under every sanitizer.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "sim/scenario.hpp"
#include "workload/catalog.hpp"
#include "workload/generator.hpp"
#include "workload/level_mix.hpp"
#include "workload/trace_reader.hpp"

namespace slackvm {
namespace {

constexpr std::uint64_t kCorpusSeed = 20240611;
constexpr std::size_t kCasesPerInput = 3400;  // x3 inputs: > 10k cases

enum class Mutation : std::uint8_t {
  kTruncate,
  kFlipBytes,
  kLongNumber,
  kNonFinite,
  kMixedLineEnds,
  kDuplicateLine,
  kUnknownKey,
};
constexpr std::size_t kMutationKinds = 7;

/// [begin, end) of every maximal run of number characters (digits, '.',
/// 'e', sign after 'e') that starts with a digit.
std::vector<std::pair<std::size_t, std::size_t>> number_spans(const std::string& text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] < '0' || text[i] > '9') {
      ++i;
      continue;
    }
    std::size_t j = i;
    while (j < text.size() &&
           ((text[j] >= '0' && text[j] <= '9') || text[j] == '.' || text[j] == 'e' ||
            ((text[j] == '-' || text[j] == '+') && j > i && text[j - 1] == 'e'))) {
      ++j;
    }
    spans.emplace_back(i, j);
    i = j;
  }
  return spans;
}

/// Start offsets of every line.
std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n' && i + 1 < text.size()) {
      starts.push_back(i + 1);
    }
  }
  return starts;
}

std::string line_at(const std::string& text, std::size_t start) {
  const std::size_t end = text.find('\n', start);
  return text.substr(start, end == std::string::npos ? std::string::npos : end - start + 1);
}

void replace_number(std::string& text, core::SplitMix64& rng, const std::string& with) {
  const auto spans = number_spans(text);
  if (spans.empty()) {
    text += with;
    return;
  }
  const auto [begin, end] = spans[rng.below(spans.size())];
  text.replace(begin, end - begin, with);
}

void apply(Mutation kind, std::string& text, core::SplitMix64& rng, bool scenario) {
  switch (kind) {
    case Mutation::kTruncate:
      text.resize(rng.below(text.size() + 1));
      break;
    case Mutation::kFlipBytes: {
      static constexpr char kHostile[] = {'\0', ',', '\n', '\r', '-', '+', '.', 'e',
                                          '9',  ' ', '#', '=', '\t', 'x', '\x7f'};
      const std::size_t flips = 1 + rng.below(8);
      for (std::size_t f = 0; f < flips && !text.empty(); ++f) {
        const std::size_t at = rng.below(text.size());
        text[at] = rng.below(2) == 0 ? kHostile[rng.below(sizeof kHostile)]
                                     : static_cast<char>(rng.below(256));
      }
      break;
    }
    case Mutation::kLongNumber: {
      // 25 digits overflow every integer field; 10 and 19 digits fit a u64
      // but not every field (vcpus is 32-bit, mem_mib a signed 64-bit).
      static constexpr std::uint64_t kLengths[] = {10, 19, 25, 25};
      const std::uint64_t length = kLengths[rng.below(std::size(kLengths))];
      std::string digits;
      for (std::uint64_t d = 0; d < length; ++d) {
        digits += static_cast<char>('0' + rng.below(10));
      }
      if (rng.below(3) == 0) {
        digits.insert(1 + rng.below(length - 2), ".");
      }
      replace_number(text, rng, digits);
      break;
    }
    case Mutation::kNonFinite: {
      static const char* const kSpellings[] = {"nan", "NaN",  "-nan",   "inf",   "-inf",
                                               "Infinity", "1e999", "-1e999", "1e-400",
                                               "-0", "0x1p3", "1e", ".", "-"};
      replace_number(text, rng, kSpellings[rng.below(std::size(kSpellings))]);
      break;
    }
    case Mutation::kMixedLineEnds: {
      std::string out;
      for (const char c : text) {
        if (c == '\n') {
          const std::uint64_t pick = rng.below(4);
          out += pick == 0 ? "\r\n" : pick == 1 ? "\r" : "\n";
        } else {
          out += c;
        }
      }
      text = std::move(out);
      break;
    }
    case Mutation::kDuplicateLine: {
      const auto starts = line_starts(text);
      const std::string copy = line_at(text, starts[rng.below(starts.size())]);
      text.insert(starts[rng.below(starts.size())], copy);
      break;
    }
    case Mutation::kUnknownKey: {
      static const char* const kScenarioLines[] = {
          "colour blue\n", "index on\n", "fail host=1 at=5 colour=red\n",
          "population\n", "seed 1 2\n"};
      static const char* const kTraceLines[] = {
          "id,vcpus,mem_mib,level,usage,arrival,departure,colour\n",
          "1,2,4096,1,steady,0,10,extra\n", "colour\n", ",,,,,,\n", "1,2,4096,1,gaming,0,10\n"};
      const auto starts = line_starts(text);
      const std::size_t at = starts[rng.below(starts.size())];
      text.insert(at, scenario ? kScenarioLines[rng.below(std::size(kScenarioLines))]
                               : kTraceLines[rng.below(std::size(kTraceLines))]);
      break;
    }
  }
}

/// One corpus case: one to three stacked mutations of `base`.
std::string mutate(const std::string& base, core::SplitMix64& rng, bool scenario) {
  std::string text = base;
  const std::size_t rounds = 1 + rng.below(3);
  for (std::size_t r = 0; r < rounds; ++r) {
    apply(static_cast<Mutation>(rng.below(kMutationKinds)), text, rng, scenario);
  }
  return text;
}

std::string base_trace(workload::TraceFormat format) {
  workload::GeneratorConfig cfg;
  cfg.target_population = 80;
  cfg.horizon = 2.0 * 24 * 3600;
  cfg.mean_lifetime = 1.0 * 24 * 3600;
  cfg.seed = 5;
  const workload::Trace trace =
      workload::Generator(workload::azure_catalog(), workload::make_mix(34, 33, 33), cfg)
          .generate();
  std::ostringstream os;
  workload::write_csv_fast(trace, os, format);
  return os.str();
}

std::string base_scenario() {
  sim::Scenario scenario;
  scenario.name = "hostile";
  scenario.provider = "azure";
  scenario.distribution = 'H';
  scenario.config.generator.target_population = 120;
  scenario.config.shards = 2;
  scenario.config.faults.count = 3;
  scenario.config.rebalance_interval = 3600;
  scenario.config.migration.enabled = true;
  scenario.config.interference.enabled = true;
  std::ostringstream os;
  sim::write_scenario(scenario, os);
  os << "fail host=3 at=86400 cluster=0  # explicit failure\n"
     << "repair host=3 at=90000\n"
     << "drain host=1 at=4200.5\n";
  return os.str();
}

/// Outcome of one parse: the rows, or the error message with its source
/// prefix ("TraceReader(<memory>): " / the file path) removed.
struct Outcome {
  std::optional<workload::Trace> rows;
  std::string error;
};

Outcome run_parse(const std::function<workload::Trace()>& parse) {
  Outcome outcome;
  try {
    outcome.rows = parse();
  } catch (const core::SlackError& e) {
    outcome.error = e.what();
    if (const auto at = outcome.error.find("): "); at != std::string::npos) {
      outcome.error.erase(0, at + 3);
    }
  }
  return outcome;
}

bool same_rows(const workload::Trace& a, const workload::Trace& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::VmInstance& x = a.vms()[i];
    const core::VmInstance& y = b.vms()[i];
    if (x.id != y.id || !(x.spec == y.spec) || x.arrival != y.arrival ||
        x.departure != y.departure) {
      return false;
    }
  }
  return true;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

void run_trace_corpus(workload::TraceFormat format, const std::string& file_name) {
  const std::string base = base_trace(format);
  ASSERT_GT(base.size(), 4096U) << "the chunked backing must see a chunk seam";
  const std::string path = testing::TempDir() + file_name;
  core::SplitMix64 rng(kCorpusSeed + static_cast<std::uint64_t>(format));
  workload::TraceReaderOptions chunked;
  chunked.chunk_bytes = 1;  // floored to the 4 KiB minimum
  workload::TraceReaderOptions mapped;
  mapped.use_mmap = true;
  std::size_t parsed = 0;
  for (std::size_t c = 0; c < kCasesPerInput; ++c) {
    const std::string text = mutate(base, rng, /*scenario=*/false);
    SCOPED_TRACE("case " + std::to_string(c));
    write_file(path, text);
    Outcome outcomes[3];
    try {
      outcomes[0] = run_parse([&] { return workload::TraceReader::from_string(text).read_all(); });
      outcomes[1] = run_parse([&] { return workload::TraceReader(path, chunked).read_all(); });
      outcomes[2] = run_parse([&] { return workload::TraceReader(path, mapped).read_all(); });
    } catch (const std::exception& e) {
      FAIL() << "non-SlackError exception: " << e.what();
    }
    const Outcome& contiguous = outcomes[0];
    for (const Outcome& other : {outcomes[1], outcomes[2]}) {
      ASSERT_EQ(contiguous.rows.has_value(), other.rows.has_value())
          << contiguous.error << " | " << other.error;
      if (contiguous.rows) {
        ASSERT_TRUE(same_rows(*contiguous.rows, *other.rows));
      } else {
        ASSERT_EQ(contiguous.error, other.error);
      }
    }
    if (contiguous.rows) {
      ++parsed;
      for (const core::VmInstance& vm : contiguous.rows->vms()) {
        ASSERT_GE(vm.spec.vcpus, 1U);
        ASSERT_GE(vm.spec.mem_mib, 0);  // a narrowed size would wrap negative
      }
      const auto info = workload::TraceReader::scan(path);
      ASSERT_EQ(info.rows, contiguous.rows->size());
      ASSERT_EQ(info.horizon, contiguous.rows->horizon());
    } else {
      ASSERT_NE(contiguous.error.find("line "), std::string::npos) << contiguous.error;
      ASSERT_NE(contiguous.error.find(", column '"), std::string::npos) << contiguous.error;
      EXPECT_THROW((void)workload::TraceReader::scan(path), core::SlackError);
    }
  }
  std::remove(path.c_str());
  // The corpus exercises both outcomes, not only the error paths.
  EXPECT_GT(parsed, kCasesPerInput / 100);
  EXPECT_LT(parsed, kCasesPerInput);
}

TEST(HostileInput, NativeTraceParsesOrFailsWithLineAndColumn) {
  run_trace_corpus(workload::TraceFormat::kNative, "hostile_native.csv");
}

TEST(HostileInput, RealTraceParsesOrFailsWithLineAndColumn) {
  run_trace_corpus(workload::TraceFormat::kReal, "hostile_real.csv");
}

TEST(HostileInput, ScenarioParsesOrFailsWithLineNumber) {
  const std::string base = base_scenario();
  {
    std::istringstream in(base);
    ASSERT_NO_THROW((void)sim::parse_scenario(in));
  }
  core::SplitMix64 rng(kCorpusSeed);
  std::size_t parsed = 0;
  for (std::size_t c = 0; c < kCasesPerInput; ++c) {
    const std::string text = mutate(base, rng, /*scenario=*/true);
    SCOPED_TRACE("case " + std::to_string(c));
    std::istringstream in(text);
    try {
      (void)sim::parse_scenario(in);
      ++parsed;
    } catch (const core::SlackError& e) {
      const std::string message = e.what();
      ASSERT_EQ(message.rfind("scenario line ", 0), 0U) << message;
      ASSERT_NE(message.find(": "), std::string::npos) << message;
    } catch (const std::exception& e) {
      FAIL() << "non-SlackError exception: " << e.what();
    }
  }
  EXPECT_GT(parsed, kCasesPerInput / 100);
  EXPECT_LT(parsed, kCasesPerInput);
}

}  // namespace
}  // namespace slackvm
