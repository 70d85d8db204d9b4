// The original istream trace parser, kept verbatim as the differential
// reference for workload::TraceReader (the product's only parser) and as
// micro_trace's parse-throughput baseline. Test-only: part of the
// slackvm_reference library, which only tests and benches link.
#pragma once

#include <iosfwd>

#include "workload/trace.hpp"

namespace slackvm::reference {

/// Strict parser for the native trace format (header
/// "id,vcpus,mem_mib,level,usage,arrival,departure"). Malformed input throws
/// a SlackError naming the 1-based line, the offending column, and the raw
/// row: rows with too few or too many columns, non-numeric or
/// partially-numeric fields, out-of-range levels, non-finite or negative
/// times, departures not after arrivals, and rows out of arrival order are
/// all rejected rather than silently skewing an experiment.
[[nodiscard]] workload::Trace read_csv(std::istream& is);

}  // namespace slackvm::reference
