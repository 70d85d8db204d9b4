// The original per-step-rescan CPU-selection implementations, kept verbatim
// as the differential reference the incremental fast path in
// local/placement.hpp is proven against (the same pattern the placement
// index uses for host selection, DESIGN.md §5). Semantics — including the
// lowest-CPU-id tie-break — are the specification.
//
// Test-only: part of the slackvm_reference library, which only tests and
// benches link; the product runs the fast path alone.
#pragma once

#include <cstddef>
#include <optional>

#include "topology/cpuset.hpp"
#include "topology/distance.hpp"

namespace slackvm::local::naive {

[[nodiscard]] std::optional<topo::CpuSet> choose_extension_cpus(
    const topo::DistanceMatrix& dm, const topo::CpuSet& free_cpus,
    const topo::CpuSet& current, std::size_t count);

[[nodiscard]] std::optional<topo::CpuSet> choose_seed_cpus(const topo::DistanceMatrix& dm,
                                                           const topo::CpuSet& free_cpus,
                                                           const topo::CpuSet& occupied,
                                                           std::size_t count);

[[nodiscard]] topo::CpuSet choose_release_cpus(const topo::DistanceMatrix& dm,
                                               const topo::CpuSet& current, std::size_t count);

}  // namespace slackvm::local::naive
