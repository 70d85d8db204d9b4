// The original O(fleet-copy) control-plane passes, kept verbatim as the
// differential references for the incremental ones the product runs:
//
//  - plan_naive             vs sched::Rebalancer::plan (PlanScratch columns,
//                           undo log, lazy vm-count heap);
//  - plan_interference_naive vs sched::Rebalancer::plan_interference
//                           (HeatIndex bucket streaming);
//  - sample_host_usage      vs sim::DemandCache::sample (cached term lists
//                           patched from the membership journal).
//
// Each pair must agree bit-for-bit: same migrations in the same order, same
// counters, same float demand sums. Test-only: part of the
// slackvm_reference library, which only tests and benches link.
#pragma once

#include <cstddef>
#include <vector>

#include "core/units.hpp"
#include "sched/rebalancer.hpp"
#include "sched/scorer.hpp"
#include "sched/vcluster.hpp"
#include "sim/usage_monitor.hpp"

namespace slackvm::perf {
class ContentionModel;
}  // namespace slackvm::perf

namespace slackvm::reference {

/// Drain-and-consolidate on a scratch copy of the fleet: repeatedly try to
/// empty the untried host with the fewest VMs (ties to the lowest id),
/// moving each of its VMs (ascending VmId) to the open host `scorer` ranks
/// best; a drain that strands any VM is rolled back whole.
[[nodiscard]] sched::MigrationPlan plan_naive(const sched::VCluster& cluster,
                                              std::size_t max_migrations,
                                              const sched::Scorer& scorer);

/// Polluter pass on a scratch copy of the fleet: evict the heaviest
/// contributor of the hottest untried UP host above the threshold toward
/// the coolest strictly-cooler UP host that fits it, shifting scratch heat
/// after each planned move.
[[nodiscard]] sched::MigrationPlan plan_interference_naive(
    const sched::VCluster& cluster, const perf::ContentionModel& model,
    const sched::InterferenceOptions& options);

/// Per-host demand breakdown of one cluster at time `t`, indexed by HostId.
/// Each host's demand sums its VMs in ascending VmId order, so the
/// floating-point result is independent of placement-map iteration order.
[[nodiscard]] std::vector<sim::HostUsage> sample_host_usage(
    const sched::VCluster& cluster, core::SimTime t);

}  // namespace slackvm::reference
