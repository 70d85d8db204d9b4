// Differential proof that the incremental local pinning engine
// (local/placement.hpp fast path + the VNodeManager bookkeeping built on
// it) is bit-identical to the naive reference (tests/reference/
// local_naive.hpp): same vNode CPU sets and pin updates, over randomized
// deploy/remove/retune churn on several builder topologies. Mirrors the naive-vs-indexed churn
// treatment of sched::PlacementIndex (tests/sched_placement_index_test.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "core/rng.hpp"
#include "local/placement.hpp"
#include "local/vnode_manager.hpp"
#include "reference/local_naive.hpp"
#include "topology/builders.hpp"
#include "topology/distance.hpp"

namespace slackvm::local {
namespace {

using core::OversubLevel;
using core::VmId;
using core::VmSpec;

std::vector<std::pair<std::string, topo::CpuTopology>> builder_topologies() {
  topo::GenericSpec nps;
  nps.sockets = 2;
  nps.cores_per_socket = 16;
  nps.smt = 2;
  nps.cores_per_l3 = 4;
  nps.numa_per_socket = 2;
  nps.name = "generic_nps2";
  std::vector<std::pair<std::string, topo::CpuTopology>> topologies;
  topologies.emplace_back("dual_epyc_7662", topo::make_dual_epyc_7662());
  topologies.emplace_back("dual_xeon_6230", topo::make_dual_xeon_6230());
  topologies.emplace_back("generic_nps2", topo::make_generic(nps));
  topologies.emplace_back("flat_32", topo::make_flat(32, core::gib(128)));
  return topologies;
}

// ---------------------------------------------------------------------------
// Function-level differential: random pools/sets, every selection primitive.

TEST(FastpathFunctions, MatchNaiveOnRandomSets) {
  for (const auto& [name, machine] : builder_topologies()) {
    const auto dm = topo::DistanceMatrixCache::shared(machine);
    const auto n = machine.cpu_count();
    core::SplitMix64 rng(1234);
    PlacementScratch scratch;
    for (int round = 0; round < 300; ++round) {
      topo::CpuSet current(n);
      topo::CpuSet free_cpus(n);
      for (std::size_t cpu = 0; cpu < n; ++cpu) {
        const double u = rng.uniform();
        if (u < 0.25) {
          current.set(static_cast<topo::CpuId>(cpu));
        } else if (u < 0.65) {
          free_cpus.set(static_cast<topo::CpuId>(cpu));
        }
      }
      const std::size_t count = 1 + rng.below(8);

      const auto fast_ext =
          choose_extension_cpus(*dm, free_cpus, current, count, scratch);
      const auto naive_ext = naive::choose_extension_cpus(*dm, free_cpus, current, count);
      ASSERT_EQ(fast_ext.has_value(), naive_ext.has_value()) << name;
      if (fast_ext) {
        ASSERT_EQ(*fast_ext, *naive_ext) << name << " extension round " << round;
      }

      const auto fast_seed =
          choose_seed_cpus(*dm, free_cpus, current, count, scratch);
      const auto naive_seed = naive::choose_seed_cpus(*dm, free_cpus, current, count);
      ASSERT_EQ(fast_seed.has_value(), naive_seed.has_value()) << name;
      if (fast_seed) {
        ASSERT_EQ(*fast_seed, *naive_seed) << name << " seed round " << round;
      }

      if (!current.empty()) {
        const std::size_t release = 1 + rng.below(current.count());
        const auto fast_rel = choose_release_cpus(*dm, current, release, scratch);
        const auto naive_rel = naive::choose_release_cpus(*dm, current, release);
        ASSERT_EQ(fast_rel, naive_rel) << name << " release round " << round;
      }
    }
  }
}

TEST(FastpathFunctions, SeedWithEmptyOccupiedMatchesNaive) {
  for (const auto& [name, machine] : builder_topologies()) {
    const auto dm = topo::DistanceMatrixCache::shared(machine);
    const topo::CpuSet none(machine.cpu_count());
    PlacementScratch scratch;
    const auto fast = choose_seed_cpus(*dm, machine.all_cpus(), none, 4, scratch);
    const auto ref = naive::choose_seed_cpus(*dm, machine.all_cpus(), none, 4);
    ASSERT_TRUE(fast.has_value() && ref.has_value()) << name;
    EXPECT_EQ(*fast, *ref) << name;
  }
}

// ---------------------------------------------------------------------------
// Manager-level differential churn: one manager driven by a randomized
// deploy/remove/retune stream. Before every operation the test snapshots
// the manager's state; afterwards it recomputes the one resize the
// operation made with the naive reference on that snapshot and requires
// the manager's result to match. Exactly one vNode changes per operation,
// so if every decision matches the naive one, the state stays the state a
// naive manager would reach — by induction as strong as running a twin
// manager on the reference engine.

struct ManagerSnapshot {
  topo::CpuSet free_cpus;
  topo::CpuSet occupied;
  std::map<VNodeId, topo::CpuSet> nodes;
};

ManagerSnapshot snapshot(const VNodeManager& manager) {
  ManagerSnapshot snap{manager.free_cpus(), manager.occupied_cpus(), {}};
  for (const auto& [id, node] : manager.vnodes()) {
    snap.nodes.emplace(id, node.cpus());
  }
  return snap;
}

/// One vNode went from `before` to `after` CPUs (nullptr: it did not exist
/// before / no longer exists): the change must be the naive reference's
/// seed, extension or release on the snapshot.
void expect_naive_resize(const topo::DistanceMatrix& dm, const ManagerSnapshot& snap,
                         const topo::CpuSet* before, const topo::CpuSet* after,
                         const std::string& context) {
  if (before == nullptr) {  // a new vNode: seeded far from the others
    const auto seed =
        naive::choose_seed_cpus(dm, snap.free_cpus, snap.occupied, after->count());
    ASSERT_TRUE(seed.has_value()) << context;
    ASSERT_EQ(*after, *seed) << context << " seed";
  } else if (after == nullptr) {  // the last VM left: every CPU returns
    ASSERT_TRUE(snap.occupied.contains(*before)) << context;
  } else if (after->contains(*before)) {
    const auto extension = naive::choose_extension_cpus(
        dm, snap.free_cpus, *before, after->count() - before->count());
    ASSERT_TRUE(extension.has_value()) << context;
    ASSERT_EQ(*after, *before | *extension) << context << " extension";
  } else {
    ASSERT_TRUE(before->contains(*after)) << context << " neither grew nor shrank";
    const auto released =
        naive::choose_release_cpus(dm, *before, before->count() - after->count());
    ASSERT_EQ(*after, *before - released) << context << " release";
  }
}

/// Compare the manager against the naive reference applied to `snap`, the
/// state before the operation: at most one vNode may have changed, its
/// change must be the naive decision, and the free and occupied sets must
/// follow the vNodes.
void expect_naive_step(const topo::DistanceMatrix& dm, const ManagerSnapshot& snap,
                       const VNodeManager& manager, const std::string& context) {
  std::size_t changed = 0;
  for (const auto& [id, cpus] : snap.nodes) {
    const auto it = manager.vnodes().find(id);
    const topo::CpuSet* after = it == manager.vnodes().end() ? nullptr : &it->second.cpus();
    if (after == nullptr || *after != cpus) {
      ++changed;
      ASSERT_NO_FATAL_FAILURE(expect_naive_resize(dm, snap, &cpus, after, context));
    }
  }
  for (const auto& [id, node] : manager.vnodes()) {
    if (!snap.nodes.contains(id)) {
      ++changed;
      ASSERT_NO_FATAL_FAILURE(expect_naive_resize(dm, snap, nullptr, &node.cpus(), context));
    }
  }
  ASSERT_LE(changed, 1U) << context;
  topo::CpuSet occupied(manager.topology().cpu_count());
  for (const auto& [id, node] : manager.vnodes()) {
    occupied |= node.cpus();
  }
  ASSERT_EQ(manager.occupied_cpus(), occupied) << context;
  ASSERT_EQ(manager.free_cpus(), manager.topology().all_cpus() - occupied) << context;
}

/// Every VM of the resized vNode is repinned to the node's whole CPU set,
/// in ascending VM order.
void expect_repins_match(const std::vector<PinUpdate>& repins, const VNode& node,
                         const std::string& context) {
  ASSERT_EQ(repins.size(), node.vm_ids().size()) << context;
  for (std::size_t i = 0; i < repins.size(); ++i) {
    ASSERT_EQ(repins[i].vm, node.vm_ids()[i]) << context;
    ASSERT_EQ(repins[i].cpus, node.cpus()) << context;
  }
}

class FastpathChurn
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(FastpathChurn, BitIdenticalAcrossEngines) {
  const auto [seed, pooling] = GetParam();
  for (const auto& [name, machine] : builder_topologies()) {
    const PoolingPolicy policy =
        pooling ? PoolingPolicy::kUpgrade : PoolingPolicy::kNone;
    VNodeManager manager(machine, policy, 1.0);
    const auto dm = topo::DistanceMatrixCache::shared(machine);
    core::SplitMix64 rng(seed);
    std::vector<VmId> alive;
    std::uint64_t next_id = 1;
    for (int event = 0; event < 3500; ++event) {
      const std::string context =
          name + " seed=" + std::to_string(seed) + " event=" + std::to_string(event);
      const ManagerSnapshot before = snapshot(manager);
      const double u = alive.empty() ? 0.0 : rng.uniform();
      if (u < 0.55) {
        VmSpec s;
        s.vcpus = static_cast<core::VcpuCount>(1 + rng.below(8));
        s.mem_mib = core::gib(static_cast<std::int64_t>(1 + rng.below(8)));
        s.level = OversubLevel{static_cast<std::uint8_t>(1 + rng.below(3))};
        const VmId id{next_id++};
        const bool predicted = manager.can_host(s);
        const auto result = manager.deploy(id, s);
        ASSERT_EQ(result.has_value(), predicted) << context;
        if (result) {
          const VNode& node = manager.vnodes().at(result->vnode);
          ASSERT_EQ(result->pooled, node.level() != s.level) << context;
          ASSERT_NO_FATAL_FAILURE(expect_repins_match(result->repins, node, context));
          alive.push_back(id);
        }
      } else if (u < 0.9) {
        const std::size_t pick = rng.below(alive.size());
        const VmId victim = alive[pick];
        const auto home = std::ranges::find_if(manager.vnodes(), [&](const auto& entry) {
          return std::ranges::binary_search(entry.second.vm_ids(), victim);
        });
        ASSERT_NE(home, manager.vnodes().end()) << context;
        const VNodeId node = home->first;
        const auto repins = manager.remove(victim);
        alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
        if (manager.vnodes().contains(node)) {
          ASSERT_NO_FATAL_FAILURE(
              expect_repins_match(repins, manager.vnodes().at(node), context));
        } else {
          ASSERT_TRUE(repins.empty()) << context;
        }
      } else if (!manager.vnodes().empty()) {
        // Retune a random vNode to a random effective level within contract.
        const std::size_t pick = rng.below(manager.vnodes().size());
        auto it = manager.vnodes().begin();
        std::advance(it, static_cast<std::ptrdiff_t>(pick));
        const VNodeId node = it->first;
        const auto contract = it->second.level();
        const OversubLevel effective{
            static_cast<std::uint8_t>(1 + rng.below(contract.ratio()))};
        const auto retuned = manager.retune(node, effective);
        if (retuned) {
          ASSERT_NO_FATAL_FAILURE(
              expect_repins_match(*retuned, manager.vnodes().at(node), context));
        } else {
          ASSERT_EQ(snapshot(manager).nodes, before.nodes) << context;
        }
      }
      ASSERT_NO_FATAL_FAILURE(expect_naive_step(*dm, before, manager, context));
      if (event % 100 == 0) {
        manager.check_invariants();
      }
    }
    manager.check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastpathChurn,
                         ::testing::Combine(::testing::Values(1, 7, 42),
                                            ::testing::Bool()));

}  // namespace
}  // namespace slackvm::local
