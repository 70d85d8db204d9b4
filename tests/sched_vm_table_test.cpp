// VmHostTable (the VCluster membership table) against std::unordered_map:
// random churn over adversarial ids, and deletions whose clusters wrap
// around the end of the slot array.
#include "sched/vm_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <unordered_map>
#include <vector>

namespace slackvm::sched {
namespace {

using Reference = std::unordered_map<std::uint64_t, HostId>;

void expect_same(const VmHostTable& table, const Reference& reference,
                 const std::vector<std::uint64_t>& probes) {
  ASSERT_EQ(table.size(), reference.size());
  for (const std::uint64_t id : probes) {
    const HostId* found = table.find(core::VmId{id});
    const auto it = reference.find(id);
    if (it == reference.end()) {
      ASSERT_EQ(found, nullptr) << "id " << id << " should be absent";
    } else {
      ASSERT_NE(found, nullptr) << "id " << id << " should be present";
      ASSERT_EQ(*found, it->second) << "id " << id;
    }
  }
}

TEST(VmHostTable, EmptyTableFindsNothing) {
  VmHostTable table;
  EXPECT_EQ(table.find(core::VmId{0}), nullptr);
  EXPECT_FALSE(table.erase(core::VmId{0}).has_value());
  EXPECT_EQ(table.size(), 0U);
}

TEST(VmHostTable, InsertRejectsDuplicatesAndEraseReturnsHost) {
  VmHostTable table;
  EXPECT_TRUE(table.insert(core::VmId{7}, 3));
  EXPECT_FALSE(table.insert(core::VmId{7}, 4));
  ASSERT_NE(table.find(core::VmId{7}), nullptr);
  EXPECT_EQ(*table.find(core::VmId{7}), 3U);
  *table.find(core::VmId{7}) = 5;  // VCluster::migrate rewrites in place
  EXPECT_EQ(table.erase(core::VmId{7}), std::optional<HostId>{5});
  EXPECT_FALSE(table.erase(core::VmId{7}).has_value());
  EXPECT_EQ(table.size(), 0U);
}

TEST(VmHostTable, ChurnMatchesUnorderedMapOnAdversarialIds) {
  // Ids a trace may well contain: the extremes, dense runs, and strides of
  // every capacity the table passes through (a weak hash would pile each
  // stride onto one home slot).
  std::vector<std::uint64_t> pool = {0, 1, std::numeric_limits<std::uint64_t>::max(),
                                     std::numeric_limits<std::uint64_t>::max() - 1};
  for (std::uint64_t k = 0; k < 300; ++k) {
    pool.push_back(k);
    pool.push_back(k * 16);
    pool.push_back(k * 1024);
    pool.push_back(k << 32);
    pool.push_back(std::numeric_limits<std::uint64_t>::max() - k * 64);
  }
  std::mt19937_64 rng(99);
  for (int k = 0; k < 300; ++k) {
    pool.push_back(rng());
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());

  VmHostTable table;
  Reference reference;
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t id = pool[rng() % pool.size()];
    // Bias toward inserts early and erases late, so the table both grows
    // through several capacities and drains back to empty.
    const bool insert = (rng() % 100) < (op < 100000 ? 60U : 35U);
    if (insert) {
      const auto host = static_cast<HostId>(rng() % 5000);
      const bool fresh = reference.emplace(id, host).second;
      ASSERT_EQ(table.insert(core::VmId{id}, host), fresh) << "op " << op;
    } else {
      const auto it = reference.find(id);
      const std::optional<HostId> erased = table.erase(core::VmId{id});
      if (it == reference.end()) {
        ASSERT_FALSE(erased.has_value()) << "op " << op;
      } else {
        ASSERT_EQ(erased, std::optional<HostId>{it->second}) << "op " << op;
        reference.erase(it);
      }
    }
    if (op % 997 == 0) {
      expect_same(table, reference, pool);
    }
  }
  expect_same(table, reference, pool);
  EXPECT_GE(table.capacity(), 1024U);
}

TEST(VmHostTable, DeletionsWrappingTheEndKeepEveryEntryReachable) {
  std::mt19937_64 rng(5);
  for (int round = 0; round < 200; ++round) {
    VmHostTable table;
    Reference reference;
    // Fill to a fixed capacity with unrelated ids, staying under the 3/4
    // growth threshold after the crafted ids below join.
    std::uint64_t next = std::uint64_t{1000000000} * (static_cast<std::uint64_t>(round) + 1);
    while (table.size() < 20) {
      const std::uint64_t id = next++;
      table.insert(core::VmId{id}, static_cast<HostId>(id % 97));
      reference.emplace(id, static_cast<HostId>(id % 97));
    }
    const std::size_t capacity = table.capacity();
    ASSERT_EQ(capacity, 32U);
    // Ids homed in the last two slots and the first one: their probe runs
    // cross the end of the array and interleave with wrapped entries.
    std::vector<std::uint64_t> crafted;
    for (std::uint64_t id = rng(); crafted.size() < 4; ++id) {
      const std::size_t h = VmHostTable::home(core::VmId{id}, capacity);
      if (h + 2 >= capacity || h == 0) {
        crafted.push_back(id);
      }
    }
    for (const std::uint64_t id : crafted) {
      if (reference.emplace(id, static_cast<HostId>(round)).second) {
        ASSERT_TRUE(table.insert(core::VmId{id}, static_cast<HostId>(round)));
      }
    }
    ASSERT_EQ(table.capacity(), capacity);
    std::vector<std::uint64_t> all;
    for (const auto& [id, host] : reference) {
      all.push_back(id);
    }
    std::sort(all.begin(), all.end());
    std::vector<std::uint64_t> order = all;
    std::shuffle(order.begin(), order.end(), rng);
    for (const std::uint64_t id : order) {
      ASSERT_EQ(table.erase(core::VmId{id}), std::optional<HostId>{reference.at(id)});
      reference.erase(id);
      expect_same(table, reference, all);
    }
    EXPECT_EQ(table.size(), 0U);
  }
}

}  // namespace
}  // namespace slackvm::sched
