// Quantized-heat bucket index: O(1) hottest/coolest candidate streams for
// the polluter pass.
//
// Rebalancer::plan_interference needs, per eviction, the hottest untried UP
// host and the coolest strictly-cooler host that fits the victim. A plain
// scan answers both in O(hosts) per eviction. This index keeps
// every host filed under its quantized heat bucket (HostState::heat_bucket)
// in an ordered map of ordered id sets, so the planner streams buckets from
// either end and stops at the first bucket that yields an eligible host —
// raw heats within a bucket span [b*w, (b+1)*w), so no host in a farther
// bucket can beat a candidate found in a nearer one, and equal heats always
// share a bucket (ties stay id-ordered).
//
// Maintenance rides the exact epoch + dirty-log protocol of
// sched/placement_index.hpp:
//
//  1. every epoch bump of a host is reported through touch() — an O(1)
//     append to a dirty log (VCluster funnels add/remove/phase/heat here,
//     and set_heat bumps the epoch precisely on bucket crossings);
//  2. sync() replays the log tail: a host whose cached epoch still matches
//     is untouched (its bucket cannot have moved), otherwise it is refiled;
//  3. dirty ids >= hosts.size() are rolled-back openings and are dropped,
//     exactly like PlacementIndex::sync.
//
// Soundness of the early exit needs one bucket width for every filed host:
// VCluster::set_host_heat rejects a width that differs from the cluster's
// first one, so a cluster's index never mixes widths. The polluter pass is
// differentially tested against an O(hosts) reference scan kept in
// tests/reference/.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "sched/host_state.hpp"

namespace slackvm::sched {

class HeatIndex {
 public:
  using Bucket = std::uint32_t;

  /// Record a host epoch bump: O(1) append to the dirty log consumed by the
  /// next sync(). Every epoch bump must be reported, including no-op
  /// round-trips.
  void touch(HostId host);

  /// Replay the dirty log: refile hosts whose quantized bucket crossed since
  /// their last sync, drop rolled-back openings (ids >= hosts.size()).
  /// Amortized O(dirty).
  void sync(std::span<const HostState> hosts);

  /// Seed (or re-seed) from live state, discarding everything cached.
  void rebuild(std::span<const HostState> hosts);

  /// Bucket -> ascending host ids; exact after sync(). Ascending map order
  /// == coolest first; reverse iteration == hottest first.
  [[nodiscard]] const std::map<Bucket, std::set<HostId>>& buckets() const noexcept {
    return buckets_;
  }

  /// Hosts currently filed.
  [[nodiscard]] std::size_t size() const noexcept { return indexed_; }

  /// Unconsumed dirty-log entries (VCluster bounds this between passes).
  [[nodiscard]] std::size_t dirty_size() const noexcept { return dirty_.size(); }

  /// Audit against the authoritative rows (call after sync): every host
  /// filed exactly once under its current bucket. One line per divergence.
  [[nodiscard]] std::vector<std::string> check(
      std::span<const HostState> hosts) const;

 private:
  /// Valid while hosts[host].epoch() == epoch (the set_heat contract: the
  /// bucket cannot move without an epoch bump).
  struct Cached {
    std::uint64_t epoch = 0;
    Bucket bucket = 0;
    bool present = false;
  };

  void update(const HostState& host);
  void erase(HostId host);

  std::vector<Cached> cached_;
  std::map<Bucket, std::set<HostId>> buckets_;
  std::vector<HostId> dirty_;
  std::size_t indexed_ = 0;
};

}  // namespace slackvm::sched
