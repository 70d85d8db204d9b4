// Incremental candidate index: O(log N) host selection for VCluster.
//
// The naive global scheduler (PlacementPolicy::select) rescans — and for
// score policies rescores — every open PM on every placement, so a trace
// replay costs O(VMs x hosts). Production placement services precompute
// feasibility structures instead (cf. Gudkov et al., "Efficient calculation
// of available space for multi-NUMA virtual machines"). This index is that
// fix for the repo's hottest path, built on three invariants:
//
//  1. *Epoch protocol* — HostState::epoch() is bumped by every add/remove,
//     so any cached per-host datum tagged with the epoch it was computed at
//     can be validated in O(1) without touching the host's VM map.
//  2. *Spec-class interning* — the workload catalogs emit a small closed
//     set of distinct (vcpus, mem_mib, level) shapes; each gets a dense
//     SpecClassId and its own candidate structure. UsageClass is excluded
//     on purpose: neither the capacity filter nor any in-tree Scorer reads
//     it, so two specs differing only in usage are placement-equivalent.
//  3. *Lazy deletion* — mutations only append the host id to a dirty log
//     (O(1)); each class replays the log tail on its next select and stale
//     heap entries (epoch mismatch) are discarded when they surface at the
//     top. Selection is therefore amortized O(dirty hosts + log N).
//
// The index answers exactly the built-in capacity-filtered question the
// naive policies answer; extra hard-constraint Filters are not indexed —
// VCluster bypasses the index entirely while one is installed.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/vm.hpp"
#include "sched/host_arena.hpp"
#include "sched/host_state.hpp"
#include "sched/scorer.hpp"

namespace slackvm::sched {

/// Dense id of a distinct (vcpus, mem_mib, level) request shape.
using SpecClassId = std::uint32_t;

class PlacementIndex {
 public:
  enum class Mode {
    kFirstFit,  ///< lowest feasible host id (ordered feasibility set)
    kScore,     ///< argmax cached score, ties to lowest id (lazy max-heap)
  };

  /// `scorer` is required (and only read) in kScore mode; it must be pure
  /// in (host state, spec) — true of every in-tree Scorer. The pointer is
  /// borrowed and must outlive the index.
  PlacementIndex(Mode mode, const Scorer* scorer);

  /// Record a host mutation (VM added/removed, host opened): O(1) append
  /// to the dirty log consumed by the next select(). Every epoch bump of a
  /// host owned by the cluster must be reported here, including no-op
  /// round-trips (a rejected migration removes and re-adds).
  void touch(HostId host);

  /// The host the matching naive policy scan would pick for `spec`, or
  /// nullopt when no open host admits it. `hosts` must be the cluster's
  /// live host vector (ids == indices). Amortized O(dirty + log N). When
  /// `arena` (the cluster's SoA mirror of the same hosts) is passed,
  /// feasibility checks stream over its columns instead of the host
  /// objects; the mirror is exact, so the selection is identical.
  [[nodiscard]] std::optional<HostId> select(std::span<const HostState> hosts,
                                             const core::VmSpec& spec,
                                             const HostArena* arena = nullptr);

  /// Replay the whole dirty log into every spec class and drop it — the
  /// compact_log body without its amortization threshold. VCluster batches
  /// this at shard barriers so per-event mutations stay O(1) appends while
  /// the log never outlives a barrier window.
  void sync_all(std::span<const HostState> hosts, const HostArena* arena = nullptr);

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] std::size_t spec_class_count() const noexcept { return ids_.size(); }

 private:
  /// Cached score heap entry; valid while hosts[host].epoch() == epoch.
  struct Entry {
    double score = 0.0;
    HostId host = 0;
    std::uint64_t epoch = 0;
  };

  struct Key {
    core::VcpuCount vcpus;
    core::MemMib mem_mib;
    std::uint8_t ratio;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept;
  };

  struct PerClass {
    core::VmSpec spec;        ///< representative shape (usage irrelevant)
    std::size_t cursor = 0;   ///< first unconsumed dirty-log entry
    std::set<HostId> feasible;                          ///< kFirstFit
    std::vector<Entry> heap;                            ///< kScore max-heap
    /// Newest epoch pushed per host id (kNotPushed: none); grown on demand.
    std::vector<std::uint64_t> pushed;
  };
  static constexpr std::uint64_t kNotPushed = ~std::uint64_t{0};

  /// Max-heap order matching the naive ScorePolicy scan: that scan keeps
  /// the first strictly-greater score while iterating ids in ascending
  /// order, so the winner is the lowest id among the maximal scores. Score
  /// doubles compare exactly — both paths run the identical Scorer on the
  /// identical HostState, so equal means bitwise equal.
  static bool entry_less(const Entry& a, const Entry& b) noexcept {
    return a.score != b.score ? a.score < b.score : a.host > b.host;
  }

  [[nodiscard]] PerClass& class_for(std::span<const HostState> hosts,
                                    const core::VmSpec& spec, const HostArena* arena);
  void sync(PerClass& pc, std::span<const HostState> hosts, const HostArena* arena);
  void update_host(PerClass& pc, const HostState& host, const HostArena* arena);
  void compact_log(std::span<const HostState> hosts, const HostArena* arena);
  void compact_heap(PerClass& pc, std::span<const HostState> hosts);

  Mode mode_;
  const Scorer* scorer_;
  std::unordered_map<Key, SpecClassId, KeyHash> ids_;
  std::vector<PerClass> classes_;
  std::vector<HostId> dirty_log_;
};

}  // namespace slackvm::sched
