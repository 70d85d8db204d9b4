// Global-scheduler view of one PM.
//
// This is the fast accounting model used for cluster-scale simulation: it
// tracks, per oversubscription level, the vCPUs committed on the host, and
// derives the physical-core allocation with the same integer-core rule as
// the local scheduler (one vNode per level, `ceil(vcpus / ratio)` cores).
// tests/integration_local_sched_test.cpp cross-checks that HostState accepts
// a VM if and only if a real VNodeManager on the same hardware does.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "core/oversub.hpp"
#include "core/resources.hpp"
#include "core/vm.hpp"

namespace slackvm::sched {

using HostId = std::uint32_t;

/// Availability lifecycle of a PM (sim/fault.hpp drives the transitions):
///
///   kUp ──drain──▶ kDraining ──fail──▶ kFailed ──repair──▶ kUp
///    └────────────────fail─────────────────▲   (◀─repair── kDraining too)
///
/// kUp admits placements; kDraining stops admission while existing VMs are
/// migrated off (or simply depart); kFailed holds no VMs at all — failing a
/// host evicts everything it ran (VCluster::fail_host). "Repaired" is not a
/// distinct state: a repaired host is kUp again.
enum class HostPhase : std::uint8_t { kUp, kDraining, kFailed };

[[nodiscard]] const char* to_string(HostPhase phase) noexcept;

class HostState {
 public:
  /// `mem_oversub` >= 1 enables limited memory oversubscription (paper
  /// footnote 2: OpenStack defaults to 16:1 CPU and 1.5:1 DRAM): committed
  /// memory may reach config.mem_mib * mem_oversub.
  HostState(HostId id, core::Resources config, double mem_oversub = 1.0);

  [[nodiscard]] HostId id() const noexcept { return id_; }
  [[nodiscard]] const core::Resources& config() const noexcept { return config_; }
  [[nodiscard]] double mem_oversub() const noexcept { return mem_oversub_; }

  /// Modification epoch: bumped by every add()/remove() *and* every phase
  /// transition. Cached derived state (sched::PlacementIndex
  /// score/feasibility entries) is valid exactly as long as the epoch it was
  /// computed at still matches. Phase changes must participate: an empty
  /// host that fails and repairs without the epoch advancing would leave a
  /// "valid" index entry pointing at a host the naive scan rejects
  /// (regression-tested in tests/sim_fault_test.cpp).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  [[nodiscard]] HostPhase phase() const noexcept { return phase_; }

  /// Transition the availability phase (no-op when already there). Bumps the
  /// epoch so every PlacementIndex entry cached for the old phase is
  /// invalidated. Transition legality is enforced by VCluster.
  void set_phase(HostPhase phase) noexcept {
    if (phase_ != phase) {
      phase_ = phase;
      ++epoch_;
    }
  }

  // --- interference heat (sim/usage_monitor.hpp feeds it) ------------------
  //
  // `heat` is an EWMA of runnable vCPU demand per physical core — the q that
  // perf::ContentionModel maps to response inflation. The raw value moves a
  // little on every sample; caching layers must not see every wiggle, so the
  // value the scorers read is *quantized*: bucket = floor(heat / width), and
  // the epoch advances only when the bucket changes (same contract as
  // set_phase above). Within a bucket every cached PlacementIndex entry
  // stays exact; a crossing invalidates them all.

  /// Update the heat EWMA. Negative inputs clamp to zero; `bucket_width <= 0`
  /// disables quantization (bucket pinned at 0, epoch never bumped by heat).
  void set_heat(double heat, double bucket_width) noexcept {
    heat_ = std::max(heat, 0.0);
    heat_bucket_width_ = bucket_width;
    const std::uint32_t bucket =
        bucket_width > 0.0 ? static_cast<std::uint32_t>(heat_ / bucket_width) : 0;
    if (heat_bucket_ != bucket) {
      heat_bucket_ = bucket;
      ++epoch_;
    }
  }

  /// Raw EWMA heat (runnable demand / physical cores).
  [[nodiscard]] double heat() const noexcept { return heat_; }

  /// Quantization bucket index of the current heat.
  [[nodiscard]] std::uint32_t heat_bucket() const noexcept { return heat_bucket_; }

  [[nodiscard]] double heat_bucket_width() const noexcept {
    return heat_bucket_width_;
  }

  /// The heat value scorers are allowed to read: the lower edge of the
  /// current bucket. Changes only when the epoch does, which is what keeps
  /// index-cached scores valid (sched/placement_index.hpp purity contract).
  [[nodiscard]] double quantized_heat() const noexcept {
    return static_cast<double>(heat_bucket_) * heat_bucket_width_;
  }

  /// Memory admission bound: config.mem_mib * mem_oversub.
  [[nodiscard]] core::MemMib mem_capacity() const noexcept {
    return static_cast<core::MemMib>(static_cast<double>(config_.mem_mib) *
                                     mem_oversub_);
  }

  /// Physical cores consumed by the per-level vNodes plus committed memory.
  /// This is Algorithm 2's allocPM.
  [[nodiscard]] core::Resources alloc() const noexcept {
    return core::Resources{alloc_cores_, committed_mem_};
  }

  /// Unallocated resources (config - alloc); memory clamps at zero when
  /// oversubscribed beyond the physical configuration.
  [[nodiscard]] core::Resources unallocated() const noexcept {
    return core::Resources{config_.cores - alloc_cores_,
                           std::max<core::MemMib>(0, config_.mem_mib - committed_mem_)};
  }

  /// Physical cores the host would allocate if `spec` were added.
  [[nodiscard]] core::CoreCount cores_with(const core::VmSpec& spec) const noexcept;

  /// Pure capacity check: both dimensions fit after adding `spec`,
  /// regardless of the availability phase.
  [[nodiscard]] bool fits(const core::VmSpec& spec) const noexcept;

  /// Admission filter: the host is UP and `spec` fits. Draining and failed
  /// hosts admit nothing, on the naive and the indexed path alike.
  [[nodiscard]] bool can_host(const core::VmSpec& spec) const noexcept {
    return phase_ == HostPhase::kUp && fits(spec);
  }

  /// Commit a VM. Callers must have checked capacity (fits); admission by
  /// phase is the placement path's responsibility — a draining host must
  /// still accept the restore of a VM whose evacuation found no target.
  void add(core::VmId id, const core::VmSpec& spec);

  /// Release a VM; throws for unknown ids.
  void remove(core::VmId id);

  // --- migration reservations (sim/migration.hpp holds them in flight) -----
  //
  // A reservation double-books the capacity of a VM that is still running on
  // its *source* host while its pre-copy is in flight: the spec participates
  // in every accounting column (per-level vCPUs, committed memory, alloc
  // cores, epoch) exactly like a hosted VM, so fits()/can_host(), the
  // placement index and the HostArena aggregates all see the booked space —
  // but the VM is not in vms() and the host does not count as non-empty.

  /// Book `spec` for an in-flight migration. Callers must have checked
  /// capacity (fits); throws when `id` is already reserved here.
  void reserve(core::VmId id, const core::VmSpec& spec);

  /// Release a reservation booked earlier; throws for unknown ids.
  void release_reservation(core::VmId id);

  [[nodiscard]] std::size_t reservation_count() const noexcept {
    return reservations_.size();
  }

  [[nodiscard]] bool has_reservation(core::VmId id) const noexcept {
    return reservations_.contains(id);
  }

  /// All in-flight reservations (unordered).
  [[nodiscard]] const std::unordered_map<core::VmId, core::VmSpec>& reservations()
      const noexcept {
    return reservations_;
  }

  [[nodiscard]] std::size_t vm_count() const noexcept { return vms_.size(); }
  [[nodiscard]] bool empty() const noexcept { return vms_.empty(); }

  /// vCPUs committed at a given level (0 when the level is absent).
  [[nodiscard]] core::VcpuCount committed_vcpus(core::OversubLevel level) const noexcept;

  /// Levels currently present with a non-zero commitment.
  [[nodiscard]] std::map<core::OversubLevel, core::VcpuCount> level_commitments() const;

  /// Spec of a hosted VM; throws for unknown ids.
  [[nodiscard]] const core::VmSpec& spec_of(core::VmId id) const;

  /// All hosted VMs (unordered). The iteration order still carries weight:
  /// sim::sample_usage sums host demand in this order, so the floating-point
  /// usage report (and the stored benchmark digests built from it) depends
  /// on this container's type, hash and insertion sequence. Keep vms_ a
  /// std::unordered_map filled the same way until a change that regenerates
  /// those digests moves sample_usage to ascending-VmId summation.
  [[nodiscard]] const std::unordered_map<core::VmId, core::VmSpec>& vms() const noexcept {
    return vms_;
  }

 private:
  void recompute_alloc_cores() noexcept;

  HostId id_;
  core::Resources config_;
  double mem_oversub_ = 1.0;
  HostPhase phase_ = HostPhase::kUp;
  // vCPUs committed per level ratio (index = ratio, 0 unused).
  std::array<core::VcpuCount, core::OversubLevel::kMaxRatio + 1> vcpus_per_level_{};
  core::CoreCount alloc_cores_ = 0;
  core::MemMib committed_mem_ = 0;
  double heat_ = 0.0;
  double heat_bucket_width_ = 0.0;
  std::uint32_t heat_bucket_ = 0;
  std::uint64_t epoch_ = 0;
  std::unordered_map<core::VmId, core::VmSpec> vms_;
  /// In-flight migration reservations; booked in the accounting columns
  /// above but not in vms_.
  std::unordered_map<core::VmId, core::VmSpec> reservations_;
};

}  // namespace slackvm::sched
