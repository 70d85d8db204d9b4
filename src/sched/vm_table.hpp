// VmId -> HostId membership table of a VCluster: open addressing with
// linear probing, one probe sequence per lookup, insert or erase.
//
// VM ids come from user traces, so ids may be clustered, strided or
// adversarial (0, UINT64_MAX, multiples of the capacity); every id goes
// through a full-avalanche 64-bit mixer before it picks a home slot.
// Erasure shifts the following cluster back instead of leaving tombstones,
// so probe lengths depend only on the live population. The table grows by
// doubling when live entries pass 3/4 of the slots and never shrinks; it is
// sized by live VMs alone, not by a trace's row count. Slots are 16 bytes.
// Iteration is not offered: nothing may depend on slot order.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/vm.hpp"
#include "sched/host_state.hpp"

namespace slackvm::sched {

/// Full-avalanche 64-bit mixer (the SplitMix64 finalizer).
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

class VmHostTable {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Slot count: zero or a power of two.
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Host of `vm`, or nullptr when absent. The pointer stays valid until
  /// the next insert or erase.
  [[nodiscard]] const HostId* find(core::VmId vm) const noexcept;
  [[nodiscard]] HostId* find(core::VmId vm) noexcept {
    return const_cast<HostId*>(static_cast<const VmHostTable&>(*this).find(vm));
  }

  /// Add `vm` -> `host`; returns false (table unchanged) when `vm` is
  /// already present.
  bool insert(core::VmId vm, HostId host);

  /// Remove `vm` and return the host it mapped to, or nullopt when absent.
  std::optional<HostId> erase(core::VmId vm) noexcept;

  /// Home slot of `vm` in a table of `capacity` slots (a power of two).
  [[nodiscard]] static std::size_t home(core::VmId vm, std::size_t capacity) noexcept {
    return static_cast<std::size_t>(mix64(vm.value)) & (capacity - 1);
  }

 private:
  struct Slot {
    core::VmId vm;
    HostId host = 0;
    std::uint32_t used = 0;
  };

  /// Slot holding `vm`, or the empty slot ending its probe sequence.
  [[nodiscard]] std::size_t probe(core::VmId vm) const noexcept;
  void grow();

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace slackvm::sched
