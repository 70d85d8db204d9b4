#include "sched/vm_table.hpp"

#include <utility>

namespace slackvm::sched {

std::size_t VmHostTable::probe(core::VmId vm) const noexcept {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(vm, slots_.size());
  while (slots_[i].used != 0 && slots_[i].vm != vm) {
    i = (i + 1) & mask;
  }
  return i;
}

const HostId* VmHostTable::find(core::VmId vm) const noexcept {
  if (size_ == 0) {
    return nullptr;
  }
  const Slot& slot = slots_[probe(vm)];
  return slot.used != 0 ? &slot.host : nullptr;
}

bool VmHostTable::insert(core::VmId vm, HostId host) {
  if (4 * (size_ + 1) > 3 * slots_.size()) {
    grow();
  }
  Slot& slot = slots_[probe(vm)];
  if (slot.used != 0) {
    return false;
  }
  slot = Slot{vm, host, 1};
  ++size_;
  return true;
}

std::optional<HostId> VmHostTable::erase(core::VmId vm) noexcept {
  if (size_ == 0) {
    return std::nullopt;
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t hole = probe(vm);
  if (slots_[hole].used == 0) {
    return std::nullopt;
  }
  const HostId host = slots_[hole].host;
  --size_;
  // Backward shift: walk the cluster after the hole and pull back every
  // entry whose home does not lie cyclically in (hole, next], so each
  // remaining entry stays reachable from its home without tombstones.
  for (std::size_t next = (hole + 1) & mask; slots_[next].used != 0;
       next = (next + 1) & mask) {
    const std::size_t h = home(slots_[next].vm, slots_.size());
    const bool stays = hole < next ? (hole < h && h <= next) : (hole < h || h <= next);
    if (!stays) {
      slots_[hole] = slots_[next];
      hole = next;
    }
  }
  slots_[hole].used = 0;
  return host;
}

void VmHostTable::grow() {
  std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(
                                                    slots_.empty() ? 16 : 2 * slots_.size()));
  for (const Slot& slot : old) {
    if (slot.used != 0) {
      slots_[probe(slot.vm)] = slot;
    }
  }
}

}  // namespace slackvm::sched
