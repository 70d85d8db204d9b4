#include "sched/vcluster.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace slackvm::sched {

VCluster::VCluster(std::string name, core::Resources host_config,
                   std::unique_ptr<PlacementPolicy> policy, double mem_oversub)
    : VCluster(std::move(name), FleetSpec::uniform(host_config), std::move(policy),
               mem_oversub) {}

VCluster::VCluster(std::string name, FleetSpec fleet,
                   std::unique_ptr<PlacementPolicy> policy, double mem_oversub)
    : name_(std::move(name)),
      fleet_(std::move(fleet)),
      mem_oversub_(mem_oversub),
      policy_(std::move(policy)) {
  SLACKVM_ASSERT(policy_ != nullptr);
}

HostId VCluster::place(core::VmId id, const core::VmSpec& spec) {
  const auto chosen = try_place(id, spec);
  if (!chosen) {
    SLACKVM_THROW("VCluster::place: cannot place VM (" + name_ + ")");
  }
  return *chosen;
}

void VCluster::reserve(std::size_t expected_vms) {
  // Hosts are bounded by live VMs but usually far fewer; cap the up-front
  // vector footprint — growth past the cap stays amortized either way.
  hosts_.reserve(std::min<std::size_t>(expected_vms, 4096));
  arena_.reserve(std::min<std::size_t>(expected_vms, 4096));
}

void VCluster::flush_index() {
  if (index_ != nullptr) {
    index_->sync_all(hosts_, &arena_);
  }
  if (heat_index_ != nullptr) {
    heat_index_->sync(hosts_);
  }
}

const HeatIndex* VCluster::synced_heat_index() const {
  if (!index_enabled_) {
    return nullptr;
  }
  if (heat_index_ == nullptr) {
    heat_index_ = std::make_unique<HeatIndex>();
    heat_index_->rebuild(hosts_);
  } else {
    heat_index_->sync(hosts_);
  }
  return heat_index_.get();
}

PlacementIndex* VCluster::active_index() {
  if (!index_enabled_ || filter_ != nullptr) {
    return nullptr;
  }
  if (index_ == nullptr) {
    switch (policy_->index_mode()) {
      case PlacementPolicy::IndexMode::kNone:
        return nullptr;
      case PlacementPolicy::IndexMode::kFirstFit:
        index_ = std::make_unique<PlacementIndex>(PlacementIndex::Mode::kFirstFit,
                                                  nullptr);
        break;
      case PlacementPolicy::IndexMode::kScore:
        index_ = std::make_unique<PlacementIndex>(PlacementIndex::Mode::kScore,
                                                  policy_->index_scorer());
        break;
    }
    // A fresh index seeds each spec class from live host state on first
    // use, so mid-run (re)builds need no backfill here.
  }
  return index_.get();
}

std::optional<HostId> VCluster::try_place(core::VmId id, const core::VmSpec& spec) {
  SLACKVM_ASSERT(!contains(id));
  PlacementIndex* index = active_index();
  auto chosen = index != nullptr ? index->select(hosts_, spec, &arena_)
                                 : policy_->select(hosts_, spec, filter_.get());
  if (!chosen) {
    // Open the next PM of the fleet cycle (within the host cap, if any —
    // elastic growth is the paper's protocol). A heterogeneous fleet may
    // open a PM the VM does not fit; keep opening (the PMs were provisioned
    // in cycle order anyway) until one fits, bounded by the cycle length.
    const std::size_t opened_before = hosts_.size();
    for (std::size_t attempt = 0; attempt <= fleet_.cycle().size(); ++attempt) {
      if (max_hosts_ && hosts_.size() >= *max_hosts_) {
        break;
      }
      const auto host_id = static_cast<HostId>(hosts_.size());
      hosts_.emplace_back(host_id, fleet_.config_for(host_id), mem_oversub_);
      arena_.push_host(hosts_.back());
      touch(host_id);
      if (hosts_.back().can_host(spec)) {
        chosen = host_id;
        break;
      }
    }
    if (!chosen) {
      // Roll back the empty PMs a failed attempt opened so a rejection
      // leaves the cluster unchanged.
      while (hosts_.size() > opened_before) {
        SLACKVM_ASSERT(hosts_.back().empty());
        hosts_.pop_back();
        arena_.pop_host();
      }
      return std::nullopt;
    }
  }
  hosts_[*chosen].add(id, spec);
  journal(MembershipDelta::Op::kAdd, *chosen, id, spec);
  note(*chosen);
  placements_.insert(id, *chosen);
  return *chosen;
}

void VCluster::remove(core::VmId id) {
  if (!try_remove(id)) {
    SLACKVM_THROW("VCluster::remove: unknown VM");
  }
}

bool VCluster::try_remove(core::VmId id) {
  const std::optional<HostId> host = placements_.erase(id);
  if (!host) {
    return false;
  }
  hosts_[*host].remove(id);
  journal(MembershipDelta::Op::kRemove, *host, id, core::VmSpec{});
  note(*host);
  return true;
}

bool VCluster::migrate(core::VmId vm, HostId to) {
  HostId* const placed = placements_.find(vm);
  if (placed == nullptr) {
    SLACKVM_THROW("VCluster::migrate: unknown VM");
  }
  if (to >= hosts_.size()) {
    SLACKVM_THROW("VCluster::migrate: unknown target host");
  }
  const HostId from = *placed;
  if (from == to) {
    return true;
  }
  // Look the spec up before detaching so a rejected move changes nothing.
  const core::VmSpec spec = hosts_[from].spec_of(vm);
  hosts_[from].remove(vm);
  if (!hosts_[to].can_host(spec)) {
    hosts_[from].add(vm, spec);
    // State is unchanged but the epoch advanced twice; the index must hear
    // about every bump or its cached entries for `from` would stay stale.
    note(from);
    return false;
  }
  hosts_[to].add(vm, spec);
  journal(MembershipDelta::Op::kRemove, from, vm, core::VmSpec{});
  journal(MembershipDelta::Op::kAdd, to, vm, spec);
  note(from);
  note(to);
  *placed = to;
  return true;
}

void VCluster::set_host_heat(HostId host, double heat, double bucket_width) {
  if (host >= hosts_.size()) {
    SLACKVM_THROW("VCluster::set_host_heat: unknown host");
  }
  const std::uint64_t before = hosts_[host].epoch();
  hosts_[host].set_heat(heat, bucket_width);
  // Within a bucket the epoch is unchanged and every cached index score is
  // still exact — refresh the arena mirror but spare the index a touch.
  arena_.refresh(hosts_[host]);
  if (hosts_[host].epoch() != before) {
    touch(host);
    bound_heat_log();
  }
}

double VCluster::host_heat(HostId host) const {
  if (host >= hosts_.size()) {
    SLACKVM_THROW("VCluster::host_heat: unknown host");
  }
  return hosts_[host].heat();
}

bool VCluster::try_reserve(HostId host, core::VmId vm, const core::VmSpec& spec) {
  if (host >= hosts_.size()) {
    SLACKVM_THROW("VCluster::try_reserve: unknown host");
  }
  if (!hosts_[host].can_host(spec)) {
    return false;  // not UP, or the double-booked capacity does not fit
  }
  hosts_[host].reserve(vm, spec);
  note(host);
  return true;
}

void VCluster::release_reservation(HostId host, core::VmId vm) {
  if (host >= hosts_.size()) {
    SLACKVM_THROW("VCluster::release_reservation: unknown host");
  }
  hosts_[host].release_reservation(vm);
  note(host);
}

void VCluster::commit_migration(core::VmId vm, HostId to) {
  HostId* const placed = placements_.find(vm);
  if (placed == nullptr) {
    SLACKVM_THROW("VCluster::commit_migration: unknown VM");
  }
  if (to >= hosts_.size() || !hosts_[to].has_reservation(vm)) {
    SLACKVM_THROW("VCluster::commit_migration: no reservation held");
  }
  const HostId from = *placed;
  SLACKVM_ASSERT(from != to);
  // The engine aborts flights before their destination leaves UP; a commit
  // onto a draining or failed host means a missed notification.
  SLACKVM_ASSERT(hosts_[to].phase() == HostPhase::kUp);
  const core::VmSpec spec = hosts_[from].spec_of(vm);
  // Swap reservation for residency inside one event: the freed booking is
  // exactly the VM's footprint, so the add can never fail, and no placement
  // can run between the release and the add.
  hosts_[to].release_reservation(vm);
  hosts_[from].remove(vm);
  SLACKVM_ASSERT(hosts_[to].fits(spec));
  hosts_[to].add(vm, spec);
  journal(MembershipDelta::Op::kRemove, from, vm, core::VmSpec{});
  journal(MembershipDelta::Op::kAdd, to, vm, spec);
  note(from);
  note(to);
  *placed = to;
}

HostPhase VCluster::host_phase(HostId host) const {
  if (host >= hosts_.size()) {
    SLACKVM_THROW("VCluster::host_phase: unknown host");
  }
  return hosts_[host].phase();
}

void VCluster::drain_host(HostId host) {
  if (host >= hosts_.size()) {
    SLACKVM_THROW("VCluster::drain_host: unknown host");
  }
  if (hosts_[host].phase() == HostPhase::kFailed) {
    SLACKVM_THROW("VCluster::drain_host: cannot drain a failed host");
  }
  hosts_[host].set_phase(HostPhase::kDraining);
  note(host);
}

std::vector<std::pair<core::VmId, core::VmSpec>> VCluster::fail_host(HostId host) {
  if (host >= hosts_.size()) {
    SLACKVM_THROW("VCluster::fail_host: unknown host");
  }
  HostState& state = hosts_[host];
  // Ascending VmId order: the evacuation engine re-places victims in this
  // order, so it must not depend on unordered_map iteration.
  std::vector<std::pair<core::VmId, core::VmSpec>> victims(state.vms().begin(),
                                                           state.vms().end());
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [vm, spec] : victims) {
    state.remove(vm);
    placements_.erase(vm);
  }
  state.set_phase(HostPhase::kFailed);
  // One wipe record covers the whole eviction batch for journal consumers.
  journal(MembershipDelta::Op::kWipe, host, core::VmId{0}, core::VmSpec{});
  // One dirty-log entry covers the whole eviction batch: sync() re-evaluates
  // the host at its latest epoch, and no select() can run mid-batch.
  note(host);
  return victims;
}

void VCluster::repair_host(HostId host) {
  if (host >= hosts_.size()) {
    SLACKVM_THROW("VCluster::repair_host: unknown host");
  }
  hosts_[host].set_phase(HostPhase::kUp);
  note(host);
}

std::size_t VCluster::migrate_off(HostId host) {
  if (host >= hosts_.size() || hosts_[host].phase() != HostPhase::kDraining) {
    SLACKVM_THROW("VCluster::migrate_off: host is not draining");
  }
  std::vector<core::VmId> vms;
  vms.reserve(hosts_[host].vm_count());
  for (const auto& [vm, spec] : hosts_[host].vms()) {
    vms.push_back(vm);
  }
  std::sort(vms.begin(), vms.end());
  std::size_t moved = 0;
  for (const core::VmId vm : vms) {
    const core::VmSpec spec = hosts_[host].spec_of(vm);
    // Detach, then re-place through the regular policy/index path; the
    // draining source cannot be re-chosen (can_host is false off-UP).
    hosts_[host].remove(vm);
    journal(MembershipDelta::Op::kRemove, host, vm, core::VmSpec{});
    placements_.erase(vm);
    note(host);
    if (try_place(vm, spec)) {
      ++moved;
    } else {
      // No feasible target: restore in place (capacity trivially holds) and
      // leave the VM for a later fail_host eviction or natural departure.
      hosts_[host].add(vm, spec);
      journal(MembershipDelta::Op::kAdd, host, vm, spec);
      placements_.insert(vm, host);
      note(host);
    }
  }
  return moved;
}

HostId VCluster::host_of(core::VmId vm) const {
  const HostId* const host = placements_.find(vm);
  if (host == nullptr) {
    SLACKVM_THROW("VCluster::host_of: unknown VM");
  }
  return *host;
}


}  // namespace slackvm::sched
