#include "sched/placement_index.hpp"

#include <algorithm>

#include "core/error.hpp"

namespace slackvm::sched {

std::size_t PlacementIndex::KeyHash::operator()(const Key& k) const noexcept {
  std::uint64_t h = k.vcpus;
  h = h * 1000003ULL ^ static_cast<std::uint64_t>(k.mem_mib);
  h = h * 1000003ULL ^ static_cast<std::uint64_t>(k.ratio);
  return std::hash<std::uint64_t>{}(h);
}

PlacementIndex::PlacementIndex(Mode mode, const Scorer* scorer)
    : mode_(mode), scorer_(scorer) {
  SLACKVM_ASSERT(mode_ != Mode::kScore || scorer_ != nullptr);
}

void PlacementIndex::touch(HostId host) { dirty_log_.push_back(host); }

std::optional<HostId> PlacementIndex::select(std::span<const HostState> hosts,
                                             const core::VmSpec& spec,
                                             const HostArena* arena) {
  compact_log(hosts, arena);
  PerClass& pc = class_for(hosts, spec, arena);
  sync(pc, hosts, arena);

  if (mode_ == Mode::kFirstFit) {
    if (pc.feasible.empty()) {
      return std::nullopt;
    }
    // The set is exact after sync(): lowest feasible id == First-Fit.
    const HostId chosen = *pc.feasible.begin();
    SLACKVM_ASSERT(chosen < hosts.size());
    return chosen;
  }

  // kScore: pop stale entries (the host changed since the push; sync()
  // already pushed a fresh entry if it is still feasible). A fresh top is
  // feasible by construction — only feasible hosts are ever pushed.
  while (!pc.heap.empty()) {
    const Entry top = pc.heap.front();
    if (top.host < hosts.size() && hosts[top.host].epoch() == top.epoch) {
      return top.host;
    }
    std::pop_heap(pc.heap.begin(), pc.heap.end(), entry_less);
    pc.heap.pop_back();
  }
  return std::nullopt;
}

void PlacementIndex::sync_all(std::span<const HostState> hosts,
                              const HostArena* arena) {
  for (PerClass& pc : classes_) {
    sync(pc, hosts, arena);
    pc.cursor = 0;
  }
  dirty_log_.clear();
}

PlacementIndex::PerClass& PlacementIndex::class_for(std::span<const HostState> hosts,
                                                    const core::VmSpec& spec,
                                                    const HostArena* arena) {
  const Key key{spec.vcpus, spec.mem_mib, spec.level.ratio()};
  const auto [it, inserted] =
      ids_.try_emplace(key, static_cast<SpecClassId>(classes_.size()));
  if (inserted) {
    // New shape: one full scan seeds its structure; afterwards only dirty
    // hosts are ever revisited (cursor starts at the log's current end).
    classes_.emplace_back();
    PerClass& pc = classes_.back();
    pc.spec = spec;
    pc.cursor = dirty_log_.size();
    for (const HostState& host : hosts) {
      update_host(pc, host, arena);
    }
  }
  return classes_[it->second];
}

void PlacementIndex::sync(PerClass& pc, std::span<const HostState> hosts,
                          const HostArena* arena) {
  while (pc.cursor < dirty_log_.size()) {
    const HostId host = dirty_log_[pc.cursor++];
    // Ids at or past the live range belong to rolled-back host openings
    // (VCluster::try_place); if the id is ever reopened a fresh log entry
    // re-evaluates it from its live state.
    if (host < hosts.size()) {
      update_host(pc, hosts[host], arena);
    }
  }
  if (mode_ == Mode::kScore) {
    compact_heap(pc, hosts);
  }
}

void PlacementIndex::update_host(PerClass& pc, const HostState& host,
                                 const HostArena* arena) {
  // The arena mirrors the host exactly, so both branches answer the same;
  // the columnar one streams linearly during class seeding and batch syncs.
  const bool feasible =
      arena != nullptr ? arena->can_host(host.id(), pc.spec) : host.can_host(pc.spec);
  if (mode_ == Mode::kFirstFit) {
    if (feasible) {
      pc.feasible.insert(host.id());
    } else {
      pc.feasible.erase(host.id());
    }
    return;
  }
  if (!feasible) {
    // No push: any older entries are stale (their epoch no longer matches)
    // and get dropped when they surface at the heap top.
    return;
  }
  if (pc.pushed.size() <= host.id()) {
    pc.pushed.resize(std::size_t{host.id()} + 1, kNotPushed);
  }
  if (pc.pushed[host.id()] == host.epoch()) {
    return;  // an entry for this exact state is already in the heap
  }
  pc.pushed[host.id()] = host.epoch();
  pc.heap.push_back(Entry{scorer_->score(host, pc.spec), host.id(), host.epoch()});
  std::push_heap(pc.heap.begin(), pc.heap.end(), entry_less);
}

void PlacementIndex::compact_log(std::span<const HostState> hosts,
                                 const HostArena* arena) {
  // Mutations append forever; once the log dwarfs the fleet, bring every
  // class up to date and drop it. Amortized O(classes) per mutation.
  if (dirty_log_.size() < 1024 || dirty_log_.size() < 8 * hosts.size()) {
    return;
  }
  sync_all(hosts, arena);
}

void PlacementIndex::compact_heap(PerClass& pc, std::span<const HostState> hosts) {
  // Lazy deletion only removes stale entries that reach the top; bound the
  // bottom garbage by rebuilding once stale entries dominate.
  if (pc.heap.size() <= 64 || pc.heap.size() <= 4 * hosts.size()) {
    return;
  }
  std::erase_if(pc.heap, [&hosts](const Entry& e) {
    return e.host >= hosts.size() || hosts[e.host].epoch() != e.epoch;
  });
  std::make_heap(pc.heap.begin(), pc.heap.end(), entry_less);
}

}  // namespace slackvm::sched
