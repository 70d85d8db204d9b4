#include "sched/heat_index.hpp"

namespace slackvm::sched {

void HeatIndex::touch(HostId host) { dirty_.push_back(host); }

void HeatIndex::sync(std::span<const HostState> hosts) {
  for (const HostId id : dirty_) {
    if (id >= hosts.size()) {
      // Rolled-back opening: the touch outlived the host.
      erase(id);
      continue;
    }
    update(hosts[id]);
  }
  dirty_.clear();
}

void HeatIndex::rebuild(std::span<const HostState> hosts) {
  cached_.clear();
  buckets_.clear();
  dirty_.clear();
  indexed_ = 0;
  for (const HostState& host : hosts) {
    update(host);
  }
}

void HeatIndex::update(const HostState& host) {
  const HostId id = host.id();
  if (id >= cached_.size()) {
    cached_.resize(std::size_t{id} + 1);
  }
  Cached& cached = cached_[id];
  if (cached.present && cached.epoch == host.epoch()) {
    return;  // the bucket cannot have moved without an epoch bump
  }
  const Bucket bucket = host.heat_bucket();
  if (cached.present && cached.bucket == bucket) {
    cached.epoch = host.epoch();  // epoch moved, bucket did not: refile-free
    return;
  }
  if (cached.present) {
    const auto it = buckets_.find(cached.bucket);
    it->second.erase(id);
    if (it->second.empty()) {
      buckets_.erase(it);
    }
  } else {
    ++indexed_;
  }
  buckets_[bucket].insert(id);
  cached = Cached{host.epoch(), bucket, true};
}

void HeatIndex::erase(HostId host) {
  if (host >= cached_.size() || !cached_[host].present) {
    return;
  }
  const auto it = buckets_.find(cached_[host].bucket);
  it->second.erase(host);
  if (it->second.empty()) {
    buckets_.erase(it);
  }
  cached_[host].present = false;
  --indexed_;
}

std::vector<std::string> HeatIndex::check(std::span<const HostState> hosts) const {
  std::vector<std::string> out;
  if (indexed_ != hosts.size()) {
    out.push_back("heat index files " + std::to_string(indexed_) +
                  " hosts but cluster has " + std::to_string(hosts.size()));
  }
  std::size_t filed = 0;
  for (const auto& [bucket, ids] : buckets_) {
    filed += ids.size();
    for (const HostId id : ids) {
      if (id >= hosts.size()) {
        out.push_back("heat index bucket " + std::to_string(bucket) +
                      " files unknown host " + std::to_string(id));
        continue;
      }
      if (hosts[id].heat_bucket() != bucket) {
        out.push_back("heat index host " + std::to_string(id) + ": bucket " +
                      std::to_string(bucket) + " != " +
                      std::to_string(hosts[id].heat_bucket()));
      }
    }
  }
  if (filed != indexed_) {
    out.push_back("heat index size " + std::to_string(indexed_) +
                  " != filed entries " + std::to_string(filed));
  }
  return out;
}

}  // namespace slackvm::sched
