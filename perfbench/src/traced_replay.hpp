// The traced run: sim::replay's loop mirrored call for call from the
// benchmark's own code, with every call into a layer's public function
// wrapped in a Tracer span. The mirror must stay a structural copy of
// src/sim/replay.cpp — the benchmark proves it on every traced run by
// checking that the traced RunResult digest equals the untraced one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/datacenter.hpp"
#include "sim/event_source.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/replay.hpp"
#include "sim/usage_monitor.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Counts and per-call latencies gathered at the span boundaries.
struct TraceCounters {
  std::vector<std::int64_t> place_ns;        ///< one per Datacenter::deploy
  std::size_t place_opened = 0;              ///< deploys that opened a PM
  std::vector<std::int64_t> remove_ns;       ///< one per Datacenter::remove
  std::vector<std::int64_t> consolidate_ns;  ///< one per Rebalancer::plan
  std::size_t ingest_rows = 0;               ///< rows pulled from the source
  std::uint64_t queue_events = 0;            ///< EventQueue::step calls
  std::size_t peak_pending = 0;              ///< deepest EventQueue seen
  std::size_t heat_refreshes = 0;            ///< hosts refreshed by heat ticks
  std::size_t heat_rebuilds = 0;             ///< DemandCache term-list rebuilds
  std::size_t plan_moves = 0;                ///< migrations planned (both passes)
};

/// EventSource decorator charging every pull to the ingest layer, for
/// engines whose loop the benchmark cannot mirror (sim::replay_sharded). It
/// also counts demux stops — a peeked row left unconsumed and peeked again —
/// so a sharded replay's barrier windows are visible from outside.
class TimedSource final : public slackvm::sim::EventSource {
 public:
  TimedSource(slackvm::sim::EventSource& inner, Tracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  [[nodiscard]] const slackvm::core::VmInstance* peek() override;
  void advance() override;
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return inner_->size_hint();
  }
  [[nodiscard]] std::optional<slackvm::core::SimTime> horizon_hint() const override {
    return inner_->horizon_hint();
  }

  [[nodiscard]] std::size_t stops() const noexcept { return stops_; }

 private:
  slackvm::sim::EventSource* inner_;
  Tracer* tracer_;
  std::size_t stops_ = 0;
  bool holding_row_ = false;  ///< last call was a peek that returned a row
};

/// sim::replay(dc, source, rebalance, usage_monitor, faults), traced.
[[nodiscard]] slackvm::sim::RunResult traced_replay(
    Tracer& tracer, TraceCounters& counters, slackvm::sim::Datacenter& dc,
    slackvm::sim::EventSource& source,
    const std::optional<slackvm::sim::RebalanceOptions>& rebalance = std::nullopt,
    slackvm::sim::UsageMonitor* usage_monitor = nullptr,
    const slackvm::sim::FaultConfig* faults = nullptr);

}  // namespace perfbench
