// Engineering micro-benchmarks (google-benchmark): Algorithm 1 distance
// computation, distance-matrix construction/interning, and local-scheduler
// vNode resize costs on the paper's dual-EPYC testbed topology.
//
// Two entry points:
//   micro_topology [google-benchmark flags]      # the BM_* suites below
//   micro_topology --json [--ops N]              # machine-readable local-
//                                                # scheduler churn and naive-
//                                                # vs-fast CPU selection
//                                                # (BENCH_micro_topology.json)
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/rng.hpp"
#include "local/placement.hpp"
#include "local/vnode_manager.hpp"
#include "reference/local_naive.hpp"
#include "topology/builders.hpp"
#include "topology/distance.hpp"

// ---------------------------------------------------------------------------
// Global allocation probe: counts every operator-new so the --json mode can
// demonstrate that the fast selection path allocates a constant amount per
// call (the returned CpuSet) — i.e. zero allocations in the grow/release
// inner loops — while the naive reference allocates per inner iteration.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC's mismatched-new-delete heuristic cannot see that this operator new
// pairs with the matching free-based operator delete below.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* ptr = std::malloc(size)) {
    return ptr;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

#pragma GCC diagnostic pop

namespace {

using namespace slackvm;

void BM_CoreDistance(benchmark::State& state) {
  const topo::CpuTopology epyc = topo::make_dual_epyc_7662();
  core::SplitMix64 rng(1);
  for (auto _ : state) {
    const auto a = static_cast<topo::CpuId>(rng.below(epyc.cpu_count()));
    const auto b = static_cast<topo::CpuId>(rng.below(epyc.cpu_count()));
    benchmark::DoNotOptimize(topo::core_distance(epyc, a, b));
  }
}
BENCHMARK(BM_CoreDistance);

void BM_DistanceMatrixBuild(benchmark::State& state) {
  const topo::CpuTopology epyc = topo::make_dual_epyc_7662();
  for (auto _ : state) {
    const topo::DistanceMatrix dm(epyc);
    benchmark::DoNotOptimize(dm(0, 255));
  }
}
BENCHMARK(BM_DistanceMatrixBuild);

void BM_DistanceMatrixShared(benchmark::State& state) {
  // Interned lookup: what every VNodeManager construction pays after the
  // first build of a hardware model.
  const topo::CpuTopology epyc = topo::make_dual_epyc_7662();
  (void)topo::DistanceMatrixCache::shared(epyc);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::DistanceMatrixCache::shared(epyc));
  }
}
BENCHMARK(BM_DistanceMatrixShared);

void BM_VNodeDeployRemove(benchmark::State& state) {
  // One deploy + one remove at steady state on a loaded dual-EPYC PM.
  const topo::CpuTopology epyc = topo::make_dual_epyc_7662();
  local::VNodeManager manager(epyc, local::PoolingPolicy::kNone, 1.0);
  core::SplitMix64 rng(2);
  std::uint64_t id = 1;
  core::VmSpec spec;
  spec.vcpus = 4;
  spec.mem_mib = core::gib(8);
  // Load three levels to ~60%.
  for (int i = 0; i < 30; ++i) {
    spec.level = core::OversubLevel{static_cast<std::uint8_t>(1 + i % 3)};
    (void)manager.deploy(core::VmId{id++}, spec);
  }
  for (auto _ : state) {
    spec.level = core::OversubLevel{static_cast<std::uint8_t>(1 + rng.below(3))};
    const core::VmId vm{id++};
    if (manager.deploy(vm, spec)) {
      manager.remove(vm);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_VNodeDeployRemove);

void BM_SeedSelection(benchmark::State& state) {
  const topo::CpuTopology epyc = topo::make_dual_epyc_7662();
  const auto dm = topo::DistanceMatrixCache::shared(epyc);
  topo::CpuSet occupied(epyc.cpu_count());
  for (topo::CpuId cpu = 0; cpu < 64; ++cpu) {
    occupied.set(cpu);
  }
  topo::CpuSet free_cpus = epyc.all_cpus();
  free_cpus -= occupied;
  local::PlacementScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        local::choose_seed_cpus(*dm, free_cpus, occupied, 8, scratch));
  }
}
BENCHMARK(BM_SeedSelection);

// ---------------------------------------------------------------------------
// --json mode: deploy+remove churn through the full local scheduler and
// naive-vs-fast CPU selection, per builder topology, plus the allocation
// probe and the matrix-interning stats (BENCH_micro_topology.json).

using Clock = std::chrono::steady_clock;

core::VmSpec churn_spec(core::SplitMix64& rng) {
  core::VmSpec spec;
  spec.vcpus = static_cast<core::VcpuCount>(1 + rng.below(8));
  spec.mem_mib = core::gib(static_cast<std::int64_t>(1 + rng.below(4)));
  spec.level = core::OversubLevel{static_cast<std::uint8_t>(1 + rng.below(3))};
  return spec;
}

struct ChurnResult {
  std::size_t pairs = 0;          ///< timed deploy+remove pairs
  double pairs_per_sec = 0.0;
};

/// Steady-state churn: preload a PM to ~60% of its threads, then time
/// `pairs` remove+deploy pairs.
ChurnResult measure_churn(const topo::CpuTopology& machine, std::size_t pairs) {
  local::VNodeManager manager(machine, local::PoolingPolicy::kUpgrade, 1.0);
  core::SplitMix64 rng(42);
  std::vector<core::VmId> alive;
  std::uint64_t id = 1;
  const auto target =
      static_cast<core::CoreCount>(machine.cpu_count() * 6 / 10);
  while (manager.alloc().cores < target) {
    const core::VmId vm{id++};
    if (!manager.deploy(vm, churn_spec(rng))) {
      break;
    }
    alive.push_back(vm);
  }

  ChurnResult result;
  result.pairs = pairs;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < pairs; ++i) {
    if (alive.empty()) {
      const core::VmId vm{id++};
      if (manager.deploy(vm, churn_spec(rng))) {
        alive.push_back(vm);
      }
      continue;
    }
    const std::size_t victim = rng.below(alive.size());
    manager.remove(alive[victim]);
    const core::VmId vm{id++};
    if (manager.deploy(vm, churn_spec(rng))) {
      alive[victim] = vm;
    } else {
      alive[victim] = alive.back();
      alive.pop_back();
    }
  }
  const auto t1 = Clock::now();
  const double seconds = std::chrono::duration<double>(t1 - t0).count();
  result.pairs_per_sec =
      seconds > 0.0 ? static_cast<double>(pairs) / seconds : 0.0;
  return result;
}

struct SelectionResult {
  std::size_t calls = 0;  ///< timed selection calls per implementation
  double naive_calls_per_sec = 0.0;
  double fast_calls_per_sec = 0.0;
};

/// Naive-vs-fast CPU selection on random pools: each round draws a vNode
/// (25 % of the CPUs) and a free pool (40 %) and runs one extension, one
/// seed and one release of 1-8 CPUs. Both implementations see the identical
/// calls, and the fast path is differential-tested to return the naive
/// result.
SelectionResult measure_selection(const topo::CpuTopology& machine,
                                  std::size_t rounds) {
  const auto dm = topo::DistanceMatrixCache::shared(machine);
  const std::size_t n = machine.cpu_count();
  struct Call {
    topo::CpuSet current;
    topo::CpuSet free_cpus;
    std::size_t count;
    std::size_t release;
  };
  std::vector<Call> calls;
  core::SplitMix64 rng(7);
  for (std::size_t round = 0; round < rounds; ++round) {
    Call call{topo::CpuSet(n), topo::CpuSet(n), 1 + rng.below(8), 0};
    for (std::size_t cpu = 0; cpu < n; ++cpu) {
      const double u = rng.uniform();
      if (u < 0.25) {
        call.current.set(static_cast<topo::CpuId>(cpu));
      } else if (u < 0.65) {
        call.free_cpus.set(static_cast<topo::CpuId>(cpu));
      }
    }
    call.release = std::min(call.count, call.current.count());
    calls.push_back(std::move(call));
  }
  local::PlacementScratch scratch;
  const auto time_calls = [&](bool fast) {
    const auto t0 = Clock::now();
    for (const Call& c : calls) {
      if (fast) {
        benchmark::DoNotOptimize(
            local::choose_extension_cpus(*dm, c.free_cpus, c.current, c.count, scratch));
        benchmark::DoNotOptimize(
            local::choose_seed_cpus(*dm, c.free_cpus, c.current, c.count, scratch));
        benchmark::DoNotOptimize(
            local::choose_release_cpus(*dm, c.current, c.release, scratch));
      } else {
        benchmark::DoNotOptimize(
            local::naive::choose_extension_cpus(*dm, c.free_cpus, c.current, c.count));
        benchmark::DoNotOptimize(
            local::naive::choose_seed_cpus(*dm, c.free_cpus, c.current, c.count));
        benchmark::DoNotOptimize(
            local::naive::choose_release_cpus(*dm, c.current, c.release));
      }
    }
    const double seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return seconds > 0.0 ? static_cast<double>(3 * calls.size()) / seconds : 0.0;
  };
  SelectionResult result;
  result.calls = 3 * calls.size();
  result.naive_calls_per_sec = time_calls(/*fast=*/false);
  result.fast_calls_per_sec = time_calls(/*fast=*/true);
  return result;
}

/// Heap allocations per selection call. The fast path must stay flat in
/// `count` (only the returned CpuSet allocates); the naive reference grows
/// with steps × pool size (one as_vector per inner scan).
double allocs_per_call(const topo::CpuTopology& machine, bool fast,
                       std::size_t count, std::size_t calls) {
  const auto dm = topo::DistanceMatrixCache::shared(machine);
  topo::CpuSet current(machine.cpu_count());
  for (topo::CpuId cpu = 0; cpu < 4; ++cpu) {
    current.set(cpu);
  }
  topo::CpuSet free_cpus = machine.all_cpus();
  free_cpus -= current;
  local::PlacementScratch scratch;
  // Warm-up so scratch buffers reach steady-state capacity.
  (void)local::choose_extension_cpus(*dm, free_cpus, current, count, scratch);
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < calls; ++i) {
    if (fast) {
      benchmark::DoNotOptimize(
          local::choose_extension_cpus(*dm, free_cpus, current, count, scratch));
    } else {
      benchmark::DoNotOptimize(
          local::naive::choose_extension_cpus(*dm, free_cpus, current, count));
    }
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) / static_cast<double>(calls);
}

int run_json(std::size_t ops) {
  struct NamedTopo {
    const char* name;
    topo::CpuTopology machine;
  };
  NamedTopo topologies[] = {
      {"dual_epyc_7662", topo::make_dual_epyc_7662()},
      {"dual_xeon_6230", topo::make_dual_xeon_6230()},
  };

  std::printf("{\n  \"bench\": \"micro_topology\",\n  \"results\": [\n");
  bool first = true;
  for (const NamedTopo& t : topologies) {
    const ChurnResult churn = measure_churn(t.machine, ops);
    const SelectionResult selection = measure_selection(t.machine, ops / 10 + 1);
    std::printf("%s    {\"topology\": \"%s\", \"mode\": \"fast\", \"pairs\": %zu, "
                "\"deploy_remove_pairs_per_sec\": %.0f},\n",
                first ? "" : ",\n", t.name, churn.pairs, churn.pairs_per_sec);
    std::printf("    {\"topology\": \"%s\", \"mode\": \"selection\", \"calls\": %zu, "
                "\"naive_calls_per_sec\": %.0f, \"fast_calls_per_sec\": %.0f, "
                "\"speedup\": %.2f}",
                t.name, selection.calls, selection.naive_calls_per_sec,
                selection.fast_calls_per_sec,
                selection.naive_calls_per_sec > 0.0
                    ? selection.fast_calls_per_sec / selection.naive_calls_per_sec
                    : 0.0);
    first = false;
  }

  // Allocation discipline of the grow loop: flat for the fast path,
  // step-dependent for the naive reference.
  const topo::CpuTopology epyc = topo::make_dual_epyc_7662();
  const std::size_t probe_calls = 200;
  std::printf("\n  ],\n  \"grow_heap_allocs_per_call\": [\n");
  first = true;
  for (const std::size_t count : {4UL, 16UL}) {
    const double naive_allocs = allocs_per_call(epyc, /*fast=*/false, count, probe_calls);
    const double fast_allocs = allocs_per_call(epyc, /*fast=*/true, count, probe_calls);
    std::printf("%s    {\"grow_cpus\": %zu, \"naive\": %.1f, \"fast\": %.1f}",
                first ? "" : ",\n", count, naive_allocs, fast_allocs);
    first = false;
  }

  std::printf("\n  ],\n  \"matrix_cache\": {\"matrices_interned\": %zu}\n}\n",
              topo::DistanceMatrixCache::interned_count());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (slackvm::bench::arg_flag(argc, argv, "--json")) {
    const auto ops = static_cast<std::size_t>(
        slackvm::bench::arg_u64(argc, argv, "--ops", 20000));
    return run_json(ops);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
