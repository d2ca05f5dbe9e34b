// Micro-benchmarks (google-benchmark): the real computational kernels of
// the simulator — hash functions over kernel-sized buffers, event-queue
// throughput, TOCTTOU scan bookkeeping, metric emission, the prober spin.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "attack/prober.h"
#include "bench/common.h"
#include "core/satin.h"
#include "hw/memory.h"
#include "obs/flight/recorder.h"
#include "obs/metrics.h"
#include "os/kernel_image.h"
#include "scenario/scenario.h"
#include "secure/digest_cache.h"
#include "secure/hash.h"
#include "secure/pristine_base.h"
#include "sim/engine.h"
#include "sim/event_pool.h"
#include "sim/rng.h"
#include "workload/unixbench.h"

// --- Allocation accounting ----------------------------------------------
//
// Global operator new/delete are replaced with counting shims so the
// event-churn benches can report allocs_per_event. The PR-5 engine
// contract is that the steady-state number is exactly 0 (slab-pooled
// event states, inline callbacks, retained queue storage) and CI gates
// on the reported counter. The shims also sum the bytes requested, which
// BM_ScenarioBoot reports per boot.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::size_t alignment) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(alignment, size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

std::vector<std::uint8_t> make_buffer(std::size_t size) {
  std::vector<std::uint8_t> buf(size);
  satin::sim::Rng rng(1);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_u64());
  return buf;
}

void BM_HashDjb2(benchmark::State& state) {
  const auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(satin::secure::hash_djb2(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashDjb2)->Arg(4096)->Arg(431360)->Arg(876616);

void BM_HashFnv1a(benchmark::State& state) {
  const auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(satin::secure::hash_fnv1a(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashFnv1a)->Arg(4096)->Arg(876616);

void BM_HashSdbm(benchmark::State& state) {
  const auto buf = make_buffer(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(satin::secure::hash_sdbm(buf));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HashSdbm)->Arg(4096)->Arg(876616);

void BM_EngineScheduleFire(benchmark::State& state) {
  satin::sim::Engine engine;
  std::int64_t n = 0;
  for (auto _ : state) {
    engine.schedule_after(satin::sim::Duration::from_ns(++n), [] {});
    engine.step();
  }
}
BENCHMARK(BM_EngineScheduleFire);

// --- Event churn (zero-allocation steady state) --------------------------
//
// Each bench warms the engine past every lazily-grown capacity (pool
// slabs, queue storage), then measures the hot loop and reports
// allocs_per_event. Expected value after PR 5: exactly 0.

// The 250 Hz scheduler-tick pattern: every fired tick schedules the next
// one 4 ms out — dense periodic traffic through a one-entry queue.
void BM_EventChurnPeriodicTick(benchmark::State& state) {
  satin::sim::Engine engine;
  for (int i = 0; i < 128; ++i) {  // settle the tick pattern
    engine.schedule_after(satin::sim::Duration::from_ms(4), [] {});
    engine.step();
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t events = 0;
  for (auto _ : state) {
    engine.schedule_after(satin::sim::Duration::from_ms(4), [] {});
    engine.step();
    ++events;
  }
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_event"] =
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events)
                 : 0.0;
}
BENCHMARK(BM_EventChurnPeriodicTick);

// --- Flight-recorder overhead --------------------------------------------
//
// The same periodic-tick churn with a FlightRecorder installed: every
// engine commit now also appends one 28-byte FlightRecord. The recorder
// preallocates everything at construction (ring storage, spill buffer,
// encode buffer), so allocs_per_event must stay exactly 0 in both modes —
// the same gate CI applies to the flight-off churn benches. The delta
// vs BM_EventChurnPeriodicTick is the per-event recording cost.

void churn_with_flight(benchmark::State& state,
                       satin::obs::FlightRecorder& recorder) {
  satin::sim::Engine engine;
  satin::obs::install_flight(&recorder);
  for (int i = 0; i < 128; ++i) {
    engine.schedule_after(satin::sim::Duration::from_ms(4), [] {});
    engine.step();
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t events = 0;
  for (auto _ : state) {
    engine.schedule_after(satin::sim::Duration::from_ms(4), [] {});
    engine.step();
    ++events;
  }
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  satin::obs::install_flight(nullptr);
  state.counters["allocs_per_event"] =
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events)
                 : 0.0;
  state.counters["flight_commits"] =
      static_cast<double>(recorder.commits());
}

// Ring mode: the bounded-capture configuration CI's divergence audit uses
// for long runs. Steady state overwrites in place.
void BM_EventChurnPeriodicTickFlightRing(benchmark::State& state) {
  satin::obs::FlightRecorder::Options opts;
  opts.ring = 1u << 16;
  satin::obs::FlightRecorder recorder(opts);
  churn_with_flight(state, recorder);
}
BENCHMARK(BM_EventChurnPeriodicTickFlightRing);

// Spill mode: full-stream capture. /dev/null sinks the fwrite()s so the
// bench measures encode+buffer cost, not disk bandwidth.
void BM_EventChurnPeriodicTickFlightSpill(benchmark::State& state) {
  satin::obs::FlightRecorder::Options opts;
  opts.path = "/dev/null";
  satin::obs::FlightRecorder recorder(opts);
  churn_with_flight(state, recorder);
}
BENCHMARK(BM_EventChurnPeriodicTickFlightSpill);

// Far-future traffic (watchdogs, introspection periods): a standing
// population of ~1k events, far more than any workload queues; each round
// fires the earliest and schedules a replacement 500 ms out.
void BM_EventChurnFarFuture(benchmark::State& state) {
  satin::sim::Engine engine;
  for (int i = 0; i < 1024; ++i) {
    engine.schedule_after(satin::sim::Duration::from_ms(500 + i % 7), [] {});
  }
  for (int i = 0; i < 128; ++i) {  // settle schedule-one/fire-one steady state
    engine.schedule_after(satin::sim::Duration::from_ms(500), [] {});
    engine.step();
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t events = 0;
  for (auto _ : state) {
    engine.schedule_after(satin::sim::Duration::from_ms(500), [] {});
    engine.step();
    ++events;
  }
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_event"] =
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events)
                 : 0.0;
}
BENCHMARK(BM_EventChurnFarFuture);

// Speculative timer traffic: most scheduled events are cancelled before
// they fire (timer reprogramming). One round = 64 µs: 8 doomed events,
// 1 live probe, drain. Every round leaves the queue empty, so warm-up
// provably reaches every retained capacity.
void BM_EventChurnScheduleCancel(benchmark::State& state) {
  satin::sim::Engine engine;
  auto round = [&engine] {
    satin::sim::EventHandle doomed[8];
    for (auto& h : doomed) {
      h = engine.schedule_after(satin::sim::Duration::from_us(40), [] {});
    }
    for (auto& h : doomed) h.cancel();
    engine.schedule_after(satin::sim::Duration::from_us(30), [] {});
    engine.run_for(satin::sim::Duration::from_us(64));
  };
  for (int i = 0; i < 128; ++i) round();  // settle
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  std::uint64_t events = 0;
  for (auto _ : state) {
    round();
    events += 9;
  }
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  state.counters["allocs_per_event"] =
      events > 0 ? static_cast<double>(allocs) / static_cast<double>(events)
                 : 0.0;
  state.counters["pool_reuse_ratio"] =
      engine.pool_reuses() > 0
          ? static_cast<double>(engine.pool_reuses()) /
                static_cast<double>(engine.pool_reuses() +
                                    engine.pool_slab_grows() *
                                        satin::sim::EventPool::kSlabSlots)
          : 0.0;
}
BENCHMARK(BM_EventChurnScheduleCancel);

// --- Draw pipeline (PR 8) ------------------------------------------------
//
// The duel is draw-bound (~672M truncated normals per full
// bench_satin_detection run), so these benches measure the exact hot
// paths the default batched draws take: the MT block refill and the two
// staleness-read streams, each against its scalar per-draw oracle.
// All streams preallocate their block at construction, so the steady
// state sits under the same zero-allocation gate as the event churn
// benches: allocs_per_draw must be exactly 0.

constexpr double kDrawMean = 1.55e-4;   // cross-core delay model params
constexpr double kDrawStddev = 3.5e-5;
constexpr double kDrawLo = 0.95e-4;
constexpr double kDrawHi = 2.6e-4;

// range(1) selects the kernel flavor that twists and tempers: 0 forces
// the base flavor, 1 runs the one draw_kernels() dispatches to. The label
// names the flavor that ran, so a host without AVX2 shows "base" twice.
void BM_MtBlockRefill(benchmark::State& state) {
  namespace detail = satin::sim::detail;
  detail::force_base_draw_kernels(state.range(1) == 0);
  satin::sim::Mt19937_64 engine(42);
  std::vector<std::uint64_t> block(
      static_cast<std::size_t>(state.range(0)));
  std::uint64_t draws = 0;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    engine.generate_block(block.data(), block.size());
    benchmark::DoNotOptimize(block.data());
    draws += block.size();
  }
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  state.SetItemsProcessed(static_cast<std::int64_t>(draws));
  state.counters["allocs_per_draw"] =
      draws > 0 ? static_cast<double>(allocs) / static_cast<double>(draws)
                : 0.0;
  state.SetLabel(&detail::draw_kernels() == &detail::base_draw_kernels()
                     ? "base"
                     : "avx2");
  detail::force_base_draw_kernels(false);
}
BENCHMARK(BM_MtBlockRefill)->ArgsProduct({{312, 4096}, {0, 1}});

void BM_MtPerCallDraw(benchmark::State& state) {
  satin::sim::Mt19937_64 engine(42);
  std::uint64_t draws = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine());
    ++draws;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(draws));
}
BENCHMARK(BM_MtPerCallDraw);

// One template for every scalar-vs-batched stream pair: range(0) selects
// the mode (0 = scalar oracle, 1 = batched block pipeline), so the two
// rows print adjacent and the ratio reads off directly.
template <typename Stream, typename MakeStream>
void draw_stream_bench(benchmark::State& state, const MakeStream& make) {
  const auto mode = state.range(0) == 0 ? satin::sim::DrawMode::kScalar
                                        : satin::sim::DrawMode::kBatched;
  Stream stream = make(satin::sim::Rng(1234).fork("bench"), mode);
  // Prime one refill so batched steady state excludes construction.
  benchmark::DoNotOptimize(stream.next());
  std::uint64_t draws = 0;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  double sink = 0.0;
  for (auto _ : state) {
    sink += stream.next();
    ++draws;
  }
  benchmark::DoNotOptimize(sink);
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  state.SetItemsProcessed(static_cast<std::int64_t>(draws));
  state.counters["allocs_per_draw"] =
      draws > 0 ? static_cast<double>(allocs) / static_cast<double>(draws)
                : 0.0;
  state.SetLabel(state.range(0) == 0 ? "scalar" : "batched");
}

void BM_DrawTruncatedNormal(benchmark::State& state) {
  draw_stream_bench<satin::sim::TruncatedNormalStream>(
      state, [](satin::sim::Rng rng, satin::sim::DrawMode mode) {
        return satin::sim::TruncatedNormalStream(
            std::move(rng), kDrawMean, kDrawStddev, kDrawLo, kDrawHi, mode);
      });
}
BENCHMARK(BM_DrawTruncatedNormal)->Arg(0)->Arg(1);

void BM_DrawCanonical(benchmark::State& state) {
  draw_stream_bench<satin::sim::CanonicalStream>(
      state, [](satin::sim::Rng rng, satin::sim::DrawMode mode) {
        return satin::sim::CanonicalStream(std::move(rng), mode);
      });
}
BENCHMARK(BM_DrawCanonical)->Arg(0)->Arg(1);

// --- Metric emission ----------------------------------------------------
//
// One enabled SATIN_METRIC_* emission into an installed registry, as a
// campaign worker runs it for every probe round: the site's id
// indexes the registry's slot table, then the add or observe runs. The
// names are longer than the 15-byte small-string buffer, so an emission
// that built a std::string would allocate; allocs_per_emit must be
// exactly 0.

template <typename Emit>
void metric_emit_bench(benchmark::State& state, const Emit& emit) {
  satin::obs::MetricsRegistry registry;
  satin::obs::MetricsRegistry* const previous = satin::obs::metrics();
  satin::obs::install_metrics(&registry);
  emit(0.0);  // the first emission takes the site id and binds the slot
  std::uint64_t emits = 0;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    // Staleness-scale values spread over a few histogram buckets.
    emit(1e-6 * static_cast<double>(emits & 1023));
    ++emits;
  }
  const std::uint64_t allocs =
      g_allocs.load(std::memory_order_relaxed) - before;
  satin::obs::install_metrics(previous);
  state.SetItemsProcessed(static_cast<std::int64_t>(emits));
  state.counters["allocs_per_emit"] =
      emits > 0 ? static_cast<double>(allocs) / static_cast<double>(emits)
                : 0.0;
}

void BM_MetricEmitCounter(benchmark::State& state) {
  metric_emit_bench(state,
                    [](double) { SATIN_METRIC_INC("bench.emit_probe_rounds"); });
}
BENCHMARK(BM_MetricEmitCounter);

void BM_MetricEmitHistogram(benchmark::State& state) {
  metric_emit_bench(state, [](double value) {
    SATIN_METRIC_OBSERVE("bench.emit_staleness_s", value);
  });
}
BENCHMARK(BM_MetricEmitHistogram);

void BM_MetricEmitDigest(benchmark::State& state) {
  metric_emit_bench(state, [](double value) {
    SATIN_METRIC_DIGEST_OBSERVE("bench.emit_detection_lag_s", value);
  });
}
BENCHMARK(BM_MetricEmitDigest);

// --- Cycle fast path -----------------------------------------------------
//
// One simulated second per iteration of a system whose cores each run one
// cycle thread, with a metrics registry installed as in a campaign worker.
// range(0) picks the path: 0 = every wake-up and completion a queue event
// (os::CyclePath::kEventPerRound, the oracle), 1 = the cycle fast path.
// `start` sets the cycle threads up on the booted system and returns a
// callable that counts their steps. Reports host ns per step, the shares
// of dispatches that ran as keyed actions, of those that completed in
// place (a loop's bursts and the ticks that join them) and of those that
// went through the event queue, and heap allocations per step, each named
// after `unit`; CI gates the fast path at exactly 0 allocations.
template <typename Start>
void cycle_bench(benchmark::State& state, const std::string& unit,
                 const Start& start) {
  satin::obs::MetricsRegistry registry;
  satin::obs::MetricsRegistry* const previous = satin::obs::metrics();
  satin::obs::install_metrics(&registry);
  {
    satin::scenario::ScenarioConfig config;
    config.os.cycle_path = state.range(0) == 0
                               ? satin::os::CyclePath::kEventPerRound
                               : satin::os::CyclePath::kFastForward;
    satin::scenario::Scenario system(config);
    const auto steps = start(system);
    // Warm-up past every lazily grown capacity: pool slabs, queue
    // storage, draw blocks and metric slots.
    system.run_for(satin::sim::Duration::from_sec(20));
    satin::sim::Engine& engine = system.engine();
    const std::uint64_t steps0 = steps();
    const std::uint64_t queued0 = engine.events_fired();
    const std::uint64_t keyed0 = engine.keyed_fired();
    const std::uint64_t in_place0 = engine.keyed_in_place();
    const std::uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    const auto begin = std::chrono::steady_clock::now();
    for (auto _ : state) {
      system.run_for(satin::sim::Duration::from_sec(1));
      benchmark::DoNotOptimize(steps());
    }
    const std::chrono::duration<double, std::nano> elapsed =
        std::chrono::steady_clock::now() - begin;
    const std::uint64_t allocs =
        g_allocs.load(std::memory_order_relaxed) - allocs0;
    const auto done = static_cast<double>(steps() - steps0);
    const auto keyed = static_cast<double>(engine.keyed_fired() - keyed0);
    const auto in_place =
        static_cast<double>(engine.keyed_in_place() - in_place0);
    const auto queued = static_cast<double>(engine.events_fired() - queued0);
    const double dispatches = keyed + queued;
    state.counters["ns_per_" + unit] = done > 0 ? elapsed.count() / done : 0.0;
    state.counters["keyed_share"] = dispatches > 0 ? keyed / dispatches : 0.0;
    state.counters["in_place_share"] =
        dispatches > 0 ? in_place / dispatches : 0.0;
    state.counters["queue_share"] = dispatches > 0 ? queued / dispatches : 0.0;
    state.counters["allocs_per_" + unit] =
        done > 0 ? static_cast<double>(allocs) / done : 0.0;
    state.SetLabel(state.range(0) == 0 ? "event-per-round" : "fast-forward");
  }
  satin::obs::install_metrics(previous);
}

// KProber-II's duty cycle on all six cores of an otherwise idle system,
// per probe round.
void BM_ProberSpin(benchmark::State& state) {
  cycle_bench(state, "round", [](satin::scenario::Scenario& system) {
    auto prober = std::make_shared<satin::attack::KProber>(
        system.os(), satin::attack::KProberConfig{});
    prober->deploy();
    return [prober] { return prober->rounds(); };
  });
}
BENCHMARK(BM_ProberSpin)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Mini-UnixBench's densest program, syscall_overhead (40 µs iterations),
// per workload iteration, as range(1) copies: 6 is one loop on each core,
// whose completions tie with one another, and 1 is a lone loop that
// completes its iterations and its core's ticks in place, as in
// perfbench's `overhead` and Fig. 7's 1-task setting.
void BM_WorkloadLoop(benchmark::State& state) {
  const auto copies = static_cast<int>(state.range(1));
  cycle_bench(state, "iteration", [copies](satin::scenario::Scenario& system) {
    const auto& suite = satin::workload::unixbench_suite();
    const auto spec = std::find_if(suite.begin(), suite.end(), [](auto& w) {
      return w.name == "syscall_overhead";
    });
    std::vector<satin::workload::WorkloadThread*> loops;
    for (int i = 0; i < copies; ++i) {
      loops.push_back(static_cast<satin::workload::WorkloadThread*>(
          system.os().add_thread(
              std::make_unique<satin::workload::WorkloadThread>(*spec))));
    }
    return [loops] {
      std::uint64_t total = 0;
      for (const auto* loop : loops) total += loop->iterations();
      return total;
    };
  });
}
BENCHMARK(BM_WorkloadLoop)
    ->Args({0, 6})
    ->Args({1, 6})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond);

// One trial's boot set-up in steady state: a booted default Scenario plus
// SATIN's boot-state authorization. Every trial shares the process-wide
// kernel image and pristine area digests (DESIGN.md §20), so once the
// warm-up boot has built them no boot copies image bytes or builds a
// digest. A checker left without the shared base hashes every area
// itself, which counts as one digest per area. CI fails unless both
// counters are 0, and bounds heap_bytes_per_boot, the bytes a boot asks
// the heap for.
void BM_ScenarioBoot(benchmark::State& state) {
  std::uint64_t unshared_digests = 0;
  const auto boot = [&unshared_digests] {
    satin::scenario::Scenario system;
    satin::core::Satin satin(system.platform(), system.kernel(),
                             system.tsp(), {});
    satin.checker().authorize_boot_state();
    auto base = satin.checker().introspector().digest_cache().pristine_base();
    if (base == nullptr) unshared_digests += satin.checker().areas().size();
    return base;
  };
  const auto base = boot();  // warm-up: builds the image and the digests
  const std::uint64_t copied = satin::os::KernelImage::copied_install_bytes();
  const std::uint64_t digests = base != nullptr ? base->digests_built() : 0;
  const std::uint64_t heap_bytes =
      g_alloc_bytes.load(std::memory_order_relaxed);
  unshared_digests = 0;
  for (auto _ : state) benchmark::DoNotOptimize(boot());
  const auto boots = static_cast<double>(state.iterations());
  state.counters["heap_bytes_per_boot"] =
      static_cast<double>(g_alloc_bytes.load(std::memory_order_relaxed) -
                          heap_bytes) /
      boots;
  state.counters["image_bytes_copied_per_boot"] =
      static_cast<double>(satin::os::KernelImage::copied_install_bytes() -
                          copied) /
      boots;
  state.counters["digests_built_per_boot"] =
      static_cast<double>((base != nullptr ? base->digests_built() - digests
                                           : 0) +
                          unshared_digests) /
      boots;
}
BENCHMARK(BM_ScenarioBoot)->Unit(benchmark::kMicrosecond);

void BM_MemoryTimedWriteUnderScan(benchmark::State& state) {
  satin::hw::Memory memory(1 << 20);
  auto token =
      memory.begin_scan(satin::sim::Time::zero(), 0, 1 << 20, 1.0e6);
  const std::vector<std::uint8_t> data(8, 0xAB);
  std::size_t offset = 0;
  for (auto _ : state) {
    memory.write(satin::sim::Time::from_ns(1), offset, data);
    offset = (offset + 64) & ((1 << 20) - 64);
  }
  memory.cancel_scan(token);
}
BENCHMARK(BM_MemoryTimedWriteUnderScan);

void BM_ScanBeginFinish(benchmark::State& state) {
  satin::hw::Memory memory(1 << 20);
  for (auto _ : state) {
    auto token =
        memory.begin_scan(satin::sim::Time::zero(), 0, 1 << 20, 1.0e6);
    benchmark::DoNotOptimize(memory.finish_scan(token));
  }
}
BENCHMARK(BM_ScanBeginFinish);

// --- Digest cache --------------------------------------------------------
//
// Two regimes: cold, a kernel-area-sized window (876,616 B, the largest
// Table-I area) with no pristine base, hashed whole; and served, the
// largest untouched area of a booted default Scenario, whose digest the
// pristine base holds (a bit test per chunk and one lookup). The
// bytes_hashed_per_round counter reports how much real hashing each round
// did — the quantity the cache exists to shrink.

constexpr std::size_t kCacheWindow = 876'616;

void BM_DigestCacheCold(benchmark::State& state) {
  satin::hw::Memory memory(kCacheWindow);
  memory.poke(0, make_buffer(kCacheWindow));
  const auto view = memory.bytes();
  std::uint64_t rounds = 0, bytes_hashed = 0;
  for (auto _ : state) {
    // A fresh cache each round: every chunk misses (first-scan cost).
    satin::secure::DigestCache cache(satin::secure::HashKind::kDjb2, true);
    const auto out = cache.round_digest(memory, 0, view, true);
    benchmark::DoNotOptimize(out.digest);
    ++rounds;
    bytes_hashed += out.bytes_hashed;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kCacheWindow));
  state.counters["bytes_hashed_per_round"] =
      rounds > 0 ? static_cast<double>(bytes_hashed) / static_cast<double>(rounds)
                 : 0.0;
}
BENCHMARK(BM_DigestCacheCold);

void BM_DigestCacheServed(benchmark::State& state) {
  satin::scenario::Scenario system;
  satin::core::Satin satin(system.platform(), system.kernel(), system.tsp(),
                           {});
  satin::secure::DigestCache& cache =
      satin.checker().introspector().digest_cache();
  const std::vector<satin::core::Area>& areas = satin.checker().areas();
  const satin::core::Area& area = *std::max_element(
      areas.begin(), areas.end(),
      [](const auto& a, const auto& b) { return a.size < b.size; });
  const satin::hw::Memory& memory = system.platform().memory();
  const auto view = memory.bytes().subspan(area.offset, area.size);
  std::uint64_t rounds = 0, bytes_hashed = 0;
  for (auto _ : state) {
    const auto out = cache.round_digest(memory, area.offset, view, true);
    benchmark::DoNotOptimize(out.digest);
    ++rounds;
    bytes_hashed += out.bytes_hashed;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(area.size));
  state.counters["bytes_hashed_per_round"] =
      rounds > 0 ? static_cast<double>(bytes_hashed) / static_cast<double>(rounds)
                 : 0.0;
}
BENCHMARK(BM_DigestCacheServed);

}  // namespace

// Hand-rolled BENCHMARK_MAIN so --metrics/--flight are stripped before
// benchmark::Initialize sees them (it rejects unknown flags).
int main(int argc, char** argv) {
  satin::bench::ObsGuard obs(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
