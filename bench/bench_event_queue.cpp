// Microbenchmarks for the event scheduler (google-benchmark).
//
// BM_Wheel* benches drive the default TimerWheelQueue through its steady
// states — near/far/mixed horizons, the cancel pattern, and a churn-replay
// macro shape — and report the deterministic per-op counters from
// bench_counters.hpp. scripts/perf_check.sh merges them into
// BENCH_micro_ops.json and pins allocs_per_op for every BM_Wheel* bench to
// EXACTLY 0 (not just within tolerance): a capacity-priming warm-up
// (prime_queue) sizes the node pool, drain buffer and overflow heap past
// any peak a measured batch can reach, after which schedule/pop/cancel may
// not touch the heap at all.
//
// BM_RefQueue* twins run the same shapes on the binary-heap
// ReferenceEventQueue for before/after comparison (BENCH_event_queue.json);
// their per-op allocations are nonzero by design (std::function storage is
// inline for these captures, but the exact-size bookkeeping set costs one
// node allocation per schedule).
#include <cstdint>

#include <benchmark/benchmark.h>

#include "bench_counters.hpp"
#include "pls/common/rng.hpp"
#include "pls/net/failure_injector.hpp"
#include "pls/net/network.hpp"
#include "pls/sim/reference_queue.hpp"
#include "pls/sim/simulator.hpp"
#include "pls/sim/timer_wheel.hpp"

namespace {

using namespace pls;
using bench::CounterScope;

constexpr int kBatch = 64;  // schedule/pop pairs per benchmark iteration

/// Forces every internal buffer past any capacity a measured batch can
/// reach: 2*kBatch same-instant events size the node pool and the drain
/// buffer, 2*kBatch far-future events size the overflow heap. Capacity is
/// what survives draining — a single shape-matched warm-up batch is not
/// enough, because each measured batch lands at a different alignment
/// relative to the wheel's slot boundaries and peak buffer sizes vary
/// with alignment. Leaves the queue empty with its cursor near t=1e9;
/// callers restart from kPrimedBase.
constexpr SimTime kPrimedBase = 2.0e9;
template <typename Q>
void prime_queue(Q& q) {
  for (int i = 0; i < 2 * kBatch; ++i) {
    q.schedule(1.0, [] {});
    q.schedule(1.0e9, [] {});
  }
  while (!q.empty()) q.pop().fn();
}

/// Near horizon: dense events within ~100 ticks of the cursor — the shape
/// of latency, retry-backoff and lookup traffic. Level-0 slots only.
template <typename Q>
void schedule_pop_near(benchmark::State& state) {
  Q q;
  prime_queue(q);
  SimTime base = kPrimedBase;
  const auto run_batch = [&q](SimTime b) {
    for (int i = 0; i < kBatch; ++i) {
      q.schedule(b + static_cast<SimTime>((i * 7) % 100), [] {});
    }
    while (!q.empty()) q.pop().fn();
  };
  run_batch(base);  // shape warm-up at the measured alignment
  base += 128.0;
  CounterScope counters(state);
  for (auto _ : state) {
    run_batch(base);
    base += 128.0;
  }
  counters.finish();
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_WheelSchedulePopNear(benchmark::State& state) {
  schedule_pop_near<sim::TimerWheelQueue>(state);
}
BENCHMARK(BM_WheelSchedulePopNear)->Iterations(20000);

void BM_RefQueueSchedulePopNear(benchmark::State& state) {
  schedule_pop_near<sim::ReferenceEventQueue>(state);
}
BENCHMARK(BM_RefQueueSchedulePopNear)->Iterations(20000);

/// Far horizon: every event lands beyond the wheels' ~16.7M-tick span
/// (MTTF/MTTR tails), exercising the overflow heap and the cursor jumps
/// that pull events back into the wheels.
template <typename Q>
void schedule_pop_far(benchmark::State& state) {
  Q q;
  prime_queue(q);
  SimTime base = kPrimedBase;
  const auto run_batch = [&q](SimTime b) {
    for (int i = 0; i < kBatch; ++i) {
      q.schedule(b + 1.7e7 + static_cast<SimTime>(i % 13) * 1.0e6, [] {});
    }
    while (!q.empty()) q.pop().fn();
  };
  run_batch(base);
  base += 1.0e8;
  CounterScope counters(state);
  for (auto _ : state) {
    run_batch(base);
    base += 1.0e8;
  }
  counters.finish();
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_WheelSchedulePopFar(benchmark::State& state) {
  schedule_pop_far<sim::TimerWheelQueue>(state);
}
BENCHMARK(BM_WheelSchedulePopFar)->Iterations(5000);

void BM_RefQueueSchedulePopFar(benchmark::State& state) {
  schedule_pop_far<sim::ReferenceEventQueue>(state);
}
BENCHMARK(BM_RefQueueSchedulePopFar)->Iterations(5000);

/// Mixed horizons in one batch: near retries, mid-range churn and
/// far-future failure tails interleaved, crossing wheel levels and the
/// overflow boundary within a single drain sequence.
template <typename Q>
void schedule_pop_mixed(benchmark::State& state) {
  Q q;
  prime_queue(q);
  SimTime base = kPrimedBase;
  const auto run_batch = [&q](SimTime b) {
    for (int i = 0; i < kBatch; ++i) {
      SimTime at;
      switch (i % 4) {
        case 0: at = b + static_cast<SimTime>(i % 50); break;          // near
        case 1: at = b + 5.0e3 + static_cast<SimTime>(i) * 7.0; break; // mid
        case 2: at = b + 3.0e5; break;                 // upper wheel levels
        default: at = b + 2.0e7 + static_cast<SimTime>(i) * 1.0e5;     // far
      }
      q.schedule(at, [] {});
    }
    while (!q.empty()) q.pop().fn();
  };
  run_batch(base);
  base += 1.0e8;
  CounterScope counters(state);
  for (auto _ : state) {
    run_batch(base);
    base += 1.0e8;
  }
  counters.finish();
  state.SetItemsProcessed(state.iterations() * kBatch);
}

void BM_WheelSchedulePopMixed(benchmark::State& state) {
  schedule_pop_mixed<sim::TimerWheelQueue>(state);
}
BENCHMARK(BM_WheelSchedulePopMixed)->Iterations(5000);

void BM_RefQueueSchedulePopMixed(benchmark::State& state) {
  schedule_pop_mixed<sim::ReferenceEventQueue>(state);
}
BENCHMARK(BM_RefQueueSchedulePopMixed)->Iterations(5000);

/// The cancel pattern of timeout-driven code: arm two timers, cancel one
/// before it fires, pop the survivor. O(1) generation-tag cancel for the
/// wheel vs hash-set bookkeeping for the reference queue.
template <typename Q>
void schedule_cancel_pop(benchmark::State& state) {
  Q q;
  prime_queue(q);
  SimTime base = kPrimedBase;
  const auto run_once = [&q](SimTime b) {
    const sim::EventId doomed = q.schedule(b, [] {});
    q.schedule(b + 1.0, [] {});
    q.cancel(doomed);
    q.pop().fn();
  };
  run_once(base);
  base += 2.0;
  CounterScope counters(state);
  for (auto _ : state) {
    run_once(base);
    base += 2.0;
  }
  counters.finish();
  state.SetItemsProcessed(state.iterations());
}

void BM_WheelCancel(benchmark::State& state) {
  schedule_cancel_pop<sim::TimerWheelQueue>(state);
}
BENCHMARK(BM_WheelCancel)->Iterations(100000);

void BM_RefQueueCancel(benchmark::State& state) {
  schedule_cancel_pop<sim::ReferenceEventQueue>(state);
}
BENCHMARK(BM_RefQueueCancel)->Iterations(100000);

/// Self-rescheduling timer chain: the capture shape FailureInjector uses
/// (pointer + pointer), kept alive across the whole run. One Simulator (and
/// thus one queue, one node pool) is reused across all iterations — the
/// churn-replay macro shape.
struct Rearm {
  sim::Simulator* sim;
  Rng* rng;
  void operator()() const {
    sim->schedule_after(rng->exponential(10.0), *this);
  }
};

void BM_WheelChurnReplay(benchmark::State& state) {
  sim::Simulator sim;
  Rng rng(42);
  static_assert(sim::InlineEvent::fits_inline<Rearm>);
  // Capacity prime: 2*kBatch same-instant events push the node pool and
  // drain buffer well past the 32 live chain events, so no same-slot
  // pile-up across the long measured run can grow a vector.
  for (int i = 0; i < 2 * kBatch; ++i) {
    sim.schedule_after(1.0, [] {});
  }
  sim.run_all();
  for (int i = 0; i < 32; ++i) {
    sim.schedule_after(rng.exponential(10.0), Rearm{&sim, &rng});
  }
  sim.run_until(sim.now() + 200.0);  // shape warm-up
  CounterScope counters(state);
  for (auto _ : state) {
    sim.run_until(sim.now() + 100.0);
  }
  counters.finish();
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sim.events_executed()));
}
BENCHMARK(BM_WheelChurnReplay)->Iterations(2000);

/// Deferred lossy transport end to end: sends fan out through the
/// simulator with per-attempt backoff and latency. Wall-clock only — the
/// dated before/after numbers in BENCH_event_queue.json came from running
/// this (and bench_fig14) with the simulator on each queue, through a
/// build option that has since been removed.
void BM_LossyRetryDeferred(benchmark::State& state) {
  class NullServer final : public net::Server {
   public:
    using Server::Server;
    void on_message(const net::Message&, net::Network&) override {}
    net::Message on_rpc(const net::Message&, net::Network&) override {
      return net::Ack{};
    }
  };
  const std::size_t n = 8;
  auto failures = net::make_failure_state(n);
  net::Network network(failures);
  for (ServerId i = 0; i < n; ++i) {
    network.add_server(std::make_unique<NullServer>(i));
  }
  net::LinkModel link;
  link.drop_probability = 0.2;
  link.duplicate_probability = 0.05;
  link.latency_mean = 0.5;
  link.seed = 17;
  network.set_link_model(link);
  sim::Simulator sim;
  network.attach_simulator(&sim, 0.1);
  Entry next = 1;
  for (auto _ : state) {
    for (int i = 0; i < 100; ++i) {
      network.client_send(static_cast<ServerId>(next % n),
                          net::StoreEntry{next});
      ++next;
    }
    sim.run_until(sim.now() + 1000.0);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(network.stats().sent));
}
BENCHMARK(BM_LossyRetryDeferred)->Iterations(500);

}  // namespace

BENCHMARK_MAIN();
