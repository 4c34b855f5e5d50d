// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/event.hpp"
#include "sim/callback.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

// Every heap allocation of this test binary is counted, so a test can check
// that a warm event path never reaches the allocator.
namespace {
std::size_t g_allocations = 0;
}  // namespace

// The replacements pair malloc with free; GCC flags free() of a pointer
// that came from operator new even when both are replaced together.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t bytes) {
  ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t bytes) { return ::operator new(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace grout::sim {
namespace {

// The inline-capture limit is a compile-time property: a capture of up to
// kCapacity bytes at pointer alignment is accepted, anything larger or
// over-aligned is not constructible at all (there is no heap fallback).
struct AtLimit {
  std::uint64_t words[Callback::kCapacity / sizeof(std::uint64_t)];
  void operator()() {}
};
struct Oversized {
  std::uint64_t words[Callback::kCapacity / sizeof(std::uint64_t) + 1];
  void operator()() {}
};
struct alignas(2 * Callback::kAlignment) OverAligned {
  void operator()() {}
};
static_assert(std::is_constructible_v<Callback, AtLimit>);
static_assert(!std::is_constructible_v<Callback, Oversized>);
static_assert(!std::is_constructible_v<Callback, OverAligned>);
static_assert(std::is_constructible_v<Callback, std::function<void()>>);
static_assert(!std::is_copy_constructible_v<Callback>);

TEST(Simulator, StartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::from_us(30.0), [&] { order.push_back(3); });
  sim.schedule_at(SimTime::from_us(10.0), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::from_us(20.0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::from_us(30.0));
}

TEST(Simulator, SameTimestampFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  const SimTime t = SimTime::from_us(5.0);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);

  // Events are keyed by (time, seq) with one global submission counter:
  // equal-time events scheduled from inside a callback interleave with
  // events scheduled from outside strictly in submission order.
  order.clear();
  const SimTime u = SimTime::from_us(10.0);
  sim.schedule_at(u, [&order] { order.push_back(0); });  // outside, first
  sim.schedule_at(t + SimTime::from_us(1.0), [&] {
    sim.schedule_at(u, [&] {  // inside, second
      order.push_back(1);
      sim.schedule_at(u, [&order] { order.push_back(4); });  // inside at now(), fifth
    });
    sim.schedule_at(u, [&order] { order.push_back(2); });  // inside, third
  });
  ASSERT_TRUE(sim.step());  // runs the t + 1us event only
  sim.schedule_at(u, [&order] { order.push_back(3); });  // outside, fourth
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_at(SimTime::from_us(10.0), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(SimTime::from_us(5.0), [] {}), InvalidArgument);
}

TEST(Simulator, NullCallbackThrows) {
  Simulator sim;
  EXPECT_THROW(sim.schedule_at(SimTime::from_us(1.0), nullptr), InvalidArgument);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::from_us(1.0), [&] {
    ++fired;
    sim.schedule_after(SimTime::from_us(1.0), [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::from_us(2.0));
}

TEST(Simulator, StepReturnsFalseOnEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_at(SimTime::from_us(1.0), [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::from_us(1.0), [&] { ++fired; });
  sim.schedule_at(SimTime::from_us(100.0), [&] { ++fired; });
  EXPECT_FALSE(sim.run_until(SimTime::from_us(50.0)));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_TRUE(sim.run_until(SimTime::from_us(1000.0)));
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunUntilInclusiveOfDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(SimTime::from_us(50.0), [&] { ++fired; });
  EXPECT_TRUE(sim.run_until(SimTime::from_us(50.0)));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(SimTime::from_us(i + 1.0), [] {});
  sim.run();
  EXPECT_EQ(sim.executed_events(), 5u);
}

TEST(Simulator, ClockIsMonotone) {
  Simulator sim;
  SimTime last = SimTime::zero();
  bool monotone = true;
  for (int i = 20; i > 0; --i) {
    sim.schedule_at(SimTime::from_us(i), [&, i] {
      (void)i;
      monotone = monotone && sim.now() >= last;
      last = sim.now();
    });
  }
  sim.run();
  EXPECT_TRUE(monotone);
}

TEST(Simulator, RandomScheduleIsDeterministic) {
  // Two simulators fed the same pseudo-random schedule must execute events
  // in the identical order (ties broken by submission sequence).
  const auto run_once = [](std::vector<int>& order) {
    Simulator sim;
    grout::Rng rng(99);
    for (int i = 0; i < 500; ++i) {
      sim.schedule_at(SimTime::from_ns(static_cast<std::int64_t>(rng.next_below(50))),
                      [&order, i] { order.push_back(i); });
    }
    sim.run();
  };
  std::vector<int> a;
  std::vector<int> b;
  run_once(a);
  run_once(b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 500u);
}

TEST(Simulator, CascadingEventsStress) {
  // Events that re-schedule follow-ups at random offsets; the clock must
  // stay monotone throughout and the cascade must terminate.
  Simulator sim;
  grout::Rng rng(7);
  int remaining = 2000;
  SimTime last = SimTime::zero();
  bool monotone = true;
  std::function<void()> tick = [&] {
    monotone = monotone && sim.now() >= last;
    last = sim.now();
    if (--remaining > 0) {
      sim.schedule_after(SimTime::from_ns(static_cast<std::int64_t>(rng.next_below(10))),
                         tick);
    }
  };
  sim.schedule_at(SimTime::zero(), tick);
  sim.run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(sim.executed_events(), 2000u);
}

TEST(Callback, MovesAndDestroysItsCaptureOnce) {
  int alive = 0;
  int calls = 0;
  struct Probe {
    int* alive;
    int* calls;
    Probe(int* a, int* c) : alive{a}, calls{c} { ++*alive; }
    Probe(Probe&& o) noexcept : alive{o.alive}, calls{o.calls} { ++*alive; }
    Probe(const Probe&) = delete;
    ~Probe() { --*alive; }
    void operator()() { ++*calls; }
  };
  {
    Callback a{Probe{&alive, &calls}};
    EXPECT_EQ(alive, 1);
    Callback b = std::move(a);
    EXPECT_FALSE(static_cast<bool>(a));
    ASSERT_TRUE(static_cast<bool>(b));
    EXPECT_EQ(alive, 1);
    b();
    EXPECT_EQ(calls, 1);
    a = std::move(b);
    EXPECT_EQ(alive, 1);
    a = nullptr;
    EXPECT_EQ(alive, 0);
  }
  EXPECT_EQ(alive, 0);
}

TEST(Simulator, WarmEventPathDoesNotAllocate) {
  Simulator sim;
  gpusim::CudaEvent* seen = nullptr;
  std::uint64_t fired = 0;
  // Warm-up grows the heap, the slot array and its free list to the depth
  // the measured loop keeps pending.
  for (int i = 0; i < 64; ++i) sim.schedule_after(SimTime::from_ns(i), [&fired] { ++fired; });
  sim.run();

  // 10^4 schedule/step cycles with a few events pending and captures of
  // up to four words, the most the engine's closures carry.
  std::vector<gpusim::EventPtr> events;
  for (int i = 0; i < 10000; ++i) events.push_back(gpusim::make_event());
  std::vector<gpusim::EventPtr> single(1);
  const std::size_t before = g_allocations;
  for (int i = 0; i < 10000; ++i) {
    const gpusim::EventPtr& ev = events[static_cast<std::size_t>(i)];
    sim.schedule_after(SimTime::from_ns(i % 7), [&fired, &seen, ev, i] {
      fired += static_cast<std::uint64_t>(i);
      seen = ev.get();
    });
    sim.schedule_after(SimTime::from_ns(i % 3), [&fired] { ++fired; });
    sim.step();
    sim.step();
  }
  // 10^4 subscribe/complete rounds, every other one through a one-event
  // when_all: an event stores its first waiter in place.
  for (int i = 0; i < 10000; ++i) {
    const gpusim::EventPtr& ev = events[static_cast<std::size_t>(i)];
    if (i % 2 == 0) {
      ev->on_complete([&fired, &sim, ev] {
        fired += static_cast<std::uint64_t>(ev->when().ns() + sim.now().ns());
      });
    } else {
      single[0] = ev;
      gpusim::when_all(single, [&fired] { ++fired; });
    }
    ev->complete(sim.now());
  }
  sim.run();
  EXPECT_EQ(g_allocations - before, 0u);
  EXPECT_NE(seen, nullptr);
  EXPECT_GT(fired, 0u);
}

TEST(Simulator, FiringOrderMatchesANaiveTimeSeqReference) {
  // Random schedules: events scheduled from outside between steps and from
  // inside callbacks (at now() too, so same-time ties are common), enough
  // churn that slots are reused many times over. The engine must fire them
  // exactly in the order of a reference that keeps every pending event in
  // a flat list and picks the smallest (time, seq).
  struct Plan {
    SimTime t;
    int id;
  };
  // What event `id` schedules when it fires: a pure function of its id, so
  // the engine and the reference issue identical calls.
  const auto children = [](int id, SimTime now, int& next_id, std::vector<Plan>& out) {
    grout::Rng rng(static_cast<std::uint64_t>(id) * 7919u + 1u);
    const auto k = static_cast<int>(rng.next_below(3));
    for (int c = 0; c < k && next_id < 6000; ++c) {
      out.push_back(Plan{now + SimTime::from_ns(static_cast<std::int64_t>(rng.next_below(4))),
                         next_id++});
    }
  };
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    // Outside schedule: batches of events issued between steps.
    grout::Rng outer(seed);
    std::vector<std::vector<Plan>> batches(200);
    int next_outside = 100000;
    SimTime horizon = SimTime::zero();
    for (auto& batch : batches) {
      const auto n = static_cast<int>(outer.next_below(4));
      horizon += SimTime::from_ns(static_cast<std::int64_t>(outer.next_below(3)));
      for (int i = 0; i < n; ++i) {
        batch.push_back(
            Plan{horizon + SimTime::from_ns(static_cast<std::int64_t>(outer.next_below(5))),
                 next_outside++});
      }
    }

    // The engine.
    std::vector<int> engine_order;
    {
      Simulator sim;
      int next_id = 0;
      std::function<void(int)> fire = [&](int id) {
        engine_order.push_back(id);
        std::vector<Plan> out;
        children(id, sim.now(), next_id, out);
        for (const Plan& p : out) sim.schedule_at(p.t, [&fire, child = p.id] { fire(child); });
      };
      for (const auto& batch : batches) {
        for (const Plan& p : batch) {
          const SimTime t = std::max(p.t, sim.now());
          sim.schedule_at(t, [&fire, child = p.id] { fire(child); });
        }
        sim.step();
      }
      sim.run();
    }

    // The reference: (time, seq, id) in a flat list, smallest key first.
    std::vector<int> reference_order;
    {
      std::vector<std::tuple<SimTime, std::uint64_t, int>> pending;
      std::uint64_t seq = 0;
      SimTime now = SimTime::zero();
      int next_id = 0;
      const auto step = [&] {
        if (pending.empty()) return;
        const auto it = std::min_element(pending.begin(), pending.end());
        const auto [t, s, id] = *it;
        (void)s;
        pending.erase(it);
        now = t;
        reference_order.push_back(id);
        std::vector<Plan> out;
        children(id, now, next_id, out);
        for (const Plan& p : out) pending.emplace_back(p.t, seq++, p.id);
      };
      for (const auto& batch : batches) {
        for (const Plan& p : batch) pending.emplace_back(std::max(p.t, now), seq++, p.id);
        step();
      }
      while (!pending.empty()) step();
    }

    ASSERT_EQ(engine_order, reference_order) << "seed " << seed;
    EXPECT_GT(engine_order.size(), 500u);
  }
}

// ---------------------------------------------------------------------------
// Engine::run_until_done (the centralized wait-for-condition loop)
// ---------------------------------------------------------------------------

TEST(RunUntilDone, ReturnsImmediatelyWhenAlreadyDone) {
  Simulator sim;
  sim.schedule_at(SimTime::from_us(10.0), [] {});
  EXPECT_TRUE(sim.run_until_done(SimTime::from_us(100.0), [] { return true; }, "noop"));
  // Nothing may have executed: the condition held before the first step.
  EXPECT_EQ(sim.executed_events(), 0u);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(RunUntilDone, StopsAtTheEventThatFlipsTheCondition) {
  Simulator sim;
  bool done = false;
  sim.schedule_at(SimTime::from_us(10.0), [&] { done = true; });
  sim.schedule_at(SimTime::from_us(20.0), [] {});
  EXPECT_TRUE(sim.run_until_done(SimTime::from_us(100.0), [&] { return done; }, "wait"));
  EXPECT_EQ(sim.now(), SimTime::from_us(10.0));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(RunUntilDone, DeadlineCutsTheWaitShort) {
  Simulator sim;
  bool done = false;
  sim.schedule_at(SimTime::from_us(50.0), [&] { done = true; });
  EXPECT_FALSE(sim.run_until_done(SimTime::from_us(10.0), [&] { return done; }, "wait"));
  EXPECT_FALSE(done);
  // The past-deadline event must still be pending, not consumed.
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(RunUntilDone, DeadlineIsInclusive) {
  Simulator sim;
  bool done = false;
  sim.schedule_at(SimTime::from_us(10.0), [&] { done = true; });
  EXPECT_TRUE(sim.run_until_done(SimTime::from_us(10.0), [&] { return done; }, "wait"));
}

TEST(RunUntilDone, DrainedQueueIsADeadlockNotATimeout) {
  Simulator sim;
  try {
    sim.run_until_done(SimTime::from_us(10.0), [] { return false; },
                       "deadlock while waiting for a spill to reach the controller");
    FAIL() << "expected InternalError";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("spill to reach the controller"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Resource
// ---------------------------------------------------------------------------

TEST(Resource, SingleTransferTiming) {
  Simulator sim;
  Resource r(sim, "link", Bandwidth::bytes_per_sec(1e6), SimTime::from_us(10.0));
  const SimTime done = r.submit(Bytes{1000000});  // 1 second at 1 MB/s
  EXPECT_EQ(done, SimTime::from_seconds(1.0) + SimTime::from_us(10.0));
}

TEST(Resource, FifoQueueing) {
  Simulator sim;
  Resource r(sim, "link", Bandwidth::bytes_per_sec(1e6), SimTime::zero());
  const SimTime first = r.submit(Bytes{500000});   // 0.5 s
  const SimTime second = r.submit(Bytes{500000});  // queues behind
  EXPECT_DOUBLE_EQ(first.seconds(), 0.5);
  EXPECT_DOUBLE_EQ(second.seconds(), 1.0);
}

TEST(Resource, CompletionCallbackFiresAtCompletionTime) {
  Simulator sim;
  Resource r(sim, "link", Bandwidth::bytes_per_sec(1e6), SimTime::zero());
  SimTime fired = SimTime::zero();
  r.submit(Bytes{1000000}, [&] { fired = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired.seconds(), 1.0);
}

TEST(Resource, IdleGapsDoNotAccumulate) {
  Simulator sim;
  Resource r(sim, "link", Bandwidth::bytes_per_sec(1e6), SimTime::zero());
  r.submit(Bytes{100000});  // busy until 0.1 s
  // Advance virtual time past the busy period.
  sim.schedule_at(SimTime::from_seconds(5.0), [] {});
  sim.run();
  const SimTime done = r.submit(Bytes{100000});
  EXPECT_DOUBLE_EQ(done.seconds(), 5.1);  // starts now, not at 0.1 s
}

TEST(Resource, StatsAccounting) {
  Simulator sim;
  Resource r(sim, "link", Bandwidth::bytes_per_sec(1e6), SimTime::zero());
  r.submit(Bytes{1000});
  r.submit(Bytes{2000});
  EXPECT_EQ(r.bytes_moved(), 3000u);
}

TEST(Resource, SubmitDurationOccupies) {
  Simulator sim;
  Resource r(sim, "x", Bandwidth::bytes_per_sec(1.0), SimTime::zero());
  const SimTime a = r.submit_duration(SimTime::from_us(100.0));
  const SimTime b = r.submit_duration(SimTime::from_us(50.0));
  EXPECT_EQ(a, SimTime::from_us(100.0));
  EXPECT_EQ(b, SimTime::from_us(150.0));
  EXPECT_EQ(r.available_at(), SimTime::from_us(150.0));
}

TEST(Resource, RequiresPositiveBandwidth) {
  Simulator sim;
  EXPECT_THROW(Resource(sim, "bad", Bandwidth(), SimTime::zero()), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer t;
  t.record(TraceCategory::Kernel, "k", "gpu0", SimTime::zero(), SimTime::from_us(1.0));
  EXPECT_TRUE(t.spans().empty());
}

TEST(TracerTest, RecordsWhenEnabled) {
  Tracer t;
  t.set_enabled(true);
  t.record(TraceCategory::Kernel, "k", "gpu0", SimTime::zero(), SimTime::from_us(1.0));
  ASSERT_EQ(t.spans().size(), 1u);
  EXPECT_EQ(t.spans()[0].name, "k");
  EXPECT_EQ(t.spans()[0].location, "gpu0");
}

TEST(TracerTest, RejectsNegativeSpans) {
  Tracer t;
  t.set_enabled(true);
  EXPECT_THROW(
      t.record(TraceCategory::Kernel, "k", "g", SimTime::from_us(2.0), SimTime::from_us(1.0)),
      InvalidArgument);
}

TEST(TracerTest, ChromeJsonShape) {
  Tracer t;
  t.set_enabled(true);
  t.record(TraceCategory::NetworkTransfer, "xfer", "n0->n1", SimTime::zero(),
           SimTime::from_us(2.0));
  const std::string json = t.to_chrome_json();
  EXPECT_NE(json.find("\"name\": \"xfer\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\": \"network\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
}

// Decode one JSON string field from the Chrome-trace output so the escape
// test can round-trip names instead of only pattern-matching on the escaped
// form.
std::string extract_json_string(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\": \"";
  const std::size_t start = json.find(pat);
  EXPECT_NE(start, std::string::npos) << "missing field " << key;
  if (start == std::string::npos) return {};
  std::string out;
  for (std::size_t i = start + pat.size(); i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"') return out;
    // A well-escaped document never carries raw control bytes in a string.
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << "raw control char in JSON string";
    if (c != '\\') {
      out += c;
      continue;
    }
    const char esc = json[++i];
    switch (esc) {
      case '"': out += '"'; break;
      case '\\': out += '\\'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u':
        out += static_cast<char>(std::stoi(json.substr(i + 1, 4), nullptr, 16));
        i += 4;
        break;
      default: ADD_FAILURE() << "unknown escape \\" << esc; break;
    }
  }
  ADD_FAILURE() << "unterminated JSON string for " << key;
  return out;
}

TEST(TracerTest, ChromeJsonEscapesSpecialCharacters) {
  Tracer t;
  t.set_enabled(true);
  const std::string name = "ker\"nel\\path\nline\ttab\x01 end";
  const std::string location = "gpu\"0\\a";
  t.record(TraceCategory::Kernel, name, location, SimTime::zero(), SimTime::from_us(1.0));
  const std::string json = t.to_chrome_json();
  // The escaped forms appear verbatim…
  EXPECT_NE(json.find("ker\\\"nel\\\\path\\nline\\ttab\\u0001 end"), std::string::npos);
  EXPECT_NE(json.find("gpu\\\"0\\\\a"), std::string::npos);
  // …and decoding the fields recovers the original bytes exactly.
  EXPECT_EQ(extract_json_string(json, "name"), name);
  EXPECT_EQ(extract_json_string(json, "tid"), location);
}

TEST(TracerTest, CategoryNames) {
  EXPECT_STREQ(to_string(TraceCategory::Kernel), "kernel");
  EXPECT_STREQ(to_string(TraceCategory::Eviction), "eviction");
  EXPECT_STREQ(to_string(TraceCategory::Scheduling), "scheduling");
}

}  // namespace
}  // namespace grout::sim
