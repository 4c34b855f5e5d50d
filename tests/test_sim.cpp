// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <vector>
#include <functional>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace grout::sim {
namespace {

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
