// Differential tests: the reachability-indexed DependencyDag against the
// naive pre-fast-path implementation (tests/support/naive_oracles.hpp).
//
// The fast path changed five things that must not change observable
// behavior: filter_redundant runs one multi-source epoch-stamped walk
// instead of pairwise probes, is_ancestor reuses scratch buffers, WAR
// reader lists are compacted past a threshold, a last writer whose array
// was read since is marked dominated early (outright when a WAR reader is
// a candidate, else by an ordered walk that stops once it falls below
// every unmarked candidate), and candidates within the reach window of the
// newest vertices are decided from exact reach bit sets with no walk at
// all. Edge sets and reachability must match the oracle exactly on every
// stream shape.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "dag/dependency_dag.hpp"
#include "tests/support/naive_oracles.hpp"

namespace grout::dag {
namespace {

AccessSummary rd(uvm::ArrayId a) { return AccessSummary{a, false}; }
AccessSummary wr(uvm::ArrayId a) { return AccessSummary{a, true}; }

/// `v`'s ancestors as a vector, so gtest can compare and print them.
std::vector<VertexId> ancestors_of(const DependencyDag& dag, VertexId v) {
  const std::span<const VertexId> anc = dag.ancestors(v);
  return {anc.begin(), anc.end()};
}

/// Feed the same access stream to both implementations; assert identical
/// per-vertex ancestor sets (the DAG's full edge set) as they grow.
void expect_equivalent(const std::vector<std::vector<AccessSummary>>& stream) {
  DependencyDag fast;
  oracle::NaiveDag naive;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const VertexId fv = fast.add(str_cat("ce", std::to_string(i)), stream[i]);
    const VertexId nv = naive.add(stream[i]);
    ASSERT_EQ(fv, nv);
    ASSERT_EQ(ancestors_of(fast, fv), naive.ancestors(nv)) << "edge sets diverge at CE " << i;
  }
  EXPECT_EQ(fast.edge_count(), naive.edge_count());
  EXPECT_TRUE(fast.edges_respect_insertion_order());
}

/// Random mixed-access stream over `arrays` arrays. With `repeat_pct` > 0,
/// a CE may touch one of its arrays a second time in the other mode, after
/// the first access: write-then-read (the CE is then the first reader since
/// its own write) or read-then-write.
std::vector<std::vector<AccessSummary>> random_stream(std::uint64_t seed, std::size_t vertices,
                                                      std::size_t arrays,
                                                      std::uint32_t write_pct,
                                                      std::uint32_t repeat_pct = 0) {
  Rng rng(seed);
  std::vector<std::vector<AccessSummary>> stream;
  stream.reserve(vertices);
  for (std::size_t i = 0; i < vertices; ++i) {
    std::set<uvm::ArrayId> used;
    std::vector<AccessSummary> accesses;
    const std::size_t n = 1 + rng.next_below(std::min<std::size_t>(arrays, 3));
    while (used.size() < n) {
      const auto a = static_cast<uvm::ArrayId>(rng.next_below(arrays));
      if (used.insert(a).second) {
        accesses.push_back(AccessSummary{a, rng.next_below(100) < write_pct});
      }
    }
    if (repeat_pct > 0 && rng.next_below(100) < repeat_pct) {
      const AccessSummary first = accesses[rng.next_below(accesses.size())];
      accesses.push_back(AccessSummary{first.array, !first.write});
    }
    stream.push_back(std::move(accesses));
  }
  return stream;
}

class DagDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DagDifferential, RandomMixedStream1k) {
  expect_equivalent(random_stream(GetParam(), 1200, 8, 40));
}

TEST_P(DagDifferential, ReadHeavyStream) {
  // Few writers, many readers: exercises reader-list compaction (the lists
  // pass the 64-entry threshold between writes) without changing edges.
  expect_equivalent(random_stream(GetParam() ^ 0xabcdef, 1500, 3, 4));
}

TEST_P(DagDifferential, RepeatedArrayWithinOneCe) {
  // A third of the CEs touch an array twice (write-then-read or
  // read-then-write). A CE that wrote then read X is both X's last writer
  // and the first entry of X's reader list; it does not reach itself, so a
  // later writer of X must not take that entry as proof that X's last
  // writer is dominated.
  expect_equivalent(random_stream(GetParam() ^ 0x5a5a, 1500, 5, 35, 33));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagDifferential,
                         ::testing::Values(1u, 7u, 42u, 1234u, 98765u));

TEST(DagDifferential, LongChain) {
  // CE i reads CE i-1's output: maximal-depth ancestry, single kept edge.
  std::vector<std::vector<AccessSummary>> stream;
  stream.push_back({wr(0)});
  for (uvm::ArrayId i = 1; i < 1024; ++i) stream.push_back({rd(i - 1), wr(i)});
  expect_equivalent(stream);
}

TEST(DagDifferential, RollingChainOverFewArrays) {
  // Rewrites a small array window so WAW/WAR candidates are always
  // transitively dominated by the RAW chain.
  std::vector<std::vector<AccessSummary>> stream;
  stream.push_back({wr(0)});
  for (std::size_t i = 1; i < 2000; ++i) {
    const auto cur = static_cast<uvm::ArrayId>(i % 7);
    const auto prev = static_cast<uvm::ArrayId>((i - 1) % 7);
    stream.push_back({rd(prev), wr(cur)});
  }
  expect_equivalent(stream);
}

TEST(DagDifferential, WideFanOutPastCompactionThreshold) {
  // One writer, 300 independent readers (well past the 64-entry compaction
  // trigger), then a writer that must depend on every reader.
  std::vector<std::vector<AccessSummary>> stream;
  stream.push_back({wr(0)});
  for (int i = 0; i < 300; ++i) stream.push_back({rd(0)});
  stream.push_back({wr(0)});
  expect_equivalent(stream);

  DependencyDag dag;
  dag.add("init", {wr(0)});
  for (int i = 0; i < 300; ++i) dag.add(str_cat("r", std::to_string(i)), {rd(0)});
  const VertexId barrier = dag.add("barrier", {wr(0)});
  EXPECT_EQ(dag.ancestors(barrier).size(), 300u);
}

TEST(DagDifferential, FanOutWithCrossEdgesCompacts) {
  // Readers of X that also chain among themselves through Y: compaction can
  // drop chained readers from X's WAR list, and the final writer's edge set
  // must still match the oracle's.
  std::vector<std::vector<AccessSummary>> stream;
  stream.push_back({wr(0)});
  stream.push_back({wr(1)});
  for (std::size_t i = 0; i < 200; ++i) {
    if (i % 2 == 0) {
      stream.push_back({rd(0), wr(1)});  // chained reader: dominated later
    } else {
      stream.push_back({rd(0), rd(1)});
    }
  }
  stream.push_back({wr(0)});
  expect_equivalent(stream);
}

TEST(DagDifferential, ReadMostlyStream) {
  // The CG / host_init shape: 8 inputs written once and read ever after,
  // plus a rolling chain over 16 arrays. Every insert has a last writer
  // from the start of the program among its candidates, which the early
  // exit must mark dominated exactly when the full walk would.
  constexpr uvm::ArrayId kInputs = 8;
  std::vector<std::vector<AccessSummary>> stream;
  for (uvm::ArrayId a = 0; a < kInputs; ++a) stream.push_back({wr(a)});
  for (std::size_t i = 0; i < 10000; ++i) {
    const auto in = static_cast<uvm::ArrayId>(i % kInputs);
    const auto prev = static_cast<uvm::ArrayId>(kInputs + (i + 15) % 16);
    const auto out = static_cast<uvm::ArrayId>(kInputs + i % 16);
    if (i % 5 == 0) {
      std::vector<AccessSummary> all;  // every input, like a CG matrix sweep
      for (uvm::ArrayId a = 0; a < kInputs; ++a) all.push_back(rd(a));
      all.push_back(wr(out));
      stream.push_back(std::move(all));
    } else {
      stream.push_back({rd(in), rd(prev), wr(out)});
    }
  }
  expect_equivalent(stream);
}

TEST(DagDifferential, ServeSharedPool) {
  // The serving contention shape: concurrent programs, each two
  // host-initialized locals and then 8 ops writing the program's scratch
  // array (a WAW chain) and reading up to 3 keys, mostly from a Zipf 0.9
  // pool of 24 shared arrays; 20% of ops read-modify-write their first
  // pool key. Every fourth stretch of 400 CEs has no updates, so hot keys
  // collect reader windows past the 64-entry compaction. Rarely updated
  // keys keep their last writer further back than the reach window, so
  // both the bit-set decisions and the walks run.
  constexpr uvm::ArrayId kPool = 24;
  constexpr std::size_t kPrograms = 16;
  constexpr std::size_t kOps = 8;
  constexpr std::size_t kCes = 12000;
  Rng rng(0x5e7e);
  const ZipfGenerator zipf(kPool, 0.9);
  struct Program {
    uvm::ArrayId locals[2];
    uvm::ArrayId scratch;
    std::size_t next_op;
  };
  uvm::ArrayId next_array = kPool;
  std::vector<Program> running;
  std::vector<std::vector<AccessSummary>> stream;
  for (uvm::ArrayId k = 0; k < kPool; ++k) stream.push_back({wr(k)});
  while (stream.size() < kCes) {
    if (running.size() < kPrograms) {
      Program p{{next_array, next_array + 1}, next_array + 2, 0};
      next_array += 3;
      stream.push_back({wr(p.locals[0])});
      stream.push_back({wr(p.locals[1])});
      running.push_back(p);
      continue;
    }
    const std::size_t i = rng.next_below(running.size());
    Program& p = running[i];
    const bool quiet = (stream.size() / 400) % 4 == 3;
    const bool update = !quiet && rng.next_double() < 0.2;
    std::vector<AccessSummary> ce;
    for (std::size_t k = 0; k < 3; ++k) {
      if (rng.next_double() < 0.9) {
        const auto key = static_cast<uvm::ArrayId>(zipf.next(rng));
        const bool seen = std::any_of(ce.begin(), ce.end(),
                                      [&](const AccessSummary& a) { return a.array == key; });
        if (seen) continue;
        ce.push_back(AccessSummary{key, update && ce.empty()});
      } else {
        const uvm::ArrayId local = p.locals[rng.next_below(2)];
        const bool seen = std::any_of(ce.begin(), ce.end(),
                                      [&](const AccessSummary& a) { return a.array == local; });
        if (!seen) ce.push_back(rd(local));
      }
    }
    ce.push_back(wr(p.scratch));
    stream.push_back(std::move(ce));
    if (++p.next_op == kOps) running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
  }
  expect_equivalent(stream);
}

TEST(DagDifferential, LowerCandidateReachableOnlyThroughAMarkedWriter) {
  // Arrays X = 0, Y = 1, Z = 2. v0 writes Z; v1 reads Z and writes X; v2
  // reads X and writes Y. The new CE reads X, Z and Y: its candidates are
  // v0, v1 and v2. v2 reads X, so the walk marks v1 (X's last writer)
  // dominated on reaching v2, but v0 is reachable only through v1, so v1
  // must still be expanded.
  const std::vector<std::vector<AccessSummary>> stream = {
      {wr(2)}, {rd(2), wr(0)}, {rd(0), wr(1)}, {rd(0), rd(2), rd(1)}};
  expect_equivalent(stream);

  DependencyDag dag;
  for (const auto& accesses : stream) dag.add("ce", accesses);
  EXPECT_EQ(ancestors_of(dag, 3), std::vector<VertexId>{2});
}

TEST(DagDifferential, IsAncestorEquivalenceSweep) {
  const auto stream = random_stream(0x5eed, 600, 6, 35);
  DependencyDag fast;
  oracle::NaiveDag naive;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    fast.add(str_cat("ce", std::to_string(i)), stream[i]);
    naive.add(stream[i]);
  }
  // Dense sweep over a sample grid plus every adjacent pair.
  Rng rng(0x15a);
  for (int probe = 0; probe < 20000; ++probe) {
    const VertexId a = rng.next_below(fast.size());
    const VertexId v = rng.next_below(fast.size());
    ASSERT_EQ(fast.is_ancestor(a, v), naive.is_ancestor(a, v))
        << "is_ancestor(" << a << ", " << v << ") diverges";
  }
  for (VertexId v = 1; v < fast.size(); ++v) {
    ASSERT_EQ(fast.is_ancestor(v - 1, v), naive.is_ancestor(v - 1, v));
  }
}

TEST(DagDifferential, ReaderListsStayBoundedOnRollingReads) {
  // A reader stream where each reader is dominated by the next (reads X,
  // writes a chain array): compaction keeps the WAR list near the minimum
  // instead of one entry per reader for the life of the array.
  DependencyDag dag;
  dag.add("init", {wr(0)});
  dag.add("chain0", {wr(1)});
  for (std::size_t i = 0; i < 5000; ++i) {
    dag.add(str_cat("r", std::to_string(i)), {rd(0), rd(1), wr(1)});
  }
  // The final writer of X sees a compacted candidate list: exactly the
  // frontier chain tail plus the last writer, not 5000 readers.
  const VertexId barrier = dag.add("barrier", {wr(0)});
  EXPECT_EQ(dag.ancestors(barrier).size(), 1u);
}

}  // namespace
}  // namespace grout::dag
