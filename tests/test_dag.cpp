// Tests for the dependency DAG (Algorithm 1: frontier insertion and
// redundant-edge filtering).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <new>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "dag/dependency_dag.hpp"

// Every heap allocation of this test binary is counted, so a test can check
// how often a stretch of DAG inserts reaches the allocator.
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

namespace grout::dag {
namespace {

AccessSummary r(uvm::ArrayId a) { return AccessSummary{a, false}; }
AccessSummary w(uvm::ArrayId a) { return AccessSummary{a, true}; }

/// `v`'s ancestors as a vector, so gtest can compare and print them.
std::vector<VertexId> ancestors_of(const DependencyDag& dag, VertexId v) {
  const std::span<const VertexId> anc = dag.ancestors(v);
  return {anc.begin(), anc.end()};
}

bool has_ancestor(const DependencyDag& dag, VertexId v, VertexId a) {
  const auto& anc = dag.ancestors(v);
  return std::find(anc.begin(), anc.end(), a) != anc.end();
}

TEST(Dag, EmptyStart) {
  DependencyDag dag;
  EXPECT_EQ(dag.size(), 0u);
  EXPECT_EQ(dag.edge_count(), 0u);
  EXPECT_TRUE(dag.frontier().empty());
}

TEST(Dag, ReadAfterWriteCreatesEdge) {
  DependencyDag dag;
  const VertexId writer = dag.add("w", {w(0)});
  const VertexId reader = dag.add("r", {r(0)});
  EXPECT_TRUE(has_ancestor(dag, reader, writer));
  EXPECT_EQ(dag.edge_count(), 1u);
}

TEST(Dag, WriteAfterReadCreatesEdge) {
  DependencyDag dag;
  dag.add("init", {w(0)});
  const VertexId reader = dag.add("r", {r(0)});
  const VertexId writer = dag.add("w2", {w(0)});
  EXPECT_TRUE(has_ancestor(dag, writer, reader));
}

TEST(Dag, WriteAfterWriteCreatesEdge) {
  DependencyDag dag;
  const VertexId w1 = dag.add("w1", {w(0)});
  const VertexId w2 = dag.add("w2", {w(0)});
  EXPECT_TRUE(has_ancestor(dag, w2, w1));
}

TEST(Dag, ReadAfterReadIsIndependent) {
  DependencyDag dag;
  dag.add("init", {w(0)});
  const VertexId r1 = dag.add("r1", {r(0)});
  const VertexId r2 = dag.add("r2", {r(0)});
  EXPECT_FALSE(has_ancestor(dag, r2, r1));
  // But a later writer depends on BOTH readers.
  const VertexId w2 = dag.add("w2", {w(0)});
  EXPECT_TRUE(has_ancestor(dag, w2, r1));
  EXPECT_TRUE(has_ancestor(dag, w2, r2));
}

TEST(Dag, DisjointArraysNoEdges) {
  DependencyDag dag;
  dag.add("a", {w(0)});
  const VertexId b = dag.add("b", {w(1)});
  EXPECT_TRUE(dag.ancestors(b).empty());
}

TEST(Dag, RedundantEdgeFiltered) {
  // A -> B (chain on array 0); C reads arrays written by A and B: only the
  // B edge must remain (the paper's filterRedundant example).
  DependencyDag dag;
  const VertexId a = dag.add("A", {w(0)});
  const VertexId b = dag.add("B", {r(0), w(1)});
  const VertexId c = dag.add("C", {r(0), r(1)});
  EXPECT_TRUE(has_ancestor(dag, c, b));
  EXPECT_FALSE(has_ancestor(dag, c, a));
  EXPECT_EQ(dag.ancestors(c).size(), 1u);
}

TEST(Dag, LongChainTransitiveReduction) {
  DependencyDag dag;
  VertexId prev = dag.add("k0", {w(0)});
  for (int i = 1; i < 20; ++i) {
    const VertexId v = dag.add(str_cat("k", std::to_string(i)), {w(0)});
    EXPECT_EQ(dag.ancestors(v).size(), 1u);
    EXPECT_TRUE(has_ancestor(dag, v, prev));
    prev = v;
  }
}

TEST(Dag, IsAncestorTransitive) {
  DependencyDag dag;
  const VertexId a = dag.add("a", {w(0)});
  const VertexId b = dag.add("b", {r(0), w(1)});
  const VertexId c = dag.add("c", {r(1), w(2)});
  EXPECT_TRUE(dag.is_ancestor(a, c));
  EXPECT_TRUE(dag.is_ancestor(b, c));
  EXPECT_FALSE(dag.is_ancestor(c, a));
  EXPECT_FALSE(dag.is_ancestor(c, c));
}

TEST(Dag, FrontierTracksLastWritersAndReaders) {
  DependencyDag dag;
  const VertexId w1 = dag.add("w1", {w(0)});
  auto frontier = dag.frontier();
  EXPECT_EQ(frontier, std::vector<VertexId>{w1});

  const VertexId r1 = dag.add("r1", {r(0)});
  frontier = dag.frontier();
  EXPECT_EQ(frontier, (std::vector<VertexId>{w1, r1}));

  // A new writer supersedes both.
  const VertexId w2 = dag.add("w2", {w(0)});
  frontier = dag.frontier();
  EXPECT_EQ(frontier, std::vector<VertexId>{w2});
}

TEST(Dag, ForgetClearsTheArraysFrontierState) {
  DependencyDag dag;
  const VertexId w0 = dag.add("w0", {w(0)});
  const VertexId r0 = dag.add("r0", {r(0)});
  const VertexId w1 = dag.add("w1", {w(1)});
  EXPECT_EQ(dag.frontier(), (std::vector<VertexId>{w0, r0, w1}));

  dag.forget(0);
  EXPECT_EQ(dag.frontier(), std::vector<VertexId>{w1});
  // Ids past the table: forgetting them is a no-op.
  dag.forget(1000);
  EXPECT_EQ(dag.frontier(), std::vector<VertexId>{w1});
  // Nothing orders array 0's next writer any more; array 1 keeps its writer.
  const VertexId next0 = dag.add("w0'", {w(0)});
  EXPECT_TRUE(ancestors_of(dag, next0).empty());
  const VertexId r1 = dag.add("r1", {r(1)});
  EXPECT_EQ(ancestors_of(dag, r1), std::vector<VertexId>{w1});
}

TEST(Dag, SparseArrayIdsGetTheSameEdgesAsAdjacentOnes) {
  // A CE first touching id 100000 right after id 0 grows the per-array
  // table in the middle of an insert; its edges must not depend on that.
  const auto build = [](uvm::ArrayId far) {
    DependencyDag dag;
    dag.add("init", {w(0)});
    dag.add("grow", {r(0), w(far)});
    dag.add("both", {r(far), r(0), w(2)});
    dag.add("again", {w(far), w(0)});
    return dag;
  };
  const DependencyDag adjacent = build(1);
  DependencyDag sparse = build(100000);
  ASSERT_EQ(adjacent.size(), sparse.size());
  for (VertexId v = 0; v < adjacent.size(); ++v) {
    EXPECT_EQ(ancestors_of(adjacent, v), ancestors_of(sparse, v)) << "vertex " << v;
  }
  EXPECT_EQ(adjacent.frontier(), sparse.frontier());
  // The far array's last writer is "again".
  const VertexId probe = sparse.add("probe", {r(100000)});
  EXPECT_EQ(ancestors_of(sparse, probe), std::vector<VertexId>{3});
}

TEST(Dag, InvalidVertexThrows) {
  DependencyDag dag;
  EXPECT_THROW((void)dag.vertex(3), InvalidArgument);
}

TEST(Dag, InvalidArrayThrows) {
  DependencyDag dag;
  EXPECT_THROW(dag.add("bad", {AccessSummary{uvm::kInvalidArray, true}}), InvalidArgument);
}

TEST(Dag, DiamondPattern) {
  // init writes X; two readers fan out; a final writer fans in.
  DependencyDag dag;
  const VertexId init = dag.add("init", {w(0)});
  const VertexId left = dag.add("left", {r(0), w(1)});
  const VertexId right = dag.add("right", {r(0), w(2)});
  const VertexId join = dag.add("join", {r(1), r(2)});
  EXPECT_TRUE(has_ancestor(dag, left, init));
  EXPECT_TRUE(has_ancestor(dag, right, init));
  EXPECT_TRUE(has_ancestor(dag, join, left));
  EXPECT_TRUE(has_ancestor(dag, join, right));
  EXPECT_FALSE(has_ancestor(dag, join, init));  // filtered: transitive
}

TEST(Dag, DotExportContainsNodesAndEdges) {
  DependencyDag dag;
  const VertexId a = dag.add("producer", {w(0)});
  const VertexId b = dag.add("consumer", {r(0)});
  const std::string dot = dag.to_dot();
  EXPECT_NE(dot.find("digraph ces"), std::string::npos);
  EXPECT_NE(dot.find("n0 [label=\"producer\"]"), std::string::npos);
  EXPECT_NE(dot.find("n1 [label=\"consumer\"]"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1;"), std::string::npos);
  (void)a;
  (void)b;
}

TEST(Dag, DotAnnotationsAppended) {
  DependencyDag dag;
  dag.add("k", {w(0)});
  const std::string dot =
      dag.to_dot([](VertexId) { return std::string("worker0"); });
  EXPECT_NE(dot.find("k\\nworker0"), std::string::npos);
}

TEST(Dag, DotEscapesQuotesAndBackslashes) {
  // Labels carry user-supplied array names; a quote or backslash in one
  // must not end the DOT string. The label/annotation separator stays \n.
  DependencyDag dag;
  dag.add("host-init:a\"b\\c", {w(0)});
  const std::string dot = dag.to_dot([](VertexId) { return std::string("w\"0"); });
  EXPECT_NE(dot.find("[label=\"host-init:a\\\"b\\\\c\\nw\\\"0\"];"), std::string::npos) << dot;
}

TEST(Dag, InsertsAllocateOnlyWhenAPoolGrows) {
  // A vertex is runs of shared pools, not heap objects of its own: 10^4
  // inserts reach the allocator O(log n) times, as the pools and scratch
  // vectors double, not once per insert.
  constexpr std::size_t kInserts = 10000;
  constexpr uvm::ArrayId kArrays = 16;
  DependencyDag dag;
  std::vector<AccessSummary> accesses;
  accesses.reserve(3);
  const std::size_t before = g_allocations;
  for (std::size_t i = 0; i < kInserts; ++i) {
    const auto a = static_cast<uvm::ArrayId>(i % kArrays);
    accesses.clear();
    accesses.push_back(r(a));
    accesses.push_back(r((a + 5) % kArrays));
    accesses.push_back(i % 3 == 0 ? w((a + 11) % kArrays) : r((a + 11) % kArrays));
    dag.add(i % 2 == 0 ? std::string_view{} : "a-label-longer-than-sso", accesses);
  }
  const std::size_t allocations = g_allocations - before;
  ASSERT_EQ(dag.size(), kInserts);
  EXPECT_LT(allocations, 32 * std::bit_width(kInserts)) << allocations << " allocations";
}

TEST(Dag, VertexRoundTripsLabelsAndAccesses) {
  Rng rng(2024);
  DependencyDag dag;
  std::vector<DependencyDag::Vertex> inserted;
  for (int step = 0; step < 500; ++step) {
    DependencyDag::Vertex ce;
    // Empty, short and heap-sized labels, with quotes and backslashes.
    switch (rng.next_below(3)) {
      case 0: break;
      case 1: ce.label = str_cat("k", std::to_string(step)); break;
      default:
        ce.label = str_cat("host-init:\"array\\", std::to_string(step), std::string(20, 'x'));
    }
    std::set<uvm::ArrayId> used;
    const std::size_t n = rng.next_below(5);
    while (used.size() < n) {
      const auto a = static_cast<uvm::ArrayId>(rng.next_below(40));
      if (used.insert(a).second) ce.accesses.push_back(AccessSummary{a, rng.next_below(2) == 0});
    }
    ASSERT_EQ(dag.add(ce.label, ce.accesses), static_cast<VertexId>(step));
    inserted.push_back(std::move(ce));
  }
  ASSERT_EQ(dag.size(), inserted.size());
  for (VertexId v = 0; v < dag.size(); ++v) {
    const DependencyDag::Vertex got = dag.vertex(v);
    EXPECT_EQ(got.label, inserted[v].label) << "vertex " << v;
    ASSERT_EQ(got.accesses.size(), inserted[v].accesses.size()) << "vertex " << v;
    for (std::size_t i = 0; i < got.accesses.size(); ++i) {
      EXPECT_EQ(got.accesses[i].array, inserted[v].accesses[i].array) << "vertex " << v;
      EXPECT_EQ(got.accesses[i].write, inserted[v].accesses[i].write) << "vertex " << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Properties over random CE streams
// ---------------------------------------------------------------------------

class DagProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DagProperty, RandomStreamsKeepInvariants) {
  Rng rng(GetParam());
  DependencyDag dag;
  constexpr std::size_t kArrays = 6;

  // Reference: last writer and readers-since per array.
  std::vector<VertexId> last_writer(kArrays, kNoVertex);
  std::vector<std::vector<VertexId>> readers(kArrays);

  for (int step = 0; step < 200; ++step) {
    // 1-3 random accesses per CE over distinct arrays.
    std::set<uvm::ArrayId> used;
    std::vector<AccessSummary> accesses;
    const std::size_t n = 1 + rng.next_below(3);
    while (used.size() < n) {
      const auto a = static_cast<uvm::ArrayId>(rng.next_below(kArrays));
      if (used.insert(a).second) {
        accesses.push_back(AccessSummary{a, rng.next_below(2) == 0});
      }
    }
    const VertexId v = dag.add(str_cat("ce", std::to_string(step)), accesses);

    // Every conflicting predecessor must be an ancestor (directly or
    // transitively).
    for (const AccessSummary& acc : accesses) {
      if (last_writer[acc.array] != kNoVertex) {
        ASSERT_TRUE(dag.is_ancestor(last_writer[acc.array], v))
            << "missing RAW/WAW ordering";
      }
      if (acc.write) {
        for (const VertexId reader : readers[acc.array]) {
          ASSERT_TRUE(dag.is_ancestor(reader, v)) << "missing WAR ordering";
        }
      }
    }

    // Direct ancestors are minimal: none reachable from another.
    const auto& anc = dag.ancestors(v);
    for (const VertexId a : anc) {
      for (const VertexId b : anc) {
        if (a != b) {
          ASSERT_FALSE(dag.is_ancestor(a, b)) << "redundant edge kept";
        }
      }
    }

    for (const AccessSummary& acc : accesses) {
      if (acc.write) {
        last_writer[acc.array] = v;
        readers[acc.array].clear();
      } else {
        readers[acc.array].push_back(v);
      }
    }
  }

  EXPECT_TRUE(dag.edges_respect_insertion_order());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagProperty, ::testing::Values(1u, 7u, 42u, 1234u, 98765u));

}  // namespace
}  // namespace grout::dag
