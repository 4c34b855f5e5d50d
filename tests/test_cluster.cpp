// Tests for the cluster layer: workers, global array mapping, send/receive.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"

namespace grout::cluster {
namespace {

ClusterConfig small_cluster(std::size_t workers = 2) {
  ClusterConfig cfg;
  cfg.workers = workers;
  cfg.worker_node.gpu_count = 2;
  cfg.worker_node.device.memory = 8_MiB;
  cfg.worker_node.tuning.page_size = 1_MiB;
  return cfg;
}

TEST(ClusterTest, ConstructionAndIds) {
  Cluster cluster(small_cluster(3));
  EXPECT_EQ(cluster.worker_count(), 3u);
  EXPECT_EQ(cluster.fabric().node_count(), 4u);
  EXPECT_EQ(Cluster::controller_id(), 0);
  EXPECT_EQ(Cluster::worker_fabric_id(0), 1);
  EXPECT_EQ(Cluster::worker_fabric_id(2), 3);
  EXPECT_EQ(cluster.worker(1).fabric_id(), 2);
}

TEST(ClusterTest, NeedsAWorker) {
  ClusterConfig cfg = small_cluster(0);
  EXPECT_THROW(Cluster{cfg}, InvalidArgument);
}

TEST(ClusterTest, WorkerIndexValidated) {
  Cluster cluster(small_cluster(2));
  EXPECT_THROW((void)cluster.worker(2), InvalidArgument);
}

TEST(WorkerTest, EnsureArrayIsIdempotent) {
  Cluster cluster(small_cluster());
  Worker& w = cluster.worker(0);
  const uvm::ArrayId a = w.ensure_array(7, 2_MiB);
  const uvm::ArrayId b = w.ensure_array(7, 2_MiB);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(w.has_array(7));
  EXPECT_FALSE(w.has_array(8));
  EXPECT_EQ(w.local_array(7), a);
  EXPECT_THROW((void)w.local_array(8), InvalidArgument);
}

TEST(WorkerTest, IdsPastTheTableAreNotHeld) {
  Cluster cluster(small_cluster());
  Worker& w = cluster.worker(0);
  w.ensure_array(3, 1_MiB);
  EXPECT_FALSE(w.has_array(2));  // inside the table, never ensured
  EXPECT_FALSE(w.has_array(4));  // past the table
  EXPECT_FALSE(w.has_array(100000));
  EXPECT_THROW((void)w.local_array(4), InvalidArgument);
  EXPECT_THROW((void)w.local_array(100000), InvalidArgument);
  w.release_array(100000);  // not held: a no-op
  EXPECT_TRUE(w.has_array(3));
}

TEST(WorkerTest, ExecuteKernelTranslatesGlobalIds) {
  Cluster cluster(small_cluster());
  Worker& w = cluster.worker(0);
  const GlobalArrayId global = 42;
  w.ensure_array(global, 2_MiB);
  w.node().uvm().host_access(w.local_array(global), uvm::AccessMode::Write);

  gpusim::KernelLaunchSpec spec;
  spec.name = "k";
  spec.flops = 1e9;
  spec.params.push_back(uvm::ParamAccess{global, {}, uvm::AccessMode::Read,
                                         uvm::StreamingPattern{}});
  const runtime::Submission sub = w.execute_kernel(std::move(spec));
  cluster.simulator().run();
  EXPECT_TRUE(sub.done->completed());
  // The kernel actually migrated the local allocation.
  EXPECT_GT(w.node().uvm().resident_bytes(0) + w.node().uvm().resident_bytes(1), 0u);
}

TEST(WorkerTest, StageSendGathersToHost) {
  Cluster cluster(small_cluster());
  Worker& w = cluster.worker(0);
  const GlobalArrayId global = 1;
  const uvm::ArrayId local = w.ensure_array(global, 2_MiB);
  w.node().uvm().host_access(local, uvm::AccessMode::Write);

  // Kernel writes the array on a GPU, then the staged send must wait for
  // the write and migrate the result home.
  gpusim::KernelLaunchSpec spec;
  spec.name = "writer";
  spec.flops = 1e9;
  spec.params.push_back(uvm::ParamAccess{global, {}, uvm::AccessMode::ReadWrite,
                                         uvm::StreamingPattern{}});
  const runtime::Submission writer = w.execute_kernel(std::move(spec));
  const runtime::Submission staged = w.stage_send(global);
  cluster.simulator().run();
  EXPECT_GE(staged.done->when(), writer.done->when());
  EXPECT_TRUE(w.node().uvm().page_resident(local, 0, uvm::kHostDevice));
}

TEST(WorkerTest, AcceptReceiveWaitsForArrival) {
  Cluster cluster(small_cluster());
  Worker& w = cluster.worker(1);
  const GlobalArrayId global = 5;
  const uvm::ArrayId local = w.ensure_array(global, 2_MiB);

  auto arrival = cluster.fabric().transfer(Cluster::controller_id(),
                                           w.fabric_id(), 2_MiB, "send");
  const runtime::Submission recv = w.accept_receive(global, arrival);
  cluster.simulator().run();
  ASSERT_TRUE(recv.done->completed());
  EXPECT_GE(recv.done->when(), arrival->when());
  EXPECT_TRUE(w.node().uvm().page_resident(local, 0, uvm::kHostDevice));
}

TEST(WorkerTest, ReceiveOrdersAgainstLocalReaders) {
  Cluster cluster(small_cluster());
  Worker& w = cluster.worker(0);
  const GlobalArrayId global = 9;
  const uvm::ArrayId local = w.ensure_array(global, 2_MiB);
  w.node().uvm().host_access(local, uvm::AccessMode::Write);

  gpusim::KernelLaunchSpec spec;
  spec.name = "reader";
  spec.flops = 1.25e12;
  spec.params.push_back(uvm::ParamAccess{global, {}, uvm::AccessMode::Read,
                                         uvm::StreamingPattern{}});
  const runtime::Submission reader = w.execute_kernel(std::move(spec));
  auto arrival = gpusim::make_event();
  arrival->complete(SimTime::zero());  // network already done
  const runtime::Submission recv = w.accept_receive(global, arrival);
  cluster.simulator().run();
  // WAR inside the node: the new copy must not install before the reader.
  EXPECT_GE(recv.done->when(), reader.done->when());
}

TEST(ClusterTest, WorkersHaveDistinctSeedsAndNames) {
  Cluster cluster(small_cluster(2));
  EXPECT_EQ(cluster.worker(0).node().name(), "node0");
  EXPECT_EQ(cluster.worker(1).node().name(), "node1");
}

}  // namespace
}  // namespace grout::cluster
