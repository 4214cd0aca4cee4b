// Per-phase scoping and answer checking of the phase runner, on a small
// deployment.

#include <gtest/gtest.h>

#include <string>

#include "src/workload.h"

namespace perfbench {
namespace {

Workload SmallReads() {
  Workload w;
  w.name = "small_reads";
  w.keys = 4000;
  w.memtable_size = 64 << 10;
  w.sstable_size = 64 << 10;
  w.get = 0.8;
  w.multiget = 0.2;
  return w;
}

// Two identical read phases on one warm deployment post identical READ
// verb deltas, and each delta is the phase's own: a cumulative snapshot
// would read twice as many after the second phase.
TEST(PhaseScopeTest, IdenticalReadPhasesPostIdenticalReadDeltas) {
  Workload w = SmallReads();
  PhaseResult a, b;
  uint64_t cumulative_reads = 0;
  std::string error;
  ASSERT_TRUE(Deployment::Run(
      w, 11,
      [&](Deployment& d) {
        uint64_t before = d.Snapshot().stats.rdma.read.ops;
        d.Reseed(5);
        a = d.RunPhase(300);
        d.Reseed(5);
        b = d.RunPhase(300);
        cumulative_reads = d.Snapshot().stats.rdma.read.ops - before;
      },
      &error))
      << error;
  const auto& ra = a.delta.stats.rdma.read;
  const auto& rb = b.delta.stats.rdma.read;
  ASSERT_GT(ra.ops, 0u);
  EXPECT_EQ(ra.ops, rb.ops);
  EXPECT_EQ(ra.bytes, rb.bytes);
  EXPECT_EQ(ra.latency_us.Count(), ra.ops);
  EXPECT_EQ(rb.latency_us.Count(), rb.ops);
  EXPECT_EQ(cumulative_reads, ra.ops + rb.ops);
  EXPECT_EQ(a.get_keys, b.get_keys);
  EXPECT_EQ(a.delta.stats.bloom_useful, b.delta.stats.bloom_useful);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
  EXPECT_EQ(a.calls, static_cast<uint64_t>(kClients) * 300);
  EXPECT_EQ(a.latency_ns[kGet].size() + a.latency_ns[kMultiGet].size(),
            a.calls);
}

// Answers are checked, not aborted on: deleting every loaded key behind
// the ledger's back turns each read of a loaded key into a counted
// failure.
TEST(PhaseScopeTest, WrongAnswersAreCountedAsFailures) {
  Workload w = SmallReads();
  PhaseResult r;
  std::string error;
  ASSERT_TRUE(Deployment::Run(
      w, 3,
      [&](Deployment& d) {
        for (uint64_t k = 0; k < w.keys; k++) {
          if (!d.ledger().Acked(k)) continue;
          ASSERT_TRUE(d.db()->Delete(dlsm::WriteOptions(), MakeKey(k)).ok());
        }
        r = d.RunPhase(100);
      },
      &error))
      << error;
  EXPECT_GT(r.failed, r.key_ops / 3);
  EXPECT_LT(r.failed, r.key_ops);
}

TEST(PhaseScopeTest, ScansAreCheckedForOrderAndCompleteness) {
  Workload w = SmallReads();
  w.get = w.multiget = 0;
  w.scan = 1.0;
  PhaseResult r;
  std::string error;
  ASSERT_TRUE(Deployment::Run(
      w, 9, [&](Deployment& d) { r = d.RunPhase(50); }, &error))
      << error;
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(r.key_ops, static_cast<uint64_t>(kClients) * 50);
  EXPECT_GT(r.scanned, r.key_ops * (kScanLength / 2));
  EXPECT_GT(r.delta.stats.rdma.read.bytes, 0u);
}

TEST(PhaseScopeTest, ValueCheck) {
  std::string v;
  MakeValue(MakeKey(123), 99, &v);
  EXPECT_EQ(v.size(), kValueBytes);
  EXPECT_EQ(v.substr(0, 4), "123.");
  EXPECT_TRUE(ValueMatches(MakeKey(123), v));
  EXPECT_FALSE(ValueMatches(MakeKey(12), v));
  EXPECT_FALSE(ValueMatches(MakeKey(1234), v));
  EXPECT_FALSE(ValueMatches(MakeKey(123), v.substr(0, 399)));
  MakeValue(MakeKey(0), 5, &v);
  EXPECT_EQ(v.substr(0, 2), "0.");
  EXPECT_TRUE(ValueMatches(MakeKey(0), v));
  EXPECT_EQ(MakeKey(42), "0000000000000042");
}

TEST(PhaseScopeTest, WorkloadsAreNamedAndMixesSumToOne) {
  ASSERT_EQ(Workloads().size(), 4u);
  for (const Workload& w : Workloads()) {
    EXPECT_EQ(FindWorkload(w.name), &w);
    EXPECT_NEAR(w.get + w.multiget + w.put + w.scan, 1.0, 1e-9) << w.name;
  }
  EXPECT_EQ(FindWorkload("nope"), nullptr);
}

}  // namespace
}  // namespace perfbench
