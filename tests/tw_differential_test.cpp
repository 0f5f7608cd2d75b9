// Seeded differential harness: every seed derives a random phold topology,
// kernel configuration and worker count, then runs the SAME model on the
// four kernels — sequential (ground truth), deterministic simulated-NOW, the
// real-thread work-stealing scheduler and the multi-process distributed
// engine — and requires bit-identical committed state digests and commit
// counts from all of them. (The distributed column lives in its own
// DistParity suite: the tsan-stress lane's filter must not pick it up —
// fork() and ThreadSanitizer do not mix.)
//
// The failing seed is printed via SCOPED_TRACE, so any report reproduces
// with a single-element ::testing::Values range. Coverage knobs worth noting:
// worker counts range both below and above the LP count (the acceptance
// regime is workers < LPs), and mailbox capacities are sometimes tiny so the
// backpressure path runs under a real kernel workload, not just unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "otw/apps/phold.hpp"
#include "otw/obs/live.hpp"
#include "otw/tw/kernel.hpp"
#include "otw/util/rng.hpp"

namespace otw::tw {
namespace {

struct DiffSetup {
  apps::phold::PholdConfig app;
  KernelConfig kernel;
  platform::SimulatedNowConfig now;
  platform::ThreadedConfig threads;
};

DiffSetup derive_setup(std::uint64_t seed) {
  util::Xoshiro256 rng(seed, /*stream=*/0x01FFu);
  DiffSetup s;

  const auto num_lps = static_cast<LpId>(rng.next_range(2, 8));
  s.app.num_lps = num_lps;
  s.app.num_objects =
      static_cast<std::uint32_t>(num_lps * rng.next_range(1, 4));
  s.app.population_per_object = static_cast<std::uint32_t>(rng.next_range(1, 4));
  s.app.remote_probability = 0.2 + rng.next_double() * 0.7;
  s.app.mean_delay = static_cast<std::uint32_t>(rng.next_range(40, 160));
  s.app.event_grain_ns = rng.next_range(100, 1'000);
  s.app.seed = rng();

  s.kernel.num_lps = num_lps;
  s.kernel.end_time = VirtualTime{rng.next_range(1'500, 4'000)};
  s.kernel.batch_size = static_cast<std::uint32_t>(1u << rng.next_below(7));
  s.kernel.gvt_period_events = static_cast<std::uint32_t>(rng.next_range(16, 96));
  switch (rng.next_below(4)) {
    case 0:
      s.kernel.runtime.cancellation = core::CancellationControlConfig::aggressive();
      break;
    case 1:
      s.kernel.runtime.cancellation = core::CancellationControlConfig::lazy();
      break;
    case 2:
      s.kernel.runtime.cancellation = core::CancellationControlConfig::dynamic();
      break;
    default:
      s.kernel.runtime.cancellation =
          core::CancellationControlConfig::st(0.2 + rng.next_double() * 0.6);
      break;
  }
  s.kernel.checkpoint.interval =
      static_cast<std::uint32_t>(rng.next_range(1, 8));
  s.kernel.checkpoint.dynamic = rng.next_bernoulli(0.5);
  switch (rng.next_below(3)) {
    case 0:
      s.kernel.aggregation.policy = comm::AggregationPolicy::None;
      break;
    case 1:
      s.kernel.aggregation.policy = comm::AggregationPolicy::Fixed;
      break;
    default:
      s.kernel.aggregation.policy = comm::AggregationPolicy::Adaptive;
      break;
  }
  s.kernel.aggregation.window_us = 30.0 + rng.next_double() * 120.0;
  if (rng.next_bernoulli(0.3)) {
    s.kernel.optimism.mode = KernelConfig::Optimism::Mode::Adaptive;
    s.kernel.optimism.window = rng.next_range(128, 1'024);
  }

  s.now.costs = platform::CostModel::free();
  s.now.costs.wire_latency_ns = rng.next_range(0, 5'000);
  s.now.costs.msg_send_overhead_ns = rng.next_range(0, 4'000);

  s.threads.num_workers = static_cast<std::uint32_t>(rng.next_range(1, 8));
  const std::size_t capacities[] = {2, 8, 1'024};
  s.threads.mailbox_capacity = capacities[rng.next_below(3)];
  const std::uint64_t ticks[] = {1'024, 16'384, 262'144};
  s.threads.timer_tick_ns = ticks[rng.next_below(3)];
  return s;
}

void expect_matches(const RunResult& run, const SequentialResult& seq,
                    const char* kernel_name) {
  SCOPED_TRACE(kernel_name);
  EXPECT_EQ(run.stats.total_committed(), seq.events_processed);
  ASSERT_EQ(run.digests.size(), seq.digests.size());
  for (std::size_t i = 0; i < seq.digests.size(); ++i) {
    EXPECT_EQ(run.digests[i], seq.digests[i]) << "object " << i;
  }
}

class Differential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Differential, AllKernelsCommitIdenticalResults) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("differential seed = " + std::to_string(seed) +
               " (re-run: --gtest_filter='*Differential*/" +
               std::to_string(seed) + "')");
  const DiffSetup s = derive_setup(seed);
  SCOPED_TRACE("lps=" + std::to_string(s.kernel.num_lps) +
               " objects=" + std::to_string(s.app.num_objects) +
               " workers=" + std::to_string(s.threads.num_workers) +
               " mailbox=" + std::to_string(s.threads.mailbox_capacity) +
               " batch=" + std::to_string(s.kernel.batch_size));

  const Model model = apps::phold::build_model(s.app);
  const SequentialResult seq = run_sequential(model, s.kernel.end_time);
  ASSERT_GT(seq.events_processed, 0u);

  expect_matches(run(model, s.kernel, {.simulated_now = s.now}), seq,
                 "simulated-NOW");
  expect_matches(run(model, s.kernel.with_engine(EngineKind::Threaded),
                     {.threaded = s.threads}),
                 seq, "threaded");
}

/// Queue-kind neutrality of the sequential ground truth itself: the central
/// event list's data structure (multiset / skip list / ladder) must not
/// change a single digest on any differential seed. Cheap enough to run on
/// the full 32-seed range.
TEST_P(Differential, SequentialDigestsAreQueueKindInvariant) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("queue-invariance seed = " + std::to_string(seed));
  const DiffSetup s = derive_setup(seed);
  const Model model = apps::phold::build_model(s.app);
  const SequentialResult ref =
      run_sequential(model, s.kernel.end_time, QueueKind::Multiset);
  ASSERT_GT(ref.events_processed, 0u);

  for (const QueueKind kind : {QueueKind::SkipList, QueueKind::LadderQueue}) {
    SCOPED_TRACE(to_string(kind));
    const SequentialResult got = run_sequential(model, s.kernel.end_time, kind);
    EXPECT_EQ(got.events_processed, ref.events_processed);
    EXPECT_EQ(got.final_time, ref.final_time);
    ASSERT_EQ(got.digests.size(), ref.digests.size());
    for (std::size_t i = 0; i < ref.digests.size(); ++i) {
      EXPECT_EQ(got.digests[i], ref.digests[i]) << "object " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Range<std::uint64_t>(0, 32));

/// Queue-kind differential leg across engines: every PendingEventSet
/// implementation must commit bit-identical digests on the in-process
/// engines, with the sequential multiset run as ground truth. This is where
/// "digest-neutral by construction" (pending_set.hpp) meets real rollbacks,
/// annihilations and fossil collection under the full kernel. Kept
/// fork-free so the tsan-stress lane's "QueueParity" filter can run it; the
/// distributed column lives in DistParity below.
class QueueParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueParity, EveryQueueKindCommitsIdenticalDigestsInProcess) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("queueparity seed = " + std::to_string(seed) +
               " (re-run: --gtest_filter='*QueueParity*/" +
               std::to_string(seed) + "')");
  const DiffSetup s = derive_setup(seed);
  const Model model = apps::phold::build_model(s.app);
  const SequentialResult seq =
      run_sequential(model, s.kernel.end_time, QueueKind::Multiset);
  ASSERT_GT(seq.events_processed, 0u);

  for (const QueueKind kind : kAllQueueKinds) {
    SCOPED_TRACE(to_string(kind));
    KernelConfig kc = s.kernel;
    kc.engine.queue = kind;
    expect_matches(run(model, kc, {.simulated_now = s.now}), seq,
                   "simulated-NOW");
    expect_matches(run(model, kc.with_engine(EngineKind::Threaded),
                       {.threaded = s.threads}),
                   seq, "threaded");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueParity,
                         ::testing::Range<std::uint64_t>(0, 8));

/// Fourth differential column: the multi-process distributed engine, at 2 and
/// 4 shards, against the same sequential ground truth. Separate suite name on
/// purpose (see file header). Runs a subset of the seed range — each case
/// forks real worker processes and opens real sockets.
class DistParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistParity, DistributedShardsMatchSequential) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("distparity seed = " + std::to_string(seed) +
               " (re-run: --gtest_filter='*DistParity*/" +
               std::to_string(seed) + "')");
  const DiffSetup s = derive_setup(seed);
  const Model model = apps::phold::build_model(s.app);
  const SequentialResult seq = run_sequential(model, s.kernel.end_time);
  ASSERT_GT(seq.events_processed, 0u);

  // Pinned to the star relay with round-robin placement: this suite is the
  // legacy-data-path baseline that MeshParity below A/Bs against, so it must
  // keep exercising the coordinator forwarding loop even though the kernel
  // default is now the peer-to-peer mesh.
  KernelConfig star = s.kernel;
  star.engine.topology = platform::Topology::Star;
  star.engine.partition = PartitionKind::RoundRobin;
  for (const std::uint32_t shards : {2u, 4u}) {
    if (shards > s.kernel.num_lps) {
      continue;  // validate() rejects a shard owning no LPs
    }
    SCOPED_TRACE("shards = " + std::to_string(shards));
    const RunResult r =
        run(model, star.with_engine(EngineKind::Distributed, shards));
    expect_matches(r, seq, "distributed");
    EXPECT_EQ(r.dist.num_shards, shards);
    EXPECT_GT(r.dist.frames_sent, 0u);
  }
}

/// Attribution-plane leg of the distributed column: the same seeds with the
/// latency histograms armed and the flight recorder recording must commit
/// bit-identical digests — recording is relaxed fetch_adds with no control
/// flow feedback, and this is where that claim meets real forked shards.
/// (Named without the Hist/Flight substrings on purpose: this suite forks,
/// so the tsan-stress filter must not pick it up.)
TEST_P(DistParity, AttributionArmedShardsMatchSequential) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("attribution seed = " + std::to_string(seed));
  const DiffSetup s = derive_setup(seed);
  const Model model = apps::phold::build_model(s.app);
  const SequentialResult seq = run_sequential(model, s.kernel.end_time);
  ASSERT_GT(seq.events_processed, 0u);

  KernelConfig armed = s.kernel;
  armed.engine.topology = platform::Topology::Star;  // baseline data path
  armed.engine.partition = PartitionKind::RoundRobin;
  armed.observability.live.enabled = true;
  armed.observability.live.histograms = true;
  armed.observability.flight.enabled = true;
  armed.observability.flight.dir = ::testing::TempDir();

  const RunResult r = run(model, armed.with_engine(EngineKind::Distributed, 2));
  expect_matches(r, seq, "distributed+attribution");
  if (obs::live::LiveMetricsRegistry::compiled_in()) {
    EXPECT_FALSE(r.hists.empty());
    ASSERT_EQ(r.shard_clocks.size(), 2u);
    for (const platform::ShardClock& clock : r.shard_clocks) {
      EXPECT_GT(clock.rtt_ns, 0u);  // HELLO/ACK midpoint estimate ran
    }
  } else {
    EXPECT_TRUE(r.hists.empty());
  }
}

/// Queue-kind leg of the distributed column: forked shards running the skip
/// list and ladder queue must reproduce the sequential multiset digests.
/// (Named without the "QueueParity" substring on purpose: this suite forks,
/// so the tsan-stress filter must not pick it up.)
TEST_P(DistParity, DistributedShardsAreQueueKindInvariant) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("dist queue seed = " + std::to_string(seed));
  const DiffSetup s = derive_setup(seed);
  if (s.kernel.num_lps < 2) {
    GTEST_SKIP() << "needs >= 2 LPs for 2 shards";
  }
  const Model model = apps::phold::build_model(s.app);
  const SequentialResult seq =
      run_sequential(model, s.kernel.end_time, QueueKind::Multiset);
  ASSERT_GT(seq.events_processed, 0u);

  for (const QueueKind kind : {QueueKind::SkipList, QueueKind::LadderQueue}) {
    SCOPED_TRACE(to_string(kind));
    KernelConfig kc = s.kernel;
    kc.engine.topology = platform::Topology::Star;  // baseline data path
    kc.engine.partition = PartitionKind::RoundRobin;
    kc.engine.queue = kind;
    expect_matches(run(model, kc.with_engine(EngineKind::Distributed, 2)), seq,
                   "distributed");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistParity,
                         ::testing::Range<std::uint64_t>(0, 8));

/// Fifth differential column: the peer-to-peer mesh data plane — direct
/// shard-to-shard links dialed from the coordinator's peer directory, with
/// comm-graph placement — at 2 and 4 shards against the same sequential
/// ground truth. The A/B counterpart of DistParity's star baseline. Separate
/// suite name for the same reason as DistParity: it forks, so the tsan-stress
/// filter must not pick it up.
class MeshParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeshParity, MeshShardsMatchSequential) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("meshparity seed = " + std::to_string(seed) +
               " (re-run: --gtest_filter='*MeshParity*/" +
               std::to_string(seed) + "')");
  const DiffSetup s = derive_setup(seed);
  const Model model = apps::phold::build_model(s.app);
  const SequentialResult seq = run_sequential(model, s.kernel.end_time);
  ASSERT_GT(seq.events_processed, 0u);

  KernelConfig mesh = s.kernel;
  mesh.engine.topology = platform::Topology::Mesh;
  mesh.engine.partition = PartitionKind::CommGraph;
  for (const std::uint32_t shards : {2u, 4u}) {
    if (shards > s.kernel.num_lps) {
      continue;  // validate() rejects a shard owning no LPs
    }
    SCOPED_TRACE("shards = " + std::to_string(shards));
    const RunResult r =
        run(model, mesh.with_engine(EngineKind::Distributed, shards));
    expect_matches(r, seq, "mesh");
    EXPECT_EQ(r.dist.num_shards, shards);
    EXPECT_GT(r.dist.frames_sent, 0u);
    EXPECT_EQ(r.dist.migrations, 0u);  // no controller armed
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeshParity,
                         ::testing::Range<std::uint64_t>(0, 8));

/// On-line migration leg: force a mid-run move of LP 0 between shards and
/// require the committed digests to stay bit-identical to sequential. The
/// MIGRATE frame (state + unprocessed inputs + parked antis) plus the
/// epoch-tagged rebind must hand over every event exactly once — any double
/// delivery, drop or ordering violation shows up as a digest mismatch.
/// Round-robin placement pins LP 0's initial owner to shard 0 so the forced
/// order {0 -> 1} is always a real move. (Forks; name must dodge the
/// tsan-stress filter.)
class MigrationParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MigrationParity, ForcedMigrationMatchesSequential) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("migration seed = " + std::to_string(seed) +
               " (re-run: --gtest_filter='*MigrationParity*/" +
               std::to_string(seed) + "')");
  const DiffSetup s = derive_setup(seed);
  const Model model = apps::phold::build_model(s.app);
  const SequentialResult seq = run_sequential(model, s.kernel.end_time);
  ASSERT_GT(seq.events_processed, 0u);

  KernelConfig kc = s.kernel;
  kc.engine.topology = platform::Topology::Mesh;
  kc.engine.partition = PartitionKind::RoundRobin;
  kc.migration.enabled = true;
  kc.migration.period_ms = 1;
  kc.migration.forced = {{LpId{0}, 1u}};

  const RunResult r = run(model, kc.with_engine(EngineKind::Distributed, 2));
  expect_matches(r, seq, "mesh+migration");
  EXPECT_EQ(r.dist.migrations, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrationParity,
                         ::testing::Range<std::uint64_t>(0, 8));

/// Adaptive aggregation on the mesh weighs its window in measured host time
/// (the shard's cost of one wire frame), so the window stays in the
/// microsecond range the transport works in: the run commits the sequential
/// digests, every LP's mean window stays below a millisecond, and the wire
/// still carries fewer data frames than the same run unaggregated. (Forks;
/// name must dodge the tsan-stress filter.)
TEST(MeshDyma, AdaptiveWindowStaysInHostMicroseconds) {
  apps::phold::PholdConfig app;
  app.num_objects = 32;
  app.num_lps = 4;
  app.population_per_object = 4;
  app.remote_probability = 0.5;
  app.mean_delay = 100;
  app.event_grain_ns = 2'000;
  app.seed = 9;
  const Model model = apps::phold::build_model(app);
  KernelConfig kc;
  kc.num_lps = app.num_lps;
  kc.end_time = VirtualTime{6'000};
  kc.batch_size = 16;
  kc.gvt_period_events = 256;
  kc.engine.topology = platform::Topology::Mesh;
  kc.optimism.mode = KernelConfig::Optimism::Mode::Static;
  kc.optimism.window = 200;
  kc.aggregation.window_us = 64.0;
  const SequentialResult seq = run_sequential(model, kc.end_time);

  kc.aggregation.policy = comm::AggregationPolicy::Adaptive;
  const RunResult dyma = run(model, kc.with_engine(EngineKind::Distributed, 2));
  expect_matches(dyma, seq, "mesh dyma");
  for (LpId lp = 0; lp < app.num_lps; ++lp) {
    const LpStats& stats = dyma.stats.lps[lp];
    ASSERT_GT(stats.aggregates_sent, 0u) << "lp " << lp;
    EXPECT_LT(stats.aggregation_window_us.mean(), 1'000.0) << "lp " << lp;
  }

  kc.aggregation.policy = comm::AggregationPolicy::None;
  const RunResult none = run(model, kc.with_engine(EngineKind::Distributed, 2));
  expect_matches(none, seq, "mesh unaggregated");
  EXPECT_LT(dyma.dist.frames_sent - dyma.dist.gvt_token_frames,
            none.dist.frames_sent - none.dist.gvt_token_frames);
}

/// Digest neutrality of the attribution plane on the in-process engines:
/// histograms on, histograms off and flight-recorder-armed legs must all
/// reproduce the sequential digests on every seed. Lives in its own
/// tsan-runnable suite (no fork): the tsan-stress lane picks up "Hist".
class HistParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistParity, AttributionPlaneIsDigestNeutralInProcess) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE("histparity seed = " + std::to_string(seed));
  const DiffSetup s = derive_setup(seed);
  const Model model = apps::phold::build_model(s.app);
  const SequentialResult seq = run_sequential(model, s.kernel.end_time);
  ASSERT_GT(seq.events_processed, 0u);

  KernelConfig off = s.kernel;
  off.observability.live.enabled = true;
  off.observability.live.histograms = false;

  KernelConfig on = s.kernel;
  on.observability.live.enabled = true;
  on.observability.live.histograms = true;

  KernelConfig armed = on;
  armed.observability.flight.enabled = true;
  armed.observability.flight.dir = ::testing::TempDir();

  expect_matches(run(model, off.with_engine(EngineKind::Threaded),
                     {.threaded = s.threads}),
                 seq, "threaded hists-off");
  const RunResult threaded_on = run(model, on.with_engine(EngineKind::Threaded),
                                    {.threaded = s.threads});
  expect_matches(threaded_on, seq, "threaded hists-on");
  if (obs::live::LiveMetricsRegistry::compiled_in()) {
    EXPECT_FALSE(threaded_on.hists.empty());  // at least GvtRound fired
  }
  expect_matches(run(model, armed, {.simulated_now = s.now}), seq,
                 "simulated-NOW flight-armed");
  expect_matches(run(model, armed.with_engine(EngineKind::Threaded),
                     {.threaded = s.threads}),
                 seq, "threaded flight-armed");
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistParity,
                         ::testing::Range<std::uint64_t>(0, 8));

/// The ISSUE acceptance case: far more LPs than workers. 64 LPs on 4 workers
/// means every worker juggles ~16 LPs through steals, parks and timer
/// wakeups — digests must still match the sequential kernel on every seed.
TEST(DifferentialManyLps, FourWorkersSixtyFourLps) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    apps::phold::PholdConfig app;
    app.num_objects = 64;
    app.num_lps = 64;
    app.population_per_object = 2;
    app.remote_probability = 0.7;
    app.mean_delay = 80;
    app.seed = seed;
    const Model model = apps::phold::build_model(app);
    const VirtualTime end{1'000};
    const SequentialResult seq = run_sequential(model, end);
    ASSERT_GT(seq.events_processed, 0u);

    KernelConfig kc;
    kc.num_lps = 64;
    kc.end_time = end;
    kc.batch_size = 8;
    kc.gvt_period_events = 64;
    kc.runtime.cancellation = core::CancellationControlConfig::dynamic();
    kc.checkpoint.dynamic = true;
    kc.aggregation.policy = comm::AggregationPolicy::Adaptive;

    platform::ThreadedConfig tc;
    tc.num_workers = 4;
    const RunResult r =
        run(model, kc.with_engine(EngineKind::Threaded), {.threaded = tc});
    expect_matches(r, seq, "threaded 4w/64lp");
    EXPECT_EQ(r.scheduler.num_workers, 4u);
  }
}

}  // namespace
}  // namespace otw::tw
