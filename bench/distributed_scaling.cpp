// Multi-process distributed engine: topology, shard scaling, DyMA on the wire.
//
// Runs the same phold workload sharded across 2 and 4 worker processes over
// TCP loopback, on both data-plane topologies (Star: every frame transits
// the coordinator relay; Mesh: direct shard-to-shard links + comm-graph
// placement), once with aggregation off (every event is its own wire frame)
// and once with the adaptive DyMA policy (events batch into
// EventBatchMessage frames at the socket boundary). Digest parity against
// the sequential kernel is the correctness gate; the headline results are
// the aggregated-vs-unaggregated wire frame count (the paper's aggregation
// argument replayed on a real transport), the outcome of that batching on
// the mesh (adaptive committed throughput against unaggregated, median of
// kMeshTrials runs each, since single wall-clock runs are noisy) and the
// mesh-over-star throughput ratio at 4 shards, where the relay is the star
// topology's ceiling.
//
// Outputs: bench/results/distributed_scaling.json (standard BenchReport
// rows) and BENCH_distributed.json (CI-gated summary; exit 1 on FAIL).
#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "otw/apps/phold.hpp"
#include "otw/obs/hist.hpp"

namespace {

/// One (src,dst) latency row harvested from the run's attribution
/// histograms: worker-measured link latency (send stamp to receive) or
/// coordinator relay residency, with log2-bucket quantile upper bounds.
struct LinkPoint {
  std::string seam;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t count = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p99_ns = 0;
};

/// Trials per mesh point. The star points run once: their gate counts
/// frames, which do not need a median.
constexpr int kMeshTrials = 3;

/// Adaptive aggregation must keep this share of the unaggregated committed
/// throughput at every mesh point (median against median).
constexpr double kDymaOutcomeFloor = 0.9;

/// One run.
struct DistRun {
  double events_per_sec = 0.0;
  std::uint64_t data_frames = 0;  ///< frames_sent - gvt_token_frames
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t gvt_token_frames = 0;
  std::uint64_t migrations = 0;
  std::uint64_t wall_ns = 0;
  bool digests_ok = false;
  std::vector<LinkPoint> links;
};

/// One (topology, shards, aggregation) point over its trials. The JSON row
/// reports the median-throughput trial, with the median data-frame count.
struct DistPoint {
  bool mesh = false;
  std::uint32_t shards = 0;
  bool aggregated = false;
  std::vector<DistRun> trials;

  [[nodiscard]] const DistRun& median_run() const {
    std::vector<const DistRun*> by_rate;
    for (const DistRun& t : trials) {
      by_rate.push_back(&t);
    }
    std::sort(by_rate.begin(), by_rate.end(),
              [](const DistRun* a, const DistRun* b) {
                return a->events_per_sec < b->events_per_sec;
              });
    return *by_rate[by_rate.size() / 2];
  }
  [[nodiscard]] double events_per_sec() const {
    return median_run().events_per_sec;
  }
  [[nodiscard]] std::uint64_t data_frames() const {
    std::vector<std::uint64_t> frames;
    for (const DistRun& t : trials) {
      frames.push_back(t.data_frames);
    }
    std::sort(frames.begin(), frames.end());
    return frames[frames.size() / 2];
  }
  [[nodiscard]] bool digests_ok() const {
    return std::all_of(trials.begin(), trials.end(),
                       [](const DistRun& t) { return t.digests_ok; });
  }
};

/// Pulls the per-link seams out of a finished run, in stable (seam,src,dst)
/// order. Under Star the rows are coordinator relay residencies; under Mesh
/// they are direct peer-link latencies — the before/after of this bench.
std::vector<LinkPoint> harvest_links(const otw::tw::RunResult& r) {
  using otw::obs::hist::Seam;
  std::vector<LinkPoint> links;
  for (const otw::obs::hist::Entry& e : r.hists) {
    if ((e.seam != Seam::LinkLatency && e.seam != Seam::RelayResidency) ||
        e.hist.count == 0) {
      continue;
    }
    LinkPoint lp;
    lp.seam = otw::obs::hist::seam_name(e.seam);
    lp.src = e.src;
    lp.dst = e.dst;
    lp.count = e.hist.count;
    lp.p50_ns = e.hist.quantile_upper_bound(0.50);
    lp.p99_ns = e.hist.quantile_upper_bound(0.99);
    links.push_back(lp);
  }
  return links;
}

}  // namespace

int main() {
  using namespace otw;
  bench::print_banner("DistributedScaling",
                      "multi-process shards over TCP loopback; DyMA on the wire");
  bench::print_run_header();
  bench::BenchReport report("distributed_scaling");

  apps::phold::PholdConfig app;
  app.num_objects = 32;
  app.num_lps = 8;
  app.population_per_object = 3;
  app.remote_probability = 0.6;
  app.mean_delay = 100;
  app.event_grain_ns = 2'000;
  app.seed = 23;
  const tw::Model model = apps::phold::build_model(app);
  const tw::VirtualTime end{20'000};

  const tw::SequentialResult seq = tw::run_sequential(model, end);

  std::vector<DistPoint> points;
  for (const bool mesh : {false, true}) {
    for (const std::uint32_t shards : {2u, 4u}) {
      DistPoint pair[2];
      // Trials alternate unaggregated and adaptive runs, so drift in the
      // host's load falls on both sides of the comparison.
      const int trials = mesh ? kMeshTrials : 1;
      for (int trial = 0; trial < trials; ++trial) {
        for (const bool aggregated : {false, true}) {
          tw::KernelConfig kc = bench::base_kernel(app.num_lps);
          kc.end_time = end;
          kc.batch_size = 8;
          kc.gvt_period_events = 128;
          kc.runtime.cancellation = core::CancellationControlConfig::dynamic();
          kc.checkpoint.dynamic = true;
          // Star is the legacy relay data plane with the round-robin
          // placement it shipped with; Mesh pairs the peer links with the
          // comm-graph partitioner, which is how the mesh engine runs by
          // default.
          kc.engine.topology =
              mesh ? platform::Topology::Mesh : platform::Topology::Star;
          kc.engine.partition = mesh ? tw::PartitionKind::CommGraph
                                     : tw::PartitionKind::RoundRobin;
          kc.aggregation.policy = aggregated ? comm::AggregationPolicy::Adaptive
                                             : comm::AggregationPolicy::None;
          kc.aggregation.window_us = 64.0;
          // Arm the latency-attribution histograms (no scrape port: the bank
          // rides home in the RESULT payloads) so the summary can report
          // per-link p50/p99 — relay residency under Star, direct link
          // latency under Mesh.
          kc.observability.live.enabled = true;

          const tw::RunResult r =
              tw::run(model, kc.with_engine(tw::EngineKind::Distributed, shards));

          DistPoint& p = pair[aggregated ? 1 : 0];
          p.mesh = mesh;
          p.shards = shards;
          p.aggregated = aggregated;
          DistRun run;
          run.events_per_sec = r.committed_events_per_sec();
          run.data_frames = r.dist.frames_sent - r.dist.gvt_token_frames;
          run.frames_sent = r.dist.frames_sent;
          run.bytes_sent = r.dist.bytes_sent;
          run.gvt_token_frames = r.dist.gvt_token_frames;
          run.migrations = r.dist.migrations;
          run.wall_ns = r.execution_time_ns;
          run.digests_ok = r.digests == seq.digests &&
                           r.stats.total_committed() == seq.events_processed;
          run.links = harvest_links(r);
          const bool ok = run.digests_ok;
          p.trials.push_back(std::move(run));

          const std::string label = std::string(mesh ? "mesh" : "star") +
                                    "-s" + std::to_string(shards) +
                                    (aggregated ? "-dyma" : "-none");
          bench::print_run_row(label, shards, r);
          report.record(label, shards, kc, r);
          if (!ok) {
            std::fprintf(stderr,
                         "FATAL: digest mismatch at %u shards (%s, %s)\n",
                         shards, mesh ? "mesh" : "star",
                         aggregated ? "dyma" : "none");
          }
        }
      }
      points.push_back(std::move(pair[0]));
      points.push_back(std::move(pair[1]));
    }
  }

  // Verdict: all runs committed the sequential ground truth; at every
  // (topology, shard count) DyMA moved strictly fewer data frames over the
  // sockets than the unaggregated baseline; at every mesh point that
  // batching paid off in committed throughput (the outcome, not just the
  // proxy); and the mesh data plane beats the star relay on committed
  // throughput at 4 shards, where the relay is the known ceiling.
  bool parity = true;
  bool batching = true;
  bool outcome = true;
  std::vector<std::pair<std::uint32_t, double>> mesh_ratios;
  for (std::size_t i = 0; i + 1 < points.size(); i += 2) {
    const DistPoint& none = points[i];
    const DistPoint& dyma = points[i + 1];
    parity = parity && none.digests_ok() && dyma.digests_ok();
    batching = batching && dyma.data_frames() < none.data_frames();
    std::printf("\n  %s %u shards: %llu data frames unaggregated -> %llu "
                "with DyMA (%.2fx reduction)\n",
                none.mesh ? "mesh" : "star", none.shards,
                static_cast<unsigned long long>(none.data_frames()),
                static_cast<unsigned long long>(dyma.data_frames()),
                dyma.data_frames() > 0
                    ? static_cast<double>(none.data_frames()) /
                          static_cast<double>(dyma.data_frames())
                    : 0.0);
    if (none.mesh) {
      const double ratio = none.events_per_sec() > 0.0
                               ? dyma.events_per_sec() / none.events_per_sec()
                               : 0.0;
      mesh_ratios.emplace_back(none.shards, ratio);
      outcome = outcome && ratio >= kDymaOutcomeFloor;
      std::printf("  mesh %u shards, median of %d: %.0f ev/s unaggregated -> "
                  "%.0f ev/s with DyMA (%.2fx, floor %.2fx)\n",
                  none.shards, kMeshTrials, none.events_per_sec(),
                  dyma.events_per_sec(), ratio, kDymaOutcomeFloor);
    }
  }
  const auto throughput_of = [&points](bool mesh, std::uint32_t shards) {
    for (const DistPoint& p : points) {
      if (p.mesh == mesh && p.shards == shards && !p.aggregated) {
        return p.events_per_sec();
      }
    }
    return 0.0;
  };
  const double star4 = throughput_of(false, 4);
  const double mesh4 = throughput_of(true, 4);
  const double mesh_speedup = star4 > 0.0 ? mesh4 / star4 : 0.0;
  const bool mesh_wins = mesh4 > star4;
  std::printf("\n  4-shard unaggregated: star %.0f ev/s -> mesh %.0f ev/s "
              "(%.2fx)\n",
              star4, mesh4, mesh_speedup);
  const bool pass = parity && batching && outcome && mesh_wins;
  std::printf("\n  digest parity: %s, wire batching: %s, DyMA pays off on "
              "the mesh: %s, mesh > star @4: %s -> %s\n",
              parity ? "yes" : "NO", batching ? "yes" : "NO",
              outcome ? "yes" : "NO", mesh_wins ? "yes" : "NO",
              pass ? "PASS" : "FAIL");

  std::ofstream out("BENCH_distributed.json");
  if (out) {
    out << "{\n  \"bench\": \"distributed_scaling\",\n";
    out << "  \"verdict\": \"" << (pass ? "PASS" : "FAIL") << "\",\n";
    out << "  \"digest_parity\": " << (parity ? "true" : "false") << ",\n";
    out << "  \"wire_batching\": " << (batching ? "true" : "false") << ",\n";
    out << "  \"dyma_pays_off_mesh\": " << (outcome ? "true" : "false")
        << ",\n";
    out << "  \"dyma_outcome_floor\": " << kDymaOutcomeFloor << ",\n";
    out << "  \"dyma_mesh_throughput_ratio\": {";
    for (std::size_t i = 0; i < mesh_ratios.size(); ++i) {
      out << (i > 0 ? ", " : "") << "\"" << mesh_ratios[i].first
          << "\": " << mesh_ratios[i].second;
    }
    out << "},\n";
    out << "  \"mesh_beats_star_4shard\": " << (mesh_wins ? "true" : "false")
        << ",\n";
    out << "  \"mesh_speedup_4shard\": " << mesh_speedup << ",\n";
    out << "  \"runs\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const DistPoint& p = points[i];
      const DistRun& m = p.median_run();
      out << "    {\"topology\": \"" << (p.mesh ? "mesh" : "star")
          << "\", \"shards\": " << p.shards << ", \"aggregation\": \""
          << (p.aggregated ? "adaptive" : "none")
          << "\", \"trials\": " << p.trials.size()
          << ", \"committed_events_per_sec\": " << m.events_per_sec
          << ", \"data_frames\": " << p.data_frames()
          << ", \"trial_events_per_sec\": [";
      for (std::size_t t = 0; t < p.trials.size(); ++t) {
        out << (t > 0 ? ", " : "") << p.trials[t].events_per_sec;
      }
      out << "], \"wire_frames_sent\": " << m.frames_sent
          << ", \"gvt_token_frames\": " << m.gvt_token_frames
          << ", \"wire_bytes_sent\": " << m.bytes_sent
          << ", \"migrations\": " << m.migrations
          << ", \"wall_ns\": " << m.wall_ns << ", \"digests_ok\": "
          << (p.digests_ok() ? "true" : "false") << ",\n      \"links\": [";
      for (std::size_t l = 0; l < m.links.size(); ++l) {
        const LinkPoint& lp = m.links[l];
        out << (l > 0 ? ",\n                " : "") << "{\"seam\": \""
            << lp.seam << "\", \"src\": " << lp.src << ", \"dst\": " << lp.dst
            << ", \"count\": " << lp.count << ", \"p50_ns\": " << lp.p50_ns
            << ", \"p99_ns\": " << lp.p99_ns << "}";
      }
      out << "]}" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("  [scaling json: BENCH_distributed.json]\n");
  }
  return pass ? 0 : 1;
}
