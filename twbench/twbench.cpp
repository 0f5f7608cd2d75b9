// twbench: the repository's end-to-end and per-layer benchmark program.
//
//   twbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--inject digest|count]
//
// Drives only the public API (tw::run, tw::run_sequential, RunResult and its
// stats blocks, obs::hist entries) and times the public functions of single
// layers (tw::make_pending_set, CheckpointStore, the wire codec) from outside.
// Every Time Warp run is checked against the sequential kernel: bit-identical
// digests, equal committed counts, and the accounting identity
// processed == committed + rolled_back + coast_forward. The sequential
// reference itself is checked against model properties computed apart from
// any engine. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The process exits 1 when any check fails.
//
// --inject corrupts the Time Warp result before it is checked (one digest
// bit, or the committed count); it exists to show that the checks bite.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "otw/apps/phold.hpp"
#include "otw/apps/raid.hpp"
#include "otw/otw.hpp"
#include "otw/tw/checkpoint_store.hpp"
#include "otw/tw/messages.hpp"
#include "otw/tw/pending_set.hpp"
#include "otw/tw/wire.hpp"
#include "otw/util/rng.hpp"

namespace {

using namespace otw;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile q of `v` by linear interpolation between order statistics.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ----------------------------------------------------------- workloads ---

/// The simulated network-of-workstations cost model of the paper's testbed:
/// a physical message costs two orders of magnitude more than an event
/// grain, so aggregation and the controllers matter. The figures match
/// bench/bench_common.hpp's calibration but are kept here, so that
/// recalibrating the figure benches cannot move this benchmark's baseline.
platform::CostModel testbed_costs() {
  platform::CostModel m;
  m.event_overhead_ns = 2'000;
  m.state_save_base_ns = 1'000;
  m.state_save_per_byte_ns = 10;
  m.state_restore_ns = 2'000;
  m.rollback_fixed_ns = 4'000;
  m.msg_send_overhead_ns = 500'000;
  m.msg_recv_overhead_ns = 250'000;
  m.msg_per_byte_ns = 800;
  m.wire_latency_ns = 200'000;
  m.control_invocation_ns = 500;
  m.idle_poll_ns = 1'000;
  return m;
}

/// All-static kernel: chi = 1, aggressive cancellation, no aggregation,
/// unbounded optimism (the paper's baseline configuration).
tw::KernelConfig static_kernel(tw::LpId lps) {
  tw::KernelConfig kc;
  kc.num_lps = lps;
  kc.batch_size = 16;
  kc.gvt_period_events = 512;
  kc.gvt_min_interval_ns = 2'000'000;
  kc.checkpoint.interval = 1;
  kc.runtime.cancellation = core::CancellationControlConfig::aggressive();
  kc.aggregation.policy = comm::AggregationPolicy::None;
  return kc;
}

struct Workload {
  std::string name;
  std::function<tw::Model()> build;
  tw::KernelConfig kc;
  tw::EngineTuning tuning;
  /// Model property of the sequential result; returns "" when it holds.
  std::function<std::string(const tw::SequentialResult&)> check_model;
  /// Events in flight in the model (the pending-set replay population).
  std::uint64_t population = 0;
  std::uint32_t num_objects = 0;
  /// Application payload bytes per event (sizeof the model's message).
  std::uint32_t payload_bytes = 0;
};

/// PHOLD's expected event count over [0, horizon]: every token is a renewal
/// process whose step is 1 + floor(Exp(mean)), with
/// E[floor(Exp(mean))] = 1 / (e^(1/mean) - 1). Over many seeds the count
/// scatters around that with a standard deviation of sqrt(expected) (rms
/// z-score 0.93 over 200 seeds); the check allows 6 sigma.
std::function<std::string(const tw::SequentialResult&)> phold_property(
    const apps::phold::PholdConfig& app, std::uint64_t horizon) {
  const double mean = static_cast<double>(app.mean_delay);
  const double step = 1.0 + 1.0 / std::expm1(1.0 / mean);
  const double tokens =
      static_cast<double>(app.num_objects) * app.population_per_object;
  const double expected = tokens * static_cast<double>(horizon) / step;
  return [expected](const tw::SequentialResult& seq) -> std::string {
    const double got = static_cast<double>(seq.events_processed);
    if (std::fabs(got - expected) > 6.0 * std::sqrt(expected)) {
      return "PHOLD event count " + std::to_string(seq.events_processed) +
             " is more than 6 sigma from population x horizon / E[delay] = " +
             std::to_string(static_cast<long long>(expected));
    }
    return "";
  };
}

apps::phold::PholdConfig phold_app(std::uint64_t seed, std::uint32_t objects,
                                   tw::LpId lps, std::uint32_t population) {
  apps::phold::PholdConfig app;
  app.num_objects = objects;
  app.num_lps = lps;
  app.population_per_object = population;
  app.remote_probability = 0.5;
  app.mean_delay = 100;
  app.event_grain_ns = 5'000;
  app.seed = seed;
  return app;
}

Workload make_phold(const std::string& name, const apps::phold::PholdConfig& app,
                    std::uint64_t horizon, tw::KernelConfig kc) {
  Workload w;
  w.name = name;
  w.build = [app] { return apps::phold::build_model(app); };
  kc.end_time = tw::VirtualTime(horizon);
  w.kc = kc;
  w.check_model = phold_property(app, horizon);
  w.population = std::uint64_t{app.num_objects} * app.population_per_object;
  w.num_objects = app.num_objects;
  w.payload_bytes = 16;  // PholdToken: hop + trace
  return w;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "phold-now") {
    const auto app = phold_app(seed, 64, 4, 16);
    // A short horizon (~70 ms per run) lets the fastest run of the window
    // fall into one of the host's brief quiet intervals; with runs three
    // times as long the fastest run of a window spread by a fifth.
    Workload w = make_phold(name, app, 10'000, static_kernel(app.num_lps));
    w.tuning.simulated_now.costs = testbed_costs();
    return w;
  }
  if (name == "phold-threads") {
    const auto app = phold_app(seed, 64, 8, 16);
    tw::KernelConfig kc = static_kernel(app.num_lps);
    kc.engine.kind = tw::EngineKind::Threaded;
    // One worker: with two or more, this engine hangs now and then (a few
    // runs in a thousand unbounded, one in twenty to two hundred with a
    // static window; CHANGES.md, FOUND), and a run that never ends cannot be
    // measured. One worker still runs the scheduler, the LP state machine,
    // the mailboxes, parking and the timer wheel, but never steals.
    kc.engine.num_workers = 1;
    Workload w = make_phold(name, app, 15'000, kc);
    w.tuning.threaded.spin_on_charge = false;
    return w;
  }
  if (name == "phold-mesh-dyma") {
    const auto app = phold_app(seed, 64, 4, 4);
    tw::KernelConfig kc = static_kernel(app.num_lps);
    kc.engine.kind = tw::EngineKind::Distributed;
    kc.engine.num_shards = 2;
    kc.engine.topology = platform::Topology::Mesh;
    kc.aggregation.policy = comm::AggregationPolicy::Adaptive;
    kc.aggregation.window_us = 64.0;
    // Unbounded optimism lets the two shards' virtual times drift apart
    // without limit and the rollback count (and with it the rate) wanders
    // from run to run; a static window of two mean delays keeps it steady.
    kc.optimism.mode = tw::KernelConfig::Optimism::Mode::Static;
    kc.optimism.window = 200;
    return make_phold(name, app, 12'000, kc);
  }
  if (name == "raid-paper") {
    apps::raid::RaidConfig app;  // paper geometry: 20 sources, 4 forks, 8 disks
    app.requests_per_source = 500;
    app.seed = seed;
    tw::KernelConfig kc = static_kernel(app.num_lps);
    kc.checkpoint.dynamic = true;
    kc.runtime.cancellation = core::CancellationControlConfig::dynamic(16, 0.45, 0.2);
    // SAAW with the Figure 9 weights: an avoided message saves the fixed
    // send overhead (in us), the age penalty puts the optimum window in the
    // regime of the FAW sweep's best point.
    const platform::CostModel costs = testbed_costs();
    kc.aggregation.policy = comm::AggregationPolicy::Adaptive;
    kc.aggregation.window_us = 100.0;
    kc.aggregation.saaw.benefit_per_message =
        static_cast<double>(costs.msg_send_overhead_ns) / 1000.0;
    kc.aggregation.saaw.age_penalty = 2.5e-4;
    Workload w;
    w.name = name;
    w.build = [app] { return apps::raid::build_model(app); };
    w.kc = kc;
    w.tuning.simulated_now.costs = costs;
    const std::uint64_t requests = apps::raid::expected_completed_requests(app);
    // Per request: tick + request + (disk op + completion) per touched disk
    // + done; at least one data unit, at most max_units data + 1 parity.
    const std::uint64_t lo = 5 * requests;
    const std::uint64_t hi = (3 + 2 * (app.max_units_per_request + 1)) * requests;
    w.check_model = [lo, hi](const tw::SequentialResult& seq) -> std::string {
      if (seq.events_processed < lo || seq.events_processed > hi) {
        return "RAID event count " + std::to_string(seq.events_processed) +
               " outside the per-request bounds [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]";
      }
      return "";
    };
    w.population = std::uint64_t{app.num_sources} * app.window_per_source;
    w.num_objects = app.total_objects();
    w.payload_bytes = 40;  // RaidMsg
    return w;
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (phold-now, raid-paper, phold-threads, "
                              "phold-mesh-dyma)");
}

// ---------------------------------------------------------- run checks ---

enum class Inject { None, Digest, Count };

/// What the checks need from one Time Warp run. Kept instead of the whole
/// RunResult so that the process footprint does not grow with the number of
/// runs that fit in the measuring window.
struct Outcome {
  std::vector<std::uint64_t> digests;
  std::uint64_t processed = 0;
  std::uint64_t committed = 0;
  std::uint64_t rolled_back = 0;
  std::uint64_t coast_forward = 0;
  std::uint64_t execution_time_ns = 0;
  double wall_s = 0.0;
};

Outcome outcome_of(const tw::RunResult& r, double wall_s) {
  const tw::ObjectStats o = r.stats.object_totals();
  return Outcome{r.digests,           o.events_processed,
                 o.events_committed,  o.events_rolled_back,
                 o.coast_forward_events, r.execution_time_ns,
                 wall_s};
}

/// Returns "" when the Time Warp run matches the sequential oracle.
std::string check_run(const Outcome& run, const tw::SequentialResult& seq,
                      Inject inject) {
  std::vector<std::uint64_t> digests = run.digests;
  std::uint64_t committed = run.committed;
  if (inject == Inject::Digest && !digests.empty()) {
    digests[0] ^= 1;
  }
  if (inject == Inject::Count) {
    committed += 1;
  }
  if (digests != seq.digests) {
    return "final digests differ from the sequential kernel";
  }
  if (committed != seq.events_processed) {
    return "committed events " + std::to_string(committed) +
           " != sequential events " + std::to_string(seq.events_processed);
  }
  if (run.processed != run.committed + run.rolled_back + run.coast_forward) {
    return "accounting identity broken: processed " + std::to_string(run.processed) +
           " != committed " + std::to_string(run.committed) + " + rolled back " +
           std::to_string(run.rolled_back) + " + coast forward " +
           std::to_string(run.coast_forward);
  }
  return "";
}

// -------------------------------------------------------- JSON output ---

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Resident memory of this process, KiB; 0 when it cannot be read.
long resident_kib() noexcept {
  long pages = 0, resident = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) {
      resident = 0;
    }
    std::fclose(f);
  }
  return std::max(0L, resident) * (sysconf(_SC_PAGESIZE) / 1024);
}

/// Peak resident memory per Time Warp run, sampled every millisecond on a
/// helper thread. The operating system's high-water mark (VmHWM, ru_maxrss)
/// only ever grows: one run whose optimistic history spikes would set it for
/// every later run, and ru_maxrss even inherits the mark of the program that
/// exec'd this program.
class RssSampler {
 public:
  RssSampler() : thread_([this] { loop(); }) {}
  ~RssSampler() {
    stop_.store(true);
    thread_.join();
  }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  void begin() {
    const long kib = resident_kib();
    if (kib == 0) {
      throw std::runtime_error("cannot read the resident set size");
    }
    peak_.store(kib);
  }
  /// Peak since begin(), MiB.
  double end() {
    raise(resident_kib());
    return static_cast<double>(peak_.load()) / 1024.0;
  }

 private:
  void raise(long kib) {
    long prev = peak_.load();
    while (kib > prev && !peak_.compare_exchange_weak(prev, kib)) {
    }
  }
  void loop() {
    while (!stop_.load()) {
      raise(resident_kib());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::atomic<long> peak_{0};
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: the loop uses the members above
};

/// Peak resident memory of the largest reaped child process (the
/// distributed engine's forked shard workers), MiB; 0 without children.
double children_peak_mib() {
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(children.ru_maxrss) / 1024.0;
}

// ----------------------------------------------------------- set-up ---

struct SetupTimes {
  double setup_s = 0.0;          ///< per-trial model build + zero-horizon run
  double model_build_us = 0.0;   ///< per-trial model construction
  double engine_start_us = 0.0;  ///< per-trial zero-horizon tw::run
};

/// Set-up cost: building the model plus a tw::run that processes no event
/// (horizon 0), i.e. engine start-up and teardown. A trial can be far
/// shorter than the host's timing noise (0.1 ms on simulated NOW), so trials
/// run in batches of ~10 ms timed as a whole.
/// Batches are taken between the measured runs, spread over the whole
/// window and taking a tenth of it. Each batch repeats the same work and
/// interference only adds time, so the smallest batch mean is reported: the
/// median of batches moved by up to half between processes, the smallest
/// far less.
class SetupSampler {
 public:
  explicit SetupSampler(const Workload& w) : w_(w), kc_(w.kc) {
    kc_.end_time = tw::VirtualTime::zero();
    double b = 0, r = 0;
    for (int i = 0; i < 3; ++i) {
      trial(b, r);  // warm-up: first-touch allocations, code
    }
    const auto probe = Clock::now();
    trial(b, r);
    batch_ = std::clamp(static_cast<int>(0.01 / std::max(1e-6, seconds_since(probe))), 1, 100);
  }

  void sample() {
    double b = 0, r = 0;
    for (int i = 0; i < batch_; ++i) {
      trial(b, r);
    }
    spent_s_ += b + r;
    totals_.push_back((b + r) / batch_);
    builds_.push_back(b / batch_);
    runs_.push_back(r / batch_);
  }

  /// Takes one batch, then more until the trials have used `share` of
  /// `window_s`, so that every workload gets many batches whatever its
  /// trial cost (one 20 ms trial per batch on the mesh).
  void sample_up_to(double share, double window_s) {
    do {
      sample();
    } while (spent_s_ < share * window_s);
  }

  [[nodiscard]] SetupTimes result() const {
    return SetupTimes{quantile(totals_, 0.0), quantile(builds_, 0.0) * 1e6,
                      quantile(runs_, 0.0) * 1e6};
  }

 private:
  void trial(double& build_s, double& run_s) {
    const auto t0 = Clock::now();
    const tw::Model model = w_.build();
    const auto t1 = Clock::now();
    const tw::RunResult r = tw::run(model, kc_, w_.tuning);
    const auto t2 = Clock::now();
    if (r.stats.object_totals().events_processed != 0) {
      throw std::runtime_error("zero-horizon set-up run processed events");
    }
    build_s += std::chrono::duration<double>(t1 - t0).count();
    run_s += std::chrono::duration<double>(t2 - t1).count();
  }

  const Workload& w_;
  tw::KernelConfig kc_;
  int batch_ = 1;
  double spent_s_ = 0.0;
  std::vector<double> totals_, builds_, runs_;
};

// ------------------------------------------------------- layer replays ---

/// Layer costs timed through the public API, shaped to the workload.
struct Replays {
  double insert_advance_ns = 0.0;
  double annihilate_ns = 0.0;
  double save_ns = 0.0;
  double restore_ns = 0.0;
  double encode_ns = 0.0;
  double decode_ns = 0.0;
};

tw::Event replay_event(util::Xoshiro256& rng, std::uint64_t base, std::uint64_t id,
                       std::uint32_t payload_bytes) {
  tw::Event e;
  e.recv_time = tw::VirtualTime(base + 1 + rng.next_below(200));
  e.send_time = tw::VirtualTime(base);
  e.sender = static_cast<tw::ObjectId>(id % 64);
  e.receiver = 0;
  e.seq = rng();
  e.instance = id;
  std::uint8_t bytes[tw::kMaxPayloadBytes] = {};
  for (std::uint32_t i = 0; i < payload_bytes; ++i) {
    bytes[i] = static_cast<std::uint8_t>(id + i);
  }
  e.payload = tw::Payload::from_bytes(bytes, payload_bytes);
  return e;
}

/// Median over `blocks` of the per-op time of `ops` operations of `body`.
template <typename Body>
double time_blocks(int blocks, std::size_t ops, Body&& body) {
  std::vector<double> per_op;
  for (int b = 0; b < blocks; ++b) {
    per_op.push_back(body(ops) / static_cast<double>(ops));
  }
  return median(per_op);
}

/// Pending set: a hold model at `pending` unprocessed events with `history`
/// processed ones retained (fossil-collected in bulk, as at a GVT epoch).
double replay_insert_advance(tw::QueueKind kind, std::size_t pending,
                             std::size_t history) {
  return time_blocks(7, 200'000, [&](std::size_t ops) {
    tw::SlabPool pool;
    auto set = tw::make_pending_set(kind, &pool);
    util::Xoshiro256 rng(7, 1);
    std::uint64_t id = 0;
    std::uint64_t now = 0;
    for (std::size_t i = 0; i < pending; ++i) {
      set->insert(replay_event(rng, now, ++id, 16));
    }
    std::vector<tw::Position> advanced;
    advanced.reserve(ops);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      const tw::Event& next = set->advance();
      now = next.recv_time.ticks();
      advanced.push_back(next.position());
      set->insert(replay_event(rng, now, ++id, 16));
      if (advanced.size() > 2 * history && i % history == 0) {
        set->fossil_collect_before(advanced[advanced.size() - history]);
      }
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  });
}

/// Pending set: annihilation by identity at the same population. Each round
/// inserts `batch` fresh unprocessed events on top of `resident` ones and
/// annihilates them in random order; only the annihilations are timed.
double replay_annihilate(tw::QueueKind kind, std::size_t resident,
                         std::size_t batch) {
  return time_blocks(7, 50'000, [&](std::size_t ops) {
    tw::SlabPool pool;
    auto set = tw::make_pending_set(kind, &pool);
    util::Xoshiro256 rng(11, 2);
    std::uint64_t id = 0;
    for (std::size_t i = 0; i < resident; ++i) {
      set->insert(replay_event(rng, 0, ++id, 16));
    }
    std::vector<tw::Event> victims;
    double ns = 0.0;
    for (std::size_t done = 0; done < ops; done += victims.size()) {
      victims.clear();
      for (std::size_t i = 0; i < std::min(batch, ops - done); ++i) {
        victims.push_back(replay_event(rng, 0, ++id, 16));
        set->insert(victims.back());
      }
      for (std::size_t i = victims.size(); i > 1; --i) {
        std::swap(victims[i - 1], victims[rng.next_below(i)]);
      }
      const auto t0 = Clock::now();
      for (const tw::Event& v : victims) {
        const tw::Event anti = v.make_anti();
        if (set->find_match(anti) != tw::MatchStatus::Unprocessed) {
          throw std::runtime_error("pending-set replay lost an event");
        }
        set->erase_match(anti);
      }
      ns += std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    }
    return ns;
  });
}

/// Checkpoint store: saves of the model's own object states (round-robin
/// over objects, as the kernel saves them) with fossil collection keeping
/// `depth` checkpoints, then restores walking back through them.
void replay_checkpoints(const Workload& w, const tw::Model& model,
                        std::size_t depth, Replays& out) {
  std::vector<std::unique_ptr<tw::ObjectState>> states;
  for (const auto& spec : model.objects) {
    states.push_back(spec.factory()->initial_state());
  }
  depth = std::max<std::size_t>(depth, 4);
  std::vector<double> saves, restores;
  for (int block = 0; block < 7; ++block) {
    tw::StateArena arena;
    std::vector<std::unique_ptr<tw::CheckpointStore>> stores;
    for (std::size_t i = 0; i < states.size(); ++i) {
      stores.push_back(tw::make_checkpoint_store(
          w.kc.checkpoint.state_saving, w.kc.checkpoint.full_snapshot_interval,
          &arena));
    }
    const std::size_t ops = 100'000;
    std::uint64_t t = 0;
    auto pos_at = [](std::uint64_t time) {
      return tw::Position{tw::EventKey{tw::VirtualTime(time), 0, time}, time};
    };
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      const std::size_t obj = i % states.size();
      t = i + 1;
      stores[obj]->save(pos_at(t), *states[obj]);
      if (obj == 0 && (i / states.size()) % depth == depth - 1) {
        for (auto& s : stores) {
          s->fossil_collect(tw::VirtualTime(t - depth * states.size() / 2));
        }
      }
    }
    saves.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                    static_cast<double>(ops));
    // Restores: each drops the newest checkpoint and reconstructs the one
    // before it (a rollback of one event); stop one short of the floor.
    std::size_t restored = 0;
    t0 = Clock::now();
    for (std::size_t obj = 0; obj < stores.size(); ++obj) {
      std::uint64_t time = t - ((t - 1 - obj) % states.size());
      while (stores[obj]->entries() > 1) {
        tw::RestorePoint p = stores[obj]->restore_before(pos_at(time));
        time = p.pos.key.recv_time.ticks();
        arena.release(std::move(p.state));
        ++restored;
      }
    }
    restores.push_back(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
                       static_cast<double>(std::max<std::size_t>(1, restored)));
  }
  out.save_ns = median(saves);
  out.restore_ns = median(restores);
}

/// Wire codec: one event-batch frame of `batch` events (the workload's mean
/// aggregate) with `payload` bytes each, encoded (payload + 24-byte header)
/// and decoded through the process-wide registry.
void replay_wire(std::size_t batch, std::uint32_t payload, Replays& out) {
  tw::register_wire_messages();
  util::Xoshiro256 rng(5, 3);
  std::vector<tw::Event> events;
  for (std::size_t i = 0; i < batch; ++i) {
    events.push_back(replay_event(rng, 1000, i + 1, payload));
  }
  const tw::EventBatchMessage msg(events);
  const std::size_t frames = std::max<std::size_t>(2'000, 200'000 / batch);
  std::vector<std::uint8_t> buf;
  out.encode_ns = time_blocks(7, frames, [&](std::size_t ops) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      buf.clear();
      platform::WireWriter writer(buf);
      msg.encode_wire(writer);
      std::uint8_t header[platform::kFrameHeaderBytes];
      platform::FrameHeader h;
      h.payload_len = static_cast<std::uint32_t>(buf.size());
      h.tag = msg.wire_tag();
      platform::encode_frame_header(h, header);
    }
    return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  });
  const auto& registry = platform::WireRegistry::instance();
  out.decode_ns = time_blocks(7, frames, [&](std::size_t ops) {
    std::size_t decoded = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < ops; ++i) {
      platform::WireReader reader(buf.data(), buf.size());
      auto m = registry.decode(tw::kTagEventBatch, reader);
      decoded += static_cast<const tw::EventBatchMessage&>(*m).events().size();
    }
    const double ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    if (decoded != ops * batch) {
      throw std::runtime_error("wire replay decoded a short batch");
    }
    return ns;
  });
}

// ------------------------------------------------------------ metrics ---

double hist_quantile(const tw::RunResult& r, obs::hist::Seam seam, double q) {
  obs::hist::Snapshot merged;
  for (const obs::hist::Entry& e : r.hists) {
    if (e.seam == seam) {
      merged.merge(e.hist);
    }
  }
  return merged.empty() ? 0.0 : static_cast<double>(merged.quantile_upper_bound(q));
}

/// Per-layer ledger from one traced run plus the replays.
std::vector<Metric> layer_metrics(const Workload& w, const tw::RunResult& traced,
                                  double untraced_wall_s, double tracing_overhead,
                                  const Replays& rp, const SetupTimes& setup) {
  const tw::ObjectStats o = traced.stats.object_totals();
  const tw::LpStats lp = traced.stats.lp_totals();
  const double committed = static_cast<double>(o.events_committed);
  const double processed = static_cast<double>(o.events_processed);
  const bool now = w.kc.engine.kind == tw::EngineKind::SimulatedNow;
  obs::PhaseTotals phases;
  for (const obs::PhaseTotals& t : traced.lp_phases) {
    phases.merge(t);
  }
  auto phase_per_ev = [&](obs::Phase p) {
    return ratio(static_cast<double>(phases.ns[static_cast<std::size_t>(p)]), committed);
  };
  double chi_sum = 0.0;
  for (const tw::ObjectStats& s : traced.stats.objects) {
    chi_sum += s.final_checkpoint_interval;
  }
  const double frames = static_cast<double>(traced.dist.frames_sent);
  const platform::SchedulerStats& sched = traced.scheduler;
  std::uint64_t steps = 0;
  std::uint64_t timer_fires = 0;
  for (const platform::WorkerStats& ws : sched.workers) {
    steps += ws.steps;
    timer_fires += ws.timer_fires;
  }

  // Host time per committed event that the replayed layer costs do not
  // explain (simulated NOW only: the other engines overlap work in time).
  double unattributed = 0.0;
  if (now) {
    const double host_ns = ratio(untraced_wall_s * 1e9, committed);
    const double explained =
        rp.insert_advance_ns * ratio(processed, committed) +
        rp.save_ns * ratio(static_cast<double>(o.states_saved), committed) +
        rp.restore_ns * ratio(static_cast<double>(o.state_restores), committed) +
        rp.annihilate_ns * ratio(static_cast<double>(o.anti_messages_received), committed);
    unattributed = host_ns - explained;
  }

  using obs::Phase;
  using obs::hist::Seam;
  return {
      {"tw.commit_efficiency", ratio(committed, processed), "ratio"},
      {"tw.rollbacks_per_kev", 1000.0 * ratio(static_cast<double>(o.rollbacks), committed), "1/kev"},
      {"tw.coast_forward_per_ev", ratio(static_cast<double>(o.coast_forward_events), committed), "1/ev"},
      {"tw.states_saved_per_ev", ratio(static_cast<double>(o.states_saved), committed), "1/ev"},
      {"tw.anti_msgs_per_ev", ratio(static_cast<double>(o.anti_messages_sent), committed), "1/ev"},
      {"tw.lazy_hit_ratio", ratio(static_cast<double>(o.lazy_hits),
                                  static_cast<double>(o.lazy_hits + o.lazy_misses)), "ratio"},
      {"tw.gvt_epochs", static_cast<double>(lp.gvt_epochs), "count"},
      {"tw.history_peak_mb", static_cast<double>(traced.stats.memory_peak_bytes()) / (1024.0 * 1024.0), "MiB"},
      {"pending_set.insert_advance_ns", rp.insert_advance_ns, "ns"},
      {"pending_set.annihilate_ns", rp.annihilate_ns, "ns"},
      {"checkpoint.save_ns", rp.save_ns, "ns"},
      {"checkpoint.restore_ns", rp.restore_ns, "ns"},
      {"phase.event_processing_ns", phase_per_ev(Phase::EventProcessing), "ns/ev"},
      {"phase.state_saving_ns", phase_per_ev(Phase::StateSaving), "ns/ev"},
      {"phase.rollback_ns", phase_per_ev(Phase::Rollback), "ns/ev"},
      {"phase.coast_forward_ns", phase_per_ev(Phase::CoastForward), "ns/ev"},
      {"phase.gvt_ns", phase_per_ev(Phase::Gvt), "ns/ev"},
      {"phase.comm_ns", phase_per_ev(Phase::Comm), "ns/ev"},
      {"phase.idle_ns", phase_per_ev(Phase::Idle), "ns/ev"},
      {"phase.control_ns", phase_per_ev(Phase::Control), "ns/ev"},
      {"obs.tracing_overhead", tracing_overhead, "ratio"},
      {"comm.phys_msgs_per_ev", ratio(static_cast<double>(lp.aggregates_sent), committed), "1/ev"},
      {"comm.mean_aggregate_size", lp.aggregate_size.mean(), "ev"},
      {"comm.mean_window_us", lp.aggregation_window_us.mean(), "us"},
      {"core.mean_chi", ratio(chi_sum, static_cast<double>(traced.stats.objects.size())), "ev"},
      {"core.cancellation_switches", static_cast<double>(o.cancellation_switches), "count"},
      {"core.control_ticks", static_cast<double>(phases.count[static_cast<std::size_t>(Phase::Control)]), "count"},
      {"now.engine_msgs_per_ev", now ? ratio(static_cast<double>(traced.physical_messages), committed) : 0.0, "1/ev"},
      {"now.unattributed_ns_per_ev", unattributed, "ns/ev"},
      {"threaded.steps_per_kev", 1000.0 * ratio(static_cast<double>(steps), committed), "1/kev"},
      {"threaded.parks_per_kev", 1000.0 * ratio(static_cast<double>(sched.total_parks()), committed), "1/kev"},
      {"threaded.timer_fires_per_kev", 1000.0 * ratio(static_cast<double>(timer_fires), committed), "1/kev"},
      {"threaded.mailbox_overflows", static_cast<double>(sched.mailbox_overflows), "count"},
      {"hist.mailbox_dwell_p50_ns", hist_quantile(traced, Seam::MailboxDwell, 0.5), "ns"},
      {"dist.frames_per_ev", ratio(frames, committed), "1/ev"},
      {"dist.bytes_per_ev", ratio(static_cast<double>(traced.dist.bytes_sent), committed), "B/ev"},
      {"dist.gvt_token_frames", static_cast<double>(traced.dist.gvt_token_frames), "count"},
      {"dist.encode_ns_per_frame", rp.encode_ns, "ns"},
      {"dist.decode_ns_per_frame", rp.decode_ns, "ns"},
      {"hist.link_latency_p50_ns", hist_quantile(traced, Seam::LinkLatency, 0.5), "ns"},
      {"hist.link_latency_p99_ns", hist_quantile(traced, Seam::LinkLatency, 0.99), "ns"},
      {"hist.gvt_round_p50_ns", hist_quantile(traced, Seam::GvtRound, 0.5), "ns"},
      {"hist.rollback_depth_p50", hist_quantile(traced, Seam::RollbackDepth, 0.5), "ev"},
      {"setup.model_build_us", setup.model_build_us, "us"},
      {"setup.engine_start_us", setup.engine_start_us, "us"},
  };
}

// --------------------------------------------------------------- main ---

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  Inject inject = Inject::None;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + key);
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--inject") {
      if (value == "digest") {
        a.inject = Inject::Digest;
      } else if (value == "count") {
        a.inject = Inject::Count;
      } else {
        throw std::invalid_argument("--inject takes digest or count");
      }
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() || a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument(
        "usage: twbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
        "[--inject digest|count]");
  }
  return a;
}

/// One timed sequential run, checked against the oracle; returns events/s.
double timed_sequential(const Workload& w, const tw::Model& model,
                        const tw::SequentialResult& oracle) {
  const auto t0 = Clock::now();
  const tw::SequentialResult s =
      tw::run_sequential(model, w.kc.end_time, w.kc.engine.queue);
  const double dt = seconds_since(t0);
  if (s.digests != oracle.digests || s.events_processed != oracle.events_processed) {
    throw std::runtime_error("sequential kernel is not deterministic");
  }
  return static_cast<double>(s.events_processed) / dt;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed);
  const tw::Model model = w.build();

  std::vector<Outcome> runs;
  std::optional<tw::RunResult> traced;  // the last traced run (--trace 1)
  RssSampler rss_sampler;
  std::vector<double> run_peaks;  // MiB, one per Time Warp run
  auto timed_run = [&](const tw::KernelConfig& kc) {
    rss_sampler.begin();
    const auto t0 = Clock::now();
    tw::RunResult r = tw::run(model, kc, w.tuning);
    const double wall_s = seconds_since(t0);
    run_peaks.push_back(rss_sampler.end());
    runs.push_back(outcome_of(r, wall_s));
    if (kc.observability.profiling) {
      traced = std::move(r);
    }
    return runs.back();
  };

  // The oracle runs first, apart from every Time Warp run; peak_rss_mb is
  // taken over the Time Warp runs only and must exceed the oracle's peak.
  rss_sampler.begin();
  const tw::SequentialResult oracle =
      tw::run_sequential(model, w.kc.end_time, w.kc.engine.queue);
  const double oracle_rss = rss_sampler.end();

  std::vector<Metric> metrics;
  double rss = 0.0;
  SetupTimes setup;
  std::vector<double> rates, makespans, seq_rates, overheads, untraced_walls;
  if (args.trace == 0) {
    // Time Warp runs, set-up batches and sequential runs alternate over the
    // whole window, so that a slow phase of the host touches all three alike.
    SetupSampler sampler(w);
    timed_run(w.kc);  // warm-up, checked but not timed
    const auto start = Clock::now();
    while (rates.size() < 10 || seconds_since(start) < args.seconds) {
      const Outcome& c = timed_run(w.kc);
      rates.push_back(static_cast<double>(c.committed) / c.wall_s);
      makespans.push_back(static_cast<double>(c.execution_time_ns) / 1e9);
      sampler.sample_up_to(0.1, seconds_since(start));
      seq_rates.push_back(timed_sequential(w, model, oracle));
    }
    // Median over the runs of each run's peak; on the mesh the largest
    // shard worker's peak counts too.
    rss = std::max(median(run_peaks), children_peak_mib());
    if (rss <= oracle_rss) {
      throw std::runtime_error("the sequential reference set the peak resident memory");
    }
    setup = sampler.result();
  } else {
    tw::KernelConfig traced_kc = w.kc;
    traced_kc.observability.tracing = true;
    traced_kc.observability.profiling = true;
    traced_kc.observability.live.enabled = true;
    traced_kc.observability.live.histograms = true;
    timed_run(w.kc);  // warm-up
    const auto start = Clock::now();
    while (overheads.empty() || seconds_since(start) < 0.6 * args.seconds) {
      const double untraced = timed_run(w.kc).wall_s;
      untraced_walls.push_back(untraced);
      overheads.push_back(timed_run(traced_kc).wall_s / untraced);
    }
  }

  std::uint64_t failed = 0;
  std::string first_error;
  for (const Outcome& c : runs) {
    const std::string err = check_run(c, oracle, args.inject);
    if (!err.empty()) {
      ++failed;
      first_error = first_error.empty() ? err : first_error;
    }
  }
  if (const std::string err = w.check_model(oracle); !err.empty()) {
    first_error = first_error.empty() ? err : first_error;
  }
  std::fprintf(stderr,
               "twbench %s seed %llu: %zu Time Warp runs, %llu committed events "
               "each, sequential %llu events\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               runs.size(),
               static_cast<unsigned long long>(runs.back().committed),
               static_cast<unsigned long long>(oracle.events_processed));

  if (args.trace == 0) {
    std::fprintf(stderr,
                 "twbench: committed ev/s over %zu runs: min %.0f median %.0f "
                 "max %.0f; run peak MiB min %.2f median %.2f max %.2f\n",
                 rates.size(), quantile(rates, 0), quantile(rates, 0.5),
                 quantile(rates, 1), quantile(run_peaks, 0), quantile(run_peaks, 0.5),
                 quantile(run_peaks, 1));
    // Host rates are those of the fastest run: every run repeats the same
    // simulated work and interference from other tenants of the host only
    // ever adds time, in phases of seconds to minutes, so the fastest run
    // estimates the program's own cost (README.md, "Noise").
    metrics = {
        {"committed_ev_per_s", quantile(rates, 1.0), "ev/s"},
        {"modeled_makespan_s", quantile(makespans, 0.0), "s"},
        {"seq_ev_per_s", quantile(seq_rates, 1.0), "ev/s"},
        {"peak_rss_mb", rss, "MiB"},
        {"setup_s", setup.setup_s, "s"},
    };
  } else {
    // Replays shaped to the workload: the pending set holds the model's
    // in-flight events per object plus the processed history one GVT epoch
    // retains; the checkpoint store keeps as many states; the wire frame
    // carries the workload's mean aggregate.
    const tw::ObjectStats o = traced->stats.object_totals();
    const tw::LpStats lp = traced->stats.lp_totals();
    const double epochs_per_lp =
        std::max(1.0, static_cast<double>(lp.gvt_epochs) / w.kc.num_lps);
    const auto history = static_cast<std::size_t>(std::max(
        4.0, static_cast<double>(o.events_processed) / epochs_per_lp / w.num_objects));
    const auto pending = static_cast<std::size_t>(
        std::max<std::uint64_t>(1, w.population / w.num_objects));
    Replays rp;
    rp.insert_advance_ns = replay_insert_advance(w.kc.engine.queue, pending, history);
    rp.annihilate_ns = replay_annihilate(w.kc.engine.queue, pending + history, pending);
    replay_checkpoints(w, model, history, rp);
    const auto batch = static_cast<std::size_t>(
        std::max(1.0, std::round(lp.aggregate_size.mean())));
    replay_wire(batch, w.payload_bytes, rp);
    SetupSampler sampler(w);
    for (int i = 0; i < 9; ++i) {
      sampler.sample();
    }
    setup = sampler.result();
    metrics = layer_metrics(w, *traced, median(untraced_walls), median(overheads),
                            rp, setup);
  }

  const bool correct = first_error.empty();
  if (!correct) {
    std::fprintf(stderr, "twbench: CHECK FAILED: %s\n", first_error.c_str());
  }
  print_result(correct, runs.size(), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "twbench: %s\n", e.what());
    return 2;
  }
}
