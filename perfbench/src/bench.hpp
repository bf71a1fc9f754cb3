// Shared pieces of the Heron benchmark: options, the per-repetition
// result, the timed cluster builder and the layer-metric collectors.
//
// A workload function builds one cluster, drives it through a warm-up and
// a measured virtual-time window, drains it, runs the correctness checks
// and returns one Rep. main.cpp repeats it until the host-time budget is
// spent and reports medians of the host-time figures; the virtual-time
// figures are deterministic per seed and must agree across repetitions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/system.hpp"
#include "rdma/fabric.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace perfbench {

using heron::sim::Nanos;
namespace core = heron::core;
namespace sim = heron::sim;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
};

/// Host seconds spent in each set-up step of one repetition.
struct SetupTimes {
  double fabric_s = 0.0;   // rdma::Fabric constructor
  double system_s = 0.0;   // core::System constructor (regions, bootstrap)
  double start_s = 0.0;    // System::start() plus client attachment
  double warmup_s = 0.0;   // virtual warm-up before the measured window
  /// setup_s: construction up to the first request. The warm-up is
  /// simulation, not set-up, and is reported on its own.
  [[nodiscard]] double to_first_request() const {
    return fabric_s + system_s + start_s;
  }
};

/// One repetition of a workload.
struct Rep {
  /// Virtual-time end-to-end metrics (deterministic per seed).
  std::map<std::string, double> e2e;
  /// Per-layer metrics. Those read from the telemetry registry are only
  /// meaningful in traced repetitions.
  std::map<std::string, double> layer;
  SetupTimes setup;                   // all a kSetupOnly repetition fills
  double window_host_s = 0.0;         // host time inside the measured window
  std::uint64_t window_ops = 0;       // completions inside the window
  std::uint64_t window_events = 0;    // simulator events inside the window
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::string trace_json;             // traced repetitions only
};

/// What one repetition does: the whole workload, plainly or traced, or
/// only its set-up (construction and start(), then teardown).
enum class Mode { kPlain, kTraced, kSetupOnly };

Rep run_tpcc(const Options& opt, Mode mode);
Rep run_kv_fast(const Options& opt, Mode mode);
Rep run_kv_open(const Options& opt, Mode mode);
Rep run_kv_failover(const Options& opt, Mode mode);

/// Wall-clock stopwatch (host time, not virtual time).
class HostTimer {
 public:
  HostTimer() : t0_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// Lognormal sigma of the fabric's network-latency jitter. Real NICs and
/// switches are not deterministic; without jitter the fast path's latency
/// takes a handful of discrete values and its percentiles cannot move.
constexpr double kNetworkJitterSigma = 0.1;

/// Spans kept by a traced repetition; the rest are counted as dropped.
constexpr std::size_t kTraceEventCap = 40000;

/// A Heron deployment built step by step so each constructor and start()
/// is timed separately. Member order is destruction order in reverse:
/// the system goes first, the simulator (owning coroutine frames) last.
class Cluster {
 public:
  Cluster(std::uint64_t seed, bool traced);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void build(int partitions, int replicas, core::AppFactory factory,
             core::HeronConfig cfg, heron::amcast::Config acfg);
  /// Starts the system and adds `clients` client handles.
  void start(int clients);
  /// Runs `d` of virtual time as warm-up (host time lands in setup).
  void warmup(Nanos d);
  /// Warm-up that runs until `done()` holds (or `limit` passes).
  template <typename Pred>
  bool warmup_until(Pred done, Nanos limit) {
    const HostTimer t;
    const bool ok = run_until(done, limit);
    setup.warmup_s += t.seconds();
    return ok;
  }

  /// Opens the measured window: clears every statistic and notes the
  /// event count.
  void begin_window();
  /// Advances virtual time inside the window (host time is accumulated).
  void run(Nanos d);
  /// Closes the window; fills the simulator/rdma/amcast/core/client layer
  /// metrics from public accessors (and the registry when traced).
  void end_window(Rep& rep, std::uint64_t ops);

  /// Runs virtual time until `done()` holds or `limit` passes, in steps.
  template <typename Pred>
  bool run_until(Pred done, Nanos limit, Nanos step = sim::us(50)) {
    const Nanos until = simulator.now() + limit;
    while (!done() && simulator.now() < until) simulator.run_for(step);
    return done();
  }
  /// Lets every live replica finish what was ordered, then runs the
  /// store- and session-convergence oracles.
  void settle_and_check(Rep& rep);

  bool traced;
  SetupTimes setup;
  sim::Simulator simulator;
  std::unique_ptr<heron::rdma::Fabric> fabric;
  std::unique_ptr<core::System> sys;

 private:
  Nanos window_begin_ = 0;
  std::uint64_t events0_ = 0;
  double host_in_window_ = 0.0;
  sim::LatencyRecorder queue_depth_;
  bool sampling_ = false;
  sim::Task<void> sample_queue_depth();
};

/// num / den, or 0 when there is nothing to divide by.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Appends every sample of `from` to `into` (verbatim recorders).
void merge(sim::LatencyRecorder& into, const sim::LatencyRecorder& from);
double p_us(const sim::LatencyRecorder& r, double p);

/// Closed-loop / open-loop client-side latency bookkeeping for one
/// measured population.
struct Population {
  sim::LatencyRecorder lat;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t within_limit = 0;
  void record(Nanos latency, bool ok_status, Nanos limit) {
    if (!ok_status) {
      ++failed;
      return;
    }
    ++ok;
    lat.record(latency);
    if (latency <= limit) ++within_limit;
  }
};

/// Fills the four client-visible virtual-time metrics measured over
/// `window`: throughput and goodput from the completions in `done`,
/// latency percentiles (and the sample count) from `lat`. A closed loop
/// passes one population for both; an open loop counts completions inside
/// the window apart from the requests due in it.
void fill_e2e(Rep& rep, const Population& done, const Population& lat,
              Nanos window);

/// Violation unless `pop` holds enough samples for its p99 to have at
/// least ten samples beyond it.
void require_samples(Rep& rep, const Population& pop, const char* what);

}  // namespace perfbench
