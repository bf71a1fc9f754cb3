// Open-loop workloads on a 4x3 bank over the ordered path (leases off):
// independent logical clients arrive as a Poisson process and are served
// by a fixed pool of client sessions; 90% are single-partition kDeposit,
// 10% two-partition kTransfer, over uniformly chosen accounts. Each
// request is timed from when it was due, so a stall also charges the
// requests queued behind it.
//
// Checkpointing runs every 8 ms in both workloads.
//
//   kv-open      a ladder of three fixed offered rates (below, near and
//                above the knee of the ordered path) in one run.
//   kv-failover  the ladder's low rate; partition 0's leader crashes at a
//                fixed virtual time and restarts later, rejoining from its
//                checkpoint through Algorithm 3 delta transfer. Not listed
//                in BENCHMARK.json: it reproduces a restart-path defect
//                (README.md).
#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "faultlab/bank.hpp"
#include "faultlab/history.hpp"
#include "sim/notifier.hpp"
#include "telemetry/hub.hpp"

namespace perfbench {

namespace {

namespace fl = heron::faultlab;
namespace amcast = heron::amcast;

constexpr int kPartitions = 4;
constexpr int kReplicas = 3;
constexpr std::uint64_t kAccountsPerPartition = 4096;
constexpr std::uint64_t kAccounts = kAccountsPerPartition * kPartitions;
constexpr std::uint32_t kSessions = 64;
constexpr double kTransferShare = 0.10;
/// Arrivals start once the system is up; the first `kSettle` of every
/// rate step is not measured, so queues reach the step's steady state.
constexpr Nanos kArrivalsFrom = sim::ms(1);
constexpr Nanos kSettle = sim::ms(2);
/// Goodput latency limit on the p99 (see README.md).
constexpr Nanos kLimit = sim::us(300);

/// The ordered path's knee on this deployment lies between 340k and 380k
/// requests/s (README.md has the sweep). Low sits at a quarter of it, mid
/// at about 70%, where queueing already shows in the p50, and high above
/// it (the backlog grows for the whole step). Mid carries the end-to-end
/// metrics, so it runs longest; its tail is steady across seeds, which a
/// rate closer to the knee's is not.
constexpr double kRateLow = 90e3;
constexpr double kRateMid = 250e3;
constexpr double kRateHigh = 400e3;
constexpr Nanos kLowLength = sim::ms(20);
constexpr Nanos kMidLength = sim::ms(482);
constexpr Nanos kHighLength = sim::ms(20);
constexpr Nanos kCheckpointInterval = sim::ms(8);

constexpr Nanos kFailoverLength = sim::ms(40);
constexpr Nanos kCrashAfter = sim::ms(6);     // after measurement starts
constexpr Nanos kRestartAfter = sim::ms(3);   // after the crash

struct Job {
  Nanos due = 0;
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  bool transfer = false;
};

struct Step {
  double rate = 0.0;
  Nanos begin = 0;
  Nanos measure_from = 0;
  Nanos end = 0;
  /// Requests due in the measured part (latency, failures) ...
  Population due;
  /// ... and requests completed in it (throughput, goodput).
  Population done;
  std::uint64_t outstanding_at_measure = 0;
  std::uint64_t outstanding_at_end = 0;
  [[nodiscard]] Nanos measured() const { return end - measure_from; }
  /// The queue of due-but-unfinished requests grew over the step by more
  /// than queueing noise (a session pool's worth, or 5% of the step).
  [[nodiscard]] bool backlog_grew() const {
    const auto slack = std::max<std::uint64_t>(
        kSessions, static_cast<std::uint64_t>(0.05 * rate * sim::to_sec(measured())));
    return outstanding_at_end > outstanding_at_measure + slack;
  }
};

/// What kv-failover records beside the open loop: due times of every
/// request, completion times of partition-0 requests, the crashed rank
/// and when it caught up.
struct Outage {
  std::vector<Nanos> due_times;
  std::vector<Nanos> p0_done;
  int victim = 0;
  Nanos caught_up_at = 0;
  fl::HistoryRecorder history;
};

/// Generator, session pool and accounting. Declared before the Cluster so
/// it outlives the system's observers and the coroutine frames.
struct Open {
  std::vector<Step> steps;
  std::deque<Job> waitq;
  /// One wake-up per session. Owned by the run function after the Cluster:
  /// a notifier must go before the simulator that parks its waiters.
  std::vector<sim::Notifier>* notes = nullptr;
  std::vector<std::uint32_t> idle;
  bool generator_done = false;
  int sessions_running = 0;
  std::uint64_t arrived = 0;
  std::uint64_t finished_ok = 0;
  std::uint64_t finished_failed = 0;
  Nanos late_max = 0;
  // Completions inside the measured window (host_ops_per_s).
  Nanos w0 = 0;
  Nanos w1 = 0;
  std::uint64_t window_done = 0;
  Outage* outage = nullptr;  // kv-failover only

  [[nodiscard]] std::uint64_t outstanding() const {
    return arrived - finished_ok - finished_failed;
  }
  void wake_one() {
    if (idle.empty()) return;
    const std::uint32_t w = idle.back();
    idle.pop_back();
    (*notes)[w].notify_all();
  }
};

sim::Task<void> arrival_source(Cluster& c, Open& o, std::uint64_t seed) {
  auto& s = c.simulator;
  sim::Rng rng(seed);
  for (const Step& st : o.steps) {
    double t = static_cast<double>(st.begin);
    for (;;) {
      t += rng.exponential(1e9 / st.rate);
      const auto due = static_cast<Nanos>(t);
      if (due >= st.end) break;
      if (due > s.now()) co_await s.sleep(due - s.now());
      o.late_max = std::max(o.late_max, s.now() - due);
      Job job;
      job.due = due;
      job.from = rng.bounded(kAccounts);
      job.transfer = rng.chance(kTransferShare);
      if (job.transfer) {
        // An account of another partition: same rank, shifted home.
        const std::uint64_t shift = 1 + rng.bounded(kPartitions - 1);
        job.to = (job.from / kPartitions) * kPartitions +
                 (job.from % kPartitions + shift) % kPartitions;
      }
      ++o.arrived;
      if (o.outage != nullptr) o.outage->due_times.push_back(due);
      o.waitq.push_back(job);
      o.wake_one();
    }
  }
  o.generator_done = true;
  while (!o.idle.empty()) o.wake_one();
}

core::GroupId home_of(std::uint64_t account) {
  return static_cast<core::GroupId>(account % kPartitions);
}

sim::Task<void> session(Cluster& c, Open& o, std::uint32_t me) {
  auto& s = c.simulator;
  auto& tracer = c.fabric->telemetry().tracer;
  core::Client& client = c.sys->client(me);
  for (;;) {
    if (o.waitq.empty()) {
      if (o.generator_done) break;
      o.idle.push_back(me);
      co_await (*o.notes)[me].wait();
      continue;
    }
    const Job job = o.waitq.front();
    o.waitq.pop_front();
    auto span = tracer.span("bench", job.transfer ? "kv.transfer" : "kv.deposit",
                            client.node().id());
    core::Client::Result res;
    amcast::DstMask dst = amcast::dst_of(home_of(job.from));
    if (job.transfer) {
      const fl::TransferReq req{job.from, job.to, 1};
      dst |= amcast::dst_of(home_of(job.to));
      res = co_await client.submit(dst, fl::kTransfer,
                                   std::as_bytes(std::span(&req, 1)));
    } else {
      const fl::DepositReq req{job.from, 1};
      res = co_await client.submit(dst, fl::kDeposit,
                                   std::as_bytes(std::span(&req, 1)));
    }
    span.finish();
    const Nanos now = s.now();
    const bool ok = res.status == core::SubmitStatus::kOk;
    (ok ? o.finished_ok : o.finished_failed) += 1;
    if (now >= o.w0 && now < o.w1) ++o.window_done;
    if (ok && o.outage != nullptr && amcast::dst_contains(dst, 0)) {
      o.outage->p0_done.push_back(now);
    }
    for (Step& st : o.steps) {
      if (job.due >= st.measure_from && job.due < st.end) {
        st.due.record(now - job.due, ok, kLimit);
      }
      if (now >= st.measure_from && now < st.end) {
        st.done.record(now - job.due, ok, kLimit);
      }
    }
  }
  --o.sessions_running;
}

/// Builds the bank cluster and the session pool; arrivals start at
/// kArrivalsFrom. With an `outage` the clients retry and the history is
/// recorded for the oracles.
void build(Cluster& c, Open& o, std::vector<sim::Notifier>& notes,
           std::uint64_t seed, Outage* outage) {
  core::HeronConfig cfg;
  cfg.object_region_bytes = 4u << 20;
  // A light application op, so the ladder measures ordering and queueing.
  cfg.exec_dispatch_proc = sim::us(1);
  cfg.durable.checkpoint_interval = kCheckpointInterval;
  if (outage != nullptr) {
    // Retries ride out the takeover; replicas deduplicate by session.
    cfg.client_attempt_timeout = sim::us(500);
    cfg.client_max_retries = 20;
    cfg.client_retry_backoff = sim::us(20);
    cfg.client_retry_backoff_max = sim::us(500);
  }
  amcast::Config acfg;
  acfg.max_batch = 8;
  c.build(kPartitions, kReplicas,
          [] {
            return std::make_unique<fl::BankApp>(kPartitions,
                                                 kAccountsPerPartition);
          },
          cfg, acfg);
  o.outage = outage;
  if (outage != nullptr) outage->history.attach(*c.sys);
  c.start(static_cast<int>(kSessions));
  for (std::uint32_t w = 0; w < kSessions; ++w) notes.emplace_back(c.simulator);
  o.notes = &notes;
  for (std::uint32_t w = 0; w < kSessions; ++w) {
    ++o.sessions_running;
    c.simulator.spawn(session(c, o, w));
  }
  c.simulator.spawn(arrival_source(c, o, seed * 2654435761u + 17));
}

/// Drains the queue after the last arrival and checks that every arrival
/// was accounted for exactly once.
void drain_and_account(Cluster& c, Open& o, Rep& rep) {
  if (!c.run_until([&] { return o.sessions_running == 0; }, sim::ms(200))) {
    rep.violations.push_back("[hung] the open-loop queue did not drain within "
                             "200ms of virtual time after the last arrival");
  }
  if (o.finished_ok + o.finished_failed != o.arrived) {
    rep.violations.push_back(
        "[accounting] arrivals " + std::to_string(o.arrived) +
        " != completed " + std::to_string(o.finished_ok) + " + failed " +
        std::to_string(o.finished_failed));
  }
  rep.attempted = o.arrived;
  rep.failed = o.finished_failed;
  rep.layer["client.fail_ratio"] = ratio(o.finished_failed, o.arrived);
  rep.layer["client.gen_late_us_max"] = sim::to_us(o.late_max);
}

Step make_step(double rate, Nanos begin, Nanos length) {
  Step st;
  st.rate = rate;
  st.begin = begin;
  st.measure_from = begin + kSettle;
  st.end = begin + length;
  return st;
}

}  // namespace

Rep run_kv_open(const Options& opt, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  Rep rep;
  Open o;
  Cluster c(opt.seed, traced);
  o.steps.push_back(make_step(kRateLow, kArrivalsFrom, kLowLength));
  o.steps.push_back(make_step(kRateMid, o.steps.back().end, kMidLength));
  o.steps.push_back(make_step(kRateHigh, o.steps.back().end, kHighLength));
  std::vector<sim::Notifier> notes;
  build(c, o, notes, opt.seed, nullptr);
  if (mode == Mode::kSetupOnly) {
    rep.setup = c.setup;
    return rep;
  }

  c.warmup(o.steps.front().measure_from);
  o.w0 = c.simulator.now();
  o.w1 = o.steps.back().end;
  c.begin_window();
  for (Step& st : o.steps) {
    c.run(st.measure_from - c.simulator.now());
    st.outstanding_at_measure = o.outstanding();
    c.run(st.end - c.simulator.now());
    st.outstanding_at_end = o.outstanding();
  }
  c.end_window(rep, o.window_done);
  drain_and_account(c, o, rep);

  const Step& low = o.steps[0];
  const Step& mid = o.steps[1];
  const Step& high = o.steps[2];
  fill_e2e(rep, mid.done, mid.due, mid.measured());
  require_samples(rep, mid.due, "kv-open mid step");
  rep.layer["lat_p99_us.low"] = p_us(low.due.lat, 99);
  rep.layer["lat_p99_us.high"] = p_us(high.due.lat, 99);
  double rate_max = 0.0;
  for (const Step& st : o.steps) {
    if (st.due.failed == 0 && !st.backlog_grew() &&
        st.due.lat.percentile(99) <= kLimit) {
      rate_max = std::max(rate_max, st.rate);
    }
  }
  rep.layer["rate_max_ops_s"] = rate_max;

  c.settle_and_check(rep);
  if (traced) rep.trace_json = c.fabric->telemetry().tracer.chrome_json();
  return rep;
}

namespace {

/// Crashes partition 0's leader at `crash_at`, restarts it at
/// `restart_at` and records how long the rejoin takes.
sim::Task<void> crash_and_restart(Cluster& c, Outage& o, Nanos crash_at,
                                  Nanos restart_at) {
  auto& s = c.simulator;
  co_await s.sleep(crash_at - s.now());
  for (int r = 0; r < kReplicas; ++r) {
    if (c.sys->amcast().endpoint(0, r).is_leader()) o.victim = r;
  }
  c.sys->amcast().endpoint(0, o.victim).node().crash();
  co_await s.sleep(restart_at - s.now());
  c.sys->restart_replica(0, o.victim);
  while (c.sys->replica(0, o.victim).rejoining()) co_await s.sleep(sim::us(2));
  o.caught_up_at = s.now();
}

}  // namespace

Rep run_kv_failover(const Options& opt, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  Rep rep;
  Outage out;
  Open o;
  Cluster c(opt.seed, traced);
  o.steps.push_back(make_step(kRateLow, kArrivalsFrom, kFailoverLength));
  std::vector<sim::Notifier> notes;
  build(c, o, notes, opt.seed, &out);
  if (mode == Mode::kSetupOnly) {
    rep.setup = c.setup;
    return rep;
  }

  Step& st = o.steps.front();
  const Nanos crash_at = st.measure_from + kCrashAfter;
  const Nanos restart_at = crash_at + kRestartAfter;
  c.simulator.spawn(crash_and_restart(c, out, crash_at, restart_at));

  c.warmup(st.measure_from);
  o.w0 = c.simulator.now();
  o.w1 = st.end;
  c.begin_window();
  c.run(st.end - c.simulator.now());
  c.end_window(rep, o.window_done);
  drain_and_account(c, o, rep);

  fill_e2e(rep, st.done, st.due, st.measured());
  require_samples(rep, st.due, "kv-failover");

  // Longest stretch from the crash with no partition-0 request completing.
  std::sort(out.p0_done.begin(), out.p0_done.end());
  Nanos last = crash_at;
  Nanos unavail = 0;
  Nanos outage_end = crash_at;
  for (const Nanos t : out.p0_done) {
    if (t < crash_at) continue;
    if (t - last > unavail) {
      unavail = t - last;
      outage_end = t;
    }
    last = t;
  }
  const Nanos outage_begin = outage_end - unavail;
  rep.layer["unavail_ms"] = sim::to_ms(unavail);
  rep.layer["failover.outage_requests"] = static_cast<double>(std::count_if(
      out.due_times.begin(), out.due_times.end(),
      [&](Nanos d) { return d >= outage_begin && d < outage_end; }));
  if (out.caught_up_at == 0) {
    rep.violations.push_back("[rejoin] the restarted replica did not leave "
                             "rejoining() before the run ended");
  }
  rep.layer["catchup_ms"] = sim::to_ms(out.caught_up_at - restart_at);

  c.settle_and_check(rep);
  fl::CrashSet crashed;
  crashed.insert({0, out.victim});
  auto v = fl::check_amcast_properties(out.history, *c.sys, crashed);
  fl::check_exactly_once(out.history, v);
  for (const auto& x : v) rep.violations.push_back("[" + x.oracle + "] " + x.detail);
  if (traced) rep.trace_json = c.fabric->telemetry().tracer.chrome_json();
  return rep;
}

}  // namespace perfbench
