// Workload `kv-fast`: closed loop on a 4x3 bank with leases and fast
// writes on. Each client first warms its address cache with one ordered
// read of every key (excluded from measurement), then issues 80%
// single-object Client::read and 20% blind kSet Client::write over
// uniformly chosen keys spread across the partitions. The leased path
// bypasses amcast, Algorithm 1 and Algorithm 2, so an ordering or
// coordination change should leave this workload unchanged.
#include <algorithm>
#include <memory>
#include <string>

#include "bench.hpp"
#include "faultlab/bank.hpp"
#include "faultlab/linear.hpp"
#include "telemetry/hub.hpp"

namespace perfbench {

namespace {

namespace fl = heron::faultlab;

constexpr int kPartitions = 4;
constexpr int kReplicas = 3;
constexpr int kClients = 12;
constexpr std::uint64_t kAccountsPerPartition = 128;
constexpr std::uint64_t kKeys = kAccountsPerPartition * kPartitions;
constexpr double kWriteShare = 0.2;
constexpr Nanos kSettle = sim::ms(1);
constexpr Nanos kWindow = sim::ms(20);
/// Goodput latency limit (see README.md).
constexpr Nanos kLimit = sim::us(50);

/// Declared before the Cluster so it outlives the system's observers and
/// the simulator's coroutine frames.
struct Ctx {
  fl::HistoryRecorder history;
  fl::LinearChecker lin;
  Population all;
  sim::LatencyRecorder fast_read_lat;
  sim::LatencyRecorder fast_write_lat;
  std::uint64_t reads = 0;
  std::uint64_t fast_reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t fast_writes = 0;
  std::uint64_t longest_chain = 0;  // consecutive fast writes on one key
  Nanos w0 = 0;
  Nanos w1 = 0;
  bool started = false;
  bool stop = false;
  int warming = 0;
  int running = 0;
};

core::GroupId home_of(core::Oid oid) {
  return static_cast<core::GroupId>(oid % kPartitions);
}

/// Links in the fast-write chain a fast version tmp ends (the chain
/// counter of core::next_fast_tmp).
std::uint64_t chain_length(core::Tmp tmp) {
  return (tmp & ~core::kFastTmpBit) >> 23;
}

/// LinearChecker orders a fast version by walking its chain back to the
/// ordered base, and follows at most this many links.
constexpr std::uint64_t kCheckerChainLinks = 64;

sim::Task<void> client_loop(Cluster& c, Ctx& cx, core::Client& client,
                            std::uint64_t seed) {
  auto& s = c.simulator;
  auto& tracer = c.fabric->telemetry().tracer;
  // Warm-up pass: one ordered read per key seeds the address cache.
  for (core::Oid oid = 0; oid < kKeys; ++oid) {
    const Nanos t0 = s.now();
    const auto res = co_await client.read(home_of(oid), oid);
    if (res.submit_status == core::SubmitStatus::kOk && res.status == 0) {
      cx.lin.note_read(oid, res.tmp, t0, s.now(), res.fast);
    }
  }
  --cx.warming;
  while (!cx.started) co_await s.sleep(sim::us(10));

  sim::Rng rng(seed);
  while (!cx.stop) {
    const core::Oid oid = rng.bounded(kKeys);
    const bool write = rng.chance(kWriteShare);
    const Nanos t0 = s.now();
    bool ok = false;
    bool fast = false;
    Nanos latency = 0;
    if (write) {
      const auto bal = static_cast<std::int64_t>(rng.bounded(100000));
      const fl::Account value{bal};
      const fl::DepositReq ordered{oid, bal};
      auto span = tracer.span("bench", "kv.write", client.node().id());
      const auto res = co_await client.write(
          home_of(oid), oid, std::as_bytes(std::span(&value, 1)), fl::kSet,
          std::as_bytes(std::span(&ordered, 1)));
      span.finish();
      if (res.fast) {
        cx.lin.note_fast_write(oid, res.tmp, res.base_tmp, t0, s.now());
        cx.longest_chain = std::max(cx.longest_chain, chain_length(res.tmp));
      } else {
        cx.lin.note_write(oid, client.id(), res.session_seq, t0, s.now(),
                          res.status);
      }
      ok = res.status == core::SubmitStatus::kOk && res.reply_status == 0;
      fast = res.fast;
      latency = res.latency;
    } else {
      auto span = tracer.span("bench", "kv.read", client.node().id());
      const auto res = co_await client.read(home_of(oid), oid);
      span.finish();
      ok = res.submit_status == core::SubmitStatus::kOk && res.status == 0;
      if (ok) cx.lin.note_read(oid, res.tmp, t0, s.now(), res.fast);
      fast = res.fast;
      latency = res.latency;
    }
    const Nanos done = s.now();
    if (done < cx.w0 || done >= cx.w1) continue;
    cx.all.record(latency, ok, kLimit);
    if (write) {
      ++cx.writes;
      if (fast) {
        ++cx.fast_writes;
        cx.fast_write_lat.record(latency);
      }
    } else {
      ++cx.reads;
      if (fast) {
        ++cx.fast_reads;
        cx.fast_read_lat.record(latency);
      }
    }
  }
  --cx.running;
}

}  // namespace

Rep run_kv_fast(const Options& opt, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  Rep rep;
  Ctx cx;
  Cluster c(opt.seed, traced);
  core::HeronConfig cfg;
  cfg.object_region_bytes = 1u << 20;
  cfg.lease_duration = sim::ms(1);
  cfg.fast_writes = true;
  c.build(kPartitions, kReplicas,
          [] {
            return std::make_unique<fl::BankApp>(kPartitions,
                                                 kAccountsPerPartition);
          },
          cfg, heron::amcast::Config{});
  cx.history.attach(*c.sys);
  c.start(kClients);
  if (mode == Mode::kSetupOnly) {
    rep.setup = c.setup;
    return rep;
  }

  for (int k = 0; k < kClients; ++k) {
    ++cx.warming;
    ++cx.running;
    c.simulator.spawn(client_loop(c, cx, c.sys->client(static_cast<std::uint32_t>(k)),
                                  opt.seed * 1000003 + static_cast<std::uint64_t>(k)));
  }
  if (!c.warmup_until([&] { return cx.warming == 0; }, sim::ms(100))) {
    rep.violations.push_back("[hung] the address-cache warm-up pass did not "
                             "finish within 100ms of virtual time");
    return rep;
  }
  cx.started = true;
  c.warmup(kSettle);

  cx.w0 = c.simulator.now();
  cx.w1 = cx.w0 + kWindow;
  c.begin_window();
  c.run(kWindow);
  std::uint64_t torn = 0;
  for (int k = 0; k < kClients; ++k) {
    torn += c.sys->client(static_cast<std::uint32_t>(k)).fastread_torn_retries();
  }
  c.end_window(rep, cx.all.ok);

  fill_e2e(rep, cx.all, cx.all, kWindow);
  require_samples(rep, cx.all, "kv-fast");
  auto& L = rep.layer;
  L["core.fast.read_hit_ratio"] = ratio(cx.fast_reads, cx.reads);
  L["core.fast.read_us_p50"] = p_us(cx.fast_read_lat, 50);
  L["core.fast.read_us_p99"] = p_us(cx.fast_read_lat, 99);
  L["core.fast.write_us_p50"] = p_us(cx.fast_write_lat, 50);
  L["core.fast.write_us_p99"] = p_us(cx.fast_write_lat, 99);
  L["core.fast.torn_retries_per_read"] = ratio(torn, cx.reads);
  L["core.fast.write_commit_ratio"] = ratio(cx.fast_writes, cx.writes);
  L["client.fail_ratio"] = ratio(cx.all.failed, cx.all.ok + cx.all.failed);
  rep.attempted = cx.all.ok + cx.all.failed;
  rep.failed = cx.all.failed;

  cx.stop = true;
  if (!c.run_until([&] { return cx.running == 0; }, sim::ms(20))) {
    rep.violations.push_back("[hung] a kv-fast client did not finish its "
                             "last operation within 20ms of virtual time");
  }
  c.settle_and_check(rep);
  for (const auto& v : cx.lin.check(cx.history)) {
    rep.violations.push_back("[" + v.oracle + "] " + v.detail);
  }
  // A longer chain than the checker follows would make its verdict
  // meaningless; fail loudly instead of reporting an unverified history.
  if (cx.longest_chain >= kCheckerChainLinks) {
    rep.violations.push_back(
        "[linearizability] a key took " + std::to_string(cx.longest_chain) +
        " consecutive fast writes, more than the checker can verify");
  }
  // No invalidation may stay stranded once the load has drained.
  for (core::GroupId g = 0; g < kPartitions; ++g) {
    for (int r = 0; r < kReplicas; ++r) {
      auto& replica = c.sys->replica(g, r);
      if (!replica.node().alive()) continue;
      replica.store().for_each_oid([&](core::Oid oid) {
        if (replica.store().seqlock(oid) & 1) {
          rep.violations.push_back("[seqlock] odd seqlock left on oid " +
                                   std::to_string(oid));
        }
      });
    }
  }
  if (traced) rep.trace_json = c.fabric->telemetry().tracer.chrome_json();
  return rep;
}

}  // namespace perfbench
