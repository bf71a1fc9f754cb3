// Workload `tpcc`: closed loop, 4 partitions x 3 replicas, one warehouse
// per partition, the paper's TPC-C mix with the spec's remote-access
// probabilities, 8 clients per partition (Fig. 4's saturation setting).
// Every request is ordered by atomic multicast; remote NewOrder lines and
// remote Payment customers pay Algorithm 1 coordination and Algorithm 2
// remote reads.
#include <memory>
#include <string>

#include "bench.hpp"
#include "telemetry/hub.hpp"
#include "tpcc/app.hpp"
#include "tpcc/gen.hpp"

namespace perfbench {

namespace {

constexpr int kPartitions = 4;
constexpr int kReplicas = 3;
constexpr int kClientsPerPartition = 8;
constexpr Nanos kWarmup = sim::ms(3);
constexpr Nanos kWindow = sim::ms(250);
/// Goodput latency limit (see README.md).
constexpr Nanos kLimit = sim::ms(1);

struct Ctx {
  Population all;
  std::map<std::string, sim::LatencyRecorder> by_kind;
  Nanos w0 = 0;
  Nanos w1 = 0;
  bool stop = false;
  int running = 0;
};

/// Per-kind population name: NewOrder and Payment split by span.
std::string kind_key(std::uint32_t kind, bool multi) {
  std::string k = heron::tpcc::kind_name(kind);
  if (kind == heron::tpcc::kNewOrder || kind == heron::tpcc::kPayment) {
    k += multi ? ".multi" : ".single";
  }
  return k;
}

sim::Task<void> client_loop(Cluster& c, Ctx& cx, core::Client& client,
                            std::unique_ptr<heron::tpcc::WorkloadGen> gen) {
  auto& s = c.simulator;
  auto& tracer = c.fabric->telemetry().tracer;
  while (!cx.stop) {
    const heron::tpcc::GeneratedRequest req = gen->next();
    const bool multi = heron::amcast::dst_count(req.dst) > 1;
    auto span = tracer.span("bench", "tpcc.submit", client.node().id());
    span.arg("kind", req.kind);
    const auto res = co_await client.submit(req.dst, req.kind, req.payload);
    span.finish();
    const Nanos done = s.now();
    if (done >= cx.w0 && done < cx.w1) {
      const bool ok = res.status == core::SubmitStatus::kOk;
      cx.all.record(res.latency, ok, kLimit);
      if (ok) cx.by_kind[kind_key(req.kind, multi)].record(res.latency);
    }
  }
  --cx.running;
}

}  // namespace

Rep run_tpcc(const Options& opt, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  Rep rep;
  Ctx cx;  // outlives the cluster's coroutine frames
  Cluster c(opt.seed, traced);
  const heron::tpcc::TpccScale scale{.factor = 0.02,
                                     .initial_orders_per_district = 10};
  core::HeronConfig cfg;
  // Bootstrap footprint plus headroom for rows created at runtime, as the
  // harness's TpccCluster sizes it.
  cfg.object_region_bytes = scale.region_bytes(1.4) + (32u << 20);
  const std::uint64_t seed = opt.seed;
  c.build(kPartitions, kReplicas,
          [scale, seed] {
            return std::make_unique<heron::tpcc::TpccApp>(kPartitions, scale,
                                                          seed);
          },
          cfg, heron::amcast::Config{});
  c.start(kPartitions * kClientsPerPartition);
  if (mode == Mode::kSetupOnly) {
    rep.setup = c.setup;
    return rep;
  }

  cx.w0 = kWarmup;
  cx.w1 = kWarmup + kWindow;
  heron::tpcc::WorkloadConfig wl;
  wl.partitions = kPartitions;
  wl.scale = scale;
  for (int p = 0; p < kPartitions; ++p) {
    for (int k = 0; k < kClientsPerPartition; ++k) {
      const auto idx = static_cast<std::uint32_t>(p * kClientsPerPartition + k);
      auto gen = std::make_unique<heron::tpcc::WorkloadGen>(
          wl, static_cast<std::uint32_t>(p), opt.seed * 7919 + idx + 1);
      ++cx.running;
      c.simulator.spawn(client_loop(c, cx, c.sys->client(idx), std::move(gen)));
    }
  }
  c.warmup(kWarmup);

  c.begin_window();
  c.run(kWindow);
  c.end_window(rep, cx.all.ok);

  fill_e2e(rep, cx.all, cx.all, kWindow);
  require_samples(rep, cx.all, "tpcc");
  for (const char* k :
       {"new_order.single", "new_order.multi", "payment.single",
        "payment.multi", "order_status", "delivery", "stock_level"}) {
    const auto it = cx.by_kind.find(k);
    rep.layer[std::string("tpcc.lat_p50_us.") + k] =
        it == cx.by_kind.end() ? 0.0 : p_us(it->second, 50);
  }
  rep.attempted = cx.all.ok + cx.all.failed;
  rep.failed = cx.all.failed;

  cx.stop = true;
  if (!c.run_until([&] { return cx.running == 0; }, sim::ms(20))) {
    rep.violations.push_back("[hung] a tpcc client did not finish its "
                             "last request within 20ms of virtual time");
  }
  c.settle_and_check(rep);
  if (traced) rep.trace_json = c.fabric->telemetry().tracer.chrome_json();
  return rep;
}

}  // namespace perfbench
