#include <algorithm>
#include <string>

#include "bench.hpp"
#include "faultlab/history.hpp"
#include "telemetry/hub.hpp"

namespace perfbench {

namespace {

std::string label_of(int g, int r) {
  return "g" + std::to_string(g) + ".r" + std::to_string(r);
}

/// Nearest-rank percentile over fixed-bucket histograms that share bucket
/// bounds; reports the upper bound of the bucket holding the rank, clamped
/// to the largest observed value (so it is exact within one bucket width).
double hist_percentile(const std::vector<heron::telemetry::Histogram*>& hs,
                       double p) {
  std::uint64_t total = 0;
  std::int64_t max = 0;
  for (auto* h : hs) {
    total += h->count();
    if (h->count() > 0) max = std::max(max, h->max());
  }
  if (total == 0) return 0.0;
  const auto& bounds = hs.front()->bounds();
  const auto rank = static_cast<std::uint64_t>(
      (p / 100.0) * static_cast<double>(total - 1) + 0.5);
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b <= bounds.size(); ++b) {
    for (auto* h : hs) seen += h->counts()[b];
    if (seen > rank) {
      return static_cast<double>(
          b < bounds.size() ? std::min(bounds[b], max) : max);
    }
  }
  return static_cast<double>(max);
}

}  // namespace

void merge(sim::LatencyRecorder& into, const sim::LatencyRecorder& from) {
  for (const Nanos v : from.samples()) into.record(v);
}

double p_us(const sim::LatencyRecorder& r, double p) {
  return sim::to_us(r.percentile(p));
}

void fill_e2e(Rep& rep, const Population& done, const Population& lat,
              Nanos window) {
  const double secs = sim::to_sec(window);
  rep.e2e["tput_ops_s"] = static_cast<double>(done.ok) / secs;
  rep.e2e["goodput_ops_s"] = static_cast<double>(done.within_limit) / secs;
  rep.e2e["lat_p50_us"] = p_us(lat.lat, 50);
  rep.e2e["lat_p99_us"] = p_us(lat.lat, 99);
  rep.layer["client.lat_samples"] = static_cast<double>(lat.lat.count());
}

void require_samples(Rep& rep, const Population& pop, const char* what) {
  // Ten samples beyond the p99 need at least a thousand samples.
  if (pop.lat.count() < 1000) {
    rep.violations.push_back(std::string("[samples] ") + what + " holds " +
                             std::to_string(pop.lat.count()) +
                             " latency samples, fewer than 1000");
  }
}

Cluster::Cluster(std::uint64_t seed, bool traced_rep) : traced(traced_rep) {
  const HostTimer t;
  heron::rdma::LatencyModel model;
  model.jitter_sigma = kNetworkJitterSigma;
  fabric = std::make_unique<heron::rdma::Fabric>(simulator, model, seed);
  setup.fabric_s = t.seconds();
  if (traced) {
    auto& hub = fabric->telemetry();
    hub.tracer.set_capacity(kTraceEventCap);
    hub.enable_all();
  }
}

void Cluster::build(int partitions, int replicas, core::AppFactory factory,
                    core::HeronConfig cfg, heron::amcast::Config acfg) {
  const HostTimer t;
  sys = std::make_unique<core::System>(*fabric, partitions, replicas,
                                       std::move(factory), cfg, acfg);
  setup.system_s = t.seconds();
}

void Cluster::start(int clients) {
  const HostTimer t;
  sys->start();
  for (int c = 0; c < clients; ++c) sys->add_client();
  setup.start_s = t.seconds();
}

void Cluster::warmup(Nanos d) {
  const HostTimer t;
  simulator.run_for(d);
  setup.warmup_s += t.seconds();
}

void Cluster::begin_window() {
  sys->reset_stats();
  fabric->reset_stats();
  auto& hub = fabric->telemetry();
  hub.metrics.reset_values();
  hub.tracer.clear();
  window_begin_ = simulator.now();
  events0_ = simulator.events_executed();
  host_in_window_ = 0.0;
  if (traced) {
    sampling_ = true;
    simulator.spawn(sample_queue_depth());
  }
}

sim::Task<void> Cluster::sample_queue_depth() {
  while (sampling_) {
    queue_depth_.record(static_cast<Nanos>(simulator.pending_events()));
    co_await simulator.sleep(sim::us(20));
  }
}

void Cluster::run(Nanos d) {
  const HostTimer t;
  simulator.run_for(d);
  host_in_window_ += t.seconds();
}

void Cluster::end_window(Rep& rep, std::uint64_t ops) {
  sampling_ = false;
  rep.setup = setup;
  rep.window_host_s = host_in_window_;
  rep.window_ops = ops;
  rep.window_events = simulator.events_executed() - events0_;
  const double n = static_cast<double>(std::max<std::uint64_t>(ops, 1));
  auto& L = rep.layer;
  auto& m = fabric->telemetry().metrics;
  const int parts = sys->partitions();
  const int reps = sys->replicas_per_partition();

  auto counter_sum = [&](const char* sub, const char* name) {
    std::uint64_t s = 0;
    for (int g = 0; g < parts; ++g) {
      for (int r = 0; r < reps; ++r) s += m.counter(sub, name, label_of(g, r)).value();
    }
    return static_cast<double>(s);
  };
  auto hists = [&](const char* sub, const char* name) {
    std::vector<heron::telemetry::Histogram*> out;
    for (int g = 0; g < parts; ++g) {
      for (int r = 0; r < reps; ++r) {
        out.push_back(&m.histogram(sub, name, label_of(g, r)));
      }
    }
    return out;
  };

  L["sim.queue_depth_p99"] =
      queue_depth_.empty() ? 0.0
                           : static_cast<double>(queue_depth_.percentile(99));

  const auto& fs = fabric->stats();
  L["rdma.reads_per_op"] = static_cast<double>(fs.reads) / n;
  L["rdma.writes_per_op"] = static_cast<double>(fs.writes) / n;
  L["rdma.bytes_per_op"] =
      static_cast<double>(fs.read_bytes + fs.write_bytes) / n;
  L["rdma.completion_errors"] = static_cast<double>(fs.failures);
  L["rdma.nic_queue_wait_us_p99"] =
      hist_percentile({&m.histogram("rdma", "nic_queue_wait_ns")}, 99) / 1e3;

  sim::LatencyRecorder ordering, coord, exec;
  core::CoordStats cs;
  double fence_waits = 0, delta = 0, full = 0, ckpts = 0, deferred = 0;
  for (int g = 0; g < parts; ++g) {
    for (int r = 0; r < reps; ++r) {
      auto& rep_r = sys->replica(g, r);
      merge(ordering, rep_r.ordering_lat());
      merge(coord, rep_r.coord_lat());
      merge(exec, rep_r.exec_lat());
      const auto& c = rep_r.coord_stats();
      cs.multi_partition += c.multi_partition;
      cs.delayed += c.delayed;
      cs.gave_up += c.gave_up;
      fence_waits += static_cast<double>(rep_r.fast_fence_waits());
      delta += static_cast<double>(rep_r.xfer_applied_delta_bytes());
      full += static_cast<double>(rep_r.xfer_applied_full_bytes());
      ckpts += static_cast<double>(rep_r.checkpoints_completed());
      deferred += static_cast<double>(rep_r.checkpoints_deferred());
    }
  }
  L["amcast.ordering_us_p50"] = p_us(ordering, 50);
  L["amcast.ordering_us_p99"] = p_us(ordering, 99);
  {
    double sum = 0, cnt = 0;
    for (auto* h : hists("amcast", "batch_size")) {
      sum += static_cast<double>(h->sum());
      cnt += static_cast<double>(h->count());
    }
    L["amcast.batch_size_mean"] = ratio(sum, cnt);
  }
  L["amcast.proposes_per_op"] = counter_sum("amcast", "proposes") / n;
  L["amcast.shed_ratio"] = counter_sum("amcast", "shed") / n;
  L["amcast.takeovers"] = counter_sum("amcast", "takeovers");
  L["amcast.reproposals"] = counter_sum("amcast", "reproposals");

  L["core.coord.us_p50"] = p_us(coord, 50);
  L["core.coord.us_p99"] = p_us(coord, 99);
  L["core.coord.delayed_ratio"] = ratio(static_cast<double>(cs.delayed),
                                        static_cast<double>(cs.multi_partition));
  L["core.coord.gave_up"] = static_cast<double>(cs.gave_up);

  L["core.exec.us_p50"] = p_us(exec, 50);
  L["core.exec.us_p99"] = p_us(exec, 99);
  L["core.exec.remote_reads_per_op"] = counter_sum("core", "remote_reads") / n;
  L["core.exec.remote_read_retries"] = counter_sum("core", "remote_read_retries");
  {
    const double hits = counter_sum("core", "addr_cache_hits");
    const double misses = counter_sum("core", "addr_cache_misses");
    L["core.exec.addr_cache_hit_ratio"] = ratio(hits, hits + misses);
  }
  L["core.exec.gate_wait_us_p99"] =
      hist_percentile(hists("core", "gate_wait_ns"), 99) / 1e3;

  sim::LatencyRecorder client_lat;
  double retries = 0, timeouts = 0, busy = 0, conflicts = 0;
  for (std::uint32_t c = 0; c < sys->client_count(); ++c) {
    auto& cl = sys->client(c);
    merge(client_lat, cl.latencies());
    retries += static_cast<double>(cl.retries());
    timeouts += static_cast<double>(cl.timeouts());
    busy += static_cast<double>(cl.busy_replies());
    conflicts += static_cast<double>(cl.fastwrite_conflicts());
  }
  L["core.unattributed_us"] =
      client_lat.empty()
          ? 0.0
          : sim::to_us(static_cast<Nanos>(client_lat.mean() - ordering.mean() -
                                          coord.mean() - exec.mean()));
  L["core.fast.conflicts"] = conflicts;
  L["core.fast.fence_waits"] = fence_waits;
  L["client.retries_per_op"] = retries / n;
  L["client.timeouts"] = timeouts;
  L["client.busy_replies"] = busy;

  L["core.xfer.delta_bytes"] = delta;
  L["core.xfer.full_bytes"] = full;
  L["durable.checkpoints"] = ckpts;
  L["durable.checkpoints_deferred"] = deferred;
  L["durable.bytes_written"] = counter_sum("durable", "bytes_written");
}

void Cluster::settle_and_check(Rep& rep) {
  const int parts = sys->partitions();
  const int reps = sys->replicas_per_partition();
  auto settled = [&] {
    for (int g = 0; g < parts; ++g) {
      core::Tmp lead = 0;
      bool first = true;
      for (int r = 0; r < reps; ++r) {
        auto& rr = sys->replica(g, r);
        if (!rr.node().alive()) continue;
        if (rr.rejoining()) return false;
        if (first) {
          lead = rr.last_executed();
          first = false;
        } else if (rr.last_executed() != lead) {
          return false;
        }
      }
    }
    return true;
  };
  if (!run_until(settled, sim::ms(50), sim::us(20))) {
    rep.violations.push_back(
        "[settle] live replicas did not reach a common executed prefix "
        "within 50ms of virtual time after the load stopped");
  }
  std::vector<heron::faultlab::Violation> v;
  heron::faultlab::check_store_convergence(*sys, v);
  heron::faultlab::check_session_convergence(*sys, v);
  for (const auto& x : v) {
    rep.violations.push_back("[" + x.oracle + "] " + x.detail);
  }
}

}  // namespace perfbench
