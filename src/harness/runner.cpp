#include "harness/runner.hpp"

#include <cstdio>

namespace heron::harness {

TpccCluster::TpccCluster(int partitions, int replicas, tpcc::TpccScale scale,
                         core::HeronConfig heron_cfg, amcast::Config amcast_cfg,
                         std::uint64_t seed, rdma::LatencyModel fabric_model)
    : fabric_(sim_, fabric_model, seed),
      partitions_(partitions),
      replicas_(replicas),
      scale_(scale),
      seed_(seed) {
  // Bootstrap footprint plus headroom for rows created at runtime
  // (orders, order lines, history grow throughout a bench window).
  heron_cfg.object_region_bytes = scale.region_bytes(1.4) + (32u << 20);
  sys_ = std::make_unique<core::System>(
      fabric_, partitions, replicas,
      [partitions, scale, seed] {
        return std::make_unique<tpcc::TpccApp>(partitions, scale, seed);
      },
      heron_cfg, amcast_cfg);
  sys_->start();
}

void TpccCluster::add_clients(int per_partition, tpcc::WorkloadConfig workload) {
  for (int p = 0; p < partitions_; ++p) {
    for (int c = 0; c < per_partition; ++c) {
      add_client_at(p, workload);
    }
  }
}

void TpccCluster::add_client_at(int partition, tpcc::WorkloadConfig workload) {
  workload.partitions = partitions_;
  workload.scale = scale_;
  auto& client = sys_->add_client();
  auto gen = std::make_unique<tpcc::WorkloadGen>(
      workload, static_cast<std::uint32_t>(partition),
      seed_ * 7919 + next_client_seed_++);
  sim_.spawn(client_loop(client, std::move(gen)));
}

sim::Task<void> TpccCluster::client_loop(
    core::Client& client, std::unique_ptr<tpcc::WorkloadGen> gen) {
  while (true) {
    tpcc::GeneratedRequest req = gen->next();
    const bool multi = amcast::dst_count(req.dst) > 1;
    auto result = co_await client.submit(req.dst, req.kind, req.payload);
    if (recording_) {
      samples_.push_back(Sample{req.kind, multi, result.latency});
    }
  }
}

RunResult TpccCluster::run(sim::Nanos warmup, sim::Nanos duration) {
  sim_.run_for(warmup);
  // Telemetry measures the same window as the latency samples: drop
  // whatever accumulated during warmup (or a previous window).
  sys_->reset_stats();
  fabric_.telemetry().tracer.clear();
  samples_.clear();
  recording_ = true;
  const std::uint64_t before = sys_->total_completed();
  sim_.run_for(duration);
  recording_ = false;

  RunResult out;
  out.window = duration;
  out.completed = sys_->total_completed() - before;
  out.throughput_tps = static_cast<double>(out.completed) /
                       sim::to_sec(duration);
  for (const auto& s : samples_) {
    out.latency.record(s.latency);
    (s.multi ? out.latency_multi : out.latency_single).record(s.latency);
    out.latency_by_kind[s.kind].record(s.latency);
    if (s.multi) out.latency_by_kind_multi[s.kind].record(s.latency);
  }
  return out;
}

std::string fmt_us(double ns) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f", ns / 1000.0);
  return buf;
}

std::string fmt_us(sim::Nanos ns) { return fmt_us(static_cast<double>(ns)); }

}  // namespace heron::harness
