// Heron benchmark program: runs one named workload repeatedly for a host-time
// budget and prints its metrics as one JSON line.
//
//   heron_perfbench --workload <tpcc|kv-fast|kv-open|kv-failover>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-dir <dir>]
//
// Every repetition rebuilds the cluster from scratch with the same seed.
// Virtual-time metrics are deterministic per seed, so every repetition
// must reproduce them exactly (checked); host-time metrics are reported as
// medians over the repetitions. --trace 0 prints the end-to-end metrics;
// --trace 1 alternates plain and traced repetitions and prints the
// per-layer metrics. Any correctness violation exits 1 without a result.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"

using namespace perfbench;

namespace {

/// Repetitions of each kind a run makes at least, whatever the budget.
constexpr std::size_t kMinPlainReps = 2;
/// Set-ups a run times at least: plain repetitions, topped up with
/// set-up-only ones, so setup_s is a median over several.
constexpr std::size_t kMinSetups = 7;

struct Workload {
  const char* name;
  Rep (*fn)(const Options&, Mode);
};
constexpr Workload kWorkloads[] = {
    {"tpcc", run_tpcc},
    {"kv-fast", run_kv_fast},
    {"kv-open", run_kv_open},
    {"kv-failover", run_kv_failover},
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <tpcc|kv-fast|kv-open|kv-failover> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]\n",
               argv0);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  opt.trace_dir = ".bench_build/trace";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage(argv[0]);
      opt.trace = v == "1";
    } else if (a == "--trace-dir") {
      opt.trace_dir = v;
    } else {
      usage(argv[0]);
    }
  }
  if (opt.workload.empty()) usage(argv[0]);
  return opt;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Shortest text that reads back as exactly `v`.
std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

/// FNV-1a over the canonical text of a metric map.
std::uint64_t digest(const std::map<std::string, double>& m,
                     std::uint64_t h = 1469598103934665603ull) {
  for (const auto& [k, v] : m) {
    for (const char ch : k + "=" + num(v) + ";") {
      h ^= static_cast<unsigned char>(ch);
      h *= 1099511628211ull;
    }
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Prints the result line with bare metric values; run.py orders them and
/// attaches the units from BENCHMARK.json.
void print_result(const Rep& first, const std::map<std::string, double>& vals) {
  std::string out = "{\"correct\": true, \"attempted\": " +
                    std::to_string(first.attempted) +
                    ", \"failed\": " + std::to_string(first.failed) +
                    ", \"metrics\": {";
  bool first_metric = true;
  for (const auto& [name, value] : vals) {
    if (!first_metric) out += ", ";
    first_metric = false;
    out += "\"" + name + "\": " + num(value);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold after the first large free, so later
  // set-ups would reuse heap pages the first one already faulted in and
  // run several times faster. A fixed threshold (the default's value)
  // makes every set-up map fresh pages, as a new process does.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const Options opt = parse(argc, argv);
  const Workload* wl = nullptr;
  for (const auto& w : kWorkloads) {
    if (opt.workload == w.name) wl = &w;
  }
  if (wl == nullptr) usage(argv[0]);

  // Repeat until the budget is spent; in a traced run plain and traced
  // repetitions alternate so both see the same machine conditions.
  const HostTimer budget;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  std::vector<std::string> violations;
  while (plain.size() < kMinPlainReps || (opt.trace && traced.empty()) ||
         budget.seconds() < opt.seconds) {
    const bool do_trace = opt.trace && traced.size() < plain.size();
    Rep r = wl->fn(opt, do_trace ? Mode::kTraced : Mode::kPlain);
    for (const auto& v : r.violations) violations.push_back(v);
    // Only the last traced repetition's spans are written out.
    if (do_trace && !traced.empty()) traced.back().trace_json.clear();
    (do_trace ? traced : plain).push_back(std::move(r));
    if (!violations.empty()) break;
  }

  // Determinism: every repetition reproduces the first one's virtual-time
  // figures, and tracing perturbs none of them.
  const Rep& ref = plain.front();
  for (const Rep& r : plain) {
    if (digest(r.e2e, digest(r.layer)) != digest(ref.e2e, digest(ref.layer))) {
      violations.push_back("[determinism] a repetition with the same seed "
                           "produced different virtual-time metrics");
    }
  }
  for (const Rep& r : traced) {
    if (r.e2e != ref.e2e) {
      violations.push_back("[determinism] the traced repetition changed the "
                           "virtual-time end-to-end metrics");
    }
  }
  if (!violations.empty()) {
    for (const auto& v : violations) std::fprintf(stderr, "VIOLATION %s\n", v.c_str());
    return 1;
  }

  std::vector<double> host_ops, ns_per_event, warm, window_plain;
  std::vector<SetupTimes> setups;
  for (const Rep& r : plain) {
    host_ops.push_back(static_cast<double>(r.window_ops) / r.window_host_s);
    ns_per_event.push_back(r.window_host_s * 1e9 /
                           static_cast<double>(r.window_events));
    warm.push_back(r.setup.warmup_s);
    window_plain.push_back(r.window_host_s);
    setups.push_back(r.setup);
  }
  while (setups.size() < kMinSetups) {
    setups.push_back(wl->fn(opt, Mode::kSetupOnly).setup);
  }
  std::vector<double> setup, fab, sys, start;
  for (const SetupTimes& st : setups) {
    setup.push_back(st.to_first_request());
    fab.push_back(st.fabric_s);
    sys.push_back(st.system_s);
    start.push_back(st.start_s);
  }
  std::printf("perfbench: workload=%s seed=%llu plain_reps=%zu traced_reps=%zu "
              "lat_samples=%.0f attempted=%llu failed=%llu\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              plain.size(), traced.size(), ref.layer.at("client.lat_samples"),
              static_cast<unsigned long long>(ref.attempted),
              static_cast<unsigned long long>(ref.failed));
  std::printf("perfbench: host_ops_per_s over %zu repetitions: min=%.0f "
              "median=%.0f max=%.0f\n",
              host_ops.size(), *std::min_element(host_ops.begin(), host_ops.end()),
              median(host_ops), *std::max_element(host_ops.begin(), host_ops.end()));
  std::printf("perfbench: setup_s over %zu set-ups: min=%.4f median=%.4f "
              "max=%.4f\n",
              setup.size(), *std::min_element(setup.begin(), setup.end()),
              median(setup), *std::max_element(setup.begin(), setup.end()));
  std::printf("perfbench: sim_digest=%016llx\n",
              static_cast<unsigned long long>(digest(ref.e2e, digest(ref.layer))));

  if (!opt.trace) {
    std::map<std::string, double> vals = ref.e2e;
    vals["setup_s"] = median(setup);
    vals["peak_rss_mb"] = peak_rss_mb();
    print_result(ref, vals);
    return 0;
  }

  std::map<std::string, double> vals = traced.back().layer;
  vals["sim.events_per_op"] =
      static_cast<double>(ref.window_events) /
      static_cast<double>(std::max<std::uint64_t>(ref.window_ops, 1));
  vals["host_ops_per_s"] = median(host_ops);
  vals["sim.host_ns_per_event"] = median(ns_per_event);
  vals["setup.fabric_s"] = median(fab);
  vals["setup.system_s"] = median(sys);
  vals["setup.start_s"] = median(start);
  vals["setup.warmup_s"] = median(warm);
  std::vector<double> window_traced;
  for (const Rep& r : traced) window_traced.push_back(r.window_host_s);
  vals["trace.overhead_ratio"] = median(window_traced) / median(window_plain);

  // Spans stay in memory during the run; the last traced repetition's are
  // written once, here, to one file per workload (overwritten each run).
  std::error_code ec;
  std::filesystem::create_directories(opt.trace_dir, ec);
  const std::string path = opt.trace_dir + "/" + opt.workload + ".trace.json";
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f << traced.back().trace_json;
    if (!f) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  vals["trace.bytes"] = static_cast<double>(traced.back().trace_json.size());
  std::printf("perfbench: trace -> %s\n", path.c_str());
  print_result(ref, vals);
  return 0;
}
