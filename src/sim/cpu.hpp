// Single-threaded CPU resource.
//
// Replicas in the paper are single-threaded (§III-D1): ordering-protocol
// work and request execution contend for the same core. Coroutines that
// run "on" a node charge their CPU time through this resource, which
// serializes them in virtual time and so creates realistic saturation
// behaviour under closed-loop load.
#pragma once

#include <algorithm>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace heron::sim {

class Cpu {
 public:
  explicit Cpu(Simulator& sim) : sim_(&sim) {}

  /// Occupies the CPU for `duration` ns, queueing behind earlier users.
  /// Returns after the work completes.
  Primitive<void> use(Nanos duration) {
    const Nanos start = std::max(sim_->now(), free_at_);
    free_at_ = start + duration;
    busy_total_ += duration;
    const Nanos done = free_at_;
    if (done > sim_->now()) co_await sim_->sleep(done - sim_->now());
  }

  /// Time at which the CPU becomes idle (diagnostics).
  [[nodiscard]] Nanos free_at() const { return free_at_; }

  /// Total busy time charged so far; busy_fraction = busy_total/now.
  [[nodiscard]] Nanos busy_total() const { return busy_total_; }

 private:
  Simulator* sim_;
  Nanos free_at_ = 0;
  Nanos busy_total_ = 0;
};

}  // namespace heron::sim
