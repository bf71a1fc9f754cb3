// A simulated host process attached to the RDMA fabric.
//
// Lifetimes: a node runs one sim::Incarnation at a time. crash() ends it,
// and restart() ends it and starts a fresh one. Protocol coroutines (the
// replica and amcast endpoint loops) are spawned into the current
// incarnation through spawn(); once it ends, each of them unwinds at its
// next await (see sim/task.hpp), so no frame of a crashed incarnation
// ever runs against the state its successor rebuilt.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "rdma/memory.hpp"
#include "sim/cpu.hpp"
#include "sim/simulator.hpp"

namespace heron::rdma {

class Node {
 public:
  Node(sim::Simulator& sim, std::int32_t id)
      : sim_(&sim), id_(id), cpu_(sim) {}

  [[nodiscard]] std::int32_t id() const { return id_; }
  [[nodiscard]] bool alive() const { return alive_; }

  /// Crash-stop: the node stops executing — its incarnation ends — and
  /// all in-flight / future one-sided operations targeting it complete
  /// with kRemoteFailure.
  void crash() {
    alive_ = false;
    incarnation_->end();
  }

  /// Rejoins the fabric under a fresh incarnation (used by recovery
  /// experiments). Registered memory survives the crash (the paper's
  /// laggers are slow, not wiped).
  void restart() {
    alive_ = true;
    incarnation_->end();
    restarted_.push_back(std::make_unique<sim::Incarnation>());
    incarnation_ = restarted_.back().get();
  }

  /// Starts a protocol coroutine in the node's current incarnation.
  void spawn(sim::Task<void> task) {
    sim_->spawn(std::move(task), incarnation_);
  }

  /// Registers `size` bytes and returns the region handle.
  MrId register_region(std::size_t size) {
    regions_.push_back(std::make_unique<MemoryRegion>(*sim_, size));
    return MrId{static_cast<std::uint32_t>(regions_.size() - 1)};
  }

  [[nodiscard]] MemoryRegion& region(MrId mr) {
    assert(mr.valid() && mr.value < regions_.size());
    return *regions_[mr.value];
  }
  [[nodiscard]] const MemoryRegion& region(MrId mr) const {
    assert(mr.valid() && mr.value < regions_.size());
    return *regions_[mr.value];
  }

  [[nodiscard]] std::size_t region_count() const { return regions_.size(); }

  /// The node's (single) core; protocol handling and request execution
  /// charge their CPU time here and therefore serialize.
  [[nodiscard]] sim::Cpu& cpu() { return cpu_; }

 private:
  sim::Simulator* sim_;
  std::int32_t id_;
  sim::Cpu cpu_;
  bool alive_ = true;
  // The current incarnation. Ended ones stay allocated for the node's
  // lifetime: their frames read them when they next resume.
  sim::Incarnation first_incarnation_;
  std::vector<std::unique_ptr<sim::Incarnation>> restarted_;
  sim::Incarnation* incarnation_ = &first_incarnation_;
  std::vector<std::unique_ptr<MemoryRegion>> regions_;
};

}  // namespace heron::rdma
