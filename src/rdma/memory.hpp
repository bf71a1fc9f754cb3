// RDMA-registered memory regions.
//
// A simulated host (Node) registers byte regions; remote peers address
// them as (node, region, offset). Each region carries a Notifier that
// fires whenever a remote write lands, standing in for the busy-poll loop
// a real Heron replica runs over its registered memory.
//
// Region bytes are one calloc'd block. Large blocks come from fresh
// anonymous mappings that the kernel zero-fills on first touch, so a
// region costs host memory only for the pages the simulation actually
// reads or writes, not for the size it registers (the default object
// region alone is 64 MB per replica).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>

#include "sim/notifier.hpp"

namespace heron::rdma {

/// Handle to a registered memory region (index within its node).
struct MrId {
  std::uint32_t value = UINT32_MAX;

  [[nodiscard]] bool valid() const { return value != UINT32_MAX; }
  bool operator==(const MrId&) const = default;
};

/// A remote (or local) RDMA address: node + region + byte offset.
struct RAddr {
  std::int32_t node = -1;
  MrId mr{};
  std::uint64_t offset = 0;

  bool operator==(const RAddr&) const = default;
};

/// One registered region: owned zeroed bytes + wake-on-write notifier.
class MemoryRegion {
 public:
  MemoryRegion(sim::Simulator& sim, std::size_t size)
      : bytes_(static_cast<std::byte*>(std::calloc(size, 1))),
        size_(size),
        notifier_(sim) {
    if (bytes_ == nullptr && size != 0) throw std::bad_alloc();
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::span<std::byte> bytes() { return {bytes_.get(), size_}; }
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return {bytes_.get(), size_};
  }

  /// Fired after every remote write into this region.
  [[nodiscard]] sim::Notifier& on_write() { return notifier_; }

 private:
  struct Free {
    void operator()(std::byte* p) const { std::free(p); }
  };

  std::unique_ptr<std::byte[], Free> bytes_;
  std::size_t size_;
  sim::Notifier notifier_;
};

}  // namespace heron::rdma
