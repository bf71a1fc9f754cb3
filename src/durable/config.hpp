// Knobs for the simulated durable subsystem (paged checkpoint backend).
//
// Kept in a leaf header (sim/time.hpp only) so core/types.hpp can embed a
// DurableConfig in HeronConfig without pulling the device or checkpoint
// machinery into every translation unit.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/time.hpp"

namespace heron::durable {

/// Cost/shape model of the simulated persistent medium. Defaults are
/// persistent-memory-flavoured (the paper's deployment target is a
/// shared-memory machine): reads stream much faster than writes, and
/// every page operation pays a small fixed submission cost on top of
/// bandwidth.
struct DeviceConfig {
  /// Fixed page size. Records never span pages, so the largest object
  /// (plus record header) must fit in one page payload.
  std::uint32_t page_bytes = 64u << 10;
  /// Device capacity in pages. The device keeps only written pages (a
  /// sparse table keyed by page index), so a large logical device costs
  /// host memory for the pages a run writes, not for its capacity.
  std::uint64_t page_count = 1u << 18;

  sim::Nanos write_base = sim::us(4);   // per-page submission cost
  double write_bw_bytes_per_ns = 2.0;   // ~2 GB/s sustained writes
  sim::Nanos read_base = sim::us(1);
  double read_bw_bytes_per_ns = 10.0;   // ~10 GB/s sequential reads
};

/// Configuration of checkpointing + log compaction (heron::durable).
struct DurableConfig {
  /// Target period between checkpoints. 0 disables the whole subsystem
  /// (seed behaviour: no device, no checkpoint coroutine, restarts keep
  /// the legacy semantics).
  sim::Nanos checkpoint_interval = 0;

  DeviceConfig device;

  /// Model restarts as losing all volatile memory even without
  /// checkpointing (the recovery bench's baseline arm): the replica
  /// rejoins from scratch via a full Algorithm 3 transfer. Implied when
  /// checkpointing is enabled.
  bool volatile_restart = false;

  /// Evict sessions idle longer than this at checkpoint time (satellite:
  /// bounding the session table). 0 disables eviction. An evicted
  /// client's floor is remembered as a tombstone; retries of commands at
  /// or below it get kStatusStaleSession instead of re-executing.
  sim::Nanos session_ttl = 0;

  /// Drop cached session-reply payloads once the session is covered by a
  /// committed checkpoint; retries page the reply back in from the
  /// device. Bounds reply-cache memory at the cost of a device read on a
  /// (rare) late retry.
  bool page_out_replies = true;

  /// Device utilization above which the next checkpoint is written as a
  /// full one, after which all pages of the previous chain are freed
  /// (log-structured compaction).
  double compact_utilization = 0.6;

  /// Throttling against foreground load: defer a due checkpoint while the
  /// ordering propose queue is deeper than this, or the replica CPU has
  /// more than `throttle_cpu_backlog` of queued work. Re-check after
  /// `throttle_backoff`.
  std::size_t throttle_queue_depth = 16;
  sim::Nanos throttle_cpu_backlog = sim::us(50);
  sim::Nanos throttle_backoff = sim::us(200);

  [[nodiscard]] bool enabled() const { return checkpoint_interval > 0; }
};

}  // namespace heron::durable
