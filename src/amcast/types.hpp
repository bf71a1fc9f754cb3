// Shared types for the RDMA-based atomic multicast (RamCast-equivalent).
//
// The protocol is a Skeen-style genuine atomic multicast with replicated
// groups, matching the interface and guarantees Heron consumes (§II-B):
//   Validity, Integrity, Uniform agreement, Uniform prefix order,
//   Uniform acyclic order, and unique monotone timestamps.
//
// Message flow for m multicast to destination set D:
//  1. The client RDMA-writes m into the inbox ring of every replica of
//     every group in D (so a new leader can take over proposals).
//  2. The leader of each g in D assigns a local proposal clock (unique,
//     monotone per group), appends a PROPOSE record to the group log and
//     replicates it to followers; followers ack with one 8-byte write.
//  3. After a majority acked (so failover recovers the same proposal),
//     the leader sends its proposal to all replicas of every group in D.
//  4. When a leader holds proposals from all groups in D it computes the
//     final timestamp = max proposal, packed with the proposing group id
//     for global uniqueness, appends COMMIT, replicates, and waits for a
//     majority ack (uniform agreement).
//  5. Every replica delivers committed messages in final-timestamp order
//     once no uncommitted message could still receive a smaller final
//     timestamp (classic Skeen delivery condition).
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>

#include "sim/time.hpp"

namespace heron::amcast {

using GroupId = std::int32_t;
using MsgUid = std::uint64_t;

/// Upper bound on groups, used to pack timestamps; the paper evaluates up
/// to 16 partitions.
constexpr std::uint64_t kMaxGroups = 64;

/// Largest proposal clock that still packs into 64 bits:
/// pack_ts(kMaxTsClock, kMaxGroups - 1) == UINT64_MAX exactly.
constexpr std::uint64_t kMaxTsClock = ~std::uint64_t{0} / kMaxGroups;

/// Globally unique, totally ordered timestamp: proposal clock in the high
/// bits, proposing-group id in the low bits. Comparing packed values is
/// exactly the (clock, group) lexicographic order.
///
/// Clocks beyond kMaxTsClock would silently wrap and break timestamp
/// monotonicity, so packing saturates at the cap (asserting in debug
/// builds): order is preserved for every representable clock, and clocks
/// at the cap compare by group id only. At one tick per message this is
/// ~2^58 messages — unreachable in any run, but chaos sweeps must not be
/// able to corrupt the order silently.
constexpr std::uint64_t pack_ts(std::uint64_t clock, GroupId group) {
  assert(clock <= kMaxTsClock && "pack_ts: clock exceeds kMaxTsClock");
  if (clock > kMaxTsClock) clock = kMaxTsClock;
  return clock * kMaxGroups + static_cast<std::uint64_t>(group);
}
constexpr std::uint64_t ts_clock(std::uint64_t packed) {
  return packed / kMaxGroups;
}
constexpr GroupId ts_group(std::uint64_t packed) {
  return static_cast<GroupId>(packed % kMaxGroups);
}

/// Message uids encode (client id, per-client sequence). Clients submit in
/// a closed loop, so per-client sequences complete in order.
///
/// The client id is stored biased by one so that no valid (client, seq)
/// pair can produce uid 0 — the inbox ring uses uid 0 as the empty-slot
/// sentinel, and the unbiased encoding mapped (client 0, seq 0) onto it,
/// silently dropping that message. The bias preserves per-client uid order.
constexpr MsgUid make_uid(std::uint32_t client, std::uint32_t seq) {
  assert(client < 0xffffffffu && "make_uid: client id reserved by the bias");
  return ((static_cast<MsgUid>(client) + 1) << 32) | seq;
}
constexpr std::uint32_t uid_client(MsgUid uid) {
  return static_cast<std::uint32_t>(uid >> 32) - 1;
}
constexpr std::uint32_t uid_seq(MsgUid uid) {
  return static_cast<std::uint32_t>(uid & 0xffffffffULL);
}

/// Destination sets are bitmasks over group ids.
using DstMask = std::uint64_t;

constexpr DstMask dst_of(GroupId g) { return DstMask{1} << g; }
constexpr bool dst_contains(DstMask mask, GroupId g) {
  return (mask >> g) & 1;
}
constexpr int dst_count(DstMask mask) { return __builtin_popcountll(mask); }

/// Maximum application payload carried by one multicast message. TPC-C
/// request descriptors (type + keys) fit comfortably.
constexpr std::size_t kMaxPayload = 256;

/// Client-set wire flags. Bit 0 marks a lease marker: a control command
/// (grant/revoke of the fast-read lease) that rides the ordered stream
/// like any message so that every replica agrees on epoch boundaries —
/// the same trick as the BUSY marker, but set by the sender rather than
/// decided by a leader. The flag travels inside the WireMessage through
/// inbox rings, log replication and failover re-proposals, and surfaces
/// as Delivery::lease.
constexpr std::uint32_t kWireFlagLease = 1u << 0;

/// Bit 1 marks a layout-epoch marker (heron::reconfig): a new partition
/// layout ordered through the stream so that every replica of the
/// affected groups switches layouts at the same stream position. Same
/// delivery mechanics as the lease marker; surfaces as Delivery::epoch.
constexpr std::uint32_t kWireFlagEpoch = 1u << 1;

/// Bit 2 marks a fast-write-armed lease grant (heron fast writes): the
/// sender piggybacks on the lease marker that the partition's clients may
/// use the one-sided invalidate/validate write path for the grant's
/// duration. Replicas arm their reconciliation fence at this ordered
/// position, so every member of the partition enables the machinery at
/// the same stream point. Surfaces as Delivery::fast_write.
constexpr std::uint32_t kWireFlagFastWrite = 1u << 2;

/// A message as written by clients into replica inboxes.
///
/// `ring_seq` is a per-(client, destination-group) counter used purely for
/// inbox-slot addressing: a group only receives the subset of a client's
/// messages that target it, so the globally unique uid cannot double as
/// the ring cursor (the gaps would wedge the ring).
struct WireMessage {
  MsgUid uid = 0;
  std::uint64_t ring_seq = 0;
  DstMask dst = 0;
  std::uint32_t flags = 0;  // kWireFlag* bits, set by the sender
  std::uint32_t payload_len = 0;
  std::array<std::byte, kMaxPayload> payload{};

  void set_payload(std::span<const std::byte> data) {
    payload_len = static_cast<std::uint32_t>(data.size());
    std::memcpy(payload.data(), data.data(), data.size());
  }
  [[nodiscard]] std::span<const std::byte> payload_view() const {
    return {payload.data(), payload_len};
  }
};
static_assert(std::is_trivially_copyable_v<WireMessage>);

/// Group-log record replicated leader -> followers.
///
/// The leader coalesces records into batches: a batch occupies `batch`
/// consecutive log slots and is replicated with one contiguous span write
/// per follower (split only at the ring wrap). The head record carries
/// the batch size; members carry 0. Followers charge their per-record
/// software cost once per batch head, which is what amortizes the
/// follower share of the ordering cost under load. Each record is still
/// fully self-contained, so replay, catch-up and failover stay
/// record-granular.
struct LogRecord {
  enum class Kind : std::uint32_t { kInvalid = 0, kPropose = 1, kCommit = 2 };

  std::uint64_t seq = 0;  // position in the group log, starts at 1
  Kind kind = Kind::kInvalid;
  std::uint32_t flags = 0;  // bit 0: message shed by admission control
  MsgUid uid = 0;
  std::uint64_t value = 0;  // kPropose: proposal clock; kCommit: packed final ts
  std::uint32_t batch = 1;  // batch head: records in this batch; members: 0
  std::uint32_t pad = 0;
  WireMessage msg{};        // payload only meaningful for kPropose
};
static_assert(std::is_trivially_copyable_v<LogRecord>);

/// Proposal exchanged between groups (leader -> all replicas of dst).
struct ProposalRecord {
  std::uint64_t seq = 0;  // per (sender group) stripe sequence, starts at 1
  MsgUid uid = 0;
  GroupId from_group = -1;
  std::uint32_t flags = 0;  // bit 0: sender group shed this message
  std::uint64_t clock = 0;  // the sender group's proposal clock
  DstMask dst = 0;
};
static_assert(std::is_trivially_copyable_v<ProposalRecord>);

/// A message delivered to the application (Heron replica).
struct Delivery {
  MsgUid uid = 0;
  std::uint64_t tmp = 0;  // unique packed timestamp
  DstMask dst = 0;
  std::array<std::byte, kMaxPayload> payload{};
  std::uint32_t payload_len = 0;
  /// Shed by admission control at some destination leader: the message is
  /// still totally ordered (every destination delivers it with the same
  /// flag) but the application must reply BUSY instead of executing.
  bool shed = false;
  /// Sender-marked lease marker (kWireFlagLease): a fast-read lease
  /// grant/revoke command, handled by the replica instead of the app.
  bool lease = false;
  /// Sender-marked layout-epoch marker (kWireFlagEpoch): a partition
  /// layout install/flip, handled by the replica instead of the app.
  bool epoch = false;
  /// Sender-marked fast-write-armed lease grant (kWireFlagFastWrite):
  /// only meaningful alongside `lease`.
  bool fast_write = false;

  [[nodiscard]] std::span<const std::byte> payload_view() const {
    return {payload.data(), payload_len};
  }
};

/// Protocol sizing and CPU-cost knobs. The *_proc costs model the
/// per-message software overhead the paper's Java prototype pays; they
/// are the calibration handles for the "ordering" share of latency.
struct Config {
  std::uint32_t inbox_slots_per_client = 16;
  std::uint32_t max_clients = 256;   // per replica inbox capacity
  std::uint32_t log_slots = 1 << 13;
  std::uint32_t proposal_slots = 1 << 10;  // per sender-replica stripe

  sim::Nanos leader_proc = sim::us(4.0);    // propose / commit handling
  sim::Nanos follower_proc = sim::us(2.5);  // log apply + ack
  sim::Nanos inbox_proc = sim::us(1.0);     // request unmarshal per replica
  sim::Nanos proposal_proc = sim::us(0.5);  // cross-group proposal handling
  sim::Nanos deliver_proc = sim::us(2.0);   // hand-off to the application
  sim::Nanos client_proc = sim::us(3.0);    // marshal + post on the client

  sim::Nanos heartbeat_interval = sim::us(50);
  int heartbeat_misses = 4;  // suspicion threshold
  bool enable_failover = true;

  /// Admission window: if > 0, a leader whose pending + ready backlog has
  /// reached this many messages marks new arrivals as shed. Shed messages
  /// still run through ordering (so every destination agrees) but are
  /// answered with BUSY instead of being executed. 0 disables shedding.
  /// Accounting is at batch granularity: the leader samples the backlog
  /// once per batch and sheds the members that would land beyond the
  /// window, which preserves the per-message contract exactly at
  /// max_batch = 1.
  std::uint32_t admission_window = 0;

  /// Adaptive admission: when enabled (and admission_window > 0), each
  /// leader samples the fabric backpressure signal once per batch — its
  /// rack-uplink queue depth and the credit stalls charged to its node —
  /// and halves its effective window (down to admission_min_window) while
  /// either crosses its threshold. Overload then produces early BUSY
  /// shedding instead of tail-latency collapse. Recovery is hysteretic:
  /// only after admission_recover_samples consecutive clean samples does
  /// the window grow again (multiplicatively, capped at
  /// admission_window), so a flapping uplink cannot oscillate the window
  /// every batch.
  bool adaptive_admission = false;
  std::uint32_t admission_min_window = 2;
  /// Uplink queue depth (ns of queued transfer on the leader's rack
  /// uplink) above which the leader tightens.
  sim::Nanos backpressure_queue_threshold = sim::us(30);
  /// Credit stalls accrued by the leader's node since the previous batch
  /// sample at or above which the leader tightens.
  std::uint64_t backpressure_stall_threshold = 4;
  std::uint32_t admission_recover_samples = 8;

  /// Leader-side batching: the leader drains its propose queue and
  /// coalesces up to `max_batch` messages into one PROPOSE span, one
  /// follower replication + majority-ack round, and one COMMIT span.
  /// Every message keeps its own unique proposal clock and packed final
  /// timestamp, so delivery order and the multicast properties are
  /// untouched; only the per-message software costs are amortized.
  /// 1 disables batching (seed behavior); values are clamped to
  /// kMaxBatchLimit.
  std::uint32_t max_batch = 1;

  /// With batching enabled, how long a leader holding a partial batch
  /// waits for more arrivals before proposing it. 0 proposes immediately
  /// (batches then only form from natural backlog), which keeps the
  /// unloaded single-client latency identical to the unbatched path.
  sim::Nanos batch_timeout = 0;
};

/// Hard cap on Config::max_batch (and so on the PROPOSE span length).
constexpr std::uint32_t kMaxBatchLimit = 64;

}  // namespace heron::amcast
