// The Heron replica runtime: Algorithm 1 (coordination), Algorithm 2
// (execution with remote reads over dual-versioned objects) and
// Algorithm 3 (state transfer), layered on the atomic multicast endpoint
// and the simulated RDMA fabric.
//
// Lifetimes: every replica coroutine (the main loop, the background loops
// and everything they await) runs in the node's incarnation, spawned with
// rdma::Node::spawn. A crash or restart ends it and each pre-crash frame
// unwinds at its next await (sim/task.hpp). Cleanup such a frame would
// owe — write-gate seqlock brackets, transfer and slot bookkeeping — is
// left to restart(), which resets or sweeps all volatile state; nothing
// here re-checks an incarnation after an await.
#pragma once

#include <cstdint>
#include <deque>
#include <set>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "amcast/endpoint.hpp"
#include "core/app.hpp"
#include "core/object_store.hpp"
#include "core/types.hpp"
#include "durable/checkpoint.hpp"
#include "reconfig/chunk.hpp"
#include "sim/stats.hpp"
#include "telemetry/hub.hpp"

namespace heron::core {

class System;

/// Update-log entry: object `oid` was modified by the request with
/// timestamp `tmp` (Algorithm 1 "Variables": log).
struct LogEntry {
  Tmp tmp;
  Oid oid;
};

class Replica {
 public:
  Replica(System& system, GroupId group, int rank);
  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// Bootstraps application state and spawns the runtime coroutines.
  void start();

  /// Restart path (the node itself is restarted via the amcast endpoint):
  /// discards volatile runtime state, rebuilds ring cursors from the
  /// surviving registered memory, then spawns a rejoin coroutine that
  /// recovers send-side counters from peers, catches up via Algorithm 3
  /// state transfer, and only then resumes the main loop.
  void restart();

  [[nodiscard]] GroupId group() const { return group_; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] rdma::Node& node();
  [[nodiscard]] ObjectStore& store() { return *store_; }
  [[nodiscard]] Application& app() { return *app_; }
  [[nodiscard]] Tmp last_req() const { return last_req_; }
  [[nodiscard]] std::uint64_t executed_count() const {
    return ctr_executed_->value();
  }
  [[nodiscard]] std::uint64_t skipped_count() const {
    return ctr_skipped_->value();
  }
  [[nodiscard]] std::uint64_t state_transfers() const {
    return ctr_state_transfers_->value();
  }
  [[nodiscard]] std::uint64_t transfers_served() const {
    return ctr_transfers_served_->value();
  }
  [[nodiscard]] std::uint64_t dedup_hits() const {
    return ctr_dedup_hits_->value();
  }
  [[nodiscard]] std::uint64_t shed_replies() const {
    return ctr_shed_replies_->value();
  }

  /// Per-client session: at-most-once execution bookkeeping plus the last
  /// reply, answered from cache on retries. Exposed for tests and for the
  /// Algorithm 3 transfer of session state.
  struct Session {
    std::uint64_t watermark = 0;         // all seqs <= watermark executed
    std::set<std::uint64_t> above;       // executed seqs > watermark
    std::uint64_t cached_seq = 0;        // seq the cached reply answers
    Reply cached_reply;                  // payload truncated to slot size
    Tmp last_tmp = 0;                    // tmp of the last executed command
    sim::Nanos last_active = 0;          // for session-TTL eviction
    /// Cached-reply payload dropped after a covering checkpoint committed;
    /// a retry pages it back in from the device (answer_paged_reply).
    bool reply_paged_out = false;

    [[nodiscard]] bool executed(std::uint64_t seq) const {
      return seq != 0 && (seq <= watermark || above.contains(seq));
    }
    void mark(std::uint64_t seq) {
      if (seq == 0 || executed(seq)) return;
      above.insert(seq);
      while (above.contains(watermark + 1)) {
        above.erase(watermark + 1);
        ++watermark;
      }
    }
  };
  [[nodiscard]] const std::map<std::uint32_t, Session>& sessions() const {
    return sessions_;
  }
  [[nodiscard]] std::size_t session_count() const { return sessions_.size(); }

  // Durable subsystem state (tests / bench / diagnostics).
  [[nodiscard]] std::size_t update_log_size() const {
    return update_log_.size();
  }
  [[nodiscard]] const std::deque<LogEntry>& update_log() const {
    return update_log_;
  }
  [[nodiscard]] bool log_truncated() const { return log_truncated_; }
  /// Highest tmp ever dropped from the update log (capacity pops,
  /// checkpoint truncation, restart wipe); delta transfers are only
  /// served from at or above it.
  [[nodiscard]] Tmp log_floor() const { return log_floor_; }
  [[nodiscard]] Tmp last_executed() const { return last_executed_; }
  /// True from restart() until the rejoin path (checkpoint restore +
  /// catch-up transfer) has completed and execution resumed.
  [[nodiscard]] bool rejoining() const { return rejoining_; }
  [[nodiscard]] Tmp checkpoint_watermark() const { return ckpt_watermark_; }
  [[nodiscard]] std::uint64_t checkpoints_completed() const {
    return ctr_checkpoints_->value();
  }
  [[nodiscard]] std::uint64_t checkpoints_deferred() const {
    return ctr_ckpt_deferred_->value();
  }
  [[nodiscard]] std::uint64_t sessions_evicted() const {
    return ctr_sessions_evicted_->value();
  }
  [[nodiscard]] std::uint64_t stale_session_replies() const {
    return ctr_stale_session_->value();
  }
  [[nodiscard]] bool restored_from_checkpoint() const {
    return restored_from_checkpoint_;
  }
  [[nodiscard]] std::uint64_t restart_catchup_bytes() const {
    return static_cast<std::uint64_t>(gauge_restart_delta_->value());
  }
  [[nodiscard]] std::uint64_t xfer_applied_full_bytes() const {
    return ctr_xfer_bytes_applied_full_->value();
  }
  [[nodiscard]] std::uint64_t xfer_applied_delta_bytes() const {
    return ctr_xfer_bytes_applied_delta_->value();
  }
  /// Null when the durable subsystem is disabled.
  [[nodiscard]] durable::CheckpointStore* durable_store() {
    return ckpt_.get();
  }

  /// Bench/test hook: runs the state-transfer protocol as if this replica
  /// failed to execute the request with timestamp `from` (Algorithm 3
  /// lines 1-6). Returns once the transferred state has been applied.
  /// `have_sessions` marks the request as a delta (the requester certifies
  /// it holds objects and sessions through `from` inclusive).
  sim::Task<void> force_state_transfer(Tmp from, bool have_sessions = false) {
    co_await request_state_transfer(from, have_sessions);
  }

  /// Test hook: advances client `client`'s session last_tmp to `tmp`, as
  /// session_mark does at dispatch — models a later command from that
  /// client being mid-execution (marked, reply not yet cached) when the
  /// checkpoint writer snapshots the session table.
  void test_touch_session(std::uint32_t client, Tmp tmp) {
    const auto it = sessions_.find(client);
    if (it != sessions_.end()) {
      it->second.last_tmp = std::max(it->second.last_tmp, tmp);
    }
  }

  // Measurement hooks (read directly by the harness; cleared by
  // System::reset_stats).
  /// Snapshot of the wait-for-all coordination counters.
  [[nodiscard]] CoordStats coord_stats() const;
  [[nodiscard]] sim::LatencyRecorder& ordering_lat() { return ordering_lat_; }
  [[nodiscard]] sim::LatencyRecorder& coord_lat() { return coord_lat_; }
  [[nodiscard]] sim::LatencyRecorder& exec_lat() { return exec_lat_; }

  // Region handles.
  [[nodiscard]] rdma::MrId coord_mr() const { return coord_mr_; }
  [[nodiscard]] rdma::MrId statesync_mr() const { return statesync_mr_; }
  [[nodiscard]] rdma::MrId addrq_mr() const { return addrq_mr_; }
  [[nodiscard]] rdma::MrId addra_mr() const { return addra_mr_; }
  [[nodiscard]] rdma::MrId staging_mr() const { return staging_mr_; }
  [[nodiscard]] rdma::MrId fastread_mr() const { return fastread_mr_; }

  // Fast-read lease state (tests / diagnostics).
  [[nodiscard]] std::uint64_t lease_epoch() const { return lease_epoch_; }
  [[nodiscard]] sim::Nanos lease_expiry() const { return lease_expiry_; }
  [[nodiscard]] std::uint64_t lease_grants() const {
    return ctr_lease_grants_->value();
  }
  [[nodiscard]] std::uint64_t gate_waits() const {
    return ctr_gate_waits_->value();
  }

  // Fast-write state (tests / diagnostics).
  /// A fast-write-armed lease grant (kWireFlagFastWrite) has been applied
  /// since the last restart.
  [[nodiscard]] bool fast_write_armed() const { return fast_write_armed_; }
  /// Ordered requests that suspended on a pending INVALIDATE.
  [[nodiscard]] std::uint64_t fast_fence_waits() const {
    return ctr_fast_fence_->value();
  }
  /// Ordered writes that wiped fast-write residue off a slot.
  [[nodiscard]] std::uint64_t fast_repairs() const {
    return ctr_fast_repairs_->value();
  }

  // Reconfiguration state (heron::reconfig; tests / bench / controller).
  [[nodiscard]] const reconfig::Layout& layout() const { return layout_; }
  [[nodiscard]] rdma::MrId reconfig_mr() const { return reconfig_mr_; }
  /// Source role: the background copier has drained the range down to the
  /// seal_dirty_threshold — the controller may order the FLIP marker.
  [[nodiscard]] bool copy_caught_up() const { return copy_caught_up_; }
  /// Source role: FLIP processed; the range has been handed off and this
  /// replica only serves idempotent pull resends from its final image.
  [[nodiscard]] bool outbound_flipped() const { return outbound_flipped_; }
  /// Destination role: no unsealed inbound copy stream (either none was
  /// ever inbound, or the SEAL for the current migration epoch landed).
  [[nodiscard]] bool inbound_sealed() const {
    return inbound_epoch_ == 0 || seal_epoch_seen_ >= inbound_epoch_;
  }
  [[nodiscard]] std::uint64_t copy_chunks_sent() const {
    return ctr_copy_chunks_->value();
  }
  [[nodiscard]] std::uint64_t copy_chunks_corrupt() const {
    return ctr_copy_corrupt_->value();
  }
  [[nodiscard]] std::uint64_t copy_deferred() const {
    return ctr_copy_deferred_->value();
  }
  [[nodiscard]] std::uint64_t copy_pulls() const {
    return ctr_copy_pulls_->value();
  }
  [[nodiscard]] std::uint64_t wrong_epoch_replies() const {
    return ctr_wrong_epoch_->value();
  }
  [[nodiscard]] std::uint64_t quiesce_deferred() const {
    return ctr_quiesce_->value();
  }
  [[nodiscard]] std::uint64_t migrated_out() const {
    return ctr_migrated_out_->value();
  }
  [[nodiscard]] std::uint64_t migrated_in() const {
    return ctr_migrated_in_->value();
  }
  [[nodiscard]] std::uint64_t checkpoints_rejected_layout() const {
    return ctr_ckpt_rejected_layout_->value();
  }

  // Offset helpers shared with peer writers.
  [[nodiscard]] std::uint64_t coord_offset(GroupId h, int q) const;
  [[nodiscard]] std::uint64_t statesync_offset(int q) const;
  [[nodiscard]] std::uint64_t addrq_offset(std::uint32_t stripe,
                                           std::uint64_t seq) const;
  [[nodiscard]] std::uint64_t addra_offset(std::uint32_t stripe,
                                           std::uint64_t seq) const;
  [[nodiscard]] std::uint64_t staging_offset(int sender_rank,
                                             std::uint64_t seq) const;

 private:
  friend class System;

  // --- main loop (Algorithm 1) ----------------------------------------
  sim::Task<void> main_loop();
  sim::Task<void> handle_request(Request r);
  // §III-D1 extension: one concurrently running single-partition request.
  sim::Task<void> exec_concurrent(Request r, int slot,
                                  std::vector<Oid> keys);
  [[nodiscard]] bool keys_free(const std::vector<Oid>& keys) const;
  sim::Task<void> coordinate(const Request& r, std::uint32_t phase,
                             bool collect_stats);
  void write_coord(const Request& r, std::uint32_t phase);
  [[nodiscard]] bool coord_satisfied(const Request& r, std::uint32_t phase,
                                     bool require_all) const;
  sim::Task<void> send_reply(const Request& r, const Reply& reply);

  // --- execution (Algorithm 2) ----------------------------------------
  struct ExecOutcome {
    bool lagging = false;
    Reply reply;
    /// Oids left seqlock-odd by the write phase (leases enabled only);
    /// the write gate releases them before the reply goes out.
    std::vector<Oid> locked;
  };
  sim::Task<ExecOutcome> execute(const Request& r);
  sim::Task<ExecOutcome> execute_on(const Request& r, sim::Cpu& cpu);
  struct RemoteRead {
    bool lagging = false;
    bool ok = false;
    std::vector<std::byte> value;
  };
  sim::Task<RemoteRead> read_remote(const Request& r, Oid oid, GroupId h);
  sim::Task<bool> resolve_addr(Oid oid, GroupId h);
  sim::Task<void> addr_query_loop();  // answers peers' address queries
  /// Applies the request's writes. With leases enabled, the written oids
  /// stay seqlock-odd (begin_write was called before the write-phase CPU
  /// charge) and are returned in `locked` for the caller to release after
  /// the write gate.
  void apply_writes(const Request& r, ExecContext& ctx);

  // --- fast-read leases -------------------------------------------------
  [[nodiscard]] bool leases_enabled() const;
  /// Handles a lease-grant marker delivered through the ordered stream.
  void apply_lease_grant(const Request& r);
  /// Pushes this replica's applied watermark (last_executed_) into every
  /// peer's fast-read region; called after each execution so the write
  /// gate below can complete.
  void push_applied();
  /// Write gate: before acknowledging a request that wrote under an
  /// active lease, wait until every peer has applied it (or the lease
  /// active at execution time has expired). Releases the seqlock brackets
  /// taken in execute_on.
  sim::Task<void> write_gate(const Request& r, const std::vector<Oid>& locked);
  /// Answers a core-level ordered read (kReqFlagRead) from the store.
  [[nodiscard]] Reply make_read_reply(const Request& r) const;
  void publish_lease_word();

  // --- fast writes (leased one-sided invalidate/validate) ---------------
  [[nodiscard]] bool fast_writes_enabled() const;
  /// Hermes-style reader fence: before an ordered request touches an oid
  /// whose slot carries a pending INVALIDATE, wait for the writer's
  /// VALIDATE (a one-sided write into the object region), bounded by the
  /// lease expiry; a still-pending slot at expiry is discarded. The
  /// validate-margin rule (HeronConfig::fast_write_val_margin) makes the
  /// outcome identical at every replica.
  sim::Task<void> fast_write_fence(const Request& r);
  /// Single-slot fence, called immediately before each local store read so
  /// no suspension point separates the pending check from the read (the
  /// whole-request fence alone would leave a window where an INVALIDATE
  /// lands and validates elsewhere mid-execution — read inversion).
  sim::Task<void> fence_slot(Oid oid);
  /// Rejoin step: resolves slots left fast-pending across a restart by
  /// sampling live peers — a peer whose lock equals the pending tmp proves
  /// the writer validated (adopt); any other resolved peer state proves it
  /// aborted (discard). Runs before main_loop resumes.
  sim::Task<void> reconcile_fast_slots();

  // --- state transfer (Algorithm 3) ------------------------------------
  /// `have_sessions` marks the request as a delta (StateSyncEntry status
  /// 2): this replica already holds session state through failed_tmp, so
  /// the donor skips sessions older than that.
  sim::Task<void> request_state_transfer(Tmp failed_tmp,
                                         bool have_sessions = false);
  sim::Task<void> statesync_watch_loop();   // reacts to peers' requests
  sim::Task<void> perform_transfer(int lagger_rank, Tmp from_tmp,
                                   bool sessions_delta);
  sim::Task<void> staging_apply_loop();     // applies incoming chunks
  sim::Task<void> rejoin();                 // restart: recover + catch up

  // --- durability (checkpointing + log compaction) ----------------------
  sim::Task<void> checkpoint_loop();
  sim::Task<void> write_checkpoint_once();
  /// Installs a restored checkpoint image: objects, sessions, tombstones,
  /// watermarks; charges memcpy-class CPU for the installed bytes.
  sim::Task<void> apply_checkpoint_image(const durable::Image& img);
  /// Retry of a session whose cached reply payload was paged out: fetch
  /// the persisted session record and answer from it.
  sim::Task<void> answer_paged_reply(const Request& r);
  [[nodiscard]] bool session_reply_paged_out(const Request& r) const;

  // --- reconfiguration (heron::reconfig) --------------------------------
  /// One copy-stream record plus its value bytes; the unit the copy
  /// machine batches into CRC'd chunks and the retained final image.
  using CopyItem = std::pair<reconfig::CopyRecord, std::vector<std::byte>>;

  [[nodiscard]] bool reconfig_enabled() const;
  /// Handles a layout-epoch marker (kWireFlagEpoch) from the ordered
  /// stream: installs the new layout; on PREPARE arms the source/dest
  /// roles, on FLIP performs the source-side handoff (lease cutoff, final
  /// delta + SEAL, range retirement).
  sim::Task<void> apply_epoch_marker(const Request& r);
  /// Publishes layout_.epoch into the fast-read region (read one-sided by
  /// rejoining peers to reject checkpoints from a superseded layout).
  void publish_epoch_word();
  /// Oids a request's routing is judged by: the read oid (kReqFlagRead)
  /// or the app read_set. Empty when the request carries no parseable
  /// keys (order-only payloads).
  [[nodiscard]] std::vector<Oid> request_oids(const Request& r) const;
  /// True while any of `oids` lies in an inbound migration range whose
  /// copy stream has not sealed yet (dual-epoch quiesce window).
  [[nodiscard]] bool touches_unsealed_inbound(
      const std::vector<Oid>& oids) const;
  [[nodiscard]] Reply make_wrong_epoch_reply(Oid oid) const;
  /// Source-side background copier: pass 0 snapshots the whole range,
  /// later passes drain the dirty set, throttled against foreground load.
  sim::Task<void> copy_machine(std::uint64_t mig_epoch);
  /// Streams `items` as CRC'd chunks into dest's per-source-rank ring.
  /// `seal` flags the last chunk; `throttle` defers between chunks under
  /// foreground load. Erases each landed object from pass_pending_.
  sim::Task<void> copy_send(std::vector<CopyItem> items,
                            std::uint64_t mig_epoch, GroupId dest_group,
                            int dest_rank, bool seal, bool throttle);
  /// Destination-side consumer: drains chunk rings in seq order, verifies
  /// CRCs, applies records newest-wins, tracks stream dirtiness and seals.
  sim::Task<void> copy_recv_loop();
  /// Destination-side starvation watcher: no inbound progress for
  /// pull_timeout -> write a pull word to the next source rank.
  sim::Task<void> inbound_watch_loop(std::uint64_t mig_epoch);
  /// Source-side pull server: answers a dest rank's pull word with an
  /// idempotent full resend of the retained final image (+ SEAL).
  sim::Task<void> pull_watch_loop();
  /// Union-merges a copy-streamed session into the local table.
  void merge_session(std::uint32_t client, Session&& incoming);
  /// State-transfer kRecLayout payload: adopts the donor's layout when
  /// newer and max-merges its seal knowledge.
  void adopt_layout_record(std::span<const std::byte> payload);
  /// Rejoin tail: re-arms the copy machine (source) or inbound tracking
  /// (dest) for a migration still active in the adopted layout, after
  /// recovering send counters from the peer rings.
  sim::Task<void> resume_migration_roles();
  /// Oids touched by logged updates the requester still needs: at/above
  /// from_tmp (failed-request semantics) or strictly above it when
  /// `held_through` (delta request: from_tmp itself is already applied).
  /// Sets full_transfer when the log cannot cover the range.
  [[nodiscard]] std::vector<Oid> log_objects_since(Tmp from_tmp,
                                                   bool held_through,
                                                   bool& full_transfer) const;
  void log_update(Tmp tmp, Oid oid);
  [[nodiscard]] std::uint64_t staging_pending() const;

  System* system_;
  GroupId group_;
  int rank_;
  std::unique_ptr<Application> app_;
  std::unique_ptr<ObjectStore> store_;

  rdma::MrId coord_mr_{}, statesync_mr_{}, addrq_mr_{}, addra_mr_{},
      staging_mr_{};

  // --- sessions (at-most-once execution) -------------------------------
  std::map<std::uint32_t, Session> sessions_;  // client id -> session
  /// Records that `r` is being executed (called at dispatch, before the
  /// execution completes, so a duplicate arriving mid-execution is caught).
  void session_mark(const Request& r);
  [[nodiscard]] bool session_executed(const Request& r) const;
  void session_cache_reply(const Request& r, const Reply& reply);
  /// Cached reply only when `seq` is exactly the cached one; in-flight or
  /// stale duplicates stay silent (the live attempt owns the reply slot).
  [[nodiscard]] const Reply* session_cached(const Request& r) const;
  /// Post-execution bookkeeping: caches the reply and fires the system's
  /// exec observer (the exactly-once oracle's evidence stream).
  void note_executed(const Request& r, const Reply& reply);

  // --- fast-read lease state -------------------------------------------
  rdma::MrId fastread_mr_{};
  std::uint64_t lease_epoch_ = 0;     // tmp of the latest applied grant
  sim::Nanos lease_expiry_ = 0;       // absolute; monotone across grants

  // --- fast-write state --------------------------------------------------
  bool fast_write_armed_ = false;  // armed lease grant applied (sticky)
  /// Slots found fast-pending by restart(); rejoin() reconciles them with
  /// peers before the main loop resumes.
  std::vector<Oid> fast_pending_at_restart_;

  Tmp last_req_ = 0;       // Algorithm 1: tmp of the last request (delivered)
  Tmp last_executed_ = 0;  // highest tmp whose writes are applied locally
  std::uint64_t statesync_serial_ = 0;
  bool in_state_transfer_ = false;

  // Remote object map: oid -> per-rank location in the home partition
  // (the paper's object_map of <oid, q> -> addr).
  struct RemoteLoc {
    std::uint64_t offset = 0;
    std::uint32_t size = 0;
    bool known = false;
  };
  std::unordered_map<Oid, std::vector<RemoteLoc>> object_map_;
  std::vector<std::uint64_t> addrq_sent_;   // per target stripe
  std::vector<std::uint64_t> addrq_next_;   // consumer cursor per stripe
  std::vector<std::uint64_t> addra_next_;   // consumer cursor per stripe

  // Update log (ring semantics with truncation flag).
  std::deque<LogEntry> update_log_;
  bool log_truncated_ = false;
  /// Highest tmp evicted by a *capacity* pop (not checkpoint truncation).
  /// A delta checkpoint is unsound once this passes ckpt_watermark_ —
  /// dirty entries were lost — so the next checkpoint is forced full.
  Tmp log_dropped_max_ = 0;
  /// Highest tmp dropped from the log by *any* path; see log_floor().
  Tmp log_floor_ = 0;
  bool rejoining_ = false;

  // --- durable subsystem state ------------------------------------------
  std::unique_ptr<durable::CheckpointStore> ckpt_;  // null when disabled
  Tmp ckpt_watermark_ = 0;          // watermark of the last committed ckpt
  /// Session-TTL tombstones: client id -> evicted floor (all seqs <= floor
  /// were executed before eviction). Persisted and transferred.
  std::map<std::uint32_t, std::uint64_t> evicted_sessions_;
  bool restored_from_checkpoint_ = false;

  // Staging ring cursors (state-transfer receive side).
  std::vector<std::uint64_t> staging_next_;  // per sender rank
  std::vector<std::uint64_t> staging_sent_;  // per receiver rank (send side)

  // --- reconfiguration state (heron::reconfig) ---------------------------
  reconfig::Layout layout_;      // installed layout; epoch 0 = disabled
  rdma::MrId reconfig_mr_{};     // copy rings + pull words (when enabled)
  // Source role (outbound migration). outbound_epoch_/outbound_ survive
  // the FLIP so the pull server knows which stream it re-seals.
  bool outbound_active_ = false;   // PREPARE seen, FLIP not yet processed
  bool outbound_flipped_ = false;  // FLIP processed; serving pulls only
  std::uint64_t outbound_epoch_ = 0;  // PREPARE epoch of the migration
  reconfig::Migration outbound_;
  std::set<Oid> migration_dirty_;  // written since last drained pass
  std::set<Oid> pass_pending_;     // collected for a pass, not yet on wire
  bool copy_caught_up_ = false;
  /// Snapshot of the handed-off range (+ all sessions/tombstones) taken
  /// at FLIP, kept in memory to serve idempotent pull resends after the
  /// live objects were retired.
  std::vector<CopyItem> final_image_;
  std::vector<std::uint64_t> copy_seq_;   // send counter per dest rank
  std::vector<std::uint64_t> pull_seen_;  // handled pull serial per rank
  // Destination role (inbound migration).
  std::uint64_t inbound_epoch_ = 0;  // PREPARE epoch; 0 = none inbound
  reconfig::Migration inbound_;
  std::uint64_t seal_epoch_seen_ = 0;  // highest cleanly sealed epoch
  bool inbound_stream_dirty_ = false;  // gap/CRC failure since last seal try
  sim::Nanos inbound_progress_at_ = 0;
  std::uint64_t pull_serial_ = 0;  // our outgoing pull-word serial
  std::uint64_t pull_rr_ = 0;      // round-robin source pick for pulls
  std::vector<std::uint64_t> copy_next_;  // consumer cursor per source rank

  // Multi-threaded execution state (exec_threads > 1).
  std::vector<std::unique_ptr<sim::Cpu>> exec_cpus_;
  std::vector<bool> slot_busy_;
  std::set<Oid> locked_keys_;
  int inflight_ = 0;
  std::unique_ptr<sim::Notifier> exec_done_;

  // Stage latencies (sample lists; the registry histograms below are the
  // opt-in binned copies).
  sim::LatencyRecorder ordering_lat_;
  sim::LatencyRecorder coord_lat_;
  sim::LatencyRecorder exec_lat_;

  // Registry handles (see telemetry/hub.hpp), keyed by label_. The
  // counters are the replica's only statistics store: the accessors above
  // read them, and MetricsRegistry::reset_values clears them.
  telemetry::Hub* hub_;
  std::string label_;  // "g<g>.r<r>"
  using Counter = telemetry::Counter;
  using Histogram = telemetry::Histogram;
  Counter* counter(const char* subsystem, const char* name) {
    return &hub_->metrics.counter(subsystem, name, label_);
  }
  Histogram* histogram(const char* subsystem, const char* name) {
    return &hub_->metrics.histogram(subsystem, name, label_);
  }
  Counter* ctr_executed_ = counter("core", "executed");
  Counter* ctr_skipped_ = counter("core", "skipped");
  Counter* ctr_addr_hits_ = counter("core", "addr_cache_hits");
  Counter* ctr_addr_misses_ = counter("core", "addr_cache_misses");
  Counter* ctr_remote_reads_ = counter("core", "remote_reads");
  Counter* ctr_remote_retries_ = counter("core", "remote_read_retries");
  Counter* ctr_lagging_ = counter("core", "lagging_detected");
  Counter* ctr_state_transfers_ = counter("core", "state_transfers");
  Counter* ctr_transfers_served_ = counter("core", "transfers_served");
  Counter* ctr_xfer_bytes_sent_ = counter("core", "transfer_bytes_sent");
  Counter* ctr_xfer_bytes_applied_ = counter("core", "transfer_bytes_applied");
  Counter* ctr_xfer_bytes_applied_full_ =
      counter("core", "transfer_bytes_applied_full");
  Counter* ctr_xfer_bytes_applied_delta_ =
      counter("core", "transfer_bytes_applied_delta");
  Counter* ctr_checkpoints_ = counter("durable", "replica_checkpoints");
  Counter* ctr_ckpt_deferred_ = counter("durable", "checkpoints_deferred");
  Counter* ctr_sessions_evicted_ = counter("durable", "sessions_evicted");
  Counter* ctr_stale_session_ = counter("durable", "stale_session_replies");
  telemetry::Gauge* gauge_restart_delta_ =
      &hub_->metrics.gauge("durable", "restart_delta_bytes", label_);
  Counter* ctr_dedup_hits_ = counter("core", "session_dedup_hits");
  Counter* ctr_shed_replies_ = counter("core", "shed_replies");
  Counter* ctr_lease_grants_ = counter("core", "lease_grants");
  Counter* ctr_gate_waits_ = counter("core", "gate_waits");
  Counter* ctr_ordered_reads_ = counter("core", "ordered_reads");
  Counter* ctr_fast_fence_ = counter("core", "fastwrite_fence_waits");
  Counter* ctr_fast_discards_ = counter("core", "fastwrite_discards");
  Counter* ctr_fast_repairs_ = counter("core", "fastwrite_repairs");
  Counter* ctr_copy_chunks_ = counter("reconfig", "copy_chunks");
  Counter* ctr_copy_corrupt_ = counter("reconfig", "copy_chunks_corrupt");
  Counter* ctr_copy_deferred_ = counter("reconfig", "copy_deferred");
  Counter* ctr_copy_pulls_ = counter("reconfig", "copy_pulls");
  Counter* ctr_wrong_epoch_ = counter("reconfig", "wrong_epoch_replies");
  Counter* ctr_quiesce_ = counter("reconfig", "quiesce_deferred");
  Counter* ctr_coord_multi_ = counter("core", "coord_multi_partition");
  Counter* ctr_coord_delayed_ = counter("core", "coord_delayed");
  Counter* ctr_coord_gave_up_ = counter("core", "coord_gave_up");
  Counter* ctr_coord_delay_ns_ = counter("core", "coord_delay_ns");
  Counter* ctr_fast_adopted_ = counter("core", "fastwrite_reconciled_adopted");
  Counter* ctr_fast_rediscarded_ =
      counter("core", "fastwrite_reconciled_discarded");
  Counter* ctr_ckpt_rejected_layout_ =
      counter("durable", "checkpoints_rejected_layout");
  Counter* ctr_copy_received_ = counter("reconfig", "copy_chunks_received");
  Counter* ctr_copy_pulls_served_ = counter("reconfig", "copy_pulls_served");
  Counter* ctr_migrated_out_ = counter("reconfig", "migrated_out");
  Counter* ctr_migrated_in_ = counter("reconfig", "migrated_in");
  Histogram* hist_exec_ = histogram("core", "exec_ns");
  Histogram* hist_coord_ = histogram("core", "coord_ns");
  Histogram* hist_gate_wait_ = histogram("core", "gate_wait_ns");

  sim::Rng rng_;
};

}  // namespace heron::core
