// Wake-on-write notification primitive.
//
// Real Heron replicas busy-poll RDMA-registered memory words. In virtual
// time, busy-polling would flood the event queue, so waiters instead park
// on the Notifier attached to the memory they poll, and every RDMA write
// into that memory fires notify_all(). A configurable poll-detection
// delay can be charged by the caller to model the polling granularity.
//
// Waiters are intrusive: each suspended coroutine embeds a WaitNode in its
// own frame and links it into the notifier's parked list — no allocation
// per wait. notify_all() moves the parked list onto a "fired" list stamped
// with a batch number and schedules ONE walker event that resumes exactly
// that batch in FIFO order, which reproduces the old one-event-per-waiter
// wakeup order (the per-waiter events had consecutive seqs, so nothing
// could interleave them).
//
// Liveness: a coroutine destroyed while parked (crash injection tearing
// down frames) unlinks its node in the awaiter's destructor, so the walker
// never resumes a dead handle — the node IS the liveness token. The
// node/walker bookkeeping lives in a refcounted control block so teardown
// is safe in any order of notifier, simulator and frame destruction.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace heron::sim {

namespace detail {

struct WaitNode;

struct WaitList {
  WaitNode* head = nullptr;
  WaitNode* tail = nullptr;
  std::size_t count = 0;
};

/// Shared between a Notifier and its in-flight walker events. Single
/// threaded, so a plain (non-atomic) refcount.
struct NotifyCtrl {
  std::uint32_t refs = 1;
  std::uint64_t batch_seq = 0;
  WaitList parked;
  WaitList fired;

  void acquire() noexcept { ++refs; }
  void release() noexcept {
    if (--refs == 0) delete this;
  }
};

/// One parked waiter, embedded in the waiting coroutine's frame (awaiter
/// member). Linked iff `list` is non-null; holds one ctrl ref while
/// linked. The destructor unlinks, so destroying a suspended frame
/// removes the waiter — no dead handle is ever left behind for a walker
/// to resume. unlink() is idempotent on purpose: GCC 12 can destroy
/// awaiter temporaries twice in some patterns (see wait_until_timeout in
/// the pre-intrusive kernel), and frame teardown may race with walker
/// unlinking.
struct WaitNode {
  WaitNode* prev = nullptr;
  WaitNode* next = nullptr;
  NotifyCtrl* ctrl = nullptr;
  WaitList* list = nullptr;
  std::coroutine_handle<> handle{};
  std::uint64_t batch = 0;

  WaitNode() = default;
  WaitNode(const WaitNode&) = delete;
  WaitNode& operator=(const WaitNode&) = delete;
  ~WaitNode() { unlink(); }

  void link(NotifyCtrl* c, WaitList* l) noexcept {
    ctrl = c;
    list = l;
    prev = l->tail;
    next = nullptr;
    (l->tail != nullptr ? l->tail->next : l->head) = this;
    l->tail = this;
    ++l->count;
    c->acquire();
  }

  void unlink() noexcept {
    if (list == nullptr) return;
    (prev != nullptr ? prev->next : list->head) = next;
    (next != nullptr ? next->prev : list->tail) = prev;
    --list->count;
    prev = next = nullptr;
    list = nullptr;
    std::exchange(ctrl, nullptr)->release();
  }
};

/// RAII ctrl reference held by walker events.
class CtrlRef {
 public:
  explicit CtrlRef(NotifyCtrl* c) noexcept : ctrl_(c) { ctrl_->acquire(); }
  CtrlRef(CtrlRef&& other) noexcept
      : ctrl_(std::exchange(other.ctrl_, nullptr)) {}
  CtrlRef(const CtrlRef&) = delete;
  CtrlRef& operator=(const CtrlRef&) = delete;
  CtrlRef& operator=(CtrlRef&&) = delete;
  ~CtrlRef() {
    if (ctrl_ != nullptr) ctrl_->release();
  }
  NotifyCtrl* operator->() const noexcept { return ctrl_; }

 private:
  NotifyCtrl* ctrl_;
};

}  // namespace detail

class Notifier {
 public:
  explicit Notifier(Simulator& sim)
      : sim_(&sim), ctrl_(new detail::NotifyCtrl) {}

  Notifier(Notifier&& other) noexcept
      : sim_(other.sim_), ctrl_(std::exchange(other.ctrl_, nullptr)) {}
  Notifier& operator=(Notifier&& other) noexcept {
    if (this != &other) {
      drop_ctrl();
      sim_ = other.sim_;
      ctrl_ = std::exchange(other.ctrl_, nullptr);
    }
    return *this;
  }
  Notifier(const Notifier&) = delete;
  Notifier& operator=(const Notifier&) = delete;

  ~Notifier() { drop_ctrl(); }

  /// Awaitable: suspends until the next notify_all(). Spurious wakeups are
  /// possible by design; callers re-check their predicate.
  [[nodiscard]] auto wait() {
    struct Awaiter {
      detail::NotifyCtrl* ctrl;
      detail::WaitNode node{};
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        node.handle = h;
        node.link(ctrl, &ctrl->parked);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{ctrl_};
  }

  /// Wakes all current waiters. Wakeups run as a fresh event at the current
  /// virtual time, so a notifier fired from inside an event never re-enters
  /// the waiter synchronously. Waiters that park after this call (including
  /// from inside a woken waiter) belong to a later batch and are not woken
  /// by this one.
  void notify_all() {
    detail::NotifyCtrl* c = ctrl_;
    if (c->parked.head == nullptr) return;
    const std::uint64_t batch = ++c->batch_seq;
    for (detail::WaitNode* n = c->parked.head; n != nullptr; n = n->next) {
      n->batch = batch;
      n->list = &c->fired;
    }
    if (c->fired.tail != nullptr) {
      c->fired.tail->next = c->parked.head;
      c->parked.head->prev = c->fired.tail;
    } else {
      c->fired.head = c->parked.head;
    }
    c->fired.tail = c->parked.tail;
    c->fired.count += c->parked.count;
    c->parked = detail::WaitList{};
    sim_->schedule(0, Walker{detail::CtrlRef(c), batch});
  }

  [[nodiscard]] std::size_t waiter_count() const {
    return ctrl_->parked.count;
  }
  [[nodiscard]] Simulator& simulator() const { return *sim_; }

  /// Parks a caller-owned node on this notifier (building block for
  /// composite awaiters such as wait_until_timeout; node.handle must be
  /// set). The node unlinks itself on destruction.
  void park(detail::WaitNode& node) noexcept {
    node.link(ctrl_, &ctrl_->parked);
  }

 private:
  struct Walker {
    detail::CtrlRef ctrl;
    std::uint64_t batch;

    void operator()() {
      // Resume this batch in FIFO order. Each node is unlinked before its
      // resume: the resumed coroutine may re-park, finish (destroying the
      // node with its frame), destroy other parked frames, or destroy the
      // notifier itself — the ctrl ref keeps the lists valid throughout.
      while (detail::WaitNode* n = ctrl->fired.head) {
        if (n->batch > batch) break;
        const std::coroutine_handle<> h = n->handle;
        n->unlink();
        h.resume();
      }
    }
  };

  void drop_ctrl() noexcept {
    if (ctrl_ == nullptr) return;
    // Parked waiters never resume once their notifier is gone (same
    // drop-on-destroy semantics as the callback-vector kernel); detach
    // them so frame teardown doesn't touch a freed list. Fired waiters
    // stay linked: their walker holds its own ctrl ref and still resumes
    // them.
    while (ctrl_->parked.head != nullptr) ctrl_->parked.head->unlink();
    std::exchange(ctrl_, nullptr)->release();
  }

  Simulator* sim_;
  detail::NotifyCtrl* ctrl_;
};

/// Suspends until pred() is true, re-checking after every notification.
template <typename Pred>
Primitive<void> wait_until(Notifier& n, Pred pred) {
  while (!pred()) {
    co_await n.wait();
  }
}

/// Like wait_until, but gives up after `timeout` ns. Returns true if the
/// predicate became true, false on timeout. Used for the state-transfer
/// suspicion timeout (Algorithm 3, lines 19-22) and the lease write gate.
template <typename Pred>
Primitive<bool> wait_until_timeout(Notifier& n, Pred pred, Nanos timeout) {
  Simulator& sim = n.simulator();
  const Nanos deadline = sim.now() + timeout;
  // One deadline timer for the whole wait, armed lazily on the first
  // suspension through the simulator's cancelable timer pool (zero
  // allocation) and canceled when the frame unwinds — including external
  // destruction mid-wait, since frame locals run their destructors then.
  // The timer resumes the coroutine directly; between events it is either
  // parked on `n` (where a spurious resume is fine — the loop re-checks
  // pred and deadline) or already finished with the timer canceled.
  Simulator::TimerToken timer;
  struct CancelGuard {
    Simulator& sim;
    Simulator::TimerToken& timer;
    CancelGuard(Simulator& s, Simulator::TimerToken& t) : sim(s), timer(t) {}
    ~CancelGuard() { sim.cancel_timer(timer); }
  } guard(sim, timer);
  while (!pred()) {
    if (sim.now() >= deadline) co_return false;
    struct Awaiter {
      Notifier& n;
      Simulator& sim;
      Nanos deadline;
      Simulator::TimerToken& timer;
      detail::WaitNode node{};
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        node.handle = h;
        n.park(node);
        if (!timer.armed()) {
          timer = sim.schedule_timer_at(deadline, EventFn(h));
        }
      }
      void await_resume() const noexcept {}
    };
    co_await Awaiter{n, sim, deadline, timer};
  }
  co_return true;
}

}  // namespace heron::sim
