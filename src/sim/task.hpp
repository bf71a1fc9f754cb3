// Lazy coroutine task types used by every simulated process.
//
// Task<T> is a lazily-started coroutine with symmetric-transfer
// continuation chaining: `co_await child()` suspends the parent, runs the
// child to completion (possibly across many virtual-time suspensions) and
// resumes the parent with the child's result. Exceptions propagate through
// awaits like ordinary calls.
//
// Ownership: the Task object owns the coroutine frame. Awaiting a
// temporary Task keeps the frame alive for the duration of the await
// (the temporary lives until the end of the full expression). Root tasks
// are owned by the Simulator (see Simulator::spawn).
//
// Incarnations. A root spawned into an Incarnation (Simulator::spawn,
// rdma::Node::spawn) is scoped, and every Task it awaits inherits the
// scope. Each co_await in a scoped frame is a cancellation point: when the
// frame resumes and its incarnation has ended, the await throws Cancelled
// instead of returning, the frame unwinds (RAII destructors run) up to its
// root, and the root finishes as cancelled — not as failed. Unscoped frames
// are never cancelled.
//
// Primitive<T> is the same coroutine type without cancellation points or
// scope inheritance. Simulator primitives that must run to completion —
// fabric verbs (they release QP credits after their last sleep), Cpu::use,
// wait_until*, PageDevice I/O — return it; a scoped caller is cancelled at
// its own await once the primitive has returned.
#pragma once

#include <coroutine>
#include <exception>
#include <type_traits>
#include <utility>

namespace heron::sim {

/// Thrown at a cancellation point of a frame whose incarnation has ended.
/// Simulator roots swallow it; protocol code never catches it.
struct Cancelled {};

/// One lifetime of a simulated process (see rdma::Node). Frames spawned
/// into it are cancelled at their next await once end() is called; the
/// object must outlive every resumption of those frames.
class Incarnation {
 public:
  [[nodiscard]] bool live() const { return live_; }
  void end() { live_ = false; }

 private:
  bool live_ = true;
};

/// Runs `fn` when the enclosing scope is left by an exception — in a
/// scoped frame, a cancellation. Normal exit, dismiss(), and destruction
/// of a suspended frame (simulator teardown) skip it.
template <typename Fn>
class [[nodiscard]] UnwindGuard {
 public:
  explicit UnwindGuard(Fn fn)
      : fn_(std::move(fn)), depth_(std::uncaught_exceptions()) {}
  UnwindGuard(const UnwindGuard&) = delete;
  UnwindGuard& operator=(const UnwindGuard&) = delete;
  ~UnwindGuard() {
    if (armed_ && std::uncaught_exceptions() > depth_) fn_();
  }
  void dismiss() { armed_ = false; }

 private:
  Fn fn_;
  int depth_;
  bool armed_ = true;
};

template <typename T, bool kScoped>
class BasicTask;

/// Protocol coroutine: scoped when its root is, cancellable at every await.
template <typename T = void>
using Task = BasicTask<T, true>;

/// Simulator primitive: never cancelled, runs to completion.
template <typename T = void>
using Primitive = BasicTask<T, false>;

namespace detail {

template <typename Promise>
struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    // Transfer control back to whoever awaited us; if nobody did (root
    // task), park at the final suspend point until the owner destroys us.
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation{};  // null for a root task
  std::exception_ptr exception{};
  // The incarnation this frame runs in; null for unscoped frames.
  const Incarnation* scope = nullptr;

  std::suspend_always initial_suspend() const noexcept { return {}; }
  void unhandled_exception() {
    if (continuation) {
      exception = std::current_exception();  // rethrown in the awaiter
      return;
    }
    // A root: a cancellation ends it quietly; any other exception leaves
    // resume() and so surfaces from Simulator::run at the event that
    // resumed the root (the frame stays, finished, until it is reaped).
    try {
      throw;
    } catch (const Cancelled&) {
    }
  }
};

template <typename T>
struct ValueSlot {
  T value{};
  template <typename U>
  void return_value(U&& v) {
    value = std::forward<U>(v);
  }
  T take() { return std::move(value); }
};

template <>
struct ValueSlot<void> {
  void return_void() const noexcept {}
  void take() const noexcept {}
};

/// Wraps the awaiter of one co_await in a scoped frame: the await resumes
/// as usual, then throws Cancelled if the frame's incarnation has ended.
template <typename Awaiter>
struct CancelPoint {
  Awaiter inner;
  const Incarnation* scope;

  bool await_ready() { return inner.await_ready(); }
  template <typename Handle>
  auto await_suspend(Handle h) {
    return inner.await_suspend(h);
  }
  decltype(auto) await_resume() {
    if (scope != nullptr && !scope->live()) throw Cancelled{};
    return inner.await_resume();
  }
};

template <typename T>
struct PrimitivePromise : PromiseBase, ValueSlot<T> {};

template <typename T>
struct ScopedPromise : PromiseBase, ValueSlot<T> {
  // A child protocol task runs in its parent's incarnation.
  template <typename U>
  auto await_transform(BasicTask<U, true>&& child) noexcept {
    child.handle_.promise().scope = scope;
    using Aw = decltype(std::move(child).operator co_await());
    return CancelPoint<Aw>{std::move(child).operator co_await(), scope};
  }
  template <typename A>
  auto await_transform(A&& awaitable) noexcept {
    if constexpr (requires {
                    std::forward<A>(awaitable).operator co_await();
                  }) {
      using Aw = decltype(std::forward<A>(awaitable).operator co_await());
      return CancelPoint<Aw>{std::forward<A>(awaitable).operator co_await(),
                             scope};
    } else {
      // The awaitable is a temporary of the co_await's full expression and
      // outlives the suspension, so a reference suffices.
      return CancelPoint<A&>{awaitable, scope};
    }
  }
};

}  // namespace detail

/// A lazily-started coroutine returning T. Move-only; owns its frame.
template <typename T, bool kScoped>
class [[nodiscard]] BasicTask {
 public:
  struct promise_type
      : std::conditional_t<kScoped, detail::ScopedPromise<T>,
                           detail::PrimitivePromise<T>> {
    BasicTask get_return_object() {
      return BasicTask(
          std::coroutine_handle<promise_type>::from_promise(*this));
    }
    detail::FinalAwaiter<promise_type> final_suspend() const noexcept {
      return {};
    }
  };

  BasicTask() = default;
  explicit BasicTask(std::coroutine_handle<promise_type> h) : handle_(h) {}
  BasicTask(BasicTask&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  BasicTask& operator=(BasicTask&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  BasicTask(const BasicTask&) = delete;
  BasicTask& operator=(const BasicTask&) = delete;
  ~BasicTask() { destroy(); }

  [[nodiscard]] bool valid() const { return handle_ != nullptr; }
  [[nodiscard]] bool done() const { return !handle_ || handle_.done(); }

  /// Starts the coroutine without awaiting it (for root tasks).
  void start() {
    if (handle_ && !handle_.done()) handle_.resume();
  }

  /// Root-task bookkeeping: the incarnation the root and the tasks it
  /// awaits run in (null: unscoped). Must be called before start().
  void set_scope(const Incarnation* scope) {
    if (handle_) handle_.promise().scope = scope;
  }

  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> h;
      bool await_ready() const noexcept { return !h || h.done(); }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) noexcept {
        h.promise().continuation = parent;
        return h;  // symmetric transfer: start the child now
      }
      T await_resume() {
        if (h.promise().exception) {
          std::rethrow_exception(h.promise().exception);
        }
        return h.promise().take();
      }
    };
    return Awaiter{handle_};
  }

 private:
  template <typename>
  friend struct detail::ScopedPromise;

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_{};
};

}  // namespace heron::sim
