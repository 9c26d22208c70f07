#ifndef BIONAV_UTIL_EVENT_LOOP_H_
#define BIONAV_UTIL_EVENT_LOOP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace bionav {

/// Identity of a pending timer; kInvalidTimer is never returned by AddTimer.
using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// A single-threaded epoll reactor: the I/O substrate of the event-driven
/// NavServer (and of bench_serving's connection-sweep load generator). One
/// thread calls Run() and owns every registered fd handler; other threads
/// talk to the loop exclusively through RunInLoop()/Stop(), which enqueue
/// work and wake the loop via an eventfd.
///
/// Timers ride a hashed timing wheel (kWheelSlots slots of tick_ms each,
/// entries carry a remaining-rounds count), so thousands of per-connection
/// idle timeouts cost O(1) to arm, cancel and expire — the classic Varghese
/// & Lauck scheme. Expiry resolution is one tick; timers never fire early.
///
/// Level-triggered: a handler that leaves bytes unread (backpressure pause
/// is done by dropping kReadable from the interest set instead) is redriven
/// on the next epoll_wait.
class EventLoop {
 public:
  /// Readiness bits delivered to fd handlers (kError covers EPOLLERR and
  /// EPOLLHUP; it is always watched, never requested).
  static constexpr uint32_t kReadable = 1u;
  static constexpr uint32_t kWritable = 2u;
  static constexpr uint32_t kError = 4u;

  using FdHandler = std::function<void(uint32_t events)>;

  explicit EventLoop(int64_t tick_ms = 20);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Registers `fd` for the given interest bits. The handler runs on the
  /// loop thread and may Add/Modify/Remove any fd, including its own.
  Status Add(int fd, uint32_t events, FdHandler handler);

  /// Replaces the interest set of a registered fd.
  Status Modify(int fd, uint32_t events);

  /// Unregisters a fd. The fd is not closed, and a readiness event already
  /// harvested for it in the current batch is discarded, so a handler can
  /// safely Remove+close any fd from inside any callback.
  void Remove(int fd);

  /// Runs the loop on the calling thread until Stop(). Dispatches fd
  /// events, then queued RunInLoop functions, then due timers.
  void Run();

  /// Stops the loop (thread-safe, idempotent). Run() returns after
  /// finishing the current iteration.
  void Stop();

  /// Enqueues `fn` to run on the loop thread and wakes the loop. Called
  /// from the loop thread itself, the function still goes through the
  /// queue (runs later this iteration, never reentrantly). Functions
  /// enqueued before Stop() takes effect are drained before Run() returns.
  void RunInLoop(std::function<void()> fn);

  /// Arms a one-shot timer `delay_ms` from now (rounded up to a tick).
  /// Loop-thread only. Re-arm from the callback for a recurring timer.
  TimerId AddTimer(int64_t delay_ms, std::function<void()> callback);

  /// Cancels a pending timer. Loop-thread only. False if it already fired
  /// or was never armed.
  bool CancelTimer(TimerId id);

  /// True on the thread currently inside Run().
  bool IsInLoopThread() const;

  /// True on a thread currently inside any EventLoop's Run() — a reactor
  /// thread, which must never block on disk I/O.
  static bool OnAnyLoopThread();

  /// Number of epoll_wait returns so far (the reactor wakeup metric).
  int64_t wakeups() const { return wakeups_.load(std::memory_order_relaxed); }

  /// Registered fd count (loop-thread only; tests and drain bookkeeping).
  size_t num_fds() const { return handlers_.size(); }

 private:
  static constexpr size_t kWheelSlots = 256;

  struct Handler {
    uint32_t events = 0;
    uint64_t generation = 0;
    FdHandler fn;
  };
  struct TimerEntry {
    TimerId id = kInvalidTimer;
    int64_t rounds = 0;  // Full wheel revolutions left before firing.
    std::function<void()> callback;
  };

  int64_t NowMs() const;
  void AdvanceWheel(int64_t now_ms);
  void DrainPending();

  const int64_t tick_ms_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: RunInLoop/Stop kick epoll_wait awake.

  std::unordered_map<int, Handler> handlers_;
  uint64_t next_generation_ = 1;
  /// Closures of fds Removed during the current dispatch batch. A handler
  /// may Remove itself; destroying a std::function mid-call is UB, so the
  /// closure parks here until the batch ends (loop-thread-only).
  std::vector<FdHandler> retired_handlers_;

  // Timing wheel. All state loop-thread-only.
  std::vector<std::vector<TimerEntry>> wheel_{kWheelSlots};
  size_t wheel_pos_ = 0;
  int64_t next_tick_ms_ = 0;  // Steady-clock deadline of the next tick.
  TimerId next_timer_id_ = 1;
  size_t live_timers_ = 0;

  std::mutex pending_mu_;
  std::vector<std::function<void()>> pending_;

  std::atomic<bool> stop_{false};
  std::atomic<int64_t> wakeups_{0};
  std::atomic<std::thread::id> loop_thread_{};
};

}  // namespace bionav

#endif  // BIONAV_UTIL_EVENT_LOOP_H_
