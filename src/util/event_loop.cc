#include "util/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace bionav {

namespace {

uint32_t ToEpollMask(uint32_t events) {
  uint32_t mask = 0;
  if (events & EventLoop::kReadable) mask |= EPOLLIN;
  if (events & EventLoop::kWritable) mask |= EPOLLOUT;
  return mask;
}

uint32_t FromEpollMask(uint32_t mask) {
  uint32_t events = 0;
  if (mask & (EPOLLIN | EPOLLRDHUP)) events |= EventLoop::kReadable;
  if (mask & EPOLLOUT) events |= EventLoop::kWritable;
  if (mask & (EPOLLERR | EPOLLHUP)) events |= EventLoop::kError;
  return events;
}

}  // namespace

EventLoop::EventLoop(int64_t tick_ms) : tick_ms_(tick_ms < 1 ? 1 : tick_ms) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  BIONAV_CHECK(epoll_fd_ >= 0) << "epoll_create1: " << std::strerror(errno);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  BIONAV_CHECK(wake_fd_ >= 0) << "eventfd: " << std::strerror(errno);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  BIONAV_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0)
      << "epoll_ctl(wake): " << std::strerror(errno);
}

EventLoop::~EventLoop() {
  ::close(wake_fd_);
  ::close(epoll_fd_);
}

int64_t EventLoop::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status EventLoop::Add(int fd, uint32_t events, FdHandler handler) {
  epoll_event ev{};
  ev.events = ToEpollMask(events);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(ADD): ") +
                           std::strerror(errno));
  }
  Handler& h = handlers_[fd];
  h.events = events;
  h.generation = next_generation_++;
  h.fn = std::move(handler);
  return Status::OK();
}

Status EventLoop::Modify(int fd, uint32_t events) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) {
    return Status::NotFound("fd not registered");
  }
  if (it->second.events == events) return Status::OK();
  epoll_event ev{};
  ev.events = ToEpollMask(events);
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(MOD): ") +
                           std::strerror(errno));
  }
  it->second.events = events;
  return Status::OK();
}

void EventLoop::Remove(int fd) {
  auto it = handlers_.find(fd);
  if (it == handlers_.end()) return;
  // Park the closure instead of destroying it: the caller may be that very
  // closure removing itself, and its captures must outlive the call.
  retired_handlers_.push_back(std::move(it->second.fn));
  handlers_.erase(it);
  // Failure is fine: the kernel auto-deregisters a closed fd.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

void EventLoop::RunInLoop(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.push_back(std::move(fn));
  }
  uint64_t one = 1;
  // A full eventfd counter (impossible at 2^64 - 1 pending wakeups) or
  // EINTR just means the loop is already due to wake.
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::Stop() {
  stop_.store(true, std::memory_order_release);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

TimerId EventLoop::AddTimer(int64_t delay_ms, std::function<void()> callback) {
  BIONAV_CHECK(IsInLoopThread() || loop_thread_.load() == std::thread::id())
      << "AddTimer off the loop thread";
  if (delay_ms < 0) delay_ms = 0;
  // Round up to whole ticks with a floor of one: a timer never fires in
  // the tick that armed it, so it never fires early.
  int64_t ticks = (delay_ms + tick_ms_ - 1) / tick_ms_;
  if (ticks < 1) ticks = 1;
  TimerEntry entry;
  entry.id = next_timer_id_++;
  entry.rounds = ticks / static_cast<int64_t>(kWheelSlots);
  entry.callback = std::move(callback);
  size_t slot =
      (wheel_pos_ + static_cast<size_t>(ticks % kWheelSlots)) % kWheelSlots;
  TimerId id = entry.id;
  wheel_[slot].push_back(std::move(entry));
  ++live_timers_;
  return id;
}

bool EventLoop::CancelTimer(TimerId id) {
  if (id == kInvalidTimer) return false;
  for (std::vector<TimerEntry>& slot : wheel_) {
    for (TimerEntry& entry : slot) {
      if (entry.id == id) {
        entry.id = kInvalidTimer;  // Tombstone; reaped when the slot fires.
        entry.callback = nullptr;
        --live_timers_;
        return true;
      }
    }
  }
  return false;
}

void EventLoop::AdvanceWheel(int64_t now_ms) {
  while (now_ms >= next_tick_ms_) {
    wheel_pos_ = (wheel_pos_ + 1) % kWheelSlots;
    next_tick_ms_ += tick_ms_;
    std::vector<TimerEntry>& slot = wheel_[wheel_pos_];
    std::vector<TimerEntry> due;
    size_t kept = 0;
    for (TimerEntry& entry : slot) {
      if (entry.id == kInvalidTimer) continue;  // Cancelled tombstone.
      if (entry.rounds > 0) {
        --entry.rounds;
        slot[kept++] = std::move(entry);
      } else {
        due.push_back(std::move(entry));
      }
    }
    slot.resize(kept);
    for (TimerEntry& entry : due) {
      --live_timers_;
      entry.callback();  // May arm new timers (recurring pattern).
    }
  }
}

void EventLoop::DrainPending() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    batch.swap(pending_);
  }
  for (std::function<void()>& fn : batch) fn();
}

namespace {
thread_local bool on_loop_thread = false;
}  // namespace

bool EventLoop::OnAnyLoopThread() { return on_loop_thread; }

bool EventLoop::IsInLoopThread() const {
  return loop_thread_.load(std::memory_order_acquire) ==
         std::this_thread::get_id();
}

void EventLoop::Run() {
  loop_thread_.store(std::this_thread::get_id(), std::memory_order_release);
  on_loop_thread = true;
  next_tick_ms_ = NowMs() + tick_ms_;
  epoll_event events[128];
  while (!stop_.load(std::memory_order_acquire)) {
    int64_t now = NowMs();
    // Sleep to the next wheel tick when timers are pending; otherwise park
    // until fd traffic or a wakeup (DrainPending work re-kicks via wake_fd_)
    // and keep the tick deadline current so an idle stretch never forces a
    // catch-up sprint through skipped ticks.
    int timeout = -1;
    if (live_timers_ > 0) {
      int64_t until_tick = next_tick_ms_ - now;
      timeout = until_tick < 0 ? 0 : static_cast<int>(until_tick);
    } else {
      next_tick_ms_ = now + tick_ms_;
    }
    int n = ::epoll_wait(epoll_fd_, events,
                         static_cast<int>(sizeof(events) / sizeof(events[0])),
                         timeout);
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    if (n < 0 && errno != EINTR) break;
    // Snapshot each ready fd's registration generation before dispatching
    // anything: a handler may Remove any fd in the batch (its event is then
    // discarded), and if it re-Adds the same fd number, the fresh
    // registration must not receive the stale readiness (ABA guard).
    uint64_t batch_generations[128];
    for (int i = 0; i < n; ++i) {
      auto it = handlers_.find(events[i].data.fd);
      batch_generations[i] = it == handlers_.end() ? 0 : it->second.generation;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = handlers_.find(fd);
      if (it == handlers_.end() ||
          it->second.generation != batch_generations[i]) {
        continue;
      }
      uint32_t ready = FromEpollMask(events[i].events);
      if (ready == 0) continue;
      it->second.fn(ready);
    }
    DrainPending();
    if (live_timers_ > 0) AdvanceWheel(NowMs());
    // No handler call is on the stack here; retired closures can go.
    retired_handlers_.clear();
  }
  DrainPending();
  retired_handlers_.clear();
  on_loop_thread = false;
  loop_thread_.store(std::thread::id(), std::memory_order_release);
}

}  // namespace bionav
