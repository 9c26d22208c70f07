#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <fcntl.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <queue>
#include <utility>

#include "server/protocol.h"
#include "stats.h"
#include "universe.h"
#include "util/event_loop.h"

namespace navbench {

using namespace bionav;

namespace {

class Generator {
 public:
  Generator(const LoadOptions& options, const std::vector<SessionJob>& jobs)
      : options_(options), jobs_(jobs) {
    live_.resize(jobs.size());
    result_.sessions.resize(jobs.size());
  }

  // Loop handlers capture `this`.
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  ~Generator() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (timer_fd_ >= 0) ::close(timer_fd_);
  }

  LoadResult Run() {
    conns_.resize(kConnections);
    for (size_t i = 0; i < conns_.size(); ++i) Connect(i);
    timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
    loop_.Add(timer_fd_, EventLoop::kReadable, [this](uint32_t) {
      uint64_t expirations = 0;
      [[maybe_unused]] ssize_t n =
          ::read(timer_fd_, &expirations, sizeof(expirations));
      Pump();
    });
    const int64_t t0 = NowNs();
    int64_t last_arrival = t0;
    for (size_t s = 0; s < jobs_.size(); ++s) {
      int64_t due = t0 + jobs_[s].plan.arrival_ns;
      last_arrival = std::max(last_arrival, due);
      due_.push({due, static_cast<uint32_t>(s)});
    }
    deadline_ns_ = last_arrival + static_cast<int64_t>(options_.drain_s * 1e9);
    remaining_ = jobs_.size();
    if (remaining_ > 0) {
      Pump();
      loop_.Run();
    }
    // Whatever is still open at the deadline timed out.
    for (size_t s = 0; s < jobs_.size(); ++s) {
      if (!live_[s].done) {
        ++result_.timeouts;
        if (!live_[s].in_flight) ++result_.attempted;
        live_[s].done = true;
      }
    }
    return std::move(result_);
  }

 private:
  struct Conn {
    int fd = -1;
    BinaryFrameDecoder decoder{64u << 20};
    std::string outbox;
    size_t out_off = 0;
    std::deque<size_t> pending;  // OpRecord indexes, FIFO.
    bool dead = false;
  };
  struct Live {
    std::string token;
    size_t next_op = 0;
    uint64_t fingerprint = kFnvBasis;
    int64_t nav_cost = 0;
    bool in_flight = false;
    bool done = false;
  };

  void Connect(size_t i) {
    Conn& c = conns_[i];
    c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(options_.port));
    ::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr);
    if (c.fd < 0 ||
        ::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      Note(std::string("connect: ") + std::strerror(errno));
      c.dead = true;
      return;
    }
    int one = 1;
    ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    int flags = ::fcntl(c.fd, F_GETFL, 0);
    ::fcntl(c.fd, F_SETFL, flags | O_NONBLOCK);
    c.outbox.append(kBinaryPreamble, sizeof(kBinaryPreamble));
    loop_.Add(c.fd, EventLoop::kReadable, [this, i](uint32_t events) {
      OnConnEvent(i, events);
      Pump();
    });
  }

  void Note(const std::string& message) {
    if (result_.first_error.empty()) result_.first_error = message;
  }

  /// Sends every op that is due, then arms the timer for the next one.
  void Pump() {
    int64_t now = NowNs();
    if (now >= deadline_ns_) {
      loop_.Stop();
      return;
    }
    while (!due_.empty() && due_.top().first <= now) {
      auto [due, s] = due_.top();
      due_.pop();
      Send(s, due);
      now = NowNs();
    }
    for (size_t i = 0; i < conns_.size(); ++i) Flush(i);
    if (remaining_ == 0) {
      loop_.Stop();
      return;
    }
    int64_t next = due_.empty() ? deadline_ns_
                                : std::min(due_.top().first, deadline_ns_);
    itimerspec spec{};
    spec.it_value.tv_sec = next / 1000000000;
    spec.it_value.tv_nsec = next % 1000000000;
    ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &spec, nullptr);
  }

  void Send(uint32_t s, int64_t due) {
    Live& live = live_[s];
    if (live.done) return;
    const SessionJob& job = jobs_[s];
    const ScriptOp& op = job.script->ops[live.next_op];
    Conn& c = conns_[s % conns_.size()];
    ++result_.attempted;
    if (c.dead) {
      ++result_.transport_errors;
      FailSession(s);
      return;
    }
    Request request;
    request.token = live.token;
    switch (op.kind) {
      case OpKind::kQuery:
        request.op = RequestOp::kQuery;
        request.query = *job.query;
        break;
      case OpKind::kExpand:
        request.op = RequestOp::kExpand;
        request.node = op.node;
        break;
      case OpKind::kShow:
        request.op = RequestOp::kShowResults;
        request.node = op.node;
        request.retstart = 0;
        request.retmax = 20;
        break;
      case OpKind::kBacktrack:
        request.op = RequestOp::kBacktrack;
        break;
      case OpKind::kClose:
        request.op = RequestOp::kClose;
        break;
    }
    std::string frame = SerializeRequestBinary(request);
    if (options_.record_frames) {
      result_.frames.push_back(frame.substr(kBinaryFrameHeaderBytes));
    }
    c.outbox += frame;
    OpRecord record;
    record.session = s;
    record.index = static_cast<uint16_t>(live.next_op);
    record.kind = op.kind;
    record.node = op.node;
    record.due_ns = due;
    record.sent_ns = NowNs();
    result_.ops.push_back(record);
    c.pending.push_back(result_.ops.size() - 1);
    live.in_flight = true;
  }

  void Flush(size_t i) {
    Conn& c = conns_[i];
    if (c.dead || c.out_off >= c.outbox.size()) return;
    while (c.out_off < c.outbox.size()) {
      ssize_t n = ::send(c.fd, c.outbox.data() + c.out_off,
                         c.outbox.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      ConnFailed(i, "send failed");
      return;
    }
    if (c.out_off >= c.outbox.size()) {
      c.outbox.clear();
      c.out_off = 0;
      loop_.Modify(c.fd, EventLoop::kReadable);
    } else {
      loop_.Modify(c.fd, EventLoop::kReadable | EventLoop::kWritable);
    }
  }

  void OnConnEvent(size_t i, uint32_t events) {
    Conn& c = conns_[i];
    if (c.dead) return;
    if (events & EventLoop::kError) {
      ConnFailed(i, "socket error");
      return;
    }
    if (events & EventLoop::kWritable) Flush(i);
    if (c.dead || !(events & EventLoop::kReadable)) return;
    char chunk[65536];
    while (true) {
      ssize_t n = ::recv(c.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        if (!c.decoder.Feed(std::string_view(chunk, static_cast<size_t>(n)))) {
          ConnFailed(i, "response frame overflow");
          return;
        }
        continue;
      }
      if (n == 0) {
        ConnFailed(i, "server closed connection");
        return;
      }
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      ConnFailed(i, std::string("recv: ") + std::strerror(errno));
      return;
    }
    std::string body;
    while (!c.dead && c.decoder.Next(&body)) {
      int64_t now = NowNs();
      if (c.pending.empty()) {
        ConnFailed(i, "reply without a request");
        return;
      }
      size_t r = c.pending.front();
      c.pending.pop_front();
      result_.ops[r].recv_ns = now;
      Result<JsonValue> doc = DecodeBinaryResponse(body);
      if (!doc.ok()) {
        ConnFailed(i, "malformed binary reply");
        return;
      }
      OnReply(r, doc.ValueOrDie(), now);
    }
    if (!c.dead && c.decoder.broken()) ConnFailed(i, "broken reply stream");
  }

  void OnReply(size_t r, const JsonValue& doc, int64_t now) {
    OpRecord& record = result_.ops[r];
    uint32_t s = record.session;
    Live& live = live_[s];
    live.in_flight = false;
    if (live.done) return;
    if (!doc.BoolOr("ok", false)) {
      std::string error = doc.StringOr("error", "INTERNAL");
      if (error == "RETRY_LATER" || error == "SHUTTING_DOWN") {
        ++result_.shed;
      } else {
        ++result_.error_replies;
      }
      Note(std::string(OpKindName(record.kind)) + ": " + error + " " +
           doc.StringOr("message", ""));
      FailSession(s);
      return;
    }
    const ScriptOp& op = jobs_[s].script->ops[record.index];
    uint64_t got = 0;
    switch (op.kind) {
      case OpKind::kQuery:
        got = static_cast<uint64_t>(doc.IntOr("result_size", -1));
        record.cached = doc.BoolOr("cached", false);
        live.token = doc.StringOr("token", "");
        break;
      case OpKind::kExpand: {
        std::vector<NavNodeId> revealed;
        if (const JsonValue* ids = doc.Find("revealed");
            ids != nullptr && ids->is_array()) {
          for (const JsonValue& id : ids->array_items()) {
            revealed.push_back(static_cast<NavNodeId>(id.number_value()));
          }
        }
        got = RevealedDigest(revealed);
        live.nav_cost += 1 + static_cast<int64_t>(revealed.size());
        live.fingerprint =
            FnvMix(live.fingerprint, static_cast<uint64_t>(op.node));
        for (NavNodeId id : revealed) {
          live.fingerprint = FnvMix(live.fingerprint, id);
        }
        live.fingerprint = FnvMix(live.fingerprint, ~uint64_t{0});
        break;
      }
      case OpKind::kShow: {
        std::vector<uint64_t> pmids;
        if (const JsonValue* list = doc.Find("summaries");
            list != nullptr && list->is_array()) {
          for (const JsonValue& item : list->array_items()) {
            pmids.push_back(static_cast<uint64_t>(item.IntOr("pmid", 0)));
          }
        }
        got = ShowDigest(static_cast<uint64_t>(doc.IntOr("total", -1)), pmids);
        break;
      }
      case OpKind::kBacktrack:
        got = doc.BoolOr("undone", false) ? 1 : 0;
        break;
      case OpKind::kClose:
        got = doc.BoolOr("closed", false) ? 1 : 0;
        break;
    }
    if (got != op.expect) {
      ++result_.mismatches;
      Note(std::string("oracle mismatch on ") + OpKindName(op.kind));
      FailSession(s);
      return;
    }
    ++live.next_op;
    const Script& script = *jobs_[s].script;
    if (live.next_op >= script.ops.size()) {
      SessionTally& out = result_.sessions[s];
      out.nav_cost = live.nav_cost;
      out.fingerprint = live.fingerprint;
      out.completed = true;
      if (live.nav_cost != script.nav_cost ||
          live.fingerprint != script.fingerprint) {
        ++result_.mismatches;
        out.completed = false;
        Note("session cost or cut fingerprint differs from the oracle");
      }
      Done(s);
      return;
    }
    due_.push({now + ThinkNs(options_.spec, jobs_[s].plan.think_seed,
                             live.next_op),
               s});
  }

  void FailSession(uint32_t s) {
    live_[s].in_flight = false;
    Done(s);
  }

  void Done(uint32_t s) {
    if (live_[s].done) return;
    live_[s].done = true;
    if (--remaining_ == 0) loop_.Stop();
  }

  void ConnFailed(size_t i, const std::string& message) {
    Conn& c = conns_[i];
    if (c.dead) return;
    c.dead = true;
    ++result_.transport_errors;
    Note(message);
    loop_.Remove(c.fd);
    ::close(c.fd);
    c.fd = -1;
    for (size_t r : c.pending) FailSession(result_.ops[r].session);
    c.pending.clear();
  }

  const LoadOptions& options_;
  const std::vector<SessionJob>& jobs_;
  EventLoop loop_;
  int timer_fd_ = -1;
  std::vector<Conn> conns_;
  std::vector<Live> live_;
  using Due = std::pair<int64_t, uint32_t>;
  std::priority_queue<Due, std::vector<Due>, std::greater<Due>> due_;
  int64_t deadline_ns_ = 0;
  size_t remaining_ = 0;
  LoadResult result_;
};

}  // namespace

LoadResult RunLoad(const LoadOptions& options,
                   const std::vector<SessionJob>& jobs) {
  Generator generator(options, jobs);
  return generator.Run();
}

}  // namespace navbench
