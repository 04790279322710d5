#include "net/server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace sentinel {
namespace net {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::string(strerror(errno)));
}

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

}  // namespace

WireServer::WireServer(AuthorizationService* service, ServerConfig config)
    : service_(service),
      config_(std::move(config)),
      timer_wheel_(/*tick_ms=*/50, /*slots=*/256) {}

WireServer::~WireServer() { Stop(); }

Status WireServer::Start() {
  if (started_) return Status::FailedPrecondition("server already started");

  // Every failure path releases whatever descriptors are already open —
  // a failed Start leaves the server exactly as before the call.
  const auto fail = [this](Status status) {
    if (listen_fd_ >= 0) close(listen_fd_);
    if (epoll_fd_ >= 0) close(epoll_fd_);
    if (wakeup_fd_ >= 0) close(wakeup_fd_);
    listen_fd_ = epoll_fd_ = wakeup_fd_ = -1;
    listener_armed_ = false;
    return status;
  };

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return fail(Status::InvalidArgument("bad bind address: " +
                                        config_.bind_address));
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail(Errno("bind"));
  }
  if (listen(listen_fd_, config_.backlog) < 0) {
    return fail(Errno("listen"));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  Status nonblocking = SetNonBlocking(listen_fd_);
  if (!nonblocking.ok()) return fail(std::move(nonblocking));

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return fail(Errno("epoll_create1"));
  wakeup_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wakeup_fd_ < 0) return fail(Errno("eventfd"));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return fail(Errno("epoll_ctl(listen)"));
  }
  listener_armed_ = true;
  ev.events = EPOLLIN;
  ev.data.fd = wakeup_fd_;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wakeup_fd_, &ev) < 0) {
    return fail(Errno("epoll_ctl(wakeup)"));
  }

  started_ = true;
  reactor_ = std::thread([this] { ReactorLoop(); });
  return Status::OK();
}

void WireServer::Stop() {
  if (!started_ || joined_) return;
  stop_requested_.store(true, std::memory_order_release);
  const uint64_t one = 1;
  // Failure here only costs latency: the loop also times out on ticks.
  (void)!write(wakeup_fd_, &one, sizeof(one));
  reactor_.join();
  joined_ = true;
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wakeup_fd_ >= 0) close(wakeup_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
  listen_fd_ = wakeup_fd_ = epoll_fd_ = -1;
}

ServerStats WireServer::stats() const {
  ServerStats s;
  s.accepted = stats_.accepted.load(std::memory_order_relaxed);
  s.closed = stats_.closed.load(std::memory_order_relaxed);
  s.active = stats_.active.load(std::memory_order_relaxed);
  s.requests = stats_.requests.load(std::memory_order_relaxed);
  s.decisions = stats_.decisions.load(std::memory_order_relaxed);
  s.batches = stats_.batches.load(std::memory_order_relaxed);
  s.pings = stats_.pings.load(std::memory_order_relaxed);
  s.protocol_errors = stats_.protocol_errors.load(std::memory_order_relaxed);
  s.idle_closed = stats_.idle_closed.load(std::memory_order_relaxed);
  s.bytes_in = stats_.bytes_in.load(std::memory_order_relaxed);
  s.bytes_out = stats_.bytes_out.load(std::memory_order_relaxed);
  return s;
}

int64_t WireServer::NowMs() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ Reactor loop

void WireServer::ReactorLoop() {
  pthread_setname_np(pthread_self(), "net-reactor");
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  int64_t drain_deadline_ms = 0;

  for (;;) {
    if (!draining_ && stop_requested_.load(std::memory_order_acquire)) {
      // Graceful drain: stop accepting, keep the loop alive until every
      // write buffer is flushed (or the drain deadline passes).
      draining_ = true;
      drain_deadline_ms = NowMs() + config_.drain_timeout_ms;
      SetListenerArmed(false);
    }
    if (draining_) {
      bool flushed = true;
      for (auto& [id, conn] : connections_) {
        if (!conn->write_buffer.empty()) {
          flushed = false;
          break;
        }
      }
      if (flushed || NowMs() >= drain_deadline_ms) break;
    }

    const int timeout_ms = static_cast<int>(timer_wheel_.tick_ms());
    const int n = epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0 && errno != EINTR) {
      SENTINEL_LOG(kError) << "epoll_wait: " << strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wakeup_fd_) {
        uint64_t drained;
        (void)!read(wakeup_fd_, &drained, sizeof(drained));
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      const auto it = fd_to_conn_.find(fd);
      if (it == fd_to_conn_.end()) continue;  // Closed earlier this sweep.
      const uint64_t conn_id = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        Connection& conn = *connections_.at(conn_id);
        if (conn.decoder.pending_bytes() > 0 &&
            !conn.decoder.has_buffered_frame()) {
          // Peer died mid-frame: a truncated trailing request. (Complete
          // frames still buffered are not truncation — just unanswerable
          // now that the peer is gone.)
          stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        }
        CloseConnection(conn_id);
        continue;
      }
      if (events[i].events & EPOLLIN) {
        HandleReadable(*connections_.at(conn_id));
      }
      // The read handler may have closed the connection.
      if (connections_.count(conn_id) && (events[i].events & EPOLLOUT)) {
        HandleWritable(*connections_.at(conn_id));
      }
    }

    // Requests decoded this sweep — from every ready connection — fold
    // into (a bounded number of) CheckAccessBatch calls.
    DispatchPending();

    // Connections that pipelined past the per-sweep decode budget still
    // hold complete frames; keep draining/dispatching until they don't.
    RedrainBacklog();

    HarvestIdle();
  }

  // Loop exit: close everything that remains. A hard epoll failure lands
  // here without the drain flag — set it so CloseConnection does not
  // re-arm the listener we are abandoning.
  draining_ = true;
  std::vector<uint64_t> ids;
  ids.reserve(connections_.size());
  for (auto& [id, conn] : connections_) ids.push_back(id);
  for (const uint64_t id : ids) CloseConnection(id);
}

void WireServer::AcceptReady() {
  for (;;) {
    if (connections_.size() >= config_.max_connections) {
      // A ready listener we refuse to accept from would wake every
      // (level-triggered) epoll_wait — de-register it until a slot
      // frees; CloseConnection re-arms.
      SetListenerArmed(false);
      return;
    }
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      SENTINEL_LOG(kWarning) << "accept: " << strerror(errno);
      return;
    }
    const int one = 1;
    (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>(config_.max_frame_bytes);
    conn->fd = fd;
    conn->id = next_conn_id_++;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      SENTINEL_LOG(kWarning) << "epoll_ctl(conn): " << strerror(errno);
      close(fd);
      continue;
    }
    fd_to_conn_[fd] = conn->id;
    ArmIdleTimer(*conn);
    connections_.emplace(conn->id, std::move(conn));
    stats_.accepted.fetch_add(1, std::memory_order_relaxed);
    stats_.active.store(connections_.size(), std::memory_order_relaxed);
  }
}

void WireServer::HandleReadable(Connection& conn) {
  char chunk[16 * 1024];
  bool peer_closed = false;
  for (;;) {
    const ssize_t got = read(conn.fd, chunk, sizeof(chunk));
    if (got > 0) {
      stats_.bytes_in.fetch_add(static_cast<uint64_t>(got),
                                std::memory_order_relaxed);
      conn.decoder.Feed(chunk, static_cast<size_t>(got));
      continue;
    }
    if (got == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;  // Hard error: treat as EOF.
    break;
  }
  ArmIdleTimer(conn);
  if (!DrainFrames(conn)) return;  // conn destroyed during the drain
  if (peer_closed) {
    if (conn.decoder.pending_bytes() > 0 &&
        !conn.decoder.has_buffered_frame()) {
      // EOF mid-frame: truncated trailing request, no way to answer it.
      // (Complete frames still buffered beyond the decode budget are not
      // truncation — the redrain pass will answer them.)
      stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
    }
    // Answer what was fully received, then close: flushing happens when
    // the pending batch distributes. Mark rather than close immediately.
    conn.close_after_flush = true;
    if (conn.write_buffer.empty() && !conn.decoder.has_buffered_frame() &&
        !HasPendingFor(conn.id)) {
      CloseConnection(conn.id);
    }
  }
}

bool WireServer::HasPendingFor(uint64_t conn_id) const {
  for (const PendingRef& ref : pending_refs_) {
    if (ref.conn_id == conn_id) return true;
  }
  return false;
}

bool WireServer::DrainFrames(Connection& conn) {
  wire::FrameView frame;
  wire::ProtocolError error;
  for (;;) {
    // Chunk guard: with max_batch already decoded and undispatched, stop
    // decoding — remaining frames stay buffered, and RedrainBacklog
    // revisits this decoder after each DispatchPending until it holds no
    // complete frame.
    if (pending_requests_.size() >= config_.max_batch) return true;
    switch (conn.decoder.Poll(&frame, &error)) {
      case FrameDecoder::Next::kNeedMore:
        return true;
      case FrameDecoder::Next::kError: {
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        // Framing-level failure: there is no decoded frame to attribute,
        // so the error carries request_id 0 ("not request-scoped") rather
        // than echoing a stale or uninitialized id.
        wire::EncodeError(0, error.code, error.message,
                          conn.write_buffer.tail());
        if (error.fatal) {
          // Framing poisoned: flush the error and close. Requests already
          // decoded still get answers (their refs are queued).
          conn.close_after_flush = true;
          return FlushConnection(conn);
        }
        if (!FlushConnection(conn)) return false;
        continue;
      }
      case FrameDecoder::Next::kFrame:
        break;
    }
    switch (frame.type) {
      case wire::MsgType::kCheckRequest: {
        wire::CheckRequestMsg msg;
        if (!wire::DecodeCheckRequest(frame, &msg, &error)) {
          stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
          wire::EncodeError(frame.request_id, error.code, error.message,
                            conn.write_buffer.tail());
          if (error.fatal) {
            conn.close_after_flush = true;
            return FlushConnection(conn);
          }
          if (!FlushConnection(conn)) return false;
          continue;
        }
        stats_.requests.fetch_add(1, std::memory_order_relaxed);
        pending_requests_.push_back(std::move(msg.request));
        pending_refs_.push_back(PendingRef{conn.id, msg.request_id});
        continue;
      }
      case wire::MsgType::kPing:
        stats_.pings.fetch_add(1, std::memory_order_relaxed);
        wire::EncodePong(frame.request_id, conn.write_buffer.tail());
        if (!FlushConnection(conn)) return false;
        continue;
      case wire::MsgType::kDecision:
      case wire::MsgType::kPong:
      case wire::MsgType::kError:
      default: {
        // Clients must not send server->client messages; unknown ids are
        // future protocol. Both are request-scoped: framing is intact.
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
        wire::EncodeError(frame.request_id, wire::WireError::kUnknownMessageType,
                          "unexpected message type " +
                              std::to_string(frame.raw_type),
                          conn.write_buffer.tail());
        if (!FlushConnection(conn)) return false;
        continue;
      }
    }
  }
}

void WireServer::DispatchPending() {
  while (!pending_requests_.empty()) {
    const size_t n = std::min(pending_requests_.size(), config_.max_batch);
    decisions_scratch_.assign(n, AccessDecision{});
    stats_.batches.fetch_add(1, std::memory_order_relaxed);
    // The reactor thread blocks here — bounded by the service's overload
    // policy and per-request deadlines, never by another reactor duty.
    service_->CheckAccessBatchInto(
        std::span<const AccessRequest>(pending_requests_.data(), n),
        std::span<AccessDecision>(decisions_scratch_.data(), n));
    for (size_t i = 0; i < n; ++i) {
      const PendingRef& ref = pending_refs_[i];
      const auto it = connections_.find(ref.conn_id);
      if (it == connections_.end()) continue;  // Closed while we decided.
      Connection& conn = *it->second;
      const Status encoded = wire::EncodeDecision(
          ref.request_id, decisions_scratch_[i], conn.write_buffer.tail());
      if (!encoded.ok()) {
        wire::EncodeError(ref.request_id, wire::WireError::kFieldTooLong,
                          encoded.message(), conn.write_buffer.tail());
        stats_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
      } else {
        stats_.decisions.fetch_add(1, std::memory_order_relaxed);
      }
    }
    pending_requests_.erase(pending_requests_.begin(),
                            pending_requests_.begin() + n);
    pending_refs_.erase(pending_refs_.begin(), pending_refs_.begin() + n);
    // Flush every connection the batch touched (and settle EOF closes).
    std::vector<uint64_t> touched;
    for (auto& [id, conn] : connections_) {
      if (!conn->write_buffer.empty() || conn->close_after_flush) {
        touched.push_back(id);
      }
    }
    for (const uint64_t id : touched) {
      const auto it = connections_.find(id);
      if (it != connections_.end()) (void)FlushConnection(*it->second);
    }
  }
}

void WireServer::RedrainBacklog() {
  for (;;) {
    redrain_scratch_.clear();
    for (auto& [id, conn] : connections_) {
      if (conn->decoder.has_buffered_frame()) redrain_scratch_.push_back(id);
    }
    if (redrain_scratch_.empty()) return;
    for (const uint64_t id : redrain_scratch_) {
      const auto it = connections_.find(id);
      if (it != connections_.end()) (void)DrainFrames(*it->second);
    }
    // Each round either consumes buffered frames outright or fills
    // pending_ to max_batch and answers it here — the backlog strictly
    // shrinks, so this loop terminates.
    DispatchPending();
  }
}

bool WireServer::FlushConnection(Connection& conn) {
  while (!conn.write_buffer.empty()) {
    const std::string_view bytes = conn.write_buffer.readable();
    const ssize_t wrote = write(conn.fd, bytes.data(), bytes.size());
    if (wrote > 0) {
      stats_.bytes_out.fetch_add(static_cast<uint64_t>(wrote),
                                 std::memory_order_relaxed);
      conn.write_buffer.Consume(static_cast<size_t>(wrote));
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      UpdateEpollOut(conn, true);
      return true;
    }
    if (wrote < 0 && errno == EINTR) continue;
    // Peer gone mid-write: `conn` is destroyed here, so report that to
    // the caller — it must not touch the connection again.
    CloseConnection(conn.id);
    return false;
  }
  UpdateEpollOut(conn, false);
  if (conn.close_after_flush && !HasPendingFor(conn.id) &&
      !conn.decoder.has_buffered_frame()) {
    CloseConnection(conn.id);
    return false;
  }
  return true;
}

void WireServer::HandleWritable(Connection& conn) {
  (void)FlushConnection(conn);
}

void WireServer::UpdateEpollOut(Connection& conn, bool want) {
  if (conn.wants_writable == want) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0) {
    conn.wants_writable = want;
  }
}

void WireServer::CloseConnection(uint64_t conn_id) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  fd_to_conn_.erase(conn.fd);
  close(conn.fd);
  connections_.erase(it);
  stats_.closed.fetch_add(1, std::memory_order_relaxed);
  stats_.active.store(connections_.size(), std::memory_order_relaxed);
  // A freed slot lets the (possibly de-armed) listener accept again.
  if (!draining_ && connections_.size() < config_.max_connections) {
    SetListenerArmed(true);
  }
}

void WireServer::SetListenerArmed(bool armed) {
  if (listener_armed_ == armed) return;
  if (armed) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
      SENTINEL_LOG(kWarning) << "epoll_ctl(re-arm listen): "
                             << strerror(errno);
      return;
    }
  } else if (epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr) < 0) {
    SENTINEL_LOG(kWarning) << "epoll_ctl(de-arm listen): "
                           << strerror(errno);
    return;
  }
  listener_armed_ = armed;
}

void WireServer::ArmIdleTimer(Connection& conn) {
  if (config_.idle_timeout_ms <= 0) return;
  const int64_t deadline = NowMs() + config_.idle_timeout_ms;
  // Lazy cancellation: only re-schedule in the wheel when the armed entry
  // would fire early; HarvestIdle re-arms lapped entries.
  const bool rearm = conn.idle_deadline_ms == 0;
  conn.idle_deadline_ms = deadline;
  if (rearm) timer_wheel_.Schedule(conn.id, deadline);
}

void WireServer::HarvestIdle() {
  if (config_.idle_timeout_ms <= 0) return;
  expired_scratch_.clear();
  timer_wheel_.Advance(NowMs(), &expired_scratch_);
  const int64_t now_ms = NowMs();
  for (const TimerWheel::Entry& entry : expired_scratch_) {
    const auto it = connections_.find(entry.key);
    if (it == connections_.end()) continue;  // Closed; entry is stale.
    Connection& conn = *it->second;
    if (conn.idle_deadline_ms > now_ms) {
      // Activity since this entry was armed — lazy cancel + re-arm.
      timer_wheel_.Schedule(conn.id, conn.idle_deadline_ms);
      continue;
    }
    stats_.idle_closed.fetch_add(1, std::memory_order_relaxed);
    CloseConnection(conn.id);
  }
}

}  // namespace net
}  // namespace sentinel
