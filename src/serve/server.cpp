#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "json/json.hpp"
#include "util/errors.hpp"

namespace quml::serve {

namespace {

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

json::Value error_response(const std::string& code, const std::string& detail) {
  json::Value doc = json::Value::object();
  doc.set("ok", false);
  doc.set("code", code);
  doc.set("detail", detail);
  return doc;
}

}  // namespace

json::Value result_response(const JobInfo& info) {
  json::Value doc = json::Value::object();
  doc.set("ok", true);
  doc.set("op", "result");
  doc.set("ticket", info.ticket);
  doc.set("status", info.status);
  doc.set("engine", info.engine);
  doc.set("attempts", static_cast<std::int64_t>(info.attempts));
  if (!info.error.empty()) doc.set("error", info.error);
  if (info.result) {
    doc.set("counts", info.result->counts.to_json());
    doc.set("metadata", info.result->metadata);
  }
  return doc;
}

Server::Server(JobDaemon& daemon, ServerConfig config)
    : daemon_(daemon), config_(std::move(config)) {
  try {
    int pipe_fds[2] = {-1, -1};
    if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
      throw BackendError(std::string("serve: pipe2 failed: ") + std::strerror(errno));
    }
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];

    if (!config_.unix_path.empty()) {
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (config_.unix_path.size() >= sizeof(addr.sun_path)) {
        throw BackendError("serve: unix socket path too long: " + config_.unix_path);
      }
      std::memcpy(addr.sun_path, config_.unix_path.c_str(), config_.unix_path.size() + 1);
      unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (unix_fd_ < 0) {
        throw BackendError(std::string("serve: socket(AF_UNIX) failed: ") + std::strerror(errno));
      }
      ::unlink(config_.unix_path.c_str());  // a stale socket file would EADDRINUSE
      if (::bind(unix_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
          ::listen(unix_fd_, 128) != 0) {
        throw BackendError("serve: cannot listen on " + config_.unix_path + ": " +
                           std::strerror(errno));
      }
    }

    if (config_.tcp) {
      tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (tcp_fd_ < 0) {
        throw BackendError(std::string("serve: socket(AF_INET) failed: ") + std::strerror(errno));
      }
      const int one = 1;
      ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
      addr.sin_port = htons(static_cast<std::uint16_t>(config_.tcp_port));
      if (::bind(tcp_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
          ::listen(tcp_fd_, 128) != 0) {
        throw BackendError(std::string("serve: cannot listen on 127.0.0.1:") +
                           std::to_string(config_.tcp_port) + ": " + std::strerror(errno));
      }
      sockaddr_in bound{};
      socklen_t len = sizeof(bound);
      if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
        tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
      }
    }

    if (unix_fd_ < 0 && tcp_fd_ < 0) {
      throw BackendError("serve: server configured with no listener (set unix_path or tcp)");
    }
  } catch (...) {
    close_fd(unix_fd_);
    close_fd(tcp_fd_);
    close_fd(wake_read_fd_);
    close_fd(wake_write_fd_);
    throw;
  }

  daemon_.set_settle_callback(
      [this](const JobInfo& info, const svc::JobHandle& job) { on_settle_(info, job); });
}

Server::~Server() { stop(); }

void Server::start() {
  if (thread_.joinable()) return;
  stop_flag_.store(false);
  thread_ = std::thread([this] { loop_(); });
}

void Server::stop() {
  // Unhook first: once this returns, no settle callback is in flight, so
  // closing the wake pipe below cannot race a wake_() write.
  daemon_.set_settle_callback({});
  if (thread_.joinable()) {
    stop_flag_.store(true);
    wake_();
    thread_.join();
  }
  for (auto& [serial, session] : sessions_) close_fd(session.fd);
  sessions_.clear();
  close_fd(unix_fd_);
  close_fd(tcp_fd_);
  close_fd(wake_read_fd_);
  close_fd(wake_write_fd_);
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
}

void Server::wake_() {
  if (wake_write_fd_ < 0) return;
  const char byte = 1;
  // EAGAIN means the pipe already holds unread wake bytes — good enough.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void Server::on_settle_(const JobInfo& info, const svc::JobHandle& job) {
  // Runs on a service worker: a settle nobody waits for costs one lookup,
  // not a result copy or encode.
  std::vector<std::uint64_t> serials;
  {
    MutexLock lock(mutex_);
    const auto it = waiters_.find(info.ticket);
    if (it == waiters_.end()) return;
    serials = std::move(it->second);
    waiters_.erase(it);
  }
  JobInfo settled = info;
  if (job.valid() && job.status() == svc::JobStatus::Done) settled.result = job.result();
  std::string payload = json::dump(result_response(settled));
  if (payload.size() > config_.limits.max_frame_bytes) {
    // A counts payload wider than the frame limit cannot be framed; the
    // waiter gets a ticket-bearing error instead of the daemon a crash.
    json::Value doc = error_response(
        "OVERSIZED_RESPONSE", "settled result exceeds the frame limit of " +
                                  std::to_string(config_.limits.max_frame_bytes) +
                                  " bytes; raise max_frame_bytes or lower exec.samples");
    doc.set("op", "result");
    doc.set("ticket", info.ticket);
    doc.set("status", info.status);
    payload = json::dump(doc);
  }
  {
    MutexLock lock(mutex_);
    for (const std::uint64_t serial : serials) deferred_.emplace_back(serial, payload);
  }
  wake_();
}

void Server::loop_() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> serial_of;  // parallel to fds; 0 = not a session
  while (!stop_flag_.load()) {
    fds.clear();
    serial_of.clear();
    if (unix_fd_ >= 0) {
      fds.push_back({unix_fd_, POLLIN, 0});
      serial_of.push_back(0);
    }
    if (tcp_fd_ >= 0) {
      fds.push_back({tcp_fd_, POLLIN, 0});
      serial_of.push_back(0);
    }
    fds.push_back({wake_read_fd_, POLLIN, 0});
    serial_of.push_back(0);
    for (const auto& [serial, session] : sessions_) {
      short events = 0;
      // Backpressure: a session whose outbuf sits at its cap is not read
      // until the client drains responses; a half-closed peer is never read.
      if (!session.peer_eof && session.outbuf.size() < config_.max_outbuf_bytes) {
        events |= POLLIN;
      }
      if (!session.outbuf.empty()) events |= POLLOUT;
      fds.push_back({session.fd, events, 0});
      serial_of.push_back(serial);
    }

    const int ready = ::poll(fds.data(), fds.size(), 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // unrecoverable poll failure; the daemon keeps running
    }
    if (stop_flag_.load()) break;

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const int fd = fds[i].fd;
      if (fd == wake_read_fd_) {
        char buf[64];
        while (::read(wake_read_fd_, buf, sizeof buf) > 0) {
        }
        continue;
      }
      if (fd == unix_fd_ || fd == tcp_fd_) {
        accept_ready_(fd);
        continue;
      }
      const auto it = sessions_.find(serial_of[i]);
      if (it == sessions_.end()) continue;  // closed earlier this sweep
      Session& session = it->second;
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        if (!read_ready_(session)) continue;  // session erased
      }
      // Alternate flushing and decoding: frames parked in the decoder while
      // the outbuf sat at its cap are answered as the flushes drain it.  The
      // decoder's input is fixed for this sweep, so the loop terminates.
      for (;;) {
        if (!session.outbuf.empty() && !flush_(session)) break;  // erased
        if (!session.outbuf.empty()) break;  // kernel buffer full; POLLOUT resumes
        if (!process_frames_(session)) break;  // erased
        if (session.outbuf.empty()) break;     // decoder ran dry
      }
    }
    drain_deferred_();
  }
}

void Server::accept_ready_(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN / transient — poll will call again
    if (sessions_.size() >= config_.max_sessions) {
      ::close(fd);  // over capacity: shed the connection outright
      continue;
    }
    Session session;
    session.fd = fd;
    session.serial = next_serial_++;
    session.decoder = FrameDecoder(config_.limits);
    sessions_.emplace(session.serial, std::move(session));
  }
}

bool Server::read_ready_(Session& session) {
  char buf[4096];
  bool eof = false;
  for (;;) {
    const ssize_t n = ::read(session.fd, buf, sizeof buf);
    if (n > 0) {
      session.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    eof = true;  // hard error: treat as disconnect
    break;
  }

  if (!process_frames_(session)) return false;

  if (eof) {
    // Half-close: the peer may have shut down its write side but still be
    // reading.  Flush whatever the final sweep produced (a submit ticket, a
    // BAD_FRAME verdict) rather than discarding it; flush_ closes the
    // session once the outbuf drains.
    session.peer_eof = true;
    session.closing = true;
    return flush_(session);
  }
  return true;
}

bool Server::process_frames_(Session& session) {
  if (!session.closing) {
    try {
      // Stop at the outbuf cap: unread frames stay buffered in the decoder
      // and are decoded once the client drains its responses.
      while (session.outbuf.size() < config_.max_outbuf_bytes) {
        const auto payload = session.decoder.next();
        if (!payload) break;
        handle_payload_(session, *payload);
      }
    } catch (const FrameError& e) {
      // The stream is unrecoverable past a framing violation: answer once
      // (best effort) and flush-then-close.
      enqueue_response_(session, error_response("BAD_FRAME", e.what()));
      session.closing = true;
    } catch (const Error& e) {
      // Operational failure inside the daemon (e.g. journal I/O) must not
      // unwind the poll thread and kill every tenant: report to this
      // session and close it alone.
      enqueue_response_(session, error_response("INTERNAL", e.what()));
      session.closing = true;
    }
  }
  if (session.closing && session.outbuf.empty()) {
    close_session_(session);
    return false;
  }
  return true;
}

bool Server::flush_(Session& session) {
  while (!session.outbuf.empty()) {
    const ssize_t n =
        ::send(session.fd, session.outbuf.data(), session.outbuf.size(), MSG_NOSIGNAL);
    if (n > 0) {
      session.outbuf.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;  // POLLOUT will resume
    close_session_(session);
    return false;
  }
  if (session.closing) {
    close_session_(session);
    return false;
  }
  return true;
}

void Server::close_session_(Session& session) {
  close_fd(session.fd);
  sessions_.erase(session.serial);  // invalidates `session`
}

void Server::enqueue_response_(Session& session, const json::Value& response) {
  enqueue_payload_(session, json::dump(response));
}

void Server::enqueue_payload_(Session& session, std::string_view payload) {
  const Framing framing = session.decoder.framing().value_or(Framing::Newline);
  try {
    session.outbuf += encode_frame(payload, framing, config_.limits);
    return;
  } catch (const FrameError&) {
    // The response itself violates the frame limit; fall through to a
    // bounded substitute — an exception here would kill the poll thread.
  }
  try {
    session.outbuf += encode_frame(
        json::dump(error_response("OVERSIZED_RESPONSE",
                                  "response exceeds the frame limit of " +
                                      std::to_string(config_.limits.max_frame_bytes) + " bytes")),
        framing, config_.limits);
  } catch (const FrameError&) {
    session.closing = true;  // not even the error fits: drop the session
  }
}

void Server::drain_deferred_() {
  std::vector<std::pair<std::uint64_t, std::string>> batch;
  {
    MutexLock lock(mutex_);
    batch.swap(deferred_);
  }
  for (auto& [serial, payload] : batch) {
    const auto it = sessions_.find(serial);
    if (it == sessions_.end()) continue;  // waiter disconnected; drop
    Session& session = it->second;
    enqueue_payload_(session, payload);
    flush_(session);
  }
}

void Server::handle_payload_(Session& session, const std::string& payload) {
  json::Value request;
  try {
    request = json::parse(payload);
  } catch (const Error& e) {
    enqueue_response_(session, error_response("BAD_REQUEST", e.what()));
    return;
  }
  if (!request.is_object()) {
    enqueue_response_(session, error_response("BAD_REQUEST", "request must be a JSON object"));
    return;
  }
  const std::string op = request.get_string("op", "");

  if (op == "ping") {
    json::Value doc = json::Value::object();
    doc.set("ok", true);
    doc.set("op", "pong");
    enqueue_response_(session, doc);
    return;
  }

  if (op == "hello") {
    const std::string tenant = request.get_string("tenant", "");
    if (tenant.empty()) {
      enqueue_response_(session, error_response("BAD_REQUEST", "hello requires a tenant name"));
      return;
    }
    session.tenant = tenant;
    json::Value doc = json::Value::object();
    doc.set("ok", true);
    doc.set("op", "hello");
    doc.set("tenant", tenant);
    doc.set("framing", to_string(session.decoder.framing().value_or(Framing::Newline)));
    enqueue_response_(session, doc);
    return;
  }

  if (op != "submit" && op != "status" && op != "result" && op != "stats") {
    enqueue_response_(session, error_response("BAD_REQUEST", "unknown op '" + op + "'"));
    return;
  }
  if (session.tenant.empty()) {
    enqueue_response_(session,
                      error_response("NO_HELLO", "send {\"op\":\"hello\",\"tenant\":...} first"));
    return;
  }

  if (op == "submit") {
    const json::Value* bundle_doc = request.find("bundle");
    if (bundle_doc == nullptr) {
      enqueue_response_(session, error_response("BAD_REQUEST", "submit requires a bundle"));
      return;
    }
    core::JobBundle bundle;
    try {
      bundle = core::JobBundle::from_json(*bundle_doc);
    } catch (const Error& e) {
      enqueue_response_(session, error_response("BAD_BUNDLE", e.what()));
      return;
    }
    const SubmitReply reply = daemon_.submit(session.tenant, std::move(bundle));
    if (reply.outcome == SubmitOutcome::Accepted) {
      json::Value doc = json::Value::object();
      doc.set("ok", true);
      doc.set("op", "submit");
      doc.set("ticket", reply.ticket);
      doc.set("status", "QUEUED");
      enqueue_response_(session, doc);
    } else {
      enqueue_response_(session, error_response(to_string(reply.outcome), reply.detail));
    }
    return;
  }

  const auto ticket = static_cast<std::uint64_t>(request.get_int("ticket", 0));

  if (op == "status") {
    const JobInfo info = daemon_.status(session.tenant, ticket);
    if (!info.known) {
      enqueue_response_(session,
                        error_response("UNKNOWN_JOB", "no such ticket for this tenant"));
      return;
    }
    json::Value doc = json::Value::object();
    doc.set("ok", true);
    doc.set("op", "status");
    doc.set("ticket", ticket);
    doc.set("status", info.status);
    doc.set("engine", info.engine);
    doc.set("attempts", static_cast<std::int64_t>(info.attempts));
    if (!info.error.empty()) doc.set("error", info.error);
    enqueue_response_(session, doc);
    return;
  }

  if (op == "result") {
    // Ownership check before any waiter exists: foreign tickets can never
    // have a deferred response queued for this session.  The result is
    // copied only by the snapshot a reply is encoded from: a non-waiting
    // request answers from this one, a waiting one from the re-check below.
    const bool wait = request.get_bool("wait", true);
    JobInfo info =
        wait ? daemon_.status(session.tenant, ticket) : daemon_.info(session.tenant, ticket);
    if (!info.known) {
      enqueue_response_(session,
                        error_response("UNKNOWN_JOB", "no such ticket for this tenant"));
      return;
    }
    const auto settled = [](const JobInfo& snapshot) {
      return snapshot.status == "DONE" || snapshot.status == "FAILED" ||
             snapshot.status == "CANCELLED";
    };
    if (!wait) {
      if (settled(info)) {
        enqueue_response_(session, result_response(info));
      } else {
        json::Value doc = error_response("PENDING", "job has not settled yet");
        doc.set("status", info.status);
        enqueue_response_(session, doc);
      }
      return;
    }
    // Park first, re-check second: a settle between the two queues the
    // deferred response and removes the waiter, so exactly one reply goes
    // out either way.
    {
      MutexLock lock(mutex_);
      waiters_[ticket].push_back(session.serial);
    }
    info = daemon_.info(session.tenant, ticket);
    if (settled(info)) {
      bool respond_inline = false;
      {
        MutexLock lock(mutex_);
        const auto it = waiters_.find(ticket);
        if (it != waiters_.end()) {
          auto& list = it->second;
          const auto pos = std::find(list.begin(), list.end(), session.serial);
          if (pos != list.end()) {
            list.erase(pos);
            if (list.empty()) waiters_.erase(it);
            respond_inline = true;
          }
        }
      }
      if (respond_inline) enqueue_response_(session, result_response(info));
    }
    return;
  }

  // op == "stats"
  const JobDaemon::Stats stats = daemon_.stats();
  json::Value doc = json::Value::object();
  doc.set("ok", true);
  doc.set("op", "stats");
  doc.set("accepted", stats.accepted);
  doc.set("rejected", stats.rejected);
  doc.set("shed", stats.shed);
  doc.set("settled", stats.settled);
  doc.set("replayed", stats.replayed);
  doc.set("queued", static_cast<std::int64_t>(stats.queued));
  doc.set("in_flight", static_cast<std::int64_t>(stats.in_flight));
  doc.set("sessions", static_cast<std::int64_t>(sessions_.size()));
  enqueue_response_(session, doc);
}

}  // namespace quml::serve
