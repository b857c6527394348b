#include "serve_client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "json/json.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

using namespace quml;

namespace {

std::runtime_error sys_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

/// Reads whatever the child wrote to stdout; false at EOF or on error.
bool drain_fd(int fd, std::string& sink, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  const int ready = ::poll(&p, 1, timeout_ms);
  if (ready <= 0) return ready == 0;  // timeout: still open
  char buf[4096];
  const ssize_t n = ::read(fd, buf, sizeof buf);
  if (n > 0) {
    sink.append(buf, static_cast<std::size_t>(n));
    return true;
  }
  return n < 0 && errno == EINTR;
}

}  // namespace

DaemonProcess::DaemonProcess(const std::string& binary, const std::string& work_dir, int serial,
                             double& setup_s) {
  const std::string stem = work_dir + "/serve-" + std::to_string(::getpid()) + "-" +
                           std::to_string(serial);
  socket_path_ = stem + ".sock";
  store_path_ = stem + ".ndjson";
  std::remove(store_path_.c_str());

  int pipe_fds[2] = {-1, -1};
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw sys_error("pipe2");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);

  std::vector<std::string> args = {binary,         "--store",  store_path_,
                                   "--unix",       socket_path_, "--tenant",
                                   "tenant-a:1",   "--tenant", "tenant-b:2"};
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const Clock::time_point t0 = Clock::now();
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  stdout_fd_ = pipe_fds[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(stdout_fd_);
    stdout_fd_ = -1;
    errno = rc;
    throw sys_error("posix_spawn " + binary);
  }

  // The daemon prints its listening line only once the socket accepts.
  std::string out;
  const Clock::time_point deadline = t0 + std::chrono::seconds(30);
  while (out.find("listening on unix:") == std::string::npos) {
    if (Clock::now() > deadline || !drain_fd(stdout_fd_, out, 100)) {
      stop();
      throw std::runtime_error("quml_serve did not come up; its output: " + out);
    }
  }
  serve::Client client = serve::Client::connect_unix(socket_path_);
  const json::Value pong = client.ping();
  setup_s = seconds_between(t0, Clock::now());
  if (pong.get_string("op", "") != "pong") {
    stop();
    throw std::runtime_error("quml_serve answered ping with " + json::dump(pong));
  }
}

DaemonProcess::~DaemonProcess() { stop(); }

double DaemonProcess::peak_rss_mb() const { return pid_ > 0 ? perfbench::peak_rss_mb(pid_) : -1.0; }

bool DaemonProcess::stop() {
  if (pid_ <= 0) return exit_ok_;
  ::kill(pid_, SIGTERM);
  // Keep reading its stdout so the drain messages never block on a full
  // pipe, until it exits or the grace period ends.
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(20);
  int status = 0;
  std::string sink;
  for (;;) {
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) break;
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    if (stdout_fd_ >= 0 && !drain_fd(stdout_fd_, sink, 20)) {
      ::close(stdout_fd_);
      stdout_fd_ = -1;
    } else if (stdout_fd_ < 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
  stdout_fd_ = -1;
  pid_ = -1;
  exit_ok_ = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  std::remove(store_path_.c_str());
  std::remove(socket_path_.c_str());
  return exit_ok_;
}

namespace {

/// A pre-encoded frame with one integer field left open.
struct Splice {
  std::string head;
  std::string tail;
  std::string with(std::uint64_t value) const { return head + std::to_string(value) + tail; }
};

constexpr std::uint64_t kSentinel = 987654321987654ull;

Splice make_splice(const json::Value& doc) {
  const std::string frame = serve::encode_frame(json::dump(doc), serve::Framing::Newline);
  const std::string marker = std::to_string(kSentinel);
  const std::size_t pos = frame.find(marker);
  if (pos == std::string::npos || frame.find(marker, pos + 1) != std::string::npos)
    throw std::logic_error("splice marker must occur exactly once");
  return Splice{frame.substr(0, pos), frame.substr(pos + marker.size())};
}

int connect_nonblocking(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw sys_error("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw sys_error("connect " + path);
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Connections the generator multiplexes: 4, but never more than the host
/// has cores.
int generator_connections() {
  return static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}
/// Warm-up gate (see SteadyGate): 0.5 s windows within 10 %, at least 2 s
/// and twice the daemon's default settled_retention (4096) in jobs: until
/// then its record map only grows, after that eviction keeps it level.
constexpr double kWindowS = 0.5;
constexpr double kTolerance = 0.10;
constexpr double kMinWarmupS = 2.0;
constexpr std::uint64_t kMinWarmupJobs = 8192;
/// The reported figures are medians over 1 s slices of the timed window.
constexpr double kSliceS = 1.0;

enum class Phase { Hello, Submit, Status, Result, Idle, Dead };

struct Conn {
  int fd = -1;
  serve::FrameDecoder decoder;
  Phase phase = Phase::Hello;
  std::uint64_t job = 0;
  std::uint64_t ticket = 0;
  Clock::time_point submitted;
  bool timed = false;
  Tracer::Id job_span = Tracer::kNone;
  Tracer::Id trip_span = Tracer::kNone;
  std::string out;
  std::size_t out_off = 0;
};

std::int64_t counts_total(const json::Value& counts) {
  std::int64_t total = 0;
  for (const auto& [key, value] : counts.as_object()) total += value.as_int();
  return total;
}

}  // namespace

ServeLoopResult run_serve_loop(const std::string& socket_path, const ServeLoopOptions& options) {
  ServeLoopResult result;
  LoopStats& loop = result.loop;

  // Set-up: every frame shape encoded once.
  std::vector<Splice> submit_frames;
  for (unsigned width = 3; width <= 5; ++width) {
    json::Value doc = json::Value::object();
    doc.set("op", "submit");
    doc.set("bundle", serve::make_load_bundle(width, kServeShots, kSentinel, kGateEngine,
                                              "serve-w" + std::to_string(width))
                          .to_json());
    submit_frames.push_back(make_splice(doc));
  }
  const auto ticket_frame = [](const char* op, bool wait) {
    json::Value doc = json::Value::object();
    doc.set("op", op);
    doc.set("ticket", kSentinel);
    if (wait) doc.set("wait", true);
    return make_splice(doc);
  };
  const Splice status_frame = ticket_frame("status", false);
  const Splice result_frame = ticket_frame("result", true);

  std::vector<Conn> conns(static_cast<std::size_t>(generator_connections()));
  for (std::size_t i = 0; i < conns.size(); ++i) {
    conns[i].fd = connect_nonblocking(socket_path);
    json::Value hello = json::Value::object();
    hello.set("op", "hello");
    hello.set("tenant", kTenants[i % 2]);
    conns[i].out = serve::encode_frame(json::dump(hello), serve::Framing::Newline);
  }

  enum class Stage { Warmup, Timed, Draining } stage = Stage::Warmup;
  SteadyGate gate(kTolerance, kMinWarmupS, options.max_warmup_s, kMinWarmupJobs);
  std::uint64_t next_job = 0;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point window_start = t0;
  std::uint64_t window_completions = 0;
  Clock::time_point t_start{};
  Clock::time_point t_end{};
  Clock::time_point last_progress = t0;

  const auto flush = [&](Conn& c) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        return false;
      }
    }
    c.out.clear();
    c.out_off = 0;
    return true;
  };
  const auto send_frame = [&](Conn& c, std::string frame) {
    c.out = std::move(frame);
    c.out_off = 0;
    return flush(c);
  };
  Tracer* const tracer = options.tracer;
  // Closes the open round trip and opens the next one (`next` null: none).
  const auto next_trip = [&](Conn& c, const char* next) {
    if (!tracer) return;
    if (c.trip_span != Tracer::kNone) tracer->end(c.trip_span);
    c.trip_span = next ? tracer->begin(next, c.job, c.job_span) : Tracer::kNone;
    if (!next && c.job_span != Tracer::kNone) {
      tracer->end(c.job_span);
      c.job_span = Tracer::kNone;
    }
  };
  const auto start_job = [&](Conn& c) {
    if (stage == Stage::Draining) {
      c.phase = Phase::Idle;
      return true;
    }
    c.job = next_job++;
    ++loop.attempted;
    c.phase = Phase::Submit;
    c.timed = stage == Stage::Timed;
    c.submitted = Clock::now();
    if (tracer) {
      c.job_span = tracer->record("job", c.job, Tracer::kNone, c.submitted, {});
      next_trip(c, "wire.submit");
    }
    return send_frame(c, submit_frames[serve_width(c.job) - 3].with(serve_job_seed(options.seed, c.job)));
  };
  const auto kill_conn = [&](Conn& c, const std::string& why) {
    if (c.phase == Phase::Submit || c.phase == Phase::Status || c.phase == Phase::Result)
      ++loop.failed;
    result.errors.push_back(why);
    ::close(c.fd);
    c.fd = -1;
    c.phase = Phase::Dead;
  };

  // One reply on `c`: advance its job; false drops the connection.
  const auto on_reply = [&](Conn& c, const std::string& payload, Clock::time_point now) {
    const json::Value reply = json::parse(payload);
    const bool ok = reply.get_bool("ok", false);
    switch (c.phase) {
      case Phase::Hello:
        if (!ok) throw std::runtime_error("hello refused: " + payload);
        return start_job(c);
      case Phase::Submit:
        next_trip(c, ok ? "wire.status" : nullptr);
        if (!ok) {  // SHED, REJECTED, BAD_BUNDLE: the job failed
          ++loop.failed;
          if (result.errors.size() < 8) result.errors.push_back("submit: " + payload);
          return start_job(c);
        }
        c.ticket = static_cast<std::uint64_t>(reply.get_int("ticket", 0));
        c.phase = Phase::Status;
        return send_frame(c, status_frame.with(c.ticket));
      case Phase::Status:
        next_trip(c, ok ? "wire.result" : nullptr);
        if (!ok) {
          ++loop.failed;
          if (result.errors.size() < 8) result.errors.push_back("status: " + payload);
          return start_job(c);
        }
        c.phase = Phase::Result;
        return send_frame(c, result_frame.with(c.ticket));
      case Phase::Result: {
        next_trip(c, nullptr);
        const json::Value* counts = reply.find("counts");
        if (!ok || reply.get_string("status", "") != "DONE" || counts == nullptr) {
          ++loop.failed;
          if (result.errors.size() < 8) result.errors.push_back("result: " + payload);
          return start_job(c);
        }
        if (counts_total(*counts) != kServeShots) ++result.bad_counts;
        if (options.keep_samples && serve_sampled(options.seed, c.job))
          result.sampled_counts[c.job] = core::Counts::from_json(*counts);
        if (c.timed) {
          loop.latencies_ms.push_back(ms_between(c.submitted, now));
          loop.latency_done_s.push_back(seconds_between(t_start, now));
        }
        if (stage == Stage::Warmup) ++window_completions;
        if (stage != Stage::Warmup && now < t_end) loop.done_s.push_back(seconds_between(t_start, now));
        return start_job(c);
      }
      case Phase::Idle:
      case Phase::Dead:
        break;
    }
    throw std::runtime_error("unexpected reply: " + payload);
  };

  std::vector<pollfd> fds;
  std::vector<Conn*> polled;  // polled[i] owns fds[i]
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (stage == Stage::Warmup && now - window_start >= std::chrono::duration<double>(kWindowS)) {
      const double rate = static_cast<double>(window_completions) / seconds_between(window_start, now);
      if (gate.windows().empty()) result.first_window_jobs_s = rate;
      if (gate.feed(rate, seconds_between(t0, now), next_job)) {
        stage = Stage::Timed;
        t_start = now;
        t_end = now + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(options.seconds));
        loop.warmup_s = seconds_between(t0, now);
        loop.warmup_jobs = next_job;
        loop.warmup_rates = gate.windows();
      }
      window_start = now;
      window_completions = 0;
    }
    if (stage == Stage::Timed && now >= t_end) stage = Stage::Draining;

    fds.clear();
    polled.clear();
    for (Conn& c : conns) {
      if (c.phase == Phase::Dead || c.phase == Phase::Idle) continue;
      fds.push_back(pollfd{c.fd, static_cast<short>(POLLIN | (c.out_off < c.out.size() ? POLLOUT : 0)), 0});
      polled.push_back(&c);
    }
    if (fds.empty()) break;  // every connection idle (drained) or dead
    // Wake at the next warm-up window or at the deadline.
    Clock::time_point wake = now + std::chrono::milliseconds(100);
    if (stage == Stage::Warmup)
      wake = window_start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(kWindowS));
    else if (stage == Stage::Timed)
      wake = t_end;
    const int timeout_ms =
        std::max(0, static_cast<int>(std::chrono::duration<double, std::milli>(wake - now).count()) + 1);
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) throw sys_error("poll");
    const Clock::time_point after = Clock::now();
    if (ready > 0) last_progress = after;
    if (after - last_progress > std::chrono::seconds(30)) {
      for (Conn& c : conns)
        if (c.fd >= 0) kill_conn(c, "no reply for 30 s");
      break;
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      const pollfd& p = fds[i];
      if (p.revents == 0) continue;
      Conn& c = *polled[i];
      if ((p.revents & POLLOUT) && !flush(c)) {
        kill_conn(c, "send failed");
        continue;
      }
      if (!(p.revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[16384];
      const ssize_t n = ::read(c.fd, buf, sizeof buf);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        kill_conn(c, "connection closed by the daemon");
        continue;
      }
      if (n < 0) continue;
      c.decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
      try {
        while (c.phase != Phase::Dead && c.phase != Phase::Idle) {
          std::optional<std::string> frame = c.decoder.next();
          if (!frame) break;
          if (!on_reply(c, *frame, after)) {
            kill_conn(c, "send failed");
            break;
          }
        }
      } catch (const std::exception& e) {
        kill_conn(c, e.what());
      }
    }
  }
  for (Conn& c : conns)
    if (c.fd >= 0) ::close(c.fd);
  loop.window_s = seconds_between(t_start, t_end);
  loop.slice_s = kSliceS;
  return result;
}

}  // namespace perfbench
