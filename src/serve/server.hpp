#pragma once
// Socket front end for the quml_serve daemon.
//
// One poll()-driven thread multiplexes every connection: non-blocking
// accept/read/write, a FrameDecoder per session, and a self-pipe that settle
// callbacks (which run on execution-service worker threads) use to hand
// deferred `result` responses back to the server thread.  No request ever blocks the
// loop — a `result` for an unfinished job parks a waiter keyed by the
// session's serial (not its fd, which the kernel recycles) and is answered
// from the settle callback.
//
// Protocol: one JSON request per frame, one JSON response per request, in
// order, framed however the client's first byte chose (serve/frame.hpp).
//
//   {"op":"hello","tenant":T}          -> {"ok":true,"op":"hello",...}
//   {"op":"submit","bundle":{...}}     -> {"ok":true,"ticket":N,"status":"QUEUED"}
//                                       | {"ok":false,"code":"REJECTED","detail":QA...}
//                                       | {"ok":false,"code":"SHED","detail":...}
//   {"op":"status","ticket":N}         -> {"ok":true,"status":...,"engine":...}
//   {"op":"result","ticket":N[,"wait":B]} -> settled snapshot incl. counts
//   {"op":"stats"}                     -> daemon + server counters
//   {"op":"ping"}                      -> {"ok":true,"op":"pong"}
//
// Every session must hello before submit/status/result: the declared tenant
// is the session's identity, scoping admission, fair share, and job
// visibility (a foreign ticket is indistinguishable from an unknown one).

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/daemon.hpp"
#include "serve/frame.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace quml::serve {

struct ServerConfig {
  /// Unix-domain listener path ("" disables).  An existing socket file at
  /// the path is replaced.
  std::string unix_path;
  /// Listen on 127.0.0.1 when true; port 0 asks the kernel for an ephemeral
  /// one (read it back via tcp_port()).
  bool tcp = false;
  int tcp_port = 0;
  FrameLimits limits;
  /// Connections beyond this are accepted and immediately closed.
  std::size_t max_sessions = 1024;
  /// Per-session response backlog bound.  A client that pipelines requests
  /// without reading replies stops being read (POLLIN drops) once its outbuf
  /// reaches this; decoding resumes as the client drains.  No response is
  /// ever dropped — the cap only pauses intake.
  std::size_t max_outbuf_bytes = 16u << 20;  // 16 MiB
};

class Server {
 public:
  /// Binds and listens (throws BackendError on socket failures), registers
  /// the daemon settle callback.  Call start() to begin serving.
  Server(JobDaemon& daemon, ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void start();
  /// Stops the loop, closes every session and listener, removes the unix
  /// socket file.  Idempotent; the destructor calls it.
  void stop();

  const std::string& unix_path() const noexcept { return config_.unix_path; }
  /// Resolved TCP port (after an ephemeral bind), -1 when TCP is disabled.
  int tcp_port() const noexcept { return tcp_port_; }

 private:
  struct Session {
    int fd = -1;
    std::uint64_t serial = 0;
    std::string tenant;
    FrameDecoder decoder;
    std::string outbuf;
    bool closing = false;   // flush outbuf, then close
    bool peer_eof = false;  // read side is done; stop polling POLLIN
  };

  void loop_();
  void accept_ready_(int listen_fd);
  /// False when the session died and was erased.
  bool read_ready_(Session& session);
  bool flush_(Session& session);
  /// Decodes and dispatches buffered frames until the decoder runs dry or
  /// the outbuf reaches its cap; false when the session was erased.
  bool process_frames_(Session& session);
  void handle_payload_(Session& session, const std::string& payload);
  void enqueue_response_(Session& session, const json::Value& response);
  /// Frames `payload` onto the outbuf; a payload over the frame limit is
  /// replaced by an OVERSIZED_RESPONSE error so encoding can never throw
  /// into the poll loop.
  void enqueue_payload_(Session& session, std::string_view payload);
  void close_session_(Session& session);
  void drain_deferred_();
  void on_settle_(const JobInfo& info, const svc::JobHandle& job);
  void wake_();

  JobDaemon& daemon_;
  ServerConfig config_;
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::atomic<bool> stop_flag_{false};
  std::thread thread_;

  // Owned by the server thread exclusively:
  std::map<std::uint64_t, Session> sessions_;
  std::uint64_t next_serial_ = 1;

  // Shared with settle callbacks (execution-service worker threads):
  Mutex mutex_;
  /// ticket -> sessions waiting on its result.
  std::map<std::uint64_t, std::vector<std::uint64_t>> waiters_ QUML_GUARDED_BY(mutex_);
  /// (session serial, unframed response payload) — framed per the session's
  /// detected framing on the server thread when drained.
  std::vector<std::pair<std::uint64_t, std::string>> deferred_ QUML_GUARDED_BY(mutex_);
};

/// Settled-job snapshot as the wire response for `result` (shared between
/// the inline and deferred paths, and handy for tools).
json::Value result_response(const JobInfo& info);

}  // namespace quml::serve
