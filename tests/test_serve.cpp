// quml_serve suite: wire framing (round trips + malformed-frame fuzz),
// persistent job store (replay, torn tail, compaction), weighted fair-share
// lanes of the service queue, daemon admission/backpressure/tenant
// isolation, crash recovery and stop-time abandonment with bit-identical
// replay, and the socket server end to end over a unix socket in both
// framings.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "algolib/graph.hpp"
#include "algolib/ising.hpp"
#include "algolib/qaoa.hpp"
#include "algolib/qft.hpp"
#include "backend/register_backends.hpp"
#include "core/registry.hpp"
#include "json/json.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/frame.hpp"
#include "serve/server.hpp"
#include "serve/store.hpp"
#include "svc/execution_service.hpp"
#include "svc/fair_share.hpp"
#include "util/errors.hpp"
#include "util/sync.hpp"

namespace quml::serve {
namespace {

using namespace std::chrono_literals;

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

core::JobBundle qft_job(unsigned width, std::uint64_t seed, std::int64_t samples = 128,
                        const std::string& engine = "gate.statevector_simulator") {
  return make_load_bundle(width, samples, seed, engine,
                          "qft" + std::to_string(width) + "-s" + std::to_string(seed));
}

/// A job on the fault-injecting engine that sleeps `latency_ms` before
/// delegating to the statevector engine (backend/fault_injector.hpp); with
/// no latency it is a transparent pass-through.
core::JobBundle chaos_job(std::uint64_t seed, double latency_ms = 0.0) {
  core::JobBundle bundle = qft_job(3, seed, 128, "gate.fault_injector");
  if (latency_ms > 0.0) {
    json::Value fault = json::Value::object();
    fault.set("latency_ms", latency_ms);
    bundle.context->exec.options.set("fault", std::move(fault));
  }
  return bundle;
}

/// Polls until `done()` holds; false after 30 s.
template <class Pred>
bool eventually(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Packages fine but fails require-bound admission with QA012: a declared
/// free parameter referenced by a descriptor, never bound.
core::JobBundle unbound_param_job() {
  const auto reg = algolib::make_ising_register("s", 4);
  core::RegisterSet regs;
  regs.add(reg);
  core::OperatorSequence seq;
  core::OperatorDescriptor cost =
      algolib::cost_phase_descriptor(reg, algolib::Graph::cycle(4), 0.0);
  cost.params.set("gamma", json::Value("$gamma"));
  seq.ops.push_back(std::move(cost));
  seq.ops.push_back(algolib::measurement_descriptor(reg));
  return core::JobBundle::package(std::move(regs), std::move(seq), std::nullopt, "sweepable",
                                  {"gamma"});
}

// --- frame codec -------------------------------------------------------------

TEST(FrameCodec, NewlineRoundTripAndAutoDetection) {
  const std::string payload = R"({"op":"ping"})";
  const std::string frame = encode_frame(payload, Framing::Newline);
  EXPECT_EQ(frame.back(), '\n');

  FrameDecoder decoder;
  decoder.feed(frame);
  ASSERT_EQ(decoder.framing(), std::nullopt);  // detection happens in next()
  const auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
  EXPECT_EQ(decoder.framing(), Framing::Newline);
  EXPECT_TRUE(decoder.idle());
  EXPECT_EQ(decoder.next(), std::nullopt);
}

TEST(FrameCodec, LengthPrefixedRoundTripByteByByte) {
  const std::string payload = R"({"op":"hello","tenant":"a"})";
  const std::string frame = encode_frame(payload, Framing::LengthPrefixed);
  ASSERT_EQ(frame.size(), payload.size() + 4);
  // Big-endian prefix.
  EXPECT_EQ(static_cast<unsigned char>(frame[3]), payload.size());

  FrameDecoder decoder;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    decoder.feed(std::string_view(&frame[i], 1));
    if (i + 1 < frame.size()) {
      EXPECT_EQ(decoder.next(), std::nullopt);
      EXPECT_FALSE(decoder.idle());  // mid-frame: truncation is visible
    }
  }
  const auto out = decoder.next();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, payload);
  EXPECT_EQ(decoder.framing(), Framing::LengthPrefixed);
  EXPECT_TRUE(decoder.idle());
}

TEST(FrameCodec, MultipleFramesInOneFeed) {
  FrameDecoder decoder;
  decoder.feed(encode_frame(R"({"a":1})", Framing::Newline) +
               encode_frame(R"({"b":2})", Framing::Newline));
  EXPECT_EQ(decoder.next().value(), R"({"a":1})");
  EXPECT_EQ(decoder.next().value(), R"({"b":2})");
  EXPECT_EQ(decoder.next(), std::nullopt);
}

TEST(FrameCodec, CrlfIsTolerated) {
  FrameDecoder decoder;
  decoder.feed("{\"a\":1}\r\n");
  EXPECT_EQ(decoder.next().value(), R"({"a":1})");
}

TEST(FrameCodec, OversizedLengthPrefixRejectedFromHeaderAlone) {
  FrameLimits limits;
  limits.max_frame_bytes = 1024;
  FrameDecoder decoder(limits);
  // 0x40000000 = 1 GiB claimed: must throw before any payload arrives.
  const char header[4] = {0x40, 0x00, 0x00, 0x00};
  decoder.feed(std::string_view(header, 4));
  EXPECT_THROW(decoder.next(), FrameError);
}

TEST(FrameCodec, OversizedNewlineFrameRejected) {
  FrameLimits limits;
  limits.max_frame_bytes = 64;
  FrameDecoder decoder(limits);
  decoder.feed("{" + std::string(200, 'x'));  // no terminator, already too long
  EXPECT_THROW(decoder.next(), FrameError);
}

TEST(FrameCodec, EmptyFramesRejected) {
  {
    FrameDecoder decoder;
    decoder.feed("{\"a\":1}\n\n");  // blank line after a valid frame
    EXPECT_TRUE(decoder.next().has_value());
    EXPECT_THROW(decoder.next(), FrameError);
  }
  {
    FrameDecoder decoder;
    const char header[5] = {0x00, 0x00, 0x00, 0x00, 0x00};  // zero-length prefix
    decoder.feed(std::string_view(header, 5));
    EXPECT_THROW(decoder.next(), FrameError);
  }
  EXPECT_THROW(encode_frame("", Framing::Newline), FrameError);
}

TEST(FrameCodec, InvalidUtf8Rejected) {
  {
    FrameDecoder decoder;
    decoder.feed("{\"k\":\"\xC3\x28\"}\n");  // bad continuation byte
    EXPECT_THROW(decoder.next(), FrameError);
  }
  {
    FrameDecoder decoder;
    std::string frame = encode_frame("x\xE0\x80\x80x", Framing::LengthPrefixed);  // overlong
    decoder.feed(frame);
    EXPECT_THROW(decoder.next(), FrameError);
  }
}

TEST(FrameCodec, Utf8Validator) {
  EXPECT_TRUE(is_valid_utf8("plain ascii"));
  EXPECT_TRUE(is_valid_utf8("caf\xC3\xA9"));                  // é
  EXPECT_TRUE(is_valid_utf8("\xE2\x82\xAC"));                 // €
  EXPECT_TRUE(is_valid_utf8("\xF0\x9F\x9A\x80"));             // rocket
  EXPECT_FALSE(is_valid_utf8("\x80"));                        // stray continuation
  EXPECT_FALSE(is_valid_utf8("\xC3"));                        // truncated sequence
  EXPECT_FALSE(is_valid_utf8("\xC0\xAF"));                    // overlong '/'
  EXPECT_FALSE(is_valid_utf8("\xED\xA0\x80"));                // UTF-16 surrogate
  EXPECT_FALSE(is_valid_utf8("\xF4\x90\x80\x80"));            // past U+10FFFF
  EXPECT_FALSE(is_valid_utf8("\xFE\xFF"));                    // not UTF-8 at all
}

TEST(FrameCodec, FuzzGarbageNeverCrashes) {
  // Seeded garbage: every outcome must be a frame, a wait-for-more, or a
  // FrameError — never a crash or an infinite loop.
  std::mt19937 rng(20260809);
  for (int round = 0; round < 200; ++round) {
    FrameDecoder decoder;
    bool dead = false;
    for (int chunk = 0; chunk < 8 && !dead; ++chunk) {
      std::string bytes(static_cast<std::size_t>(rng() % 64 + 1), '\0');
      for (auto& b : bytes) b = static_cast<char>(rng() & 0xFF);
      decoder.feed(bytes);
      try {
        for (int spin = 0; spin < 128; ++spin) {
          if (!decoder.next().has_value()) break;
        }
      } catch (const FrameError&) {
        dead = true;  // decoder contract: unusable after throwing
      }
    }
  }
}

// --- persistent store --------------------------------------------------------

TEST(JobStore, PersistsAndReplays) {
  const std::string path = temp_path("store_replay.ndjson");
  {
    JobStore store(path);
    EXPECT_EQ(store.next_ticket(), 1u);
    store.append_enqueue({1, "alice", qft_job(3, 11)});
    store.append_enqueue({2, "bob", qft_job(4, 22)});
    store.append_enqueue({3, "alice", qft_job(3, 33)});
    store.append_settle(2, "DONE");
  }
  JobStore reopened(path);
  EXPECT_EQ(reopened.next_ticket(), 4u);
  EXPECT_EQ(reopened.torn_records(), 0u);
  const auto pending = reopened.pending();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].ticket, 1u);
  EXPECT_EQ(pending[0].tenant, "alice");
  EXPECT_EQ(pending[0].bundle.exec_policy().seed, 11u);
  EXPECT_EQ(pending[1].ticket, 3u);
  EXPECT_EQ(pending[1].bundle.exec_policy().seed, 33u);
}

TEST(JobStore, ToleratesTornTailOnly) {
  const std::string path = temp_path("store_torn.ndjson");
  {
    JobStore store(path);
    store.append_enqueue({1, "alice", qft_job(3, 7)});
  }
  {
    // A crash mid-append leaves a partial record with no newline.
    std::ofstream torn(path, std::ios::app | std::ios::binary);
    torn << R"({"rec":"enqueue","ticket":2,"tenant":"bob","bund)";
  }
  JobStore reopened(path);
  EXPECT_EQ(reopened.torn_records(), 1u);
  ASSERT_EQ(reopened.pending().size(), 1u);
  EXPECT_EQ(reopened.pending()[0].ticket, 1u);
  // The torn ticket was never acknowledged, so reusing its number is fine.
  EXPECT_EQ(reopened.next_ticket(), 2u);

  // Mid-journal corruption is NOT tolerated: that's data loss, not a crash.
  const std::string bad = temp_path("store_corrupt.ndjson");
  {
    std::ofstream out(bad, std::ios::binary);
    out << "this is not json\n";
    out << R"({"rec":"settle","ticket":1,"status":"DONE"})" << "\n";
  }
  EXPECT_THROW(JobStore{bad}, Error);
}

TEST(JobStore, CompactionDropsSettledAndKeepsTicketWatermark) {
  const std::string path = temp_path("store_compact.ndjson");
  {
    JobStore store(path);
    for (std::uint64_t t = 1; t <= 6; ++t) {
      store.append_enqueue({t, "alice", qft_job(3, t)});
    }
    for (std::uint64_t t = 1; t <= 5; ++t) store.append_settle(t, "DONE");
    EXPECT_EQ(store.journal_records(), 11u);
    store.compact();
    EXPECT_EQ(store.settled_records(), 0u);
    EXPECT_EQ(store.journal_records(), 2u);  // watermark + 1 live enqueue
  }
  JobStore reopened(path);
  ASSERT_EQ(reopened.pending().size(), 1u);
  EXPECT_EQ(reopened.pending()[0].ticket, 6u);
  EXPECT_EQ(reopened.next_ticket(), 7u);

  // Even a fully settled journal must not reissue used tickets.
  {
    JobStore store(path);
    store.append_settle(6, "DONE");
    store.compact();
  }
  JobStore empty(path);
  EXPECT_TRUE(empty.pending().empty());
  EXPECT_EQ(empty.next_ticket(), 7u);
}

// --- fair-share lanes (svc/fair_share.hpp) ------------------------------------

TEST(FairShareQueue, WeightedInterleavingIsExact) {
  svc::FairShareQueue<std::uint64_t> queue;
  // Tickets encode tenant + order: a -> 100+i, b -> 200+i; weights 2:1.
  for (std::uint64_t i = 0; i < 6; ++i) queue.push("a", 2.0, 100 + i);
  for (std::uint64_t i = 0; i < 6; ++i) queue.push("b", 1.0, 200 + i);
  EXPECT_EQ(queue.depth("a"), 6u);
  EXPECT_EQ(queue.depth("b"), 6u);

  std::string order;
  std::map<std::string, int> popped;
  for (int i = 0; i < 12; ++i) {
    const auto ticket = queue.pop();
    ASSERT_TRUE(ticket.has_value());
    const bool is_a = *ticket < 200;
    order += is_a ? 'a' : 'b';
    ++popped[is_a ? "a" : "b"];
  }
  // Stride scheduling with weights 2:1 and deterministic tie-breaks.
  EXPECT_EQ(order, "abaabaabab" "bb");
  EXPECT_EQ(popped["a"], 6);
  EXPECT_EQ(popped["b"], 6);
  // Within a lane, FIFO order is preserved.
  EXPECT_EQ(queue.pop(), std::nullopt);
}

TEST(FairShareQueue, IdleTenantEarnsNoBurstCredit) {
  svc::FairShareQueue<std::uint64_t> queue;
  for (std::uint64_t i = 0; i < 50; ++i) queue.push("busy", 1.0, i);
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(queue.pop().has_value());
  // "idle" arrives late; it must interleave from now on, not monopolize.
  for (std::uint64_t i = 0; i < 5; ++i) queue.push("idle", 1.0, 1000 + i);
  int idle_run = 0;
  const auto first = queue.pop();
  ASSERT_TRUE(first.has_value());
  for (int i = 0; i < 5; ++i) {
    const auto t = queue.pop();
    ASSERT_TRUE(t.has_value());
    if (*t >= 1000) {
      ++idle_run;
    }
  }
  EXPECT_LE(idle_run, 3);  // ~alternating, never 5 in a row
}

TEST(FairShareQueue, CloseAbandonsQueuedTickets) {
  // The lanes live inside the service's backend queue, which abandons queued
  // work by cancellation (JobDaemon::stop relies on this): jobs cancelled on
  // a lane behind a running job never run, still fire their settle
  // callbacks once popped, and leave the lane empty.
  backend::register_builtin_backends();
  svc::ServiceConfig config;
  config.default_workers = 1;
  svc::ExecutionService service(config);
  std::atomic<int> settles{0};
  const svc::Lane lane{"a", 1.0};
  // Long enough to outlast any scheduling hiccup; shutdown() cuts it short.
  const svc::JobHandle running = service.admit(chaos_job(1, 5000.0));
  service.enqueue(running, lane, [&settles] { ++settles; });
  ASSERT_TRUE(eventually([&] { return running.status() != svc::JobStatus::Queued; }));

  std::vector<svc::JobHandle> queued;
  for (std::uint64_t j = 0; j < 2; ++j) {
    queued.push_back(service.admit(chaos_job(2 + j)));
    service.enqueue(queued.back(), lane, [&settles] { ++settles; });
  }
  EXPECT_EQ(service.lane_depth("a"), 2u);
  for (const svc::JobHandle& job : queued) EXPECT_TRUE(job.cancel());
  service.shutdown();
  EXPECT_TRUE(svc::is_terminal(running.status()));
  for (const svc::JobHandle& job : queued) {
    EXPECT_EQ(job.status(), svc::JobStatus::Cancelled);
    EXPECT_EQ(job.attempts(), 0u);  // never ran
  }
  EXPECT_EQ(settles.load(), 3);
  EXPECT_EQ(service.lane_depth("a"), 0u);
}

// --- raw-socket helpers ------------------------------------------------------

int connect_raw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  // A stuck server must fail the test, not hang the suite.
  timeval tv{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> read_frame(int fd, FrameDecoder& decoder) {
  char buf[4096];
  for (;;) {
    if (auto frame = decoder.next()) return frame;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) return std::nullopt;
    decoder.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
}

// --- daemon ------------------------------------------------------------------

DaemonConfig daemon_config(const std::string& store_name) {
  DaemonConfig config;
  config.store_path = temp_path(store_name);
  config.service.default_workers = 2;
  return config;
}

TEST(JobDaemon, KeepsOneWorkerPerEngineByDefault) {
  // The poll thread, not the workers, bounds the daemon; its one worker's
  // job gets the whole thread budget.
  EXPECT_EQ(DaemonConfig{}.service.default_workers, 1);
}

TEST(JobDaemon, ExecutesAndSettlesWithServiceParityCounts) {
  JobDaemon daemon(daemon_config("daemon_exec.ndjson"));
  const core::JobBundle bundle = qft_job(3, 91);
  const SubmitReply reply = daemon.submit("alice", bundle);
  ASSERT_EQ(reply.outcome, SubmitOutcome::Accepted) << reply.detail;
  ASSERT_TRUE(daemon.wait_for("alice", reply.ticket, 30000ms));

  const JobInfo info = daemon.info("alice", reply.ticket);
  ASSERT_TRUE(info.known);
  EXPECT_EQ(info.status, "DONE");
  EXPECT_EQ(info.engine, "gate.statevector_simulator");
  ASSERT_TRUE(info.result.has_value());

  // Same bundle through the blocking core API: counts must match exactly.
  const core::ExecutionResult reference = core::submit(bundle);
  EXPECT_EQ(info.result->counts.map(), reference.counts.map());
}

TEST(JobDaemon, RejectsDefectiveBundlesWithQaCodes) {
  JobDaemon daemon(daemon_config("daemon_reject.ndjson"));
  const SubmitReply reply = daemon.submit("alice", unbound_param_job());
  EXPECT_EQ(reply.outcome, SubmitOutcome::Rejected);
  EXPECT_NE(reply.detail.find("QA012"), std::string::npos) << reply.detail;
  const JobDaemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST(JobDaemon, UnregisteredEngineIsRejectedBeforeTheJournal) {
  DaemonConfig config = daemon_config("daemon_unknown_engine.ndjson");
  {
    JobDaemon daemon(config);
    const SubmitReply reply = daemon.submit("alice", qft_job(3, 5, 128, "gate.no_such_engine"));
    EXPECT_EQ(reply.outcome, SubmitOutcome::Rejected);
    EXPECT_NE(reply.detail.find("gate.no_such_engine"), std::string::npos) << reply.detail;
    const JobDaemon::Stats stats = daemon.stats();
    EXPECT_EQ(stats.rejected, 1u);
    EXPECT_EQ(stats.accepted, 0u);
  }
  const JobStore store(config.store_path);
  EXPECT_TRUE(store.pending().empty());
  EXPECT_EQ(store.journal_records(), 0u);
}

TEST(JobDaemon, ShedsPastTenantBoundAndPersistsNothingForShedJobs) {
  DaemonConfig config = daemon_config("daemon_shed.ndjson");
  config.start_paused = true;  // nothing drains: the queue depth is exact
  config.default_policy.max_queued = 2;
  std::uint64_t shed_free = 0;
  {
    JobDaemon daemon(config);
    EXPECT_EQ(daemon.submit("alice", qft_job(3, 1)).outcome, SubmitOutcome::Accepted);
    EXPECT_EQ(daemon.submit("alice", qft_job(3, 2)).outcome, SubmitOutcome::Accepted);
    const SubmitReply third = daemon.submit("alice", qft_job(3, 3));
    EXPECT_EQ(third.outcome, SubmitOutcome::Shed);
    EXPECT_NE(third.detail.find("queue is full"), std::string::npos) << third.detail;
    // Bounds are per tenant: bob still has room.
    EXPECT_EQ(daemon.submit("bob", qft_job(3, 4)).outcome, SubmitOutcome::Accepted);
    shed_free = daemon.stats().shed;
    EXPECT_EQ(shed_free, 1u);
  }
  // The shed job never reached the journal.
  JobStore store(config.store_path);
  EXPECT_EQ(store.pending().size(), 3u);
}

TEST(JobDaemon, TenantIsolationHidesForeignTickets) {
  JobDaemon daemon(daemon_config("daemon_isolation.ndjson"));
  const SubmitReply reply = daemon.submit("alice", qft_job(3, 5));
  ASSERT_EQ(reply.outcome, SubmitOutcome::Accepted);
  ASSERT_TRUE(daemon.wait_for("alice", reply.ticket, 30000ms));
  EXPECT_TRUE(daemon.info("alice", reply.ticket).known);
  // A foreign ticket is indistinguishable from a nonexistent one.
  EXPECT_FALSE(daemon.info("bob", reply.ticket).known);
  EXPECT_FALSE(daemon.info("", reply.ticket).known);
}

TEST(JobDaemon, CrashRecoveryReplaysBitIdentically) {
  DaemonConfig config = daemon_config("daemon_recovery.ndjson");
  constexpr int kJobs = 4;
  std::vector<std::uint64_t> tickets;

  // Reference counts for the exact bundles the daemon will replay.  The
  // reference runs before any daemon exists, so register engines here.
  backend::register_builtin_backends();
  std::vector<std::map<std::string, std::int64_t>> reference;
  for (int j = 0; j < kJobs; ++j) {
    reference.push_back(core::submit(qft_job(3, 40 + static_cast<std::uint64_t>(j))).counts.map());
  }

  {
    // Boot paused, enqueue, and die without draining: the "crash".
    DaemonConfig paused = config;
    paused.start_paused = true;
    JobDaemon daemon(paused);
    for (int j = 0; j < kJobs; ++j) {
      const SubmitReply reply =
          daemon.submit("alice", qft_job(3, 40 + static_cast<std::uint64_t>(j)));
      ASSERT_EQ(reply.outcome, SubmitOutcome::Accepted) << reply.detail;
      tickets.push_back(reply.ticket);
    }
    EXPECT_EQ(daemon.stats().settled, 0u);
  }

  // Reboot on the same journal: everything replays under the original
  // tickets and seeds, so results are bit-identical to the reference.
  JobDaemon daemon(config);
  EXPECT_EQ(daemon.stats().replayed, static_cast<std::uint64_t>(kJobs));
  daemon.drain();
  for (int j = 0; j < kJobs; ++j) {
    const JobInfo info = daemon.info("alice", tickets[static_cast<std::size_t>(j)]);
    ASSERT_TRUE(info.known) << "ticket " << tickets[static_cast<std::size_t>(j)];
    ASSERT_EQ(info.status, "DONE") << info.error;
    ASSERT_TRUE(info.result.has_value());
    EXPECT_EQ(info.result->counts.map(), reference[static_cast<std::size_t>(j)])
        << "replayed job " << j << " diverged from its pre-crash counts";
  }
  // Nothing was duplicated: exactly kJobs settled.
  EXPECT_EQ(daemon.stats().settled, static_cast<std::uint64_t>(kJobs));
}

TEST(JobDaemon, StopOnRunningDaemonAbandonsQueuedBacklogForReplay) {
  DaemonConfig config = daemon_config("daemon_stop_backlog.ndjson");
  config.service.default_workers = 1;
  constexpr std::uint64_t kQueued = 3;
  backend::register_builtin_backends();
  std::vector<std::map<std::string, std::int64_t>> reference;
  for (std::uint64_t j = 0; j < kQueued; ++j)
    reference.push_back(core::submit(chaos_job(90 + j)).counts.map());

  std::vector<std::uint64_t> tickets;
  {
    JobDaemon daemon(config);
    // Outlasts any scheduling hiccup; stop() interrupts it.
    const SubmitReply slow = daemon.submit("alice", chaos_job(89, 5000.0));
    ASSERT_EQ(slow.outcome, SubmitOutcome::Accepted) << slow.detail;
    ASSERT_TRUE(eventually([&] { return daemon.info("alice", slow.ticket).status == "RUNNING"; }));
    for (std::uint64_t j = 0; j < kQueued; ++j) {
      const SubmitReply reply = daemon.submit("alice", chaos_job(90 + j));
      ASSERT_EQ(reply.outcome, SubmitOutcome::Accepted) << reply.detail;
      tickets.push_back(reply.ticket);
    }
    EXPECT_EQ(daemon.stats().queued, kQueued);
    // The running job settles; the backlog behind it is abandoned unsettled.
    daemon.stop();
    EXPECT_EQ(daemon.stats().settled, 1u);
  }

  JobDaemon daemon(config);
  EXPECT_EQ(daemon.stats().replayed, kQueued);
  daemon.drain();
  for (std::uint64_t j = 0; j < kQueued; ++j) {
    const JobInfo info = daemon.info("alice", tickets[j]);
    ASSERT_TRUE(info.known) << "ticket " << tickets[j];
    ASSERT_EQ(info.status, "DONE") << info.error;
    ASSERT_TRUE(info.result.has_value());
    EXPECT_EQ(info.result->counts.map(), reference[j]) << "abandoned job " << j << " diverged";
  }
  EXPECT_EQ(daemon.stats().settled, kQueued);
}

TEST(JobDaemon, PausedBacklogSettlesInTenantWeightOrder) {
  DaemonConfig config = daemon_config("daemon_weights.ndjson");
  config.start_paused = true;
  config.service.default_workers = 1;  // one worker: settle order = pop order
  config.tenants["a"] = TenantPolicy{2.0, 64};
  config.tenants["b"] = TenantPolicy{1.0, 64};
  JobDaemon daemon(config);
  Mutex mutex;
  std::string order;
  daemon.set_settle_callback([&](const JobInfo& info, const svc::JobHandle&) {
    MutexLock lock(mutex);
    order += info.tenant;
  });
  // Every "a" job is admitted before any "b" job: only fair share can
  // interleave them.
  for (const char* tenant : {"a", "b"}) {
    for (std::uint64_t j = 0; j < 9; ++j) {
      const SubmitReply reply = daemon.submit(tenant, qft_job(3, 300 + j));
      ASSERT_EQ(reply.outcome, SubmitOutcome::Accepted) << reply.detail;
    }
  }
  daemon.resume();
  daemon.drain();
  daemon.stop();  // the last settle callback has returned
  MutexLock lock(mutex);
  ASSERT_EQ(order.size(), 18u);
  const auto a_first9 = std::count(order.begin(), order.begin() + 9, 'a');
  EXPECT_NEAR(static_cast<double>(a_first9), 6.0, 1.0) << order;
}

TEST(JobDaemon, QuiesceShedsNewWorkSoDrainIsBounded) {
  JobDaemon daemon(daemon_config("daemon_quiesce.ndjson"));
  const SubmitReply before = daemon.submit("alice", qft_job(3, 61));
  ASSERT_EQ(before.outcome, SubmitOutcome::Accepted) << before.detail;
  daemon.quiesce();
  const SubmitReply after = daemon.submit("alice", qft_job(3, 62));
  EXPECT_EQ(after.outcome, SubmitOutcome::Shed);
  EXPECT_NE(after.detail.find("shutting down"), std::string::npos) << after.detail;
  daemon.drain();  // bounded: waits only on the pre-quiesce backlog
  const JobInfo info = daemon.info("alice", before.ticket);
  ASSERT_TRUE(info.known);
  EXPECT_EQ(info.status, "DONE") << info.error;
  EXPECT_EQ(daemon.stats().shed, 1u);
}

TEST(JobDaemon, SettledRetentionEvictsOldestRecords) {
  DaemonConfig config = daemon_config("daemon_retention.ndjson");
  config.settled_retention = 2;
  JobDaemon daemon(config);
  std::vector<std::uint64_t> tickets;
  for (std::uint64_t j = 0; j < 4; ++j) {
    const SubmitReply reply = daemon.submit("alice", qft_job(3, 70 + j));
    ASSERT_EQ(reply.outcome, SubmitOutcome::Accepted) << reply.detail;
    // Serialize settles so the eviction order is deterministic.
    ASSERT_TRUE(daemon.wait_for("alice", reply.ticket, 30000ms));
    tickets.push_back(reply.ticket);
  }
  // Only the newest `settled_retention` settled records stay queryable; the
  // evicted tickets read as unknown, exactly like foreign ones.
  EXPECT_FALSE(daemon.info("alice", tickets[0]).known);
  EXPECT_FALSE(daemon.info("alice", tickets[1]).known);
  ASSERT_TRUE(daemon.info("alice", tickets[2]).known);
  ASSERT_TRUE(daemon.info("alice", tickets[3]).known);
  EXPECT_TRUE(daemon.info("alice", tickets[3]).result.has_value());
}

// --- server + client over a unix socket --------------------------------------

TEST(ServeWire, EndToEndUnixSocket) {
  JobDaemon daemon(daemon_config("serve_e2e.ndjson"));
  ServerConfig server_config;
  server_config.unix_path = temp_path("serve_e2e.sock");
  Server server(daemon, server_config);
  server.start();

  Client client = Client::connect_unix(server_config.unix_path);
  EXPECT_EQ(client.ping().get_string("op", ""), "pong");

  // Tenant identity is mandatory before any job op.
  EXPECT_EQ(client.status(1).get_string("code", ""), "NO_HELLO");
  ASSERT_TRUE(client.hello("alice").get_bool("ok", false));

  const json::Value accepted = client.submit(qft_job(3, 77));
  ASSERT_TRUE(accepted.get_bool("ok", false)) << json::dump(accepted);
  const auto ticket = static_cast<std::uint64_t>(accepted.get_int("ticket", 0));
  ASSERT_GT(ticket, 0u);

  // result with wait=true blocks server-side until the job settles.
  const json::Value settled = client.result(ticket, /*wait=*/true);
  EXPECT_EQ(settled.get_string("status", ""), "DONE") << json::dump(settled);
  ASSERT_TRUE(settled.contains("counts"));
  EXPECT_EQ(core::Counts::from_json(settled.at("counts")).map(),
            core::submit(qft_job(3, 77)).counts.map());

  const json::Value status = client.status(ticket);
  EXPECT_EQ(status.get_string("status", ""), "DONE");

  // Rejections carry the QA rendering over the wire.
  const json::Value rejected = client.submit(unbound_param_job());
  EXPECT_FALSE(rejected.get_bool("ok", true));
  EXPECT_EQ(rejected.get_string("code", ""), "REJECTED");
  EXPECT_NE(rejected.get_string("detail", "").find("QA012"), std::string::npos);

  // Tenant isolation across sessions.
  Client other = Client::connect_unix(server_config.unix_path);
  other.hello("bob");
  EXPECT_EQ(other.status(ticket).get_string("code", ""), "UNKNOWN_JOB");

  const json::Value stats = client.stats();
  EXPECT_TRUE(stats.get_bool("ok", false));
  EXPECT_GE(stats.get_int("accepted", 0), 1);
  EXPECT_GE(stats.get_int("sessions", 0), 2);

  server.stop();
}

TEST(ServeWire, LengthPrefixedSessionWorks) {
  JobDaemon daemon(daemon_config("serve_lp.ndjson"));
  ServerConfig server_config;
  server_config.unix_path = temp_path("serve_lp.sock");
  Server server(daemon, server_config);
  server.start();

  Client client =
      Client::connect_unix(server_config.unix_path, Framing::LengthPrefixed);
  ASSERT_TRUE(client.hello("alice").get_bool("ok", false));
  EXPECT_EQ(client.hello("alice").get_string("framing", ""), "length-prefixed");
  const json::Value accepted = client.submit(qft_job(3, 55));
  ASSERT_TRUE(accepted.get_bool("ok", false)) << json::dump(accepted);
  const json::Value settled =
      client.result(static_cast<std::uint64_t>(accepted.get_int("ticket", 0)), true);
  EXPECT_EQ(settled.get_string("status", ""), "DONE");
  server.stop();
}

TEST(ServeWire, MalformedFramesCloseTheConnection) {
  JobDaemon daemon(daemon_config("serve_malformed.ndjson"));
  ServerConfig server_config;
  server_config.unix_path = temp_path("serve_malformed.sock");
  server_config.limits.max_frame_bytes = 1024;
  Server server(daemon, server_config);
  server.start();

  // Raw socket: claim a 256 MiB frame.  The server must answer BAD_FRAME
  // (best effort) and close, never buffer toward the hostile length.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, server_config.unix_path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  const unsigned char hostile[4] = {0x10, 0x00, 0x00, 0x00};
  ASSERT_EQ(::send(fd, hostile, 4, MSG_NOSIGNAL), 4);

  std::string response;
  char buf[512];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;  // server closed after flushing its answer
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(response.find("BAD_FRAME"), std::string::npos) << response;

  // The daemon survives hostile clients; a well-formed session still works.
  Client client = Client::connect_unix(server_config.unix_path);
  EXPECT_EQ(client.ping().get_string("op", ""), "pong");
  server.stop();
}

TEST(ServeWire, HalfCloseClientStillReceivesItsReplies) {
  JobDaemon daemon(daemon_config("serve_halfclose.ndjson"));
  ServerConfig server_config;
  server_config.unix_path = temp_path("serve_halfclose.sock");
  Server server(daemon, server_config);
  server.start();

  const int fd = connect_raw(server_config.unix_path);
  ASSERT_GE(fd, 0);
  json::Value hello = json::Value::object();
  hello.set("op", "hello");
  hello.set("tenant", "alice");
  json::Value submit = json::Value::object();
  submit.set("op", "submit");
  submit.set("bundle", qft_job(3, 99).to_json());
  ASSERT_TRUE(send_all(fd, encode_frame(json::dump(hello), Framing::Newline) +
                               encode_frame(json::dump(submit), Framing::Newline)));
  // shutdown(SHUT_WR) right after the writes: the job is accepted and
  // persisted, so the ticket must still arrive on the open read side.
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  FrameDecoder decoder;
  const auto hello_reply = read_frame(fd, decoder);
  ASSERT_TRUE(hello_reply.has_value());
  EXPECT_TRUE(json::parse(*hello_reply).get_bool("ok", false)) << *hello_reply;
  const auto submit_reply = read_frame(fd, decoder);
  ASSERT_TRUE(submit_reply.has_value());
  const json::Value ack = json::parse(*submit_reply);
  EXPECT_TRUE(ack.get_bool("ok", false)) << json::dump(ack);
  EXPECT_GT(ack.get_int("ticket", 0), 0);
  ::close(fd);
  server.stop();
}

TEST(ServeWire, OversizedResultAnsweredWithoutKillingTheDaemon) {
  DaemonConfig daemon_cfg = daemon_config("serve_oversized.ndjson");
  daemon_cfg.start_paused = true;  // the result request parks before any settle
  JobDaemon daemon(daemon_cfg);
  ServerConfig server_config;
  server_config.unix_path = temp_path("serve_oversized.sock");
  server_config.limits.max_frame_bytes = 4096;
  Server server(daemon, server_config);
  server.start();

  // 10 qubits x 8192 shots: ~1024 distinct counts, far past the 4 KiB frame
  // limit once rendered, while every request stays well under it.
  Client client = Client::connect_unix(server_config.unix_path);
  ASSERT_TRUE(client.hello("alice").get_bool("ok", false));
  const json::Value accepted = client.submit(qft_job(10, 7, 8192));
  ASSERT_TRUE(accepted.get_bool("ok", false)) << json::dump(accepted);
  const auto ticket = static_cast<std::uint64_t>(accepted.get_int("ticket", 0));

  // Park a wait=true result request on a raw session, then let the job run:
  // the settle path must substitute a ticket-bearing error for the unframable
  // counts instead of throwing on the poll thread.
  const int fd = connect_raw(server_config.unix_path);
  ASSERT_GE(fd, 0);
  json::Value hello = json::Value::object();
  hello.set("op", "hello");
  hello.set("tenant", "alice");
  json::Value wait_req = json::Value::object();
  wait_req.set("op", "result");
  wait_req.set("ticket", ticket);
  wait_req.set("wait", true);
  ASSERT_TRUE(send_all(fd, encode_frame(json::dump(hello), Framing::Newline) +
                               encode_frame(json::dump(wait_req), Framing::Newline)));
  FrameDecoder decoder;
  ASSERT_TRUE(read_frame(fd, decoder).has_value());  // hello ack: waiter is parked
  daemon.resume();
  const auto deferred = read_frame(fd, decoder);
  ASSERT_TRUE(deferred.has_value());
  const json::Value waited = json::parse(*deferred);
  EXPECT_FALSE(waited.get_bool("ok", true));
  EXPECT_EQ(waited.get_string("code", ""), "OVERSIZED_RESPONSE") << json::dump(waited);
  EXPECT_EQ(static_cast<std::uint64_t>(waited.get_int("ticket", 0)), ticket);
  EXPECT_EQ(waited.get_string("status", ""), "DONE");
  ::close(fd);

  // The inline (already-settled) path substitutes the same bounded error.
  const json::Value inline_reply = client.result(ticket, /*wait=*/false);
  EXPECT_FALSE(inline_reply.get_bool("ok", true));
  EXPECT_EQ(inline_reply.get_string("code", ""), "OVERSIZED_RESPONSE")
      << json::dump(inline_reply);
  // The poll thread survived: small responses still flow on every session.
  EXPECT_EQ(client.status(ticket).get_string("status", ""), "DONE");
  EXPECT_EQ(client.ping().get_string("op", ""), "pong");
  server.stop();
}

TEST(ServeWire, PipelinedBacklogIsThrottledWithoutLosingReplies) {
  JobDaemon daemon(daemon_config("serve_backlog.ndjson"));
  ServerConfig server_config;
  server_config.unix_path = temp_path("serve_backlog.sock");
  server_config.max_outbuf_bytes = 256;  // a handful of pongs
  Server server(daemon, server_config);
  server.start();

  const int fd = connect_raw(server_config.unix_path);
  ASSERT_GE(fd, 0);
  constexpr int kPings = 1000;
  std::string burst;
  for (int i = 0; i < kPings; ++i) burst += encode_frame(R"({"op":"ping"})", Framing::Newline);
  ASSERT_TRUE(send_all(fd, burst));

  // Every ping gets its pong even though the outbuf cap repeatedly pauses
  // decoding: parked frames resume as the client drains its responses.
  FrameDecoder decoder;
  for (int i = 0; i < kPings; ++i) {
    const auto pong = read_frame(fd, decoder);
    ASSERT_TRUE(pong.has_value()) << "stream ended after " << i << " pongs";
    EXPECT_NE(pong->find("pong"), std::string::npos) << *pong;
  }
  ::close(fd);
  server.stop();
}

}  // namespace
}  // namespace quml::serve
