// quml_serve — the multi-tenant job daemon (and its load-generator client).
//
// Daemon mode:
//   quml_serve --store jobs.ndjson --unix /tmp/quml.sock [--tcp PORT]
//              [--workers N]
//              [--tenant NAME:WEIGHT:MAXQ]... [--default-weight W] [--default-max N]
//
// Accepts JSON job bundles over newline-delimited or length-prefixed frames
// (auto-detected per connection), queues them on per-tenant lanes of the
// execution service's per-engine queues under weighted fair share, runs them
// on --workers threads per engine, and journals every accepted job to
// --store so a restart replays whatever had not settled.  SIGTERM/SIGINT drain gracefully:
// accepted jobs finish, then the daemon reports and exits 0.
//
// Client mode:
//   quml_serve --load --unix /tmp/quml.sock [--connections N] [--jobs N]
//              [--width W] [--samples N] [--seed S] [--tenants a,b,c]
//              [--length-prefixed] [--json]
//
// Opens N concurrent sessions, drives the submit/await-result loop on each,
// and reports sustained jobs/sec plus p50/p99 latency.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/server.hpp"
#include "util/errors.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

void usage() {
  std::fprintf(
      stderr,
      "usage: quml_serve --store FILE (--unix PATH | --tcp PORT) [--workers N]\n"
      "                  [--tenant NAME:WEIGHT:MAXQ]... [--default-weight W]\n"
      "                  [--default-max N]\n"
      "         --workers N   worker threads per engine (default 1: the daemon's one\n"
      "                       poll thread bounds its throughput, and one worker's\n"
      "                       job gets every thread); tenants share each engine's\n"
      "                       queue by weight, MAXQ bounds a tenant's queued jobs\n"
      "       quml_serve --load (--unix PATH | --host IP --port N) [--connections N]\n"
      "                  [--jobs N] [--width W] [--samples N] [--seed S]\n"
      "                  [--tenants a,b,c] [--length-prefixed] [--json]\n");
}

std::vector<std::string> split_commas(const std::string& text) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) {
      if (start < text.size()) out.push_back(text.substr(start));
      break;
    }
    if (comma > start) out.push_back(text.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// "analytics:3:128" -> (name, weight, max_queued); weight/max optional.
bool parse_tenant_spec(const std::string& spec, std::string& name,
                       quml::serve::TenantPolicy& policy) {
  const std::size_t c1 = spec.find(':');
  name = spec.substr(0, c1);
  if (name.empty()) return false;
  if (c1 == std::string::npos) return true;
  const std::size_t c2 = spec.find(':', c1 + 1);
  try {
    policy.weight = std::stod(spec.substr(c1 + 1, c2 - c1 - 1));
    if (c2 != std::string::npos) {
      policy.max_queued = static_cast<std::size_t>(std::stoul(spec.substr(c2 + 1)));
    }
  } catch (const std::exception&) {
    return false;
  }
  return policy.weight > 0.0;
}

int run_daemon(const quml::serve::DaemonConfig& daemon_config,
               const quml::serve::ServerConfig& server_config) {
  quml::serve::JobDaemon daemon(daemon_config);
  quml::serve::Server server(daemon, server_config);
  server.start();

  const quml::serve::JobDaemon::Stats boot = daemon.stats();
  if (boot.replayed > 0) {
    std::printf("quml_serve: replayed %llu pending job(s) from %s\n",
                static_cast<unsigned long long>(boot.replayed), daemon_config.store_path.c_str());
  }
  if (!server_config.unix_path.empty()) {
    std::printf("quml_serve: listening on unix:%s\n", server_config.unix_path.c_str());
  }
  if (server.tcp_port() >= 0) {
    std::printf("quml_serve: listening on tcp:127.0.0.1:%d\n", server.tcp_port());
  }
  std::fflush(stdout);

  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("quml_serve: draining...\n");
  std::fflush(stdout);
  daemon.quiesce();  // later submits are SHED: drain waits only on the
  daemon.drain();    // backlog present at signal time, then every job settles
  server.stop();
  const quml::serve::JobDaemon::Stats final_stats = daemon.stats();
  daemon.stop();
  std::printf("quml_serve: drained clean (accepted %llu, settled %llu, shed %llu, "
              "rejected %llu, queued %llu)\n",
              static_cast<unsigned long long>(final_stats.accepted),
              static_cast<unsigned long long>(final_stats.settled),
              static_cast<unsigned long long>(final_stats.shed),
              static_cast<unsigned long long>(final_stats.rejected),
              static_cast<unsigned long long>(final_stats.queued));
  return 0;
}

int run_client(const quml::serve::LoadOptions& options, bool as_json) {
  const quml::serve::LoadReport report = quml::serve::run_load(options);
  if (as_json) {
    std::printf("%s\n", quml::json::dump_pretty(report.to_json()).c_str());
  } else {
    std::printf("connections      %d\n", options.connections);
    std::printf("submitted        %llu\n", static_cast<unsigned long long>(report.submitted));
    std::printf("accepted         %llu\n", static_cast<unsigned long long>(report.accepted));
    std::printf("completed        %llu\n", static_cast<unsigned long long>(report.completed));
    std::printf("shed             %llu\n", static_cast<unsigned long long>(report.shed));
    std::printf("rejected         %llu\n", static_cast<unsigned long long>(report.rejected));
    std::printf("failed           %llu\n", static_cast<unsigned long long>(report.failed));
    std::printf("errors           %llu\n", static_cast<unsigned long long>(report.errors));
    std::printf("elapsed          %.3f s\n", report.seconds);
    std::printf("throughput       %.1f jobs/s\n", report.jobs_per_sec);
    std::printf("latency p50      %.2f ms\n", report.p50_ms);
    std::printf("latency p99      %.2f ms\n", report.p99_ms);
  }
  // A load run that completed nothing is a failed smoke, not a report.
  return report.completed > 0 && report.errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool load_mode = false;
  bool as_json = false;
  quml::serve::DaemonConfig daemon_config;
  quml::serve::ServerConfig server_config;
  quml::serve::LoadOptions load;
  std::string host = "127.0.0.1";
  int port = -1;

  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "quml_serve: %s requires a value\n", argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      usage();
      return 0;
    } else if (std::strcmp(arg, "--load") == 0) {
      load_mode = true;
    } else if (std::strcmp(arg, "--json") == 0) {
      as_json = true;
    } else if (std::strcmp(arg, "--length-prefixed") == 0) {
      load.framing = quml::serve::Framing::LengthPrefixed;
    } else if (std::strcmp(arg, "--store") == 0) {
      daemon_config.store_path = need_value(i);
    } else if (std::strcmp(arg, "--unix") == 0) {
      server_config.unix_path = need_value(i);
      load.unix_path = server_config.unix_path;
    } else if (std::strcmp(arg, "--tcp") == 0 || std::strcmp(arg, "--port") == 0) {
      port = std::atoi(need_value(i));
    } else if (std::strcmp(arg, "--host") == 0) {
      host = need_value(i);
    } else if (std::strcmp(arg, "--workers") == 0) {
      daemon_config.service.default_workers = std::atoi(need_value(i));
    } else if (std::strcmp(arg, "--default-weight") == 0) {
      daemon_config.default_policy.weight = std::atof(need_value(i));
    } else if (std::strcmp(arg, "--default-max") == 0) {
      daemon_config.default_policy.max_queued =
          static_cast<std::size_t>(std::atol(need_value(i)));
    } else if (std::strcmp(arg, "--tenant") == 0) {
      std::string name;
      quml::serve::TenantPolicy policy = daemon_config.default_policy;
      if (!parse_tenant_spec(need_value(i), name, policy)) {
        std::fprintf(stderr, "quml_serve: bad --tenant spec '%s' (want NAME[:WEIGHT[:MAXQ]])\n",
                     argv[i]);
        return 2;
      }
      daemon_config.tenants[name] = policy;
    } else if (std::strcmp(arg, "--connections") == 0) {
      load.connections = std::atoi(need_value(i));
    } else if (std::strcmp(arg, "--jobs") == 0) {
      load.jobs_per_connection = std::atoi(need_value(i));
    } else if (std::strcmp(arg, "--width") == 0) {
      load.width = static_cast<unsigned>(std::atoi(need_value(i)));
    } else if (std::strcmp(arg, "--samples") == 0) {
      load.samples = std::atol(need_value(i));
    } else if (std::strcmp(arg, "--seed") == 0) {
      load.base_seed = static_cast<std::uint64_t>(std::atoll(need_value(i)));
    } else if (std::strcmp(arg, "--tenants") == 0) {
      load.tenants = split_commas(need_value(i));
    } else {
      std::fprintf(stderr, "quml_serve: unknown option '%s'\n", arg);
      usage();
      return 2;
    }
  }

  try {
    if (load_mode) {
      load.host = host;
      load.port = port;
      if (load.unix_path.empty() && port < 0) {
        std::fprintf(stderr, "quml_serve: --load needs --unix PATH or --host/--port\n");
        return 2;
      }
      return run_client(load, as_json);
    }
    if (daemon_config.store_path.empty()) {
      usage();
      return 2;
    }
    if (server_config.unix_path.empty() && port < 0) {
      std::fprintf(stderr, "quml_serve: need --unix PATH and/or --tcp PORT\n");
      return 2;
    }
    if (port >= 0) {
      server_config.tcp = true;
      server_config.tcp_port = port;
    }
    return run_daemon(daemon_config, server_config);
  } catch (const quml::Error& e) {
    std::fprintf(stderr, "quml_serve: error: %s\n", e.what());
    return 1;
  }
}
