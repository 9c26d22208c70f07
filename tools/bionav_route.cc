// bionav_route — the sharded serving tier's front door: a consistent-hash
// router that fronts N bionav_serve backends behind one endpoint (see
// src/router/nav_router.h for placement and failure semantics).
//
//   bionav_route --backends=HOST:PORT[,HOST:PORT...] [options]
//   bionav_route --backends=auto:N <db-path> [options]
//
// The first form fronts already-running backends. The second — degenerate
// single-box operation — forks/execs N bionav_serve children on ephemeral
// ports itself (the serve binary is found next to this one, or via
// --serve-bin), scrapes their ports, and tears them down on exit; each
// child's stdin is a pipe the router holds, so an orphaned router death
// still EOFs the children away.
//
// With --replicas R and --replicate-above QPS, query keys running hotter
// than the threshold spread round-robin across their first R healthy
// ring-successors instead of pinning to one shard; pair this with
// --peers-file PATH (auto mode) so non-owner replicas fetch the owner's
// artifact bundle over FETCH_ARTIFACT instead of rebuilding it. The
// router writes the peers file once every shard has announced its port.
//
// --port 0 (the default) binds an ephemeral port; the bound port is
// printed on the first stdout line ("listening on 127.0.0.1:PORT") so
// wrappers can scrape it. Runs until SIGINT/SIGTERM or EOF on stdin.

#include <libgen.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bionav.h"

namespace bionav {
namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true); }

int64_t IntArg(const std::string& value, const char* flag) {
  int64_t out = 0;
  if (!ParseInt64(value, &out) || out < 0) {
    std::cerr << "bionav_route: invalid value '" << value << "' for " << flag
              << "\n";
    std::exit(2);
  }
  return out;
}

int Usage() {
  std::cerr
      << "usage: bionav_route --backends=HOST:PORT[,...] [options]\n"
         "       bionav_route --backends=auto:N <db-path> [options]\n"
         "options: [--port P] [--io-threads I] [--vnodes V]\n"
         "         [--max-connections C] [--idle-timeout-ms MS]\n"
         "         [--health-interval-ms MS] [--health-timeout-ms MS]\n"
         "         [--eject-after N] [--half-open-ms MS] [--pool P]\n"
         "         [--replicas R] [--replicate-above QPS]\n"
         "         [--serve-bin PATH] [--serve-threads N]\n"
         "         [--spill-dir DIR] [--spill-after-ms MS]\n"
         "         [--peers-file PATH] (auto mode)\n";
  return 2;
}

double QpsArg(const std::string& value, const char* flag) {
  char* end = nullptr;
  double out = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || out < 0) {
    std::cerr << "bionav_route: invalid value '" << value << "' for " << flag
              << "\n";
    std::exit(2);
  }
  return out;
}

/// One forked bionav_serve child: its lifetime is the stdin pipe we hold.
struct Child {
  pid_t pid = -1;
  int stdin_fd = -1;  // Write end; closing it EOFs the child away.
  int port = 0;
};

/// Directory of the running executable — the auto-mode default location
/// of bionav_serve (both tools install side by side).
std::string SelfDirectory() {
  char buffer[4096];
  ssize_t n = ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n <= 0) return ".";
  buffer[n] = '\0';
  return ::dirname(buffer);
}

/// Forks and execs one bionav_serve on an ephemeral port, scraping the
/// bound port from its first stdout line. Returns false on any failure
/// (the caller tears down previously spawned children).
bool SpawnBackend(const std::string& serve_bin, const std::string& db_path,
                  int serve_threads, const std::string& shard_id,
                  const std::string& spill_dir, int64_t spill_after_ms,
                  const std::string& peers_file, Child* child) {
  int stdin_pipe[2];
  int stdout_pipe[2];
  if (::pipe(stdin_pipe) != 0) return false;
  if (::pipe(stdout_pipe) != 0) {
    ::close(stdin_pipe[0]);
    ::close(stdin_pipe[1]);
    return false;
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(stdin_pipe[0]);
    ::close(stdin_pipe[1]);
    ::close(stdout_pipe[0]);
    ::close(stdout_pipe[1]);
    return false;
  }
  if (pid == 0) {
    ::dup2(stdin_pipe[0], STDIN_FILENO);
    ::dup2(stdout_pipe[1], STDOUT_FILENO);
    ::close(stdin_pipe[0]);
    ::close(stdin_pipe[1]);
    ::close(stdout_pipe[0]);
    ::close(stdout_pipe[1]);
    std::string threads = std::to_string(serve_threads);
    // Per-shard token prefix: the router pins sessions by token, so the
    // fleet's tokens must not collide across backends.
    std::string prefix = shard_id + "-";
    std::vector<std::string> args = {serve_bin,        db_path,
                                     "--port",         "0",
                                     "--threads",      threads,
                                     "--token-prefix", prefix};
    if (!spill_dir.empty()) {
      // Per-shard spill subdirectory: snapshots of shard0 must never be
      // adopted by shard1 after a restart (tokens and pins are per-shard).
      args.push_back("--spill-dir");
      args.push_back(spill_dir + "/" + shard_id);
      if (spill_after_ms > 0) {
        args.push_back("--spill-after-ms");
        args.push_back(std::to_string(spill_after_ms));
      }
    }
    if (!peers_file.empty()) {
      // The file does not exist yet — the router writes it once every
      // shard has announced its port. The shard probes lazily.
      args.push_back("--peers-file");
      args.push_back(peers_file);
      args.push_back("--self-id");
      args.push_back(shard_id);
    }
    std::vector<char*> exec_argv;
    exec_argv.reserve(args.size() + 1);
    for (std::string& a : args) exec_argv.push_back(a.data());
    exec_argv.push_back(nullptr);
    ::execv(serve_bin.c_str(), exec_argv.data());
    std::fprintf(stderr, "bionav_route: exec %s: %s\n", serve_bin.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  ::close(stdin_pipe[0]);
  ::close(stdout_pipe[1]);

  // Scrape "listening on HOST:PORT" from the child's first stdout line.
  std::string line;
  char c;
  while (true) {
    ssize_t n = ::read(stdout_pipe[0], &c, 1);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // Child died before announcing its port.
    }
    if (c == '\n') break;
    line.push_back(c);
    if (line.size() > 4096) break;
  }
  ::close(stdout_pipe[0]);

  int port = 0;
  size_t colon = line.rfind(':');
  if (line.rfind("listening on ", 0) == 0 && colon != std::string::npos) {
    size_t end = colon + 1;
    while (end < line.size() && line[end] >= '0' && line[end] <= '9') {
      port = port * 10 + (line[end] - '0');
      ++end;
    }
  }
  if (port <= 0) {
    ::close(stdin_pipe[1]);
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    return false;
  }
  child->pid = pid;
  child->stdin_fd = stdin_pipe[1];
  child->port = port;
  return true;
}

void ReapChildren(std::vector<Child>* children) {
  for (Child& child : *children) {
    if (child.stdin_fd >= 0) ::close(child.stdin_fd);
  }
  for (Child& child : *children) {
    if (child.pid <= 0) continue;
    int status = 0;
    if (::waitpid(child.pid, &status, WNOHANG) == 0) {
      // Give the drain a moment, then escalate.
      for (int i = 0; i < 50; ++i) {
        ::usleep(100 * 1000);
        if (::waitpid(child.pid, &status, WNOHANG) != 0) {
          child.pid = -1;
          break;
        }
      }
      if (child.pid > 0) {
        ::kill(child.pid, SIGKILL);
        ::waitpid(child.pid, &status, 0);
      }
    }
  }
  children->clear();
}

int Main(int argc, char** argv) {
  std::string backends_arg;
  std::string db_path;
  std::string serve_bin;
  int serve_threads = 2;
  std::string spill_dir;
  int64_t spill_after_ms = 0;
  std::string peers_file;
  NavRouterOptions options;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "bionav_route: " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg.rfind("--backends=", 0) == 0) {
      backends_arg = arg.substr(std::strlen("--backends="));
    } else if (arg == "--backends") {
      backends_arg = value("--backends");
    } else if (arg == "--port") {
      options.port = static_cast<int>(IntArg(value("--port"), "--port"));
    } else if (arg == "--io-threads") {
      options.io_threads =
          static_cast<int>(IntArg(value("--io-threads"), "--io-threads"));
    } else if (arg == "--vnodes") {
      const int64_t vnodes = IntArg(value("--vnodes"), "--vnodes");
      Status ring = CheckRingSize(vnodes, 1);
      if (!ring.ok()) {
        std::cerr << "bionav_route: --vnodes: " << ring.message() << "\n";
        return 2;
      }
      options.ring_vnodes = static_cast<int>(vnodes);
    } else if (arg == "--max-connections") {
      options.max_connections = static_cast<int>(
          IntArg(value("--max-connections"), "--max-connections"));
    } else if (arg == "--idle-timeout-ms") {
      options.idle_timeout_ms =
          IntArg(value("--idle-timeout-ms"), "--idle-timeout-ms");
    } else if (arg == "--health-interval-ms") {
      options.health_interval_ms =
          IntArg(value("--health-interval-ms"), "--health-interval-ms");
    } else if (arg == "--health-timeout-ms") {
      options.health_timeout_ms =
          IntArg(value("--health-timeout-ms"), "--health-timeout-ms");
    } else if (arg == "--eject-after") {
      options.health_failures_to_eject =
          static_cast<int>(IntArg(value("--eject-after"), "--eject-after"));
    } else if (arg == "--half-open-ms") {
      options.half_open_after_ms =
          IntArg(value("--half-open-ms"), "--half-open-ms");
    } else if (arg == "--pool") {
      options.upstream_pool_size =
          static_cast<int>(IntArg(value("--pool"), "--pool"));
    } else if (arg == "--replicas") {
      options.replicas =
          static_cast<int>(IntArg(value("--replicas"), "--replicas"));
    } else if (arg == "--replicate-above") {
      options.replicate_above_qps =
          QpsArg(value("--replicate-above"), "--replicate-above");
    } else if (arg == "--peers-file") {
      peers_file = value("--peers-file");
    } else if (arg == "--serve-bin") {
      serve_bin = value("--serve-bin");
    } else if (arg == "--serve-threads") {
      serve_threads = static_cast<int>(
          IntArg(value("--serve-threads"), "--serve-threads"));
    } else if (arg == "--spill-dir") {
      spill_dir = value("--spill-dir");
    } else if (arg == "--spill-after-ms") {
      spill_after_ms = IntArg(value("--spill-after-ms"), "--spill-after-ms");
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "bionav_route: unknown flag '" << arg << "'\n";
      return Usage();
    } else if (db_path.empty()) {
      db_path = arg;
    } else {
      return Usage();
    }
  }
  if (backends_arg.empty()) return Usage();

  std::vector<Child> children;
  std::vector<RouterBackend> backends;
  if (backends_arg.rfind("auto:", 0) == 0) {
    int64_t count = IntArg(backends_arg.substr(5), "--backends=auto:N");
    if (count < 1 || db_path.empty()) return Usage();
    Status ring =
        CheckRingSize(options.ring_vnodes, static_cast<size_t>(count));
    if (!ring.ok()) {
      std::cerr << "bionav_route: " << ring.message() << "\n";
      return 2;
    }
    if (serve_bin.empty()) serve_bin = SelfDirectory() + "/bionav_serve";
    for (int64_t i = 0; i < count; ++i) {
      Child child;
      std::string shard_id = "shard" + std::to_string(i);
      if (!SpawnBackend(serve_bin, db_path, serve_threads, shard_id,
                        spill_dir, spill_after_ms, peers_file, &child)) {
        std::cerr << "bionav_route: failed to spawn backend " << i << " ("
                  << serve_bin << ")\n";
        ReapChildren(&children);
        return 1;
      }
      children.push_back(child);
      RouterBackend backend;
      backend.host = "127.0.0.1";
      backend.port = child.port;
      backend.id = shard_id;
      backends.push_back(std::move(backend));
      std::cout << "spawned " << shard_id << " on 127.0.0.1:" << child.port
                << " (pid " << child.pid << ")" << std::endl;
    }
    if (!peers_file.empty()) {
      // Every port is now known: publish the fleet view the shards have
      // been waiting to probe. Write-then-rename so a shard never reads a
      // half-written file; geometry lines must match this router's ring
      // exactly or shard-side owner placement diverges from ours.
      std::string tmp = peers_file + ".tmp";
      FILE* out = std::fopen(tmp.c_str(), "w");
      if (out == nullptr) {
        std::cerr << "bionav_route: cannot write peers file '" << tmp
                  << "': " << std::strerror(errno) << "\n";
        ReapChildren(&children);
        return 1;
      }
      std::fprintf(out, "vnodes %d\n", options.ring_vnodes);
      std::fprintf(out, "seed %llu\n",
                   static_cast<unsigned long long>(options.ring_seed));
      for (size_t i = 0; i < backends.size(); ++i) {
        std::fprintf(out, "peer %s %s:%d\n", backends[i].id.c_str(),
                     backends[i].host.c_str(), backends[i].port);
      }
      std::fclose(out);
      if (std::rename(tmp.c_str(), peers_file.c_str()) != 0) {
        std::cerr << "bionav_route: cannot publish peers file '" << peers_file
                  << "': " << std::strerror(errno) << "\n";
        ReapChildren(&children);
        return 1;
      }
      std::cout << "peers file " << peers_file << " (" << backends.size()
                << " shards)" << std::endl;
    }
  } else {
    for (std::string_view rest = backends_arg; !rest.empty();) {
      size_t comma = rest.find(',');
      std::string endpoint(rest.substr(0, comma));
      rest = comma == std::string_view::npos ? std::string_view()
                                             : rest.substr(comma + 1);
      size_t colon = endpoint.rfind(':');
      int64_t port = 0;
      if (colon == std::string::npos || colon == 0 ||
          !ParseInt64(endpoint.substr(colon + 1), &port) || port <= 0 ||
          port > 65535) {
        std::cerr << "bionav_route: bad backend '" << endpoint
                  << "' (want host:port)\n";
        return 2;
      }
      RouterBackend backend;
      backend.host = endpoint.substr(0, colon);
      backend.port = static_cast<int>(port);
      backends.push_back(std::move(backend));
    }
    if (backends.empty()) return Usage();
  }

  NavRouter router(std::move(backends), options);
  Status started = router.Start();
  if (!started.ok()) {
    std::cerr << started.ToString() << "\n";
    ReapChildren(&children);
    return 1;
  }
  std::cout << "listening on " << options.bind_address << ":" << router.port()
            << " (" << router.ring().size() << " backends)" << std::endl;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  while (!g_stop.load()) {
    if (isatty(STDIN_FILENO) == 0) {
      char buffer[256];
      ssize_t n = ::read(STDIN_FILENO, buffer, sizeof(buffer));
      if (n == 0) break;  // EOF: the controlling pipe closed.
      if (n < 0 && errno != EINTR) break;
    } else {
      ::pause();
    }
  }

  std::cout << "draining..." << std::endl;
  router.Shutdown();
  NavRouterStats stats = router.stats();
  std::cout << "routed " << stats.forwarded << " of " << stats.requests
            << " requests over " << stats.connections_accepted
            << " connections (" << stats.retry_later << " retry-later, "
            << stats.connections_shed << " shed)" << std::endl;
  ReapChildren(&children);
  return 0;
}

}  // namespace
}  // namespace bionav

int main(int argc, char** argv) { return bionav::Main(argc, argv); }
