//===- tools/prdnn_stats.cpp - telemetry scraper for a repair server ------===//
//
// The retail consumer of the RPC Metrics exchange: connects to a
// running RpcServer, requests one coherent snapshot of the service's
// whole metrics registry (engine jobs, LP kernels, cache/store,
// admission, model registry, and the RPC tier itself), and prints it
// as Prometheus text exposition - the same bytes a scrape endpoint
// would serve. With --watch it polls on an interval, emitting a fresh
// page each round, so `prdnn_stats --port N --watch 2` is a live
// terminal dashboard over any fleet member. Among the engine gauges,
// prdnn_verify_violation and prdnn_verify_tolerance show the last
// verified repair's success margin next to the tolerance it was judged
// by.
//
//   prdnn_stats --port 7411                 one snapshot, print, exit
//   prdnn_stats --port 7411 --watch 2       poll every 2s until killed
//   prdnn_stats --port 7411 --watch 1 --count 10   ten rounds, then exit
//
// A server running without telemetry answers an empty snapshot; the
// tool says so and exits 0 (scraping is uniform across the fleet).
// Connection or wire failures exit non-zero with the typed RpcError.
//
//===----------------------------------------------------------------------===//

#include "rpc/RpcClient.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace prdnn;
using namespace prdnn::rpc;

namespace {

struct StatsConfig {
  std::string Host = "127.0.0.1";
  int Port = 0;
  double WatchSeconds = 0.0; ///< 0 = one snapshot and exit
  long Count = -1;           ///< watch rounds; -1 = until killed
};

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --port PORT [--host HOST] [--watch SECONDS] "
               "[--count N]\n"
               "  Scrapes a prdnn RpcServer's Metrics exchange and prints\n"
               "  Prometheus text exposition to stdout.\n",
               Argv0);
}

bool parseArgs(int Argc, char **Argv, StatsConfig &Config) {
  for (int I = 1; I < Argc; ++I) {
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", Argv[0], Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    if (std::strcmp(Argv[I], "--host") == 0) {
      const char *V = Next("--host");
      if (!V)
        return false;
      Config.Host = V;
    } else if (std::strcmp(Argv[I], "--port") == 0) {
      const char *V = Next("--port");
      if (!V)
        return false;
      Config.Port = std::atoi(V);
    } else if (std::strcmp(Argv[I], "--watch") == 0) {
      const char *V = Next("--watch");
      if (!V)
        return false;
      Config.WatchSeconds = std::atof(V);
    } else if (std::strcmp(Argv[I], "--count") == 0) {
      const char *V = Next("--count");
      if (!V)
        return false;
      Config.Count = std::atol(V);
    } else if (std::strcmp(Argv[I], "--help") == 0 ||
               std::strcmp(Argv[I], "-h") == 0) {
      usage(Argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "%s: unknown argument %s\n", Argv[0], Argv[I]);
      return false;
    }
  }
  if (Config.Port <= 0) {
    usage(Argv[0]);
    return false;
  }
  return true;
}

/// One scrape: connect (or reuse the connection), fetch, print.
/// Returns false on a wire failure after printing the typed error.
bool scrapeOnce(RpcClient &Client) {
  RpcError Err = Client.connect();
  if (Err != RpcError::None) {
    std::fprintf(stderr, "prdnn_stats: connect failed: %s\n", toString(Err));
    return false;
  }
  obs::MetricsSnapshot Snapshot;
  Err = Client.metrics(Snapshot);
  if (Err != RpcError::None) {
    std::fprintf(stderr, "prdnn_stats: metrics exchange failed: %s\n",
                 toString(Err));
    return false;
  }
  if (Snapshot.Samples.empty()) {
    std::printf("# server runs without telemetry (empty snapshot)\n");
    return true;
  }
  std::string Page = Snapshot.renderPrometheus();
  std::fwrite(Page.data(), 1, Page.size(), stdout);
  std::fflush(stdout);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  StatsConfig Config;
  if (!parseArgs(Argc, Argv, Config))
    return 2;

  RpcClientOptions Options;
  Options.Host = Config.Host;
  Options.Port = Config.Port;
  RpcClient Client(Options);

  if (Config.WatchSeconds <= 0.0)
    return scrapeOnce(Client) ? 0 : 1;

  for (long Round = 0; Config.Count < 0 || Round < Config.Count; ++Round) {
    if (Round > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(Config.WatchSeconds));
      std::printf("\n");
    }
    if (!scrapeOnce(Client))
      return 1;
  }
  return 0;
}
