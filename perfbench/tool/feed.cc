// `perfbench_tool feed`: the cousinsd load generator of the daemon_feed
// workload. One process, three connections to the daemon's socket:
//
//   - ingest: a closed loop of INGEST requests, each a batch of
//     --batch consecutive trees of the --feed file (one tree per line),
//     until --seconds pass. With --cycle the feed restarts from its
//     first tree when it runs out; without it the loop ends there;
//   - support / frequent-pairs: two open loops, each sending one QUERY
//     every 1/--qps seconds on a fixed schedule. A query's latency runs
//     from when it was due, not from when it was sent, so a stall also
//     counts against the queries queued behind it; how late the
//     generator sent (send time - due time) is reported separately.
//
//   feed --socket=PATH --feed=FILE --seconds=S [--batch=16] [--qps=100]
//        [--labels=64] [--seed=N] [--cycle] --final=PATH
//
// After the loops it reads QUERY frequent-pairs once more into --final
// (left unwritten if that query fails; the caller checks the file) and
// prints one JSON line of sample counts, percentiles (ms), acked batch
// count and the loops' attempted and failed requests. Latency samples are
// kept in memory.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common.h"
#include "svc/protocol.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

int ConnectUnix(const std::string& path) {
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    close(fd);
    throw std::runtime_error("socket path too long");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size());
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    throw std::runtime_error("cannot connect to '" + path + "'");
  }
  return fd;
}

/// One request/response round trip. Returns false on a transport error
/// or an ERR response; *payload receives the response payload.
bool RoundTrip(int fd, const std::string& request, std::string* payload) {
  if (!cousins::svc::WriteFrame(fd, request).ok()) return false;
  std::string body;
  cousins::Result<bool> got = cousins::svc::ReadFrame(fd, &body);
  if (!got.ok() || !*got) return false;
  cousins::Result<cousins::svc::ParsedResponse> parsed =
      cousins::svc::ParseResponse(body);
  if (!parsed.ok() || !parsed->ok) return false;
  *payload = std::move(parsed->payload);
  return true;
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct LoopStats {
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
};

/// Open loop: request k is due at start + k / qps.
void QueryLoop(const std::string& socket, double qps, Clock::time_point start,
               Clock::time_point stop, uint64_t seed, int labels,
               bool frequent, LoopStats* stats) {
  int fd = -1;
  try {
    fd = ConnectUnix(socket);
  } catch (const std::exception&) {
    ++stats->attempted;
    ++stats->failed;
    return;
  }
  cousins::Rng rng(seed);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / qps));
  std::string payload;
  for (int64_t k = 0;; ++k) {
    const Clock::time_point due = start + k * period;
    if (due >= stop) break;
    std::this_thread::sleep_until(due);
    std::string request = "QUERY frequent-pairs";
    if (!frequent) {
      const auto a = rng.Uniform(static_cast<uint64_t>(labels));
      const auto b = rng.Uniform(static_cast<uint64_t>(labels));
      static const char* kDistances[] = {"0", "0.5", "1", "1.5"};
      request = "QUERY support taxon" + std::to_string(a) + " taxon" +
                std::to_string(b) + " " + kDistances[rng.Uniform(4)];
    }
    const Clock::time_point sent = Clock::now();
    const bool ok = RoundTrip(fd, request, &payload);
    const Clock::time_point done = Clock::now();
    ++stats->attempted;
    if (!ok) {
      ++stats->failed;
      continue;
    }
    stats->latency_ms.push_back(Ms(done - due));
    stats->lateness_ms.push_back(Ms(sent - due));
  }
  close(fd);
}

void Summarize(const std::string& prefix, const std::vector<double>& samples,
               JsonLine* out) {
  out->Num(prefix + "_n", samples.size());
  out->Num(prefix + "_p50_ms", Percentile(samples, 0.50));
  out->Num(prefix + "_p75_ms", Percentile(samples, 0.75));
  out->Num(prefix + "_p90_ms", Percentile(samples, 0.90));
  out->Num(prefix + "_p99_ms", Percentile(samples, 0.99));
}

}  // namespace

int RunFeed(const Args& args) {
  const std::string socket = RequiredFlag(args, "socket");
  const double seconds = DoubleFlag(args, "seconds", 10);
  const int64_t batch = IntFlag(args, "batch", 16);
  const double qps = DoubleFlag(args, "qps", 100);
  const int labels = static_cast<int>(IntFlag(args, "labels", 64));
  const auto seed = static_cast<uint64_t>(IntFlag(args, "seed", 1));

  const std::vector<std::string> batches =
      SplitBatches(ReadFile(RequiredFlag(args, "feed")), 0,
                   static_cast<size_t>(batch));

  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  LoopStats support;
  LoopStats frequent;
  // --qps=0 runs the ingest loop alone (used to build the warm WAL).
  std::vector<std::thread> query_threads;
  if (qps > 0) {
    query_threads.emplace_back(QueryLoop, socket, qps, start, stop,
                               seed * 2 + 1, labels, false, &support);
    query_threads.emplace_back(QueryLoop, socket, qps, start, stop,
                               seed * 2 + 2, labels, true, &frequent);
  }

  LoopStats ingest;
  int64_t acked = 0;
  int fd = -1;
  try {
    fd = ConnectUnix(socket);
  } catch (const std::exception&) {
    // Counted as a failure; the query threads still run to `stop`.
    ++ingest.attempted;
    ++ingest.failed;
  }
  if (fd >= 0) {
    std::string payload;
    const bool cycle =
        std::find(args.begin(), args.end(), "--cycle") != args.end();
    for (size_t i = 0; i < batches.size() || (cycle && !batches.empty());
         ++i) {
      if (Clock::now() >= stop) break;
      const std::string& body = batches[i % batches.size()];
      const Clock::time_point sent = Clock::now();
      const bool ok = RoundTrip(fd, "INGEST\n" + body, &payload);
      const Clock::time_point done = Clock::now();
      ++ingest.attempted;
      if (!ok) {
        // A closed-loop feed must stay a prefix of the file for the
        // final oracle, so the first refused batch ends the loop.
        ++ingest.failed;
        break;
      }
      ingest.latency_ms.push_back(Ms(done - sent));
      ++acked;
    }
    close(fd);
  }
  for (std::thread& thread : query_threads) thread.join();

  // The answer the oracle checks, read after every ack has landed.
  {
    const int final_fd = ConnectUnix(socket);
    std::string payload;
    if (RoundTrip(final_fd, "QUERY frequent-pairs", &payload)) {
      WriteFile(RequiredFlag(args, "final"), payload);
    }
    close(final_fd);
  }

  std::vector<double> queries = support.latency_ms;
  queries.insert(queries.end(), frequent.latency_ms.begin(),
                 frequent.latency_ms.end());
  std::vector<double> lateness = support.lateness_ms;
  lateness.insert(lateness.end(), frequent.lateness_ms.begin(),
                  frequent.lateness_ms.end());
  JsonLine out;
  out.Num("elapsed_s", Ms(Clock::now() - start) / 1000.0);
  out.Num("acked_batches", acked);
  out.Num("acked_trees", acked * batch);
  out.Num("attempted",
          ingest.attempted + support.attempted + frequent.attempted);
  out.Num("failed", ingest.failed + support.failed + frequent.failed);
  Summarize("ingest", ingest.latency_ms, &out);
  Summarize("query", queries, &out);
  Summarize("support", support.latency_ms, &out);
  Summarize("frequent", frequent.latency_ms, &out);
  out.Num("lateness_p50_ms", Percentile(lateness, 0.50));
  out.Num("lateness_max_ms", Percentile(lateness, 1.0));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace perfbench
