// dLSM benchmark driver: runs one named workload against a freshly loaded
// engine and prints its metrics. perfbench/run.py builds and calls it;
// see perfbench/README.md for the workloads and metric definitions.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace_out FILE]
//
// --trace 0 (end-to-end): sets up kSetups independent deployments from the
// same seed, each on the next allowed CPU (setup_s is the median of their
// wall set-up times). Each one
// warms up for a round, then runs measured rounds for its share of
// --seconds of wall time (at least kMinRounds). A round is a closed-loop
// phase followed by WaitForBackgroundIdle; every metric is the median
// over the rounds of all deployments.
//
// --trace 1 (per layer): sets up once, warms up, runs an untraced
// reference phase, then the same-sized phase with the tracer on, and
// writes the Chrome trace to --trace_out for run.py to fold. Counter
// metrics are deltas over the traced phase and its drain.
//
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics, samples (sample count per metric) and, traced, trace.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/flags.h"
#include "src/sim/sim_env.h"
#include "src/util/trace.h"
#include "src/workload.h"

namespace perfbench {
namespace {

constexpr int kSetups = 8;
constexpr int kMinRounds = 3;

using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; c++) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Confines the calling thread, and the threads it starts from now on, to
// one CPU. SimEnv runs exactly one simulated thread at a time, so this
// costs no parallelism; it keeps the hand-offs between simulated threads
// from migrating across CPUs, whose cost would land in the measured
// thread CPU time.
void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::printf("note: could not pin to CPU %d; timings may be noisier\n",
                cpu);
  }
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    metrics_.push_back(Metric{name, value, unit, samples});
  }
  void Fail(const std::string& why) {
    correct_ = false;
    std::printf("check failed: %s\n", why.c_str());
  }
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Prints every metric with its sample count, then the result line.
  void Print(const std::string& trace_json) const {
    std::string metrics, samples;
    char buf[512];
    for (const Metric& m : metrics_) {
      std::printf("%-40s %14.6g %-6s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
      std::snprintf(buf, sizeof(buf),
                    "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    metrics.empty() ? "" : ",", m.name.c_str(), m.value,
                    m.unit.c_str());
      metrics += buf;
      std::snprintf(buf, sizeof(buf), "%s\"%s\":%llu",
                    samples.empty() ? "" : ",", m.name.c_str(),
                    static_cast<unsigned long long>(m.samples));
      samples += buf;
    }
    std::string out = "{\"correct\":";
    out += correct_ && failed_ == 0 ? "true" : "false";
    out += ",\"attempted\":" + std::to_string(attempted_);
    out += ",\"failed\":" + std::to_string(failed_);
    out += ",\"metrics\":{" + metrics + "},\"samples\":{" + samples + "}";
    if (!trace_json.empty()) out += ",\"trace\":" + trace_json;
    out += "}";
    std::printf("%s\n", out.c_str());
  }

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// One phase plus the drain after it, with counters over both.
struct Round {
  PhaseResult phase;
  uint64_t drain_ns = 0;
  CounterDelta delta;  ///< Phase and drain.
  double kops_s() const {
    return Ratio(static_cast<double>(phase.key_ops) * 1e6,
                 static_cast<double>(phase.elapsed_ns + drain_ns));
  }
};

Round RunRound(Deployment& d, uint64_t calls, Report* report) {
  Round r;
  Counters before = d.Snapshot();
  r.phase = d.RunPhase(calls);
  bool idle = false;
  r.drain_ns = d.Drain(&idle);
  r.delta = Subtract(d.Snapshot(), before);
  report->Count(r.phase.key_ops, r.phase.failed);
  if (!idle) report->Fail("WaitForBackgroundIdle failed");
  return r;
}

void EndToEnd(const Workload& w, uint64_t seed, double seconds,
              const Clock::time_point& process_start, Report* report) {
  std::vector<double> setup_s, kops, p50, p99, wire;
  std::vector<uint64_t> by_kind[kNumOpKinds];
  uint64_t calls = 0;
  // Runs one round and keeps its figures.
  auto measure = [&](Deployment& d) {
    Round r = RunRound(d, w.round_calls, report);
    kops.push_back(r.kops_s());
    p50.push_back(Percentile(&r.phase.all_latency_ns, 50) / 1e3);
    p99.push_back(Percentile(&r.phase.all_latency_ns, 99) / 1e3);
    wire.push_back(Ratio(static_cast<double>(r.delta.wire_bytes),
                         static_cast<double>(r.phase.key_ops)));
    calls += r.phase.calls;
    for (int k = 0; k < kNumOpKinds; k++) {
      by_kind[k].insert(by_kind[k].end(), r.phase.latency_ns[k].begin(),
                        r.phase.latency_ns[k].end());
    }
    std::printf("round: %llu calls, %.1f kops/s, p50 %.2f us, p99 %.2f us, "
                "drain %.3f ms\n",
                static_cast<unsigned long long>(r.phase.calls), kops.back(),
                p50.back(), p99.back(), r.drain_ns / 1e6);
  };

  // Each deployment runs on the next allowed CPU: how fast a CPU runs
  // depends on what else shares its core, so rotating spreads that
  // across the run instead of betting the whole run on one CPU.
  const std::vector<int> cpus = AllowedCpus();
  Clock::time_point t = process_start;
  for (int s = 0; s < kSetups; s++) {
    if (!cpus.empty()) PinTo(cpus[s % cpus.size()]);
    std::string error;
    bool ok = Deployment::Run(
        w, seed,
        [&](Deployment& d) {
          setup_s.push_back(Seconds(Clock::now() - t));
          std::string levels;
          d.db()->GetProperty("dlsm.levels", &levels);
          std::printf("set-up %d loaded in %.3f s:\n%s", s, setup_s.back(),
                      levels.c_str());
          RunRound(d, w.round_calls, report);  // Warm-up, not measured.
          Clock::time_point m0 = Clock::now();
          for (int n = 0; n < kMinRounds ||
                          Seconds(Clock::now() - m0) < seconds / kSetups;
               n++) {
            measure(d);
          }
        },
        &error);
    if (!ok) {
      report->Fail(error);
      return;
    }
    t = Clock::now();
  }

  for (int k = 0; k < kNumOpKinds; k++) {
    if (by_kind[k].empty()) continue;
    std::printf("%s latency over all rounds: p50 %.2f us, p99 %.2f us "
                "(n=%zu)\n",
                OpKindName(static_cast<OpKind>(k)),
                Percentile(&by_kind[k], 50) / 1e3,
                Percentile(&by_kind[k], 99) / 1e3, by_kind[k].size());
  }
  uint64_t n = kops.size();
  report->Set("kops_s", Median(kops), "kops/s", n);
  report->Set("p50_us", Median(p50), "us", calls);
  report->Set("p99_us", Median(p99), "us", calls);
  report->Set("wire_bytes_per_op", Median(wire), "B", n);
  report->Set("setup_s", Median(setup_s), "s", setup_s.size());
}

void LatencyMetrics(PhaseResult* p, Report* report) {
  for (int k = 0; k < kNumOpKinds; k++) {
    std::vector<uint64_t>* v = &p->latency_ns[k];
    std::string base = std::string("client.") +
                       OpKindName(static_cast<OpKind>(k));
    report->Set(base + "_p50_us", Percentile(v, 50) / 1e3, "us", v->size());
    report->Set(base + "_p99_us", Percentile(v, 99) / 1e3, "us", v->size());
  }
}

void PerLayer(Deployment& d, Report* report, const std::string& trace_out,
              std::string* trace_json) {
  const Workload& w = d.workload();
  RunRound(d, w.round_calls, report);  // Warm-up, not measured.
  Round ref = RunRound(d, w.traced_calls, report);

  dlsm::trace::EnableWithEnv(d.env());
  Round r = RunRound(d, w.traced_calls, report);
  int l0_end = r.phase.l0_files_end;
  dlsm::trace::Tracer::Disable();
  uint64_t dropped = dlsm::trace::Tracer::dropped_events();
  if (!dlsm::trace::Tracer::WriteChromeTrace(trace_out)) {
    report->Fail("could not write " + trace_out);
  }

  const PhaseResult& p = r.phase;
  const dlsm::DbStats& s = r.delta.stats;
  const auto& read = s.rdma.read;
  const double ops = static_cast<double>(p.key_ops);
  const double gets = static_cast<double>(p.get_keys);
  const double puts = static_cast<double>(p.puts);
  const uint64_t n = p.key_ops;

  report->Set("bench.untraced_kops_s", ref.kops_s(), "kops/s",
              ref.phase.key_ops);
  report->Set("bench.traced_kops_s", r.kops_s(), "kops/s", n);
  report->Set("bench.trace_overhead", 1.0 - Ratio(r.kops_s(), ref.kops_s()),
              "frac", n);
  report->Set("bench.failed_op_frac",
              Ratio(static_cast<double>(report->failed()),
                    static_cast<double>(report->attempted())),
              "frac", report->attempted());
  report->Set("trace.dropped_events", static_cast<double>(dropped), "count",
              n);
  LatencyMetrics(&ref.phase, report);

  report->Set("bloom.skips_per_get", Ratio(s.bloom_useful, gets), "count",
              p.get_keys);
  report->Set("rdma.read_verbs_per_get", Ratio(read.ops, gets), "count",
              p.get_keys);
  report->Set("rdma.read_bytes_per_get", Ratio(read.bytes, gets), "B",
              p.get_keys);
  report->Set("rdma.read_wire_p50_us", read.latency_us.Percentile(50), "us",
              read.latency_us.Count());
  report->Set("rdma.read_wire_p99_us", read.latency_us.Percentile(99), "us",
              read.latency_us.Count());

  report->Set("block_cache.hit_ratio",
              Ratio(s.cache_hits, s.cache_hits + s.cache_misses), "frac",
              s.cache_hits + s.cache_misses);
  report->Set("block_cache.evictions_per_op", Ratio(s.cache_evictions, ops),
              "count", n);
  report->Set("block_cache.admission_reject_ratio",
              Ratio(s.cache_admission_rejects,
                    s.cache_admission_rejects + s.cache_inserts),
              "frac", s.cache_admission_rejects + s.cache_inserts);

  report->Set("rdma.atomic_per_put", Ratio(s.rdma.atomic.ops, puts), "count",
              p.puts);
  report->Set("rdma.write_bytes_per_put", Ratio(s.rdma.write.bytes, puts),
              "B", p.puts);
  report->Set("db_impl.stall_us_per_put", Ratio(s.stall_ns / 1e3, puts), "us",
              p.puts);
  report->Set("db_impl.drain_s", r.drain_ns / 1e9, "s", 1);
  report->Set("table_sink.flushes", static_cast<double>(s.flushes), "count",
              1);
  report->Set("memory_node_service.compactions",
              static_cast<double>(s.compactions), "count", 1);
  report->Set("memory_node_service.cpu_util",
              Ratio(static_cast<double>(r.delta.service_busy_ns),
                    static_cast<double>(p.elapsed_ns + r.drain_ns) *
                        kCompactionWorkers),
              "frac", 1);
  // Bytes written to remote tables (flush WRITEs plus compaction output)
  // per user byte Put.
  report->Set("compaction.write_amp",
              Ratio(static_cast<double>(s.rdma.write.bytes +
                                        s.compaction_output_bytes),
                    puts * (kKeyBytes + kValueBytes)),
              "ratio", p.puts);
  report->Set("compaction.rpc_inflight_peak",
              static_cast<double>(s.compaction_rpc_inflight_peak), "count", 1);
  report->Set("rpc.retries", static_cast<double>(s.rpc_retries), "count", 1);
  report->Set("version.l0_files_end", l0_end, "count", 1);
  report->Set("version.space_amp",
              Ratio(static_cast<double>(d.TableBytes()),
                    static_cast<double>(d.ledger().CountAcked()) *
                        (kKeyBytes + kValueBytes)),
              "ratio", 1);
  report->Set("db_iter.read_bytes_per_entry",
              Ratio(read.bytes, static_cast<double>(p.scanned)), "B",
              p.scanned);

  *trace_json = "{\"file\":\"" + trace_out + "\",\"key_ops\":" +
                std::to_string(n) + ",\"dropped_events\":" +
                std::to_string(dropped) + "}";
}

int Main(int argc, char** argv) {
  Clock::time_point process_start = Clock::now();
  std::string workload, trace_out;
  uint64_t seed = 1, seconds = 10, traced = 0;
  FlagSet flags;
  flags.String("workload", &workload, "workload name");
  flags.Uint("seed", &seed, 0, UINT64_MAX, "input seed");
  flags.Uint("seconds", &seconds, 1, 3600, "wall seconds of measured rounds");
  flags.Uint("trace", &traced, 0, 1, "1 = traced per-layer run");
  flags.String("trace_out", &trace_out, "Chrome trace path (--trace 1)");
  std::string error;
  const Workload* w = nullptr;
  if (flags.Parse(argc, argv, &error)) {
    w = FindWorkload(workload);
    if (w == nullptr) error = "unknown workload '" + workload + "'";
    if (traced == 1 && trace_out.empty()) error = "--trace 1 needs --trace_out";
  }
  if (w == nullptr || !error.empty()) {
    std::fprintf(stderr, "perfbench_driver: %s\nflags:\n%s", error.c_str(),
                 flags.Usage().c_str());
    return 2;
  }

  Report report;
  std::string trace_json;
  if (traced == 0) {
    EndToEnd(*w, seed, static_cast<double>(seconds), process_start, &report);
  } else {
    PinTo(sched_getcpu());
    std::string error;
    bool ok = Deployment::Run(
        *w, seed,
        [&](Deployment& d) { PerLayer(d, &report, trace_out, &trace_json); },
        &error);
    if (!ok) report.Fail(error);
  }
  report.Print(trace_json);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
