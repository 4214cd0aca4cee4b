// The benchmark's workloads and the closed-loop phase runner that drives
// one dLSM engine (one shard, one memory node, SimEnv fabric) through them.
//
// All timings are SimEnv virtual time: measured host CPU of the engine's
// threads plus the modelled fabric. Inputs are generated before each
// phase starts; answer checks are a few compares per call. Every
// counter a phase reports is a delta over that phase (DbStats counters and
// verb histograms through Histogram::DeltaSince), never a cumulative
// snapshot.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/db.h"
#include "src/util/histogram.h"

namespace dlsm {
class SimEnv;
class MemoryNodeService;
namespace rdma {
class Fabric;
class Node;
}  // namespace rdma
}  // namespace dlsm

namespace perfbench {

inline constexpr int kKeyBytes = 16;
inline constexpr size_t kValueBytes = 400;
/// Near-data compaction workers on the memory node.
inline constexpr int kCompactionWorkers = 12;
/// Closed-loop client threads.
inline constexpr int kClients = 4;
inline constexpr int kMultiGetBatch = 16;
inline constexpr int kScanLength = 100;

/// One named workload: the deployment's shape and the closed-loop mix.
struct Workload {
  std::string name;
  /// Keys live in [0, keys); the load does `keys` uniform random Puts, so
  /// about 1/e of the range stays absent and reads see both answers.
  uint64_t keys = 400000;
  size_t memtable_size = 4 << 20;
  size_t sstable_size = 4 << 20;
  size_t cache_bytes = 0;    ///< Compute-side block cache; 0 = off.
  double zipf_theta = 0.0;   ///< 0 = uniform key choice.
  /// Call mix; fractions sum to 1. A MultiGet call reads kMultiGetBatch
  /// keys, a scan call is NewIterator + Seek + kScanLength Nexts.
  double get = 0, multiget = 0, put = 0, scan = 0;
  /// Calls per client in one measured round of the untraced run.
  uint64_t round_calls = 10000;
  /// Calls per client in the traced run (sized so no thread's trace
  /// buffer fills).
  uint64_t traced_calls = 2000;
};

/// The benchmark's workloads, in the order BENCHMARK.json lists them.
const std::vector<Workload>& Workloads();
/// nullptr for an unknown name.
const Workload* FindWorkload(const std::string& name);

enum OpKind { kGet = 0, kMultiGet = 1, kPut = 2, kScan = 3, kNumOpKinds = 4 };
const char* OpKindName(OpKind k);

/// Which keys exist, tracked from the generated inputs. Bit kIssued is set
/// before a Put of the key is posted, bit kAcked once one returned OK, so
/// a read may find a key only if it was issued and must find it if it was
/// acked before the read began.
class KeyLedger {
 public:
  explicit KeyLedger(uint64_t keys);
  void MarkIssued(uint64_t k) { state_[k].fetch_or(kIssued); }
  void MarkAcked(uint64_t k) { state_[k].fetch_or(kAcked); }
  bool Issued(uint64_t k) const { return state_[k].load() & kIssued; }
  bool Acked(uint64_t k) const { return state_[k].load() & kAcked; }
  uint64_t CountAcked() const;

 private:
  static constexpr uint8_t kIssued = 1;
  static constexpr uint8_t kAcked = 2;
  uint64_t keys_;
  std::unique_ptr<std::atomic<uint8_t>[]> state_;
};

/// Key k: k in decimal, zero-padded to kKeyBytes.
std::string MakeKey(uint64_t k);
/// Sets *value to the value of key: "<k>." then seeded filler,
/// kValueBytes long.
void MakeValue(const dlsm::Slice& key, uint64_t filler_seed,
               std::string* value);
/// True when value is a well-formed value of key.
bool ValueMatches(const dlsm::Slice& key, const dlsm::Slice& value);

/// Engine-side counters at one instant; phases subtract two of these.
struct Counters {
  dlsm::DbStats stats;
  uint64_t wire_bytes = 0;      ///< All fabric bytes, background included.
  uint64_t service_busy_ns = 0; ///< Memory-node compaction worker time.
};

/// Counter deltas between two snapshots of the same engine.
struct CounterDelta {
  dlsm::DbStats stats;  ///< Monotonic counters and verb histograms, delta.
  uint64_t wire_bytes = 0;
  uint64_t service_busy_ns = 0;
};
CounterDelta Subtract(const Counters& after, const Counters& before);

/// One closed-loop phase's outcome.
struct PhaseResult {
  uint64_t calls = 0;      ///< Client calls (a MultiGet batch is one).
  uint64_t key_ops = 0;    ///< Gets + MultiGet keys + Puts + scans; each
                           ///< one's answer is checked.
  uint64_t failed = 0;     ///< Non-OK, wrong-value or wrongly-NotFound.
  uint64_t get_keys = 0;   ///< Gets + MultiGet keys.
  uint64_t puts = 0;
  uint64_t scanned = 0;    ///< Entries returned by scans.
  uint64_t elapsed_ns = 0; ///< Virtual time from first call to last answer.
  /// Per-call virtual latency in ns, by OpKind.
  std::vector<uint64_t> latency_ns[kNumOpKinds];
  /// Every call's latency, whatever its kind.
  std::vector<uint64_t> all_latency_ns;
  CounterDelta delta;  ///< Engine counters over the phase.
  int l0_files_end = 0;
};

/// A loaded deployment. Construct through Deployment::Run.
class Deployment {
 public:
  /// Brings up SimEnv, fabric, memory node and engine for w, loads it
  /// from seed (uniform random fill, then Flush + WaitForBackgroundIdle,
  /// then one-entry flushes until L0 is empty), and runs body inside the
  /// simulation; tears everything down after.
  /// Returns false, with *error set, if the deployment could not be
  /// opened or loaded; body is not run then.
  static bool Run(const Workload& w, uint64_t seed,
                  const std::function<void(Deployment&)>& body,
                  std::string* error);

  const Workload& workload() const { return w_; }
  dlsm::DB* db() { return db_; }
  dlsm::SimEnv* env() { return env_; }
  const KeyLedger& ledger() const { return ledger_; }

  Counters Snapshot();
  /// Restarts every client's input stream at `stream`: two phases run
  /// after the same Reseed issue identical calls.
  void Reseed(uint64_t stream);
  /// Runs calls_per_client calls on each client thread, closed loop.
  /// Each client generates its inputs before the phase starts, so the
  /// timed loop only issues calls and checks answers. load = uniform Puts
  /// from the load stream instead of the workload mix.
  PhaseResult RunPhase(uint64_t calls_per_client, bool load = false);
  /// WaitForBackgroundIdle; returns its virtual duration in ns.
  uint64_t Drain(bool* ok);
  /// Total table bytes across levels ("dlsm.levels"), for space amp.
  uint64_t TableBytes();

 private:
  struct Client;
  Deployment(const Workload& w, uint64_t seed, dlsm::SimEnv* env,
             dlsm::rdma::Fabric* fabric, dlsm::rdma::Node* compute);
  ~Deployment();
  bool Load(std::string* error);
  bool FlushAndDrain(std::string* error);
  void Call(Client* c, OpKind kind, PhaseResult* out);
  void DoGet(Client* c, PhaseResult* out);
  void DoMultiGet(Client* c, PhaseResult* out);
  void DoPut(Client* c, PhaseResult* out);
  void DoScan(Client* c, PhaseResult* out);

  const Workload& w_;
  uint64_t seed_;
  dlsm::SimEnv* env_;
  dlsm::rdma::Fabric* fabric_;
  dlsm::rdma::Node* compute_;
  dlsm::MemoryNodeService* service_ = nullptr;
  dlsm::DB* db_ = nullptr;
  KeyLedger ledger_;
  std::vector<std::unique_ptr<Client>> clients_;
};

/// The p-th percentile of unsorted samples, in the samples' unit, as the
/// mean of the order statistics ranked within half a percentile point of
/// p (at least one sample): exact for small sets, and free of the
/// clock's integer steps for large ones. 0 for no samples. Sorts samples.
double Percentile(std::vector<uint64_t>* samples, double p);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
