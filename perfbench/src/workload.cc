#include "src/workload.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <span>

#include "src/core/db_impl.h"
#include "src/core/memory_node_service.h"
#include "src/rdma/fabric.h"
#include "src/sim/sim_env.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "src/util/trace.h"

namespace perfbench {

using dlsm::DB;
using dlsm::Slice;
using dlsm::Status;

namespace {

constexpr int kComputeCores = 24;
constexpr int kMemoryCores = 4;
constexpr uint64_t kEntryBytes = kKeyBytes + kValueBytes + 28;
// More than enough flushes to reach any L0 compaction trigger.
constexpr uint64_t kMaxSettlePasses = 64;
// Scan prefetch window. The engine's default 2 MiB is sized for full-table
// scans: a short scan (about 41 KB) would never reach the second window,
// leaving the double-buffered prefetch unmeasured, and the bytes it
// fetched would follow table boundaries rather than the scan. Only
// scan_short scans.
constexpr size_t kScanPrefetchBytes = 32 << 10;

uint64_t Mix(uint64_t seed, uint64_t stream) {
  return dlsm::Hash64(seed * 0x9E3779B97F4A7C15ull + stream + 1);
}

// Value filler: a fixed block of seeded letters; a value copies a window
// of it, so generating inputs costs a memcpy rather than 400 draws.
const std::string& FillerBlock() {
  static const std::string block = [] {
    dlsm::Random rnd(301);
    std::string s(1 << 16, ' ');
    for (char& ch : s) ch = static_cast<char>('a' + rnd.Uniform(26));
    return s;
  }();
  return block;
}

// Parses a 16-digit key; false if malformed.
bool ParseKey(const Slice& key, uint64_t* k) {
  if (key.size() != kKeyBytes) return false;
  uint64_t v = 0;
  for (size_t i = 0; i < key.size(); i++) {
    char ch = key[i];
    if (ch < '0' || ch > '9') return false;
    v = v * 10 + static_cast<uint64_t>(ch - '0');
  }
  *k = v;
  return true;
}

// The value of key k starts with k in decimal and a '.'; keys are k
// zero-padded, so that prefix is the key without its leading zeros.
size_t LeadingZeros(const Slice& key) {
  size_t z = 0;
  while (z + 1 < key.size() && key[z] == '0') z++;
  return z;
}

dlsm::Options EngineOptions(const Workload& w, dlsm::Env* env) {
  dlsm::Options options;
  options.env = env;
  options.memtable_size = w.memtable_size;
  options.sstable_size = w.sstable_size;
  options.estimated_entry_size = kEntryBytes;
  options.l0_stop_writes_trigger = 36;
  options.max_immutables = 16;
  options.flush_threads = 4;
  options.compaction_scheduler_threads = 4;
  options.max_subcompactions = 12;
  options.block_cache_size = w.cache_bytes;
  options.cache_shards = 16;
  options.cache_admission = true;
  options.scan_prefetch_size = kScanPrefetchBytes;
  // Room for the data set plus compaction churn and slab rounding.
  options.flush_region_size = w.keys * kEntryBytes * 8 + (512ull << 20);
  return options;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> v;
    Workload get_uniform;
    // Cache off, uniform: the remote read path (probes, index, bloom,
    // READ verbs) does nearly all the work.
    get_uniform.name = "get_uniform";
    get_uniform.get = 0.8;
    get_uniform.multiget = 0.2;
    get_uniform.round_calls = 6000;
    get_uniform.traced_calls = 5000;
    v.push_back(get_uniform);

    Workload zipf;
    // The zipf working set does not fit a cache of 1/20 of the data, so
    // the cache hit, miss, fill and evict paths dominate.
    zipf.name = "get_zipf_cache";
    zipf.zipf_theta = 0.99;
    zipf.cache_bytes = zipf.keys * (kKeyBytes + kValueBytes) / 20;
    zipf.get = 1.0;
    zipf.round_calls = 10000;
    zipf.traced_calls = 8000;
    v.push_back(zipf);

    Workload put_heavy;
    // Small MemTables and SSTables: flush and near-data compaction cycle
    // many times per round; the Gets expose write gains that cost reads.
    put_heavy.name = "put_heavy";
    put_heavy.memtable_size = 1 << 20;
    put_heavy.sstable_size = 1 << 20;
    put_heavy.put = 0.9;
    put_heavy.get = 0.1;
    put_heavy.round_calls = 10000;
    put_heavy.traced_calls = 15000;
    v.push_back(put_heavy);

    Workload scan;
    // Cache off, Seek to a uniform key then 100 Next: the iterator and
    // the scan prefetch window.
    scan.name = "scan_short";
    scan.scan = 1.0;
    scan.round_calls = 1500;
    scan.traced_calls = 400;
    v.push_back(scan);
    return v;
  }();
  return all;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const char* OpKindName(OpKind k) {
  switch (k) {
    case kGet:
      return "get";
    case kMultiGet:
      return "multiget";
    case kPut:
      return "put";
    case kScan:
      return "scan";
    case kNumOpKinds:
      break;
  }
  return "?";
}

KeyLedger::KeyLedger(uint64_t keys)
    : keys_(keys), state_(new std::atomic<uint8_t>[keys]) {
  for (uint64_t i = 0; i < keys; i++) state_[i].store(0);
}

uint64_t KeyLedger::CountAcked() const {
  uint64_t n = 0;
  for (uint64_t i = 0; i < keys_; i++) n += Acked(i) ? 1 : 0;
  return n;
}

std::string MakeKey(uint64_t k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%0*llu", kKeyBytes,
                static_cast<unsigned long long>(k));
  return std::string(buf);
}

void MakeValue(const Slice& key, uint64_t filler_seed, std::string* value) {
  size_t z = LeadingZeros(key);
  value->assign(key.data() + z, key.size() - z);
  value->push_back('.');
  const std::string& block = FillerBlock();
  value->append(block, filler_seed % (block.size() - kValueBytes),
                kValueBytes - value->size());
}

bool ValueMatches(const Slice& key, const Slice& value) {
  size_t z = LeadingZeros(key);
  size_t n = key.size() - z;
  return value.size() == kValueBytes &&
         std::memcmp(value.data(), key.data() + z, n) == 0 && value[n] == '.';
}

CounterDelta Subtract(const Counters& after, const Counters& before) {
  const dlsm::DbStats& a = after.stats;
  const dlsm::DbStats& b = before.stats;
  CounterDelta d;
  dlsm::DbStats& s = d.stats;
  s.writes = a.writes - b.writes;
  s.reads = a.reads - b.reads;
  s.flushes = a.flushes - b.flushes;
  s.compactions = a.compactions - b.compactions;
  s.compaction_input_bytes =
      a.compaction_input_bytes - b.compaction_input_bytes;
  s.compaction_output_bytes =
      a.compaction_output_bytes - b.compaction_output_bytes;
  s.stall_ns = a.stall_ns - b.stall_ns;
  s.bloom_useful = a.bloom_useful - b.bloom_useful;
  // A high-water gauge since open; it has no per-phase delta.
  s.compaction_rpc_inflight_peak = a.compaction_rpc_inflight_peak;
  s.read_retries = a.read_retries - b.read_retries;
  s.flush_retries = a.flush_retries - b.flush_retries;
  s.rpc_retries = a.rpc_retries - b.rpc_retries;
  s.rpc_timeouts = a.rpc_timeouts - b.rpc_timeouts;
  s.watchdog_stalls = a.watchdog_stalls - b.watchdog_stalls;
  s.tables_migrated = a.tables_migrated - b.tables_migrated;
  s.migration_bytes = a.migration_bytes - b.migration_bytes;
  s.cache_hits = a.cache_hits - b.cache_hits;
  s.cache_misses = a.cache_misses - b.cache_misses;
  s.cache_inserts = a.cache_inserts - b.cache_inserts;
  s.cache_evictions = a.cache_evictions - b.cache_evictions;
  s.cache_admission_rejects =
      a.cache_admission_rejects - b.cache_admission_rejects;
  for (int i = 0; i < dlsm::rdma::kNumVerbClasses; i++) {
    auto c = static_cast<dlsm::rdma::VerbClass>(i);
    const dlsm::rdma::VerbClassStats& va = a.rdma.cls(c);
    const dlsm::rdma::VerbClassStats& vb = b.rdma.cls(c);
    dlsm::rdma::VerbClassStats& vd = s.rdma.cls(c);
    vd.ops = va.ops - vb.ops;
    vd.bytes = va.bytes - vb.bytes;
    vd.errors = va.errors - vb.errors;
    vd.latency_us = va.latency_us.DeltaSince(vb.latency_us);
  }
  s.rdma.posted = a.rdma.posted - b.rdma.posted;
  s.rdma.completed = a.rdma.completed - b.rdma.completed;
  s.rdma.abandoned = a.rdma.abandoned - b.rdma.abandoned;
  s.rdma.reconnects = a.rdma.reconnects - b.rdma.reconnects;
  s.rdma.outstanding = a.rdma.outstanding;
  s.rdma.max_outstanding = a.rdma.max_outstanding;
  d.wire_bytes = after.wire_bytes - before.wire_bytes;
  d.service_busy_ns = after.service_busy_ns - before.service_busy_ns;
  return d;
}

double Percentile(std::vector<uint64_t>* samples, double p) {
  const size_t n = samples->size();
  if (n == 0) return 0;
  std::sort(samples->begin(), samples->end());
  auto rank = [n](double q) {
    double r = q / 100.0 * static_cast<double>(n);
    return std::min(n - 1, static_cast<size_t>(std::max(r, 0.0)));
  };
  size_t lo = rank(p - 0.5);
  size_t hi = std::max(lo + 1, rank(p + 0.5));
  double sum = 0;
  for (size_t i = lo; i < hi; i++) sum += static_cast<double>((*samples)[i]);
  return sum / static_cast<double>(hi - lo);
}

// One client's inputs for one phase, generated before the phase starts
// so the timed loop only issues calls and checks answers.
struct Plan {
  std::vector<OpKind> kinds;      ///< One per call.
  std::vector<uint64_t> ids;      ///< Key ids, consumed in call order.
  std::vector<std::string> keys;  ///< ids formatted.
  std::vector<uint64_t> fillers;  ///< One per Put.
};

// Per-client generator state; persists across phases so a run's inputs
// are one deterministic stream per (seed, client).
struct Deployment::Client {
  Client(uint64_t seed, int id, const Workload& w)
      : rnd(Mix(seed, id)), load_rnd(Mix(seed, 1000 + id)) {
    Reseed(seed, 0, id, w);
  }
  void Reseed(uint64_t seed, uint64_t stream, int id, const Workload& w) {
    uint64_t s = Mix(seed, stream * 4096 + id);
    rnd = dlsm::Random(s);
    if (w.zipf_theta > 0) {
      zipf = std::make_unique<dlsm::ZipfianGenerator>(w.keys, w.zipf_theta,
                                                      Mix(s, 1));
    }
  }
  uint64_t ChooseKey(const Workload& w) {
    if (zipf == nullptr) return rnd.Uniform(w.keys);
    // Scrambled zipf rank, so the hot keys spread over the key space.
    return dlsm::Hash64(zipf->Next()) % w.keys;
  }
  void AddKey(uint64_t k) {
    plan.ids.push_back(k);
    plan.keys.push_back(MakeKey(k));
  }
  // A load plan is `calls` uniform Puts from the load stream.
  void MakePlan(const Workload& w, uint64_t calls, bool load) {
    plan.kinds.clear();
    plan.ids.clear();
    plan.keys.clear();
    plan.fillers.clear();
    for (uint64_t i = 0; i < calls; i++) {
      OpKind kind = kPut;
      if (!load) {
        double x = rnd.NextDouble();
        kind = x < w.get                          ? kGet
               : x < w.get + w.multiget          ? kMultiGet
               : x < w.get + w.multiget + w.put  ? kPut
                                                  : kScan;
      }
      plan.kinds.push_back(kind);
      dlsm::Random* r = load ? &load_rnd : &rnd;
      switch (kind) {
        case kGet:
          AddKey(ChooseKey(w));
          break;
        case kMultiGet:
          for (int j = 0; j < kMultiGetBatch; j++) AddKey(ChooseKey(w));
          break;
        case kPut:
          AddKey(r->Uniform(w.keys));
          plan.fillers.push_back(r->Next64());
          break;
        case kScan:
          AddKey(rnd.Uniform(w.keys));
          break;
        case kNumOpKinds:
          break;
      }
    }
  }

  dlsm::Random rnd;
  dlsm::Random load_rnd;
  std::unique_ptr<dlsm::ZipfianGenerator> zipf;
  Plan plan;
  size_t next_key = 0;   // Cursor into plan.ids / plan.keys.
  size_t next_fill = 0;  // Cursor into plan.fillers.
  // Call scratch.
  std::string value;
  std::vector<Slice> slices;
  std::vector<std::string> values;
  std::vector<Status> statuses;
  std::vector<uint8_t> must_find;
};

Deployment::Deployment(const Workload& w, uint64_t seed, dlsm::SimEnv* env,
                       dlsm::rdma::Fabric* fabric, dlsm::rdma::Node* compute)
    : w_(w), seed_(seed), env_(env), fabric_(fabric), compute_(compute),
      ledger_(w.keys) {
  for (int c = 0; c < kClients; c++) {
    clients_.push_back(std::make_unique<Client>(seed, c, w));
  }
}

Deployment::~Deployment() = default;

bool Deployment::Run(const Workload& w, uint64_t seed,
                     const std::function<void(Deployment&)>& body,
                     std::string* error) {
  dlsm::SimEnv env;
  dlsm::rdma::Fabric fabric(&env);
  // Memory-node DRAM is reserved lazily (MAP_NORESERVE): only touched
  // pages cost host memory.
  dlsm::rdma::Node* compute =
      fabric.AddNode("compute", kComputeCores, 2ull << 30);
  dlsm::rdma::Node* memory = fabric.AddNode(
      "memory", kMemoryCores, w.keys * kEntryBytes * 10 + (2ull << 30));
  bool ok = false;
  env.Run(0, [&] {
    dlsm::MemoryNodeService service(&fabric, memory, kCompactionWorkers);
    service.Start();
    Deployment d(w, seed, &env, &fabric, compute);
    d.service_ = &service;
    dlsm::DbDeps deps;
    deps.fabric = &fabric;
    deps.compute = compute;
    deps.memory = &service;
    Status s = dlsm::DLsmDB::Open(EngineOptions(w, &env), deps, &d.db_);
    if (!s.ok()) {
      *error = "open: " + s.ToString();
    } else if (d.Load(error)) {
      ok = true;
      body(d);
    }
    if (d.db_ != nullptr) {
      Status c = d.db_->Close();
      if (!c.ok() && ok) {
        ok = false;
        *error = "close: " + c.ToString();
      }
      delete d.db_;
      d.db_ = nullptr;
    }
    service.Stop();
  });
  return ok;
}

bool Deployment::FlushAndDrain(std::string* error) {
  Status s;
  {
    dlsm::trace::TraceSpan span("bench.flush", "bench");
    s = db_->Flush();
  }
  bool idle = false;
  if (s.ok()) Drain(&idle);
  if (!s.ok() || !idle) {
    *error = "load: flush/idle failed " + s.ToString();
    return false;
  }
  return true;
}

bool Deployment::Load(std::string* error) {
  uint64_t per_client = (w_.keys + kClients - 1) / kClients;
  PhaseResult r = RunPhase(per_client, /*load=*/true);
  if (r.failed != 0) {
    *error = "load: " + std::to_string(r.failed) + " Puts failed";
    return false;
  }
  if (!FlushAndDrain(error)) return false;
  // How many L0 tables the load leaves depends on how host timing
  // interleaved flushes with compactions, and each one costs every read
  // and scan a probe. Settle to an empty L0 so each deployment starts
  // from the same shape: rewrite one loaded key with a fresh valid value
  // and flush it as a one-entry table until the L0 trigger compacts L0.
  uint64_t k = 0;
  while (k < w_.keys && !ledger_.Acked(k)) k++;
  std::string key = MakeKey(k), value;
  for (uint64_t pass = 0; db_->NumFilesAtLevel(0) > 0; pass++) {
    if (pass == kMaxSettlePasses) {
      *error = "load: L0 did not drain";
      return false;
    }
    MakeValue(key, pass, &value);
    Status s = db_->Put(dlsm::WriteOptions(), key, value);
    if (!s.ok()) {
      *error = "load: " + s.ToString();
      return false;
    }
    if (!FlushAndDrain(error)) return false;
  }
  return true;
}

void Deployment::Reseed(uint64_t stream) {
  for (int c = 0; c < kClients; c++) {
    clients_[c]->Reseed(seed_, stream, c, w_);
  }
}

Counters Deployment::Snapshot() {
  Counters c;
  c.stats = db_->GetStats();
  c.wire_bytes = fabric_->wire_bytes();
  c.service_busy_ns = service_->worker_busy_ns();
  return c;
}

uint64_t Deployment::Drain(bool* ok) {
  uint64_t t0 = env_->NowNanos();
  Status s;
  {
    dlsm::trace::TraceSpan span("bench.drain", "bench");
    s = db_->WaitForBackgroundIdle();
  }
  *ok = s.ok();
  return env_->NowNanos() - t0;
}

uint64_t Deployment::TableBytes() {
  std::string levels;
  if (!db_->GetProperty("dlsm.levels", &levels)) return 0;
  uint64_t total = 0;
  size_t pos = 0;
  while (pos < levels.size()) {
    size_t eol = levels.find('\n', pos);
    if (eol == std::string::npos) eol = levels.size();
    std::string line = levels.substr(pos, eol - pos);
    int level = 0, files = 0;
    unsigned long long bytes = 0;
    if (std::sscanf(line.c_str(), "L%d: %d files, %llu bytes", &level, &files,
                    &bytes) == 3) {
      total += bytes;
    }
    pos = eol + 1;
  }
  return total;
}

PhaseResult Deployment::RunPhase(uint64_t calls_per_client, bool load) {
  const int n = kClients;
  std::vector<PhaseResult> per(n);
  for (PhaseResult& p : per) {
    for (auto& v : p.latency_ns) v.reserve(calls_per_client);
    p.all_latency_ns.reserve(calls_per_client);
  }
  dlsm::Barrier start(env_, n + 1);
  dlsm::Barrier stop(env_, n + 1);
  std::vector<dlsm::ThreadHandle> threads;
  for (int c = 0; c < n; c++) {
    threads.push_back(env_->StartThread(
        compute_->env_node(), "client", [&, c] {
          Client* cl = clients_[c].get();
          cl->MakePlan(w_, calls_per_client, load);
          cl->next_key = cl->next_fill = 0;
          start.Arrive();
          for (uint64_t i = 0; i < calls_per_client; i++) {
            Call(cl, cl->plan.kinds[i], &per[c]);
            if ((i & 63) == 63) env_->MaybeYield();
          }
          stop.Arrive();
        }));
  }
  Counters before = Snapshot();
  start.Arrive();
  uint64_t t0 = env_->NowNanos();
  stop.Arrive();
  uint64_t t1 = env_->NowNanos();
  for (dlsm::ThreadHandle h : threads) env_->Join(h);
  Counters after = Snapshot();

  PhaseResult r;
  for (PhaseResult& p : per) {
    r.calls += p.calls;
    r.key_ops += p.key_ops;
    r.failed += p.failed;
    r.get_keys += p.get_keys;
    r.puts += p.puts;
    r.scanned += p.scanned;
    for (int k = 0; k < kNumOpKinds; k++) {
      r.latency_ns[k].insert(r.latency_ns[k].end(), p.latency_ns[k].begin(),
                             p.latency_ns[k].end());
    }
    r.all_latency_ns.insert(r.all_latency_ns.end(), p.all_latency_ns.begin(),
                            p.all_latency_ns.end());
  }
  r.elapsed_ns = t1 - t0;
  r.delta = Subtract(after, before);
  r.l0_files_end = db_->NumFilesAtLevel(0);
  return r;
}

void Deployment::Call(Client* c, OpKind kind, PhaseResult* out) {
  size_t before = out->all_latency_ns.size();
  switch (kind) {
    case kGet:
      DoGet(c, out);
      break;
    case kMultiGet:
      DoMultiGet(c, out);
      break;
    case kPut:
      DoPut(c, out);
      break;
    case kScan:
      DoScan(c, out);
      break;
    case kNumOpKinds:
      break;
  }
  out->calls++;
  out->latency_ns[kind].push_back(out->all_latency_ns[before]);
}

void Deployment::DoGet(Client* c, PhaseResult* out) {
  const uint64_t k = c->plan.ids[c->next_key];
  const std::string& key = c->plan.keys[c->next_key++];
  const bool must_find = ledger_.Acked(k);
  uint64_t t0 = env_->NowNanos();
  Status s;
  {
    dlsm::trace::TraceSpan span("bench.get", "bench");
    s = db_->Get(dlsm::ReadOptions(), key, &c->value);
  }
  out->all_latency_ns.push_back(env_->NowNanos() - t0);
  bool good = s.ok() ? ledger_.Issued(k) && ValueMatches(key, c->value)
                     : s.IsNotFound() && !must_find;
  out->key_ops++;
  out->get_keys++;
  if (!good) out->failed++;
}

void Deployment::DoMultiGet(Client* c, PhaseResult* out) {
  const size_t n = kMultiGetBatch;
  const size_t first = c->next_key;
  c->next_key += n;
  c->slices.resize(n);
  c->must_find.resize(n);
  for (size_t i = 0; i < n; i++) {
    c->slices[i] = Slice(c->plan.keys[first + i]);
    c->must_find[i] = ledger_.Acked(c->plan.ids[first + i]);
  }
  uint64_t t0 = env_->NowNanos();
  {
    dlsm::trace::TraceSpan span("bench.multiget", "bench");
    db_->MultiGet(dlsm::ReadOptions(),
                  std::span<const Slice>(c->slices.data(), n), &c->values,
                  &c->statuses);
  }
  out->all_latency_ns.push_back(env_->NowNanos() - t0);
  for (size_t i = 0; i < n; i++) {
    const Status& s = c->statuses[i];
    uint64_t k = c->plan.ids[first + i];
    bool good = s.ok() ? ledger_.Issued(k) &&
                             ValueMatches(c->slices[i], c->values[i])
                       : s.IsNotFound() && !c->must_find[i];
    out->key_ops++;
      out->get_keys++;
    if (!good) out->failed++;
  }
}

void Deployment::DoPut(Client* c, PhaseResult* out) {
  const uint64_t k = c->plan.ids[c->next_key];
  const std::string& key = c->plan.keys[c->next_key++];
  MakeValue(key, c->plan.fillers[c->next_fill++], &c->value);
  ledger_.MarkIssued(k);
  uint64_t t0 = env_->NowNanos();
  Status s;
  {
    dlsm::trace::TraceSpan span("bench.put", "bench");
    s = db_->Put(dlsm::WriteOptions(), key, c->value);
  }
  out->all_latency_ns.push_back(env_->NowNanos() - t0);
  if (s.ok()) ledger_.MarkAcked(k);
  out->key_ops++;
  out->puts++;
  if (!s.ok()) out->failed++;
}

void Deployment::DoScan(Client* c, PhaseResult* out) {
  const uint64_t k = c->plan.ids[c->next_key];
  const std::string& key = c->plan.keys[c->next_key++];
  // Completeness (no acked key skipped) is only decidable while nothing
  // writes concurrently; order, range and values are always checked.
  const bool exact = w_.put == 0;
  bool good = true;
  uint64_t next = k;  // Every key below `next` is accounted for.
  auto account = [&](uint64_t upto) {
    if (!exact) return;
    for (uint64_t j = next; j < upto; j++) {
      if (ledger_.Acked(j)) good = false;
    }
  };
  uint64_t t0 = env_->NowNanos();
  dlsm::trace::TraceSpan scan_span("bench.scan", "bench");
  std::unique_ptr<dlsm::Iterator> it;
  {
    dlsm::trace::TraceSpan span("bench.new_iterator", "bench");
    it.reset(db_->NewIterator(dlsm::ReadOptions()));
  }
  {
    dlsm::trace::TraceSpan span("bench.seek", "bench");
    it->Seek(key);
  }
  int n = 0;
  while (n < kScanLength && it->Valid()) {
    uint64_t j = 0;
    if (!ParseKey(it->key(), &j) || j < next || j >= w_.keys ||
        !ledger_.Issued(j) || !ValueMatches(it->key(), it->value())) {
      good = false;
    } else {
      account(j);
      next = j + 1;
    }
    n++;
    dlsm::trace::TraceSpan span("bench.next", "bench");
    it->Next();
  }
  bool exhausted = !it->Valid();
  if (!it->status().ok()) good = false;
  {
    dlsm::trace::TraceSpan span("bench.close_iterator", "bench");
    it.reset();
  }
  scan_span.End();
  out->all_latency_ns.push_back(env_->NowNanos() - t0);
  if (exhausted) account(w_.keys);
  out->key_ops++;
  out->scanned += static_cast<uint64_t>(n);
  if (!good) out->failed++;
}

}  // namespace perfbench
