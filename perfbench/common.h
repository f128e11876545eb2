// Shared pieces of the repository benchmark: workload specs, seeded input
// generation, exact percentiles and the in-memory span recorder.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "datasets/dataset.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/zipf.h"

namespace perfbench {

using K = int64_t;
using P = int64_t;

/// Client threads. Two leave room on a 4-core box for the scan fan-out
/// workers and keep noisy neighbours from swamping the bounds.
constexpr size_t kClients = 2;
constexpr size_t kShards = 8;
constexpr size_t kPreload = 2'000'000;
constexpr double kZipfTheta = 0.99;
/// Every kSampleEvery-th Get or Scan of a client is timed on its own.
constexpr uint64_t kSampleEvery = 8;
/// Per-thread op stream window; longer runs cycle through it (inserts
/// always take the next held-out key, so no key is inserted twice).
constexpr size_t kWindow = size_t{1} << 22;
/// Held-out keys drawn per client at least.
constexpr uint64_t kMinHeldOut = 200'000;
/// Max keys one short-range scan covers (paper §5: 1 to 100).
constexpr uint32_t kMaxScanKeys = 100;

enum OpKind : uint32_t { kGet = 0, kInsert = 1, kScan = 2, kAgg = 3 };
constexpr int kNumOpKinds = 4;

/// One op is a 32-bit code: kind in the top two bits, argument below.
///   get   arg = zipf rank, an index into Inputs::by_rank
///   scan  arg = start index into Inputs::sorted (23 bits) | (len-1) << 23
///   agg   arg = start index into Inputs::sorted; covers 1% of the preload
///   insert arg unused: the client takes its next held-out key
/// Ops of `kind` are timed when their stream position is a multiple of
/// this. Inserts and aggregates are rarer, so every one is timed and each
/// round still has a p99.
inline uint64_t SampleEvery(int kind) {
  return kind == kGet || kind == kScan ? kSampleEvery : 1;
}

inline uint32_t Encode(OpKind kind, uint32_t arg) {
  return (static_cast<uint32_t>(kind) << 30) | arg;
}
inline OpKind KindOf(uint32_t code) { return static_cast<OpKind>(code >> 30); }
inline uint32_t ArgOf(uint32_t code) { return code & ((1u << 30) - 1); }
constexpr uint32_t kScanIndexBits = 23;
static_assert(kPreload < (size_t{1} << kScanIndexBits), "scan index field");

/// The payload stored with each key, so every read is checked without an
/// oracle map.
inline P PayloadOf(K key) {
  return static_cast<P>(static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL +
                        0x632BE59BD9B4E019ULL);
}

struct WorkloadSpec {
  const char* name;
  alex::data::DatasetId dataset;
  // Op mix in per-mille.
  uint32_t get_pm, insert_pm, scan_pm, agg_pm;
  bool wal;
  bool cold;
  /// Million ops per second both clients sustain on the 4-vCPU Xeon VM
  /// the benchmark was tuned on, whose speed drifted by up to 1.7x over
  /// tens of minutes. A run executes seconds * nominal ops, so every run
  /// of one --seconds value ends on the same key set whatever its speed.
  double nominal_mops;
};

inline const std::vector<WorkloadSpec>& Workloads() {
  using alex::data::DatasetId;
  static const std::vector<WorkloadSpec> kSpecs = {
      {"read_heavy", DatasetId::kLognormal, 950, 50, 0, 0, false, false, 4.0},
      {"write_heavy", DatasetId::kLognormal, 500, 500, 0, 0, true, false,
       1.4},
      {"range_scan", DatasetId::kYcsb, 0, 50, 945, 5, false, false, 1.3},
      {"cold_read", DatasetId::kLognormal, 1000, 0, 0, 0, false, true, 0.7},
  };
  return kSpecs;
}

/// Everything the timed loops read, built from the seed before any timing.
struct Inputs {
  std::vector<K> sorted;        ///< preload keys, ascending (bulk load)
  std::vector<P> payloads;      ///< PayloadOf(sorted[i])
  std::vector<K> by_rank;       ///< preload keys in scrambled zipf-rank order
  std::vector<std::vector<uint32_t>> codes;  ///< per client, kWindow-capped
  std::vector<std::vector<K>> held_out;      ///< per client, insert order
  uint64_t ops_per_client = 0;               ///< timed ops per client
  uint64_t warm_per_client = 0;              ///< read-only warm-up ops
};

/// A short scan: a start index into the sorted preload and 1 to
/// kMaxScanKeys keys.
inline uint32_t DrawScanArg(alex::util::Xoshiro256& rng, size_t n) {
  const uint32_t len = 1 + static_cast<uint32_t>(rng.NextUint64(kMaxScanKeys));
  const uint32_t start = static_cast<uint32_t>(rng.NextUint64(n - kMaxScanKeys));
  return start | ((len - 1) << kScanIndexBits);
}

/// A 1%-selectivity aggregate: a start index into the sorted preload.
inline uint32_t DrawAggArg(alex::util::Xoshiro256& rng, size_t n) {
  return static_cast<uint32_t>(rng.NextUint64(n - n / 100));
}

inline uint32_t DrawCode(const WorkloadSpec& spec, alex::util::Xoshiro256& rng,
                         alex::util::ZipfGenerator& zipf, size_t n) {
  const uint32_t pick = static_cast<uint32_t>(rng.NextUint64(1000));
  if (pick < spec.get_pm) {
    return Encode(kGet, static_cast<uint32_t>(zipf.Next(rng)));
  }
  if (pick < spec.get_pm + spec.insert_pm) return Encode(kInsert, 0);
  if (pick < spec.get_pm + spec.insert_pm + spec.scan_pm) {
    return Encode(kScan, DrawScanArg(rng, n));
  }
  return Encode(kAgg, DrawAggArg(rng, n));
}

/// Scan range of a scan code: [sorted[i], sorted[i + len - 1]].
inline std::pair<size_t, size_t> ScanSpan(uint32_t arg) {
  const size_t start = arg & ((1u << kScanIndexBits) - 1);
  const size_t len = (arg >> kScanIndexBits) + 1;
  return {start, start + len - 1};
}
inline std::pair<size_t, size_t> AggSpan(uint32_t arg, size_t n) {
  return {arg, arg + n / 100 - 1};
}

/// Paper methodology (§5.1): draw preload + held-out distinct keys,
/// shuffle, bulk-load the sorted preload and insert only held-out keys.
inline Inputs BuildInputs(const WorkloadSpec& spec, uint64_t seed,
                          uint64_t total_ops, uint64_t warm_ops) {
  Inputs in;
  in.ops_per_client = total_ops / kClients;
  in.warm_per_client = warm_ops / kClients;
  const size_t n = kPreload;
  // Op streams first: how many inserts each client makes fixes how many
  // held-out keys to draw.
  std::vector<uint64_t> inserts(kClients, 0);
  for (size_t c = 0; c < kClients; ++c) {
    alex::util::Xoshiro256 rng(seed * 0x100000001B3ULL + 17 * (c + 1));
    alex::util::ZipfGenerator zipf(n, kZipfTheta);
    const size_t len =
        static_cast<size_t>(std::min<uint64_t>(in.ops_per_client, kWindow));
    std::vector<uint32_t>& codes = in.codes.emplace_back();
    codes.reserve(len);
    for (size_t i = 0; i < len; ++i) codes.push_back(DrawCode(spec, rng, zipf, n));
    uint64_t per_window = 0;
    for (uint32_t code : codes) per_window += KindOf(code) == kInsert;
    const uint64_t full = in.ops_per_client / len;
    const uint64_t rest = in.ops_per_client % len;
    inserts[c] = full * per_window;
    for (uint64_t i = 0; i < rest; ++i) inserts[c] += KindOf(codes[i]) == kInsert;
  }
  // The traced run's insert and WAL probes draw from the held-out keys
  // too, also on workloads with few or no inserts.
  uint64_t held_total = 0;
  for (uint64_t& v : inserts) {
    v = std::max(v, kMinHeldOut);
    held_total += v;
  }

  alex::data::DatasetOptions options;
  options.seed = seed;
  options.shuffle = true;
  const std::vector<double> keys =
      alex::data::GenerateKeys(spec.dataset, n + held_total, options);
  in.sorted.reserve(n);
  for (size_t i = 0; i < n; ++i) in.sorted.push_back(static_cast<K>(keys[i]));
  std::sort(in.sorted.begin(), in.sorted.end());
  // Ranks are scrambled over the key space by a golden-ratio stride from a
  // seeded offset, so the hottest ranks sit evenly spread over the sorted
  // keys, and so over the shards, whatever the seed. A random scramble let
  // the seed decide how many of the few hottest keys fell in cold shards
  // or shared a shard, so the seed moved the read latencies.
  size_t stride = static_cast<size_t>(0.6180339887498949 * n);
  while (std::gcd(stride, n) != 1) ++stride;
  alex::util::Xoshiro256 scramble(seed ^ 0x5851F42D4C957F2DULL);
  size_t pos = static_cast<size_t>(scramble.NextUint64(n));
  in.by_rank.reserve(n);
  for (size_t r = 0; r < n; ++r) {
    in.by_rank.push_back(in.sorted[pos]);
    pos = (pos + stride) % n;
  }
  in.payloads.reserve(n);
  for (K k : in.sorted) in.payloads.push_back(PayloadOf(k));
  size_t next = n;
  for (size_t c = 0; c < kClients; ++c) {
    std::vector<K>& held = in.held_out.emplace_back();
    held.reserve(inserts[c]);
    for (uint64_t i = 0; i < inserts[c]; ++i) {
      held.push_back(static_cast<K>(keys[next++]));
    }
  }
  return in;
}

/// One reported number. `samples` is the count behind a percentile.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t samples = 0;
};

/// Exact percentile of an already-sorted sample (nearest rank).
inline double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

/// p99 is reported only when at least ten samples lie beyond it.
inline bool SupportsP99(size_t samples) { return samples >= 1000; }

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Benchmark-side spans, kept in memory per thread and written as one
/// Chrome trace document when the run ends. Spans of one op share its id;
/// `parent` names the enclosing span (0 = root).
struct Span {
  const char* name;
  uint64_t start_ticks;
  uint64_t end_ticks;
  uint64_t id;
  uint64_t parent;
  uint32_t tid;
};

class SpanLog {
 public:
  explicit SpanLog(size_t threads) : per_thread_(threads) {}

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  /// Single writer per `tid`.
  void Add(uint32_t tid, const char* name, uint64_t t0, uint64_t t1,
           uint64_t id, uint64_t parent) {
    per_thread_[tid].push_back({name, t0, t1, id, parent, tid});
  }

  size_t size() const {
    size_t n = 0;
    for (const auto& v : per_thread_) n += v.size();
    return n;
  }

  bool WriteChromeTrace(const std::string& path, uint64_t origin) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double ns_per_tick = alex::obs::NsPerTick();
    std::fprintf(f, "{\"traceEvents\":[\n");
    bool first = true;
    for (const auto& spans : per_thread_) {
      for (const Span& s : spans) {
        const double ts = static_cast<double>(s.start_ticks - origin) *
                          ns_per_tick / 1e3;
        const double dur = static_cast<double>(s.end_ticks - s.start_ticks) *
                           ns_per_tick / 1e3;
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                     "\"parent\":%llu}}",
                     first ? "" : ",\n", s.name, s.tid, ts, dur,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
        first = false;
      }
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<std::vector<Span>> per_thread_;
  std::atomic<uint64_t> next_id_{1};
};

/// The client threads, created once per run: short-lived threads would
/// each claim a fresh obs metric stripe and epoch slot, which later
/// threads then share, so a pool keeps rounds comparable.
class ClientPool {
 public:
  explicit ClientPool(size_t threads) : end_ticks_(threads, 0) {
    for (size_t t = 0; t < threads; ++t) {
      threads_.emplace_back([this, t] { Loop(t); });
    }
  }

  ~ClientPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    start_.notify_all();
    for (auto& th : threads_) th.join();
  }

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  size_t size() const { return threads_.size(); }

  /// Runs fn(thread_index) on every thread; returns the wall seconds from
  /// release until the last thread finished.
  double Run(const std::function<void(size_t)>& fn) {
    uint64_t t0 = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      fn_ = &fn;
      pending_ = threads_.size();
      ++generation_;
      t0 = alex::obs::NowTicks();
    }
    start_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&] { return pending_ == 0; });
    fn_ = nullptr;
    const uint64_t t1 = *std::max_element(end_ticks_.begin(), end_ticks_.end());
    return static_cast<double>(t1 - t0) * alex::obs::NsPerTick() / 1e9;
  }

 private:
  void Loop(size_t t) {
    uint64_t seen = 0;
    while (true) {
      const std::function<void(size_t)>* fn = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_.wait(lock, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        fn = fn_;
      }
      (*fn)(t);
      const uint64_t end = alex::obs::NowTicks();
      std::lock_guard<std::mutex> lock(mu_);
      end_ticks_[t] = end;
      if (--pending_ == 0) done_.notify_one();
    }
  }

  std::mutex mu_;
  std::condition_variable start_;
  std::condition_variable done_;
  const std::function<void(size_t)>* fn_ = nullptr;  // guarded by mu_
  uint64_t generation_ = 0;                           // guarded by mu_
  size_t pending_ = 0;                                // guarded by mu_
  bool stop_ = false;                                 // guarded by mu_
  std::vector<uint64_t> end_ticks_;                   // guarded by mu_
  std::vector<std::thread> threads_;  // last: the threads use the above
};

}  // namespace perfbench
