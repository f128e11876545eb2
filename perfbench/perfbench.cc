// The repository benchmark: the paper's workloads (§5, Fig. 4 and
// Fig. 10) against shard::ShardedAlex<int64_t, int64_t> through its
// public API, closed loop from kClients client threads.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out-dir DIR --scratch DIR [--git-sha SHA]
//
// Usually started through run.py, which builds this binary first.
//
// A run generates every input from the seed before anything is timed,
// sets the index up kSetupReps times (setup_s is the median), warms it
// with read-only ops, then executes S * nominal_mops million ops split
// into 3 * S rounds and reports the median over rounds. The op count,
// not the clock, ends the run, so every run of one seed ends on the same
// key set. Every op's output is checked; afterwards the structure, the
// size and the full contents are checked, and the index is restarted from
// disk (snapshot, or WAL replay on write_heavy) and checked again.
//
// --trace 0 prints the end-to-end metrics with obs off. --trace 1 runs
// the per-layer probes (layers.h), then rounds in three modes — plain,
// obs on, obs on plus benchmark-side spans — and prints the per-layer
// metrics, the registry counters of the obs rounds and the overhead of
// obs and of tracing against the plain rounds. Spans are kept in memory
// and written to DIR as a Chrome trace when the run ends.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics. A full result with host facts and sample counts goes to DIR.
// Any failed check makes the exit code 1.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "layers.h"
#include "obs/metrics.h"
#include "shard/sharded_alex.h"
#include "util/simd_search.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using alex::core::SnapshotStatus;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string out_dir = ".";
  std::string scratch;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--scratch") {
      args->scratch = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && !args->scratch.empty() &&
         args->seconds >= 1 && args->seconds <= 600;
}

/// Removes the run's scratch directory on every exit path.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One client's record of a round. Aligned so two clients' tallies never
/// share a cache line.
struct alignas(64) Tally {
  uint64_t ops[kNumOpKinds] = {};
  uint64_t failed = 0;
  double seconds = 0.0;                      ///< the client's busy time
  std::vector<uint32_t> ticks[kNumOpKinds];  ///< sampled op latencies
  std::vector<uint64_t> failed_inserts;      ///< held-out positions
};

/// p50/p99 of one op kind over a round, from exact sorted samples.
struct RoundLatency {
  double p50 = 0.0, p99 = 0.0;
  uint64_t samples = 0;
};

RoundLatency Latency(const std::vector<Tally>& tallies, int kind) {
  std::vector<double> ns;
  const double ns_per_tick = alex::obs::NsPerTick();
  for (const Tally& t : tallies) {
    for (uint32_t v : t.ticks[kind]) ns.push_back(v * ns_per_tick);
  }
  std::sort(ns.begin(), ns.end());
  RoundLatency r;
  r.samples = ns.size();
  r.p50 = Percentile(ns, 0.50);
  r.p99 = SupportsP99(ns.size()) ? Percentile(ns, 0.99) : 0.0;
  return r;
}

enum class Mode { kPlain, kObs, kTraced };

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Args& args, const std::string& scratch)
      : spec_(spec), args_(args), scratch_(scratch), spans_(kClients + 1) {}

  int Main() {
    const uint64_t total_ops =
        static_cast<uint64_t>(spec_.nominal_mops * 1e6 * args_.seconds);
    in_ = BuildInputs(spec_, args_.seed, total_ops, total_ops / 20);

    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) setups.push_back(Setup(rep));
    Add("setup_s", Median(setups), "s");

    if (args_.trace) {
      LayerProbes probes(in_, *index_, scratch_, &pool_, &spans_, args_.seed);
      for (const Metric& m : probes.Run()) layer_.push_back(m);
      attempted_ += probes.calls();
      failed_ += probes.failures();
    }

    Warm();
    if (args_.trace) {
      TracedRounds();
    } else {
      PlainRounds();
    }
    CheckIndex(*index_, "run end");
    const double keys = static_cast<double>(index_->size());
    Add("resident_bytes_per_key",
        static_cast<double>(index_->IndexSizeBytes() +
                            index_->DataSizeBytes()) / keys,
        "B/key");
    Add("index_bytes_per_key",
        static_cast<double>(index_->IndexSizeBytes()) / keys, "B/key");
    Restart(args_.trace ? 1 : spec_.wal ? kReplayReps : kReloadReps);
    return Report();
  }

 private:
  alex::shard::ShardedOptions Options(const std::string& dir) const {
    alex::shard::ShardedOptions options;
    options.num_shards = kShards;
    // Each client scans on its own thread. With fan-out, two clients and
    // their workers outgrow 4 cores, and the workers are spawned per call:
    // their scheduling delays swung range_scan throughput from 0.41 to
    // 0.75 Mops/s between runs on a 4-vCPU VM.
    options.scan_threads = 1;
    // Recovery on every core (the default) swung write_heavy's recover_s
    // 2x between sets of runs on a 4-vCPU VM: any other task on the box
    // stalls one replay worker. The clients are idle by then.
    options.recovery_threads = kClients;
    options.tier_prefix = dir + "/tier";
    if (spec_.cold) {
      // Well below the demoted shards' bytes, so the cache hit path and
      // the segment miss path both run.
      options.tier_cache_bytes = kPreload * kColdShards / kShards *
                                 (sizeof(K) + sizeof(P)) / 8;
    }
    return options;
  }

  /// BulkLoad + EnableWal checkpoint + demotions, into a fresh directory.
  double Setup(int rep) {
    index_.reset();
    if (!dir_.empty()) fs::remove_all(dir_);
    dir_ = scratch_ + "/setup" + std::to_string(rep);
    fs::create_directories(dir_ + "/tier");
    const auto t0 = std::chrono::steady_clock::now();
    index_ = std::make_unique<Sharded>(Options(dir_));
    index_->BulkLoad(in_.sorted.data(), in_.payloads.data(), in_.sorted.size());
    bool ok = true;
    if (spec_.wal) {
      alex::wal::WalOptions wal;
      wal.batch_interval_us = kWalBatchIntervalUs;
      ok = index_->EnableWal(dir_ + "/idx", wal) == alex::wal::WalStatus::kOk;
    }
    if (spec_.cold) {
      for (size_t s = kShards - kColdShards; s < kShards; ++s) {
        ok = ok && index_->DemoteShard(s) == SnapshotStatus::kOk;
      }
    }
    const double seconds = Seconds(t0);
    ++attempted_;
    if (!ok) Fail("setup");
    return seconds;
  }

  /// Executes one op; false when its output is wrong.
  bool Execute(uint32_t code, size_t client, Tally* tally) {
    const uint32_t arg = ArgOf(code);
    switch (KindOf(code)) {
      case kGet: {
        const K key = in_.by_rank[arg];
        P v = 0;
        return index_->Get(key, &v) && v == PayloadOf(key);
      }
      case kInsert: {
        const uint64_t pos = clients_[client].next_insert++;
        const K key = in_.held_out[client][pos];
        if (index_->Insert(key, PayloadOf(key))) return true;
        tally->failed_inserts.push_back(pos);
        return false;
      }
      case kScan: {
        const auto [s, e] = ScanSpan(arg);
        const K lo = in_.sorted[s], hi = in_.sorted[e];
        K prev = lo;
        size_t count = 0;
        bool bad = false;
        index_->Scan(lo, hi, [&](const K& k, const P& p) {
          bad |= k < lo || hi < k || (count > 0 && !(prev < k)) ||
                 p != PayloadOf(k);
          prev = k;
          ++count;
        });
        return !bad && count >= e - s + 1;
      }
      case kAgg: {
        const auto [s, e] = AggSpan(arg, in_.sorted.size());
        const auto r = index_->Aggregate(in_.sorted[s], in_.sorted[e]);
        return r.count >= e - s + 1 && r.keys.min == in_.sorted[s] &&
               r.keys.max == in_.sorted[e];
      }
    }
    return false;
  }

  /// Ops [begin, end) of one client's stream. Sampled ops are timed (see
  /// SampleEvery); in traced mode every 64th also leaves a span.
  void Slice(size_t client, uint64_t begin, uint64_t end, Mode mode,
             uint64_t round_span, Tally* tally) {
    const std::vector<uint32_t>& codes = in_.codes[client];
    const size_t len = codes.size();
    for (uint64_t i = begin; i < end; ++i) {
      const uint32_t code = codes[i % len];
      const int kind = KindOf(code);
      ++tally->ops[kind];
      if (i % SampleEvery(kind) != 0) {
        tally->failed += !Execute(code, client, tally);
        continue;
      }
      const uint64_t t0 = alex::obs::NowTicks();
      const bool ok = Execute(code, client, tally);
      const uint64_t t1 = alex::obs::NowTicks();
      tally->failed += !ok;
      tally->ticks[kind].push_back(
          static_cast<uint32_t>(std::min<uint64_t>(t1 - t0, UINT32_MAX)));
      if (mode == Mode::kTraced && i % 64 == 0) {
        static const char* const kSpan[] = {"op.Get", "op.Insert", "op.Scan",
                                            "op.Aggregate"};
        spans_.Add(static_cast<uint32_t>(client), kSpan[kind], t0, t1,
                   (static_cast<uint64_t>(client + 1) << 48) | i, round_span);
      }
    }
  }

  /// Read-only warm-up over the head of each stream (fills the block
  /// cache and CPU caches); inserts are skipped so the key set is
  /// untouched.
  void Warm() {
    pool_.Run([&](size_t c) {
      const std::vector<uint32_t>& codes = in_.codes[c];
      Tally& tally = clients_[c].warm;
      for (uint64_t i = 0; i < in_.warm_per_client; ++i) {
        const uint32_t code = codes[i % codes.size()];
        if (KindOf(code) == kInsert) continue;
        ++tally.ops[KindOf(code)];
        tally.failed += !Execute(code, c, &tally);
      }
    });
    for (const ClientState& client : clients_) {
      for (uint64_t n : client.warm.ops) attempted_ += n;
      failed_ += client.warm.failed;
    }
  }

  struct RoundResult {
    double mops = 0.0;
    std::vector<Tally> tallies;
  };

  /// Round `r` of rounds_: each client runs its r-th share of the stream.
  RoundResult Round(int r, Mode mode) {
    RoundResult out;
    out.tallies.resize(kClients);
    const uint64_t per = in_.ops_per_client;
    const uint64_t begin = per * r / rounds_, end = per * (r + 1) / rounds_;
    // Sample buffers are sized up front so the timed loop never grows one.
    const uint32_t share_pm[kNumOpKinds] = {spec_.get_pm, spec_.insert_pm,
                                            spec_.scan_pm, spec_.agg_pm};
    for (Tally& t : out.tallies) {
      for (int k = 0; k < kNumOpKinds; ++k) {
        t.ticks[k].reserve(
            (end - begin) * share_pm[k] / 1000 / SampleEvery(k) * 5 / 4 + 64);
      }
    }
    static const char* const kRoundSpan[] = {"round.plain", "round.obs",
                                             "round.traced"};
    const uint64_t span = spans_.NextId();
    const uint64_t t0 = alex::obs::NowTicks();
    pool_.Run([&](size_t c) {
      const uint64_t c0 = alex::obs::NowTicks();
      Slice(c, begin, end, mode, span, &out.tallies[c]);
      out.tallies[c].seconds = static_cast<double>(alex::obs::NowTicks() - c0) *
                               alex::obs::NsPerTick() / 1e9;
    });
    if (mode == Mode::kTraced) {
      spans_.Add(kClients, kRoundSpan[static_cast<int>(mode)], t0,
                 alex::obs::NowTicks(), span, 0);
    }
    // The clients' own rates, summed: a client that finishes its share
    // first idles until the round ends, and that wait is the benchmark's.
    uint64_t ops = 0;
    for (const Tally& t : out.tallies) {
      uint64_t client_ops = 0;
      for (uint64_t n : t.ops) client_ops += n;
      ops += client_ops;
      out.mops += static_cast<double>(client_ops) / t.seconds / 1e6;
      failed_ += t.failed;
    }
    for (size_t c = 0; c < kClients; ++c) {
      for (uint64_t pos : out.tallies[c].failed_inserts) {
        clients_[c].failed_inserts.push_back(pos);
      }
    }
    attempted_ += ops;
    return out;
  }

  int ReadKind() const { return spec_.get_pm > 0 ? kGet : kScan; }

  void PlainRounds() {
    for (int r = 0; r < rounds_; ++r) {
      const RoundResult round = Round(r, Mode::kPlain);
      round_mops_.push_back(round.mops);
      OpLatencies(round.tallies);
    }
    const int read = ReadKind();
    Add("throughput_mops", Median(round_mops_), "Mops/s");
    Add("read_p50_ns", Median(op_lat_[read][0]), "ns", op_samples_[read]);
    Add("read_p99_ns", Median(op_lat_[read][1]), "ns", op_samples_[read]);
    EmitOpLatencies(/*to_layer=*/false);
  }

  /// Per-op-kind latency of every round, for the op-level rows.
  void OpLatencies(const std::vector<Tally>& tallies) {
    for (int k = 0; k < kNumOpKinds; ++k) {
      const RoundLatency l = Latency(tallies, k);
      if (l.samples == 0) continue;
      op_lat_[k][0].push_back(l.p50);
      op_lat_[k][1].push_back(l.p99);
      op_samples_[k] += l.samples;
    }
  }

  void EmitOpLatencies(bool to_layer) {
    struct Row {
      const char* name;
      int kind, pct;
      double scale;
      const char* unit;
    };
    static const Row kRows[] = {
        {"get_p50_ns", kGet, 0, 1.0, "ns"},
        {"get_p99_ns", kGet, 1, 1.0, "ns"},
        {"insert_p50_ns", kInsert, 0, 1.0, "ns"},
        {"insert_p99_ns", kInsert, 1, 1.0, "ns"},
        {"scan_p50_ns", kScan, 0, 1.0, "ns"},
        {"scan_p99_ns", kScan, 1, 1.0, "ns"},
        {"agg_p50_us", kAgg, 0, 1e-3, "us"},
    };
    for (const Row& row : kRows) {
      const double v = Median(op_lat_[row.kind][row.pct]) * row.scale;
      if (to_layer) {
        layer_.push_back({row.name, v, row.unit});
      } else if (op_samples_[row.kind] > 0) {
        extra_.push_back({row.name, v, row.unit, op_samples_[row.kind]});
      }
    }
  }

  /// Plain, obs-on and traced rounds interleaved, so drift over the run
  /// lands on all three alike. Registry counters cover the obs rounds.
  void TracedRounds() {
    auto& registry = alex::obs::MetricsRegistry::Global();
    registry.ResetAll();
    std::vector<double> mops[3];
    uint64_t obs_ops[kNumOpKinds] = {};
    int64_t unreclaimed_max = 0;
    const uint64_t cache_hits0 = index_->block_cache().hits();
    const uint64_t cache_misses0 = index_->block_cache().misses();
    const uint64_t cache_evictions0 = index_->block_cache().evictions();
    uint64_t all_ops = 0;
    for (int r = 0; r < rounds_; ++r) {
      const Mode mode = static_cast<Mode>(r % 3);
      alex::obs::SetEnabled(mode != Mode::kPlain);
      std::atomic<bool> stop{false};
      std::thread sampler;
      if (mode != Mode::kPlain) {
        // The gauge is a last value: sample it through the round.
        sampler = std::thread([&] {
          auto* gauge = registry.GetGauge("epoch.retired_unreclaimed");
          while (!stop.load()) {
            unreclaimed_max = std::max(unreclaimed_max, gauge->Load());
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
        });
      }
      const RoundResult round = Round(r, mode);
      stop.store(true);
      if (sampler.joinable()) sampler.join();
      alex::obs::SetEnabled(false);
      mops[static_cast<int>(mode)].push_back(round.mops);
      for (const Tally& t : round.tallies) {
        for (int k = 0; k < kNumOpKinds; ++k) {
          all_ops += t.ops[k];
          if (mode != Mode::kPlain) obs_ops[k] += t.ops[k];
        }
      }
      if (mode == Mode::kPlain) OpLatencies(round.tallies);
    }
    EmitOpLatencies(/*to_layer=*/true);

    auto counter = [&](const char* name) {
      return static_cast<double>(registry.GetCounter(name)->Load());
    };
    auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    auto layer = [&](const char* name, double value, const char* unit) {
      layer_.push_back({name, value, unit});
    };
    const double fallbacks = counter("shard.router_fallbacks");
    layer("shard.router_fallback_rate",
          ratio(fallbacks, fallbacks + counter("shard.router_model_hits")),
          "ratio");
    layer("shard.write_gate_contended", counter("shard.write_gate_contended"),
          "count");
    layer("shard.topology_splits", counter("shard.topology_splits"), "count");
    layer("core.leaf_splits", counter("core.leaf_splits"), "count");
    layer("core.descent_retries", counter("core.descent_retries"), "count");
    layer("core.leaf_latch_contended", counter("core.leaf_latch_contended"),
          "count");
    layer("core.leaf_latch_wait_ns",
          static_cast<double>(
              registry.GetHistogram("core.leaf_latch_wait_ns")->Sum()),
          "ns");
    const double bounded = counter("core.search_bounded");
    const double exponential = counter("core.search_exponential");
    layer("core.search_exponential_frac",
          ratio(exponential, bounded + exponential), "ratio");
    layer("epoch.retired_unreclaimed_max",
          static_cast<double>(unreclaimed_max), "count");
    layer("epoch.advance_stalls", counter("epoch.advance_stalls"), "count");
    const double inserts = static_cast<double>(obs_ops[kInsert]);
    layer("wal.records_per_batch",
          ratio(counter("wal.records_logged"), counter("wal.commit_batches")),
          "ratio");
    layer("wal.fsyncs_per_kop", ratio(counter("wal.fsyncs") * 1000.0, inserts),
          "count/kop");
    layer("wal.bytes_per_user_byte",
          ratio(counter("wal.bytes_written"), inserts * (sizeof(K) + sizeof(P))),
          "ratio");
    const auto& cache = index_->block_cache();
    const double hits = static_cast<double>(cache.hits() - cache_hits0);
    const double misses = static_cast<double>(cache.misses() - cache_misses0);
    const double evictions =
        static_cast<double>(cache.evictions() - cache_evictions0);
    layer("tier.cache_hit_rate", ratio(hits, hits + misses), "ratio");
    layer("tier.cache_evictions_per_kop",
          ratio(evictions * 1000.0, static_cast<double>(all_ops)), "count/kop");
    const double plain = Median(mops[0]);
    layer("obs.enabled_overhead_frac", 1.0 - ratio(Median(mops[1]), plain),
          "ratio");
    layer("trace.overhead_frac", 1.0 - ratio(Median(mops[2]), plain), "ratio");
  }

  /// Keys the index must hold: the preload plus every acknowledged insert.
  std::vector<K> Expected() const {
    std::vector<K> keys = in_.sorted;
    for (size_t c = 0; c < kClients; ++c) {
      std::vector<uint64_t> failed = clients_[c].failed_inserts;
      std::sort(failed.begin(), failed.end());
      for (uint64_t i = 0; i < clients_[c].next_insert; ++i) {
        if (!std::binary_search(failed.begin(), failed.end(), i)) {
          keys.push_back(in_.held_out[c][i]);
        }
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Invariants, size and full contents (one ordered scan merged against
  /// the expected key set: missing, extra and wrong payloads all count).
  void CheckIndex(const Sharded& index, const char* when) {
    const std::vector<K> expected = Expected();
    attempted_ += 2 + expected.size();
    if (!index.CheckInvariants()) Fail(std::string(when) + ": invariants");
    if (index.size() != expected.size()) {
      Fail(std::string(when) + ": size " + std::to_string(index.size()) +
           " != " + std::to_string(expected.size()));
    }
    size_t pos = 0;
    uint64_t bad = 0;
    index.Scan(std::numeric_limits<K>::min(), std::numeric_limits<K>::max(),
               [&](const K& k, const P& p) {
                 while (pos < expected.size() && expected[pos] < k) {
                   ++bad;  // missing
                   ++pos;
                 }
                 if (pos < expected.size() && expected[pos] == k) {
                   bad += p != PayloadOf(k);
                   ++pos;
                 } else {
                   ++bad;  // extra
                 }
               });
    bad += expected.size() - pos;
    if (bad > 0) {
      failed_ += bad - 1;
      Fail(std::string(when) + ": " + std::to_string(bad) +
           " keys missing, extra or wrong");
    }
  }

  /// Drops the index and reopens it from disk `reps` times: the WAL
  /// (snapshot + log replay) on write_heavy, a fresh snapshot elsewhere.
  /// The first reopen is checked in full.
  void Restart(int reps) {
    std::string prefix = dir_ + "/idx";
    if (!spec_.wal) {
      prefix = dir_ + "/snap";
      ++attempted_;
      if (index_->SaveTo(prefix) != SnapshotStatus::kOk) Fail("SaveTo");
    }
    index_.reset();
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
      Sharded reopened(Options(dir_));
      const auto t0 = std::chrono::steady_clock::now();
      const SnapshotStatus status = reopened.LoadFrom(prefix);
      times.push_back(Seconds(t0));
      ++attempted_;
      if (status != SnapshotStatus::kOk) {
        Fail("LoadFrom status " + std::to_string(static_cast<int>(status)));
      } else if (r == 0) {
        CheckIndex(reopened, "after restart");
      }
    }
    Add("recover_s", Median(times), "s");
  }

  void Add(const std::string& name, double value, const char* unit,
           uint64_t samples = 0) {
    e2e_.push_back({name, value, unit, samples});
  }

  void Fail(const std::string& what) {
    ++failed_;
    std::fprintf(stderr, "FAILED check: %s\n", what.c_str());
  }

  std::string HostJson() const {
    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
      if (line.rfind("model name", 0) == 0) {
        cpu = line.substr(line.find(':') + 2);
        break;
      }
    }
    std::string out = "{\"nproc\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ", \"cpu\": \"" + cpu + "\", \"git_sha\": \"" +
                      args_.git_sha + "\", \"build_type\": \"" +
                      PERFBENCH_BUILD_TYPE + "\", \"simd\": " +
                      (ALEX_SIMD_X86 ? "true" : "false") +
                      ", \"obs_runtime_default\": " +
                      (obs_default_ ? "true" : "false") + "}";
    return out;
  }

  static std::string Num(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  /// `"name": {"value": v, "unit": u[, "samples": n]}, ...`
  static std::string JsonMetrics(const std::vector<Metric>& metrics,
                                 bool with_samples) {
    std::string out;
    for (const Metric& m : metrics) {
      if (!out.empty()) out += ", ";
      out += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
             ", \"unit\": \"" + m.unit + "\"";
      if (with_samples && m.samples > 0) {
        out += ", \"samples\": " + std::to_string(m.samples);
      }
      out += "}";
    }
    return out;
  }

  /// Prints every metric by name and unit, writes the full result file,
  /// and ends stdout with the one-line JSON summary.
  int Report() {
    const std::vector<Metric>& printed = args_.trace ? layer_ : e2e_;
    const double failed_frac =
        static_cast<double>(failed_) / static_cast<double>(attempted_);
    std::printf("perfbench %s seed=%" PRIu64 " seconds=%d trace=%d\n",
                spec_.name, args_.seed, args_.seconds, args_.trace ? 1 : 0);
    std::printf("host %s\n", HostJson().c_str());
    const std::vector<Metric>* lists[] = {&printed, &extra_};
    for (const std::vector<Metric>* list : lists) {
      for (const Metric& m : *list) {
        std::printf("  %-32s %14.4f %s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (m.samples > 0) std::printf(" (n=%" PRIu64 ")", m.samples);
        std::printf("\n");
      }
    }
    std::printf("  %-32s %14.6g ratio (failed %" PRIu64 " of %" PRIu64 ")\n",
                "failed_frac", failed_frac, failed_, attempted_);

    const std::string summary =
        std::string("{\"correct\": ") + (failed_ == 0 ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted_) +
        ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
        JsonMetrics(printed, false) + "}}";
    auto list = [](const std::vector<double>& values) {
      std::string out;
      for (double v : values) out += (out.empty() ? "" : ", ") + Num(v);
      return out;
    };
    const std::string rounds = list(round_mops_);
    std::string round_lat;
    static const char* const kKindName[] = {"get", "insert", "scan", "agg"};
    for (int k = 0; k < kNumOpKinds; ++k) {
      if (op_lat_[k][0].empty()) continue;
      round_lat += std::string(round_lat.empty() ? "" : ", ") + "\"" +
                   kKindName[k] + "\": {\"p50\": [" + list(op_lat_[k][0]) +
                   "], \"p99\": [" + list(op_lat_[k][1]) + "]}";
    }
    const std::string stem = args_.out_dir + "/" + spec_.name + "-seed" +
                             std::to_string(args_.seed) + "-trace" +
                             (args_.trace ? "1" : "0");
    if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
      std::fprintf(f,
                   "{\"workload\": \"%s\", \"seed\": %" PRIu64
                   ", \"seconds\": %d, \"trace\": %d, \"clients\": %zu, "
                   "\"preload\": %zu, \"host\": %s, \"failed_frac\": %s, "
                   "\"round_mops\": [%s], \"round_latency_ns\": {%s}, "
                   "\"metrics\": {%s}, "
                   "\"op_latency\": {%s}, \"summary\": %s}\n",
                   spec_.name, args_.seed, args_.seconds, args_.trace ? 1 : 0,
                   kClients, kPreload, HostJson().c_str(),
                   Num(failed_frac).c_str(), rounds.c_str(), round_lat.c_str(),
                   JsonMetrics(printed, true).c_str(),
                   JsonMetrics(extra_, true).c_str(), summary.c_str());
      std::fclose(f);
    }
    if (args_.trace) {
      spans_.WriteChromeTrace(stem + ".trace.json", origin_);
      std::printf("spans %zu written to %s.trace.json\n", spans_.size(),
                  stem.c_str());
    }
    std::printf("%s\n", summary.c_str());
    std::fflush(stdout);
    return failed_ == 0 ? 0 : 1;
  }

  /// Rounds per second of --seconds: the medians over rounds absorb short
  /// bursts from other tenants of the box. The round count is a multiple
  /// of 3 for the traced modes.
  static constexpr int kRoundsPerSecond = 3;
  static constexpr size_t kColdShards = 5;
  static constexpr int kSetupReps = 7;
  /// write_heavy's WAL (kBatch) syncs each shard log at most once a
  /// second. At the default 2 ms every shard fdatasyncs up to 500 times a
  /// second, and the sync latency of a shared VM disk swung throughput 3x
  /// between runs (0.11 to 0.31 Mops/s).
  static constexpr uint64_t kWalBatchIntervalUs = 1'000'000;
  /// Restarts per untraced run; recover_s is their median.
  static constexpr int kReplayReps = 3;
  static constexpr int kReloadReps = 7;

  const WorkloadSpec& spec_;
  const Args& args_;
  const std::string scratch_;
  const bool obs_default_ = alex::obs::Enabled();
  const uint64_t origin_ = alex::obs::NowTicks();
  const int rounds_ = kRoundsPerSecond * args_.seconds;
  Inputs in_;
  std::unique_ptr<Sharded> index_;
  std::string dir_;
  /// Per-client progress; aligned so the clients never share a line.
  struct alignas(64) ClientState {
    uint64_t next_insert = 0;  ///< next held-out position to insert
    Tally warm;                ///< the read-only warm-up
    std::vector<uint64_t> failed_inserts;  ///< held-out positions
  };
  ClientState clients_[kClients];
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> e2e_;
  std::vector<Metric> extra_;
  std::vector<Metric> layer_;
  std::vector<double> round_mops_;
  std::vector<double> op_lat_[kNumOpKinds][2];
  uint64_t op_samples_[kNumOpKinds] = {};
  SpanLog spans_;
  ClientPool pool_{kClients};
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR --scratch DIR [--git-sha SHA]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : Workloads()) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  ScratchDir scratch(args.scratch);
  fs::create_directories(args.out_dir);
  Bench bench(*spec, args, scratch.path());
  return bench.Main();
}
