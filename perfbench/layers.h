// Per-layer probes of the traced run. Each probe times calls into one
// module's public functions from outside (shard, core, util/epoch, wal,
// tier) on the run's own keys, with obs off; counters that
// obs::MetricsRegistry exports are read by the caller around the traced
// rounds. A probe returns ns per call unless its name says otherwise.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/alex.h"
#include "core/concurrent_alex.h"
#include "shard/router.h"
#include "shard/sharded_alex.h"
#include "tier/block_cache.h"
#include "tier/segment.h"
#include "util/epoch.h"
#include "wal/log_writer.h"

namespace perfbench {

using Sharded = alex::shard::ShardedAlex<K, P>;

class LayerProbes {
 public:
  LayerProbes(const Inputs& in, const Sharded& index, std::string scratch,
              ClientPool* pool, SpanLog* spans, uint64_t seed)
      : in_(in),
        index_(index),
        scratch_(std::move(scratch)),
        pool_(*pool),
        spans_(spans) {
    // Probe keys follow the Get distribution (scrambled zipf over the
    // preload); probe ranges follow the range_scan mix.
    alex::util::Xoshiro256 rng(seed ^ 0xA5A5A5A5DEADBEEFULL);
    alex::util::ZipfGenerator zipf(in.sorted.size(), kZipfTheta);
    keys_.reserve(kProbeKeys);
    for (size_t i = 0; i < kProbeKeys; ++i) {
      keys_.push_back(in.by_rank[zipf.Next(rng)]);
    }
    for (size_t i = 0; i < kProbeScans; ++i) {
      scan_args_.push_back(DrawScanArg(rng, in.sorted.size()));
    }
    for (size_t i = 0; i < kProbeAggs; ++i) {
      agg_args_.push_back(DrawAggArg(rng, in.sorted.size()));
    }
  }

  std::vector<Metric> Run() {
    root_ = spans_->NextId();
    const uint64_t t0 = alex::obs::NowTicks();
    Shard();
    Core();
    Epoch();
    Wal();
    Tier();
    spans_->Add(kClients, "probes", t0, alex::obs::NowTicks(), root_, 0);
    return std::move(out_);
  }

  /// Checked probe calls, and those whose outputs were wrong (a missed
  /// key, a short scan, a WAL append error).
  uint64_t calls() const { return probe_calls_; }
  uint64_t failures() const { return probe_failures_; }

 private:
  static constexpr size_t kProbeKeys = size_t{1} << 19;
  static constexpr size_t kProbeScans = 100'000;
  static constexpr size_t kProbeAggs = 500;
  static constexpr size_t kProbeInserts = 200'000;
  static constexpr size_t kWalRecords = 50'000;
  /// Passes per timed probe; the median damps one-off stalls.
  static constexpr int kPasses = 3;

  /// ns per call of fn(i) for i < n, the median of `passes` passes. fn
  /// returns whether its output was right; every wrong one counts as a
  /// probe failure (and using the results keeps the calls from being
  /// optimized away).
  template <typename Fn>
  double Time(size_t n, Fn&& fn, int passes = kPasses) {
    std::vector<double> ns;
    for (int pass = 0; pass < passes; ++pass) {
      uint64_t right = 0;
      const uint64_t t0 = alex::obs::NowTicks();
      for (size_t i = 0; i < n; ++i) right += fn(i);
      ns.push_back(static_cast<double>(alex::obs::NowTicks() - t0));
      probe_calls_ += n;
      probe_failures_ += n - right;
    }
    return n == 0 ? 0.0
                  : Median(ns) * alex::obs::NsPerTick() /
                        static_cast<double>(n);
  }

  /// Time() of fn(thread, i) on every client thread at once; per pass the
  /// mean of the threads' own ns per call.
  template <typename Fn>
  double TimeOnClients(size_t n, Fn&& fn, int passes = kPasses) {
    std::vector<double> means;
    for (int pass = 0; pass < passes; ++pass) {
      std::vector<double> ns(pool_.size(), 0.0);
      std::vector<uint64_t> right(pool_.size(), 0);
      pool_.Run([&](size_t t) {
        const uint64_t t0 = alex::obs::NowTicks();
        for (size_t i = 0; i < n; ++i) right[t] += fn(t, i);
        ns[t] = static_cast<double>(alex::obs::NowTicks() - t0);
      });
      double sum = 0.0;
      for (size_t t = 0; t < ns.size(); ++t) {
        sum += ns[t];
        probe_calls_ += n;
        probe_failures_ += n - right[t];
      }
      means.push_back(sum / static_cast<double>(ns.size()));
    }
    return n == 0 ? 0.0
                  : Median(means) * alex::obs::NsPerTick() /
                        static_cast<double>(n);
  }

  /// Runs one probe inside a span named after it.
  template <typename Fn>
  double Probe(const char* span, Fn&& fn) {
    const uint64_t t0 = alex::obs::NowTicks();
    const double v = fn();
    spans_->Add(kClients, span, t0, alex::obs::NowTicks(), spans_->NextId(),
                root_);
    return v;
  }

  void Emit(const char* name, double value, const char* unit = "ns") {
    out_.push_back({name, value, unit});
  }

  void Shard() {
    const auto router = alex::shard::ShardRouter<K>::FitFromSortedKeys(
        in_.sorted.data(), in_.sorted.size(), kShards, 4096);
    std::vector<size_t> shard_of(keys_.size());
    for (size_t i = 0; i < keys_.size(); ++i) {
      shard_of[i] = index_.ShardOf(keys_[i]);
    }
    Emit("shard.route_ns", Probe("shard.ShardRouter::Route", [&] {
           return Time(keys_.size(), [&](size_t i) {
             return router.Route(keys_[i]) == shard_of[i];
           });
         }));
    sharded_get_ns_ = Probe("shard.ShardedAlex::Get", [&] {
      return Time(keys_.size(), [&](size_t i) { return Get(keys_[i]); });
    });
  }

  /// One checked ShardedAlex::Get.
  bool Get(K key) const {
    P v = 0;
    return index_.Get(key, &v) && v == PayloadOf(key);
  }

  void Core() {
    double find_ns = 0.0;
    {
      alex::core::Alex<K, P> tree;
      tree.BulkLoad(in_.sorted.data(), in_.payloads.data(), in_.sorted.size());
      find_ns = Probe("core.Alex::Find", [&] {
        return Time(keys_.size(), [&](size_t i) {
          const P* p = tree.Find(keys_[i]);
          return p != nullptr && *p == PayloadOf(keys_[i]);
        });
      });
    }
    alex::core::ConcurrentAlex<K, P> ca;
    ca.BulkLoad(in_.sorted.data(), in_.payloads.data(), in_.sorted.size());
    auto get = [&](size_t i) {
      P v = 0;
      return ca.Get(keys_[i], &v) && v == PayloadOf(keys_[i]);
    };
    const double t1 = Probe("core.ConcurrentAlex::Get.t1",
                            [&] { return Time(keys_.size(), get); });
    const double t2 = Probe("core.ConcurrentAlex::Get.t2", [&] {
      return TimeOnClients(keys_.size(),
                           [&](size_t, size_t i) { return get(i); });
    });
    const double scan = Probe("core.ConcurrentAlex::Scan", [&] {
      return Time(scan_args_.size(), [&](size_t i) {
        const auto [s, e] = ScanSpan(scan_args_[i]);
        return ca.Scan(in_.sorted[s], in_.sorted[e], [](K, P) {}) == e - s + 1;
      });
    });
    const double agg = Probe("core.ConcurrentAlex::Aggregate", [&] {
      return Time(agg_args_.size(), [&](size_t i) {
        const auto [s, e] = AggSpan(agg_args_[i], in_.sorted.size());
        return ca.Aggregate(in_.sorted[s], in_.sorted[e]).count == e - s + 1;
      });
    });
    const double insert = Probe("core.ConcurrentAlex::Insert.t2", [&] {
      const size_t n = std::min({kProbeInserts, in_.held_out[0].size(),
                                 in_.held_out[1].size()});
      // One pass: a key inserts once.
      return TimeOnClients(
          n,
          [&](size_t t, size_t i) {
            const K key = in_.held_out[t][i];
            return ca.Insert(key, PayloadOf(key));
          },
          /*passes=*/1);
    });
    Emit("core.find_ns", find_ns);
    Emit("core.get_ns.t1", t1);
    Emit("core.get_ns.t2", t2);
    Emit("core.cc_overhead_ns", t1 - find_ns);
    Emit("core.contention_x", t1 > 0.0 ? t2 / t1 : 0.0, "x");
    Emit("core.insert_ns", insert);
    Emit("core.scan_ns", scan);
    Emit("core.agg_us", agg / 1e3, "us");
    Emit("shard.get_overhead_ns", sharded_get_ns_ - t1);
  }

  void Epoch() {
    constexpr size_t kGuards = 4'000'000;
    alex::util::EpochManager epoch;
    auto guard = [&](size_t) {
      alex::util::EpochManager::Guard g(epoch);
      return true;
    };
    Emit("epoch.guard_ns.t1", Probe("epoch.EpochManager::Guard.t1", [&] {
           return Time(kGuards, guard);
         }));
    Emit("epoch.guard_ns.t2", Probe("epoch.EpochManager::Guard.t2", [&] {
           return TimeOnClients(kGuards,
                                [&](size_t, size_t i) { return guard(i); });
         }));
  }

  void Wal() {
    const std::string dir = scratch_ + "/probe-wal";
    std::filesystem::create_directories(dir);
    std::vector<double> lat[kClients];
    std::atomic<uint64_t> failed{0};
    Probe("wal.ShardLog::Log.t2", [&] {
      alex::wal::ShardLog<K, P> log(dir + "/log", 1, 0, 1, 0,
                                    alex::wal::WalOptions());
      if (log.Open() != alex::wal::WalStatus::kOk) {
        failed = 1;
        return 0.0;
      }
      const double ns_per_tick = alex::obs::NsPerTick();
      pool_.Run([&](size_t t) {
        const size_t n = std::min(kWalRecords, in_.held_out[t].size());
        lat[t].reserve(n);
        for (size_t i = 0; i < n; ++i) {
          const K key = in_.held_out[t][i];
          const P payload = PayloadOf(key);
          const uint64_t t0 = alex::obs::NowTicks();
          const auto status =
              log.Log(alex::wal::WalRecordType::kInsert, key, &payload);
          const uint64_t t1 = alex::obs::NowTicks();
          if (status != alex::wal::WalStatus::kOk) ++failed;
          lat[t].push_back(static_cast<double>(t1 - t0) * ns_per_tick);
        }
      });
      return 0.0;
    });
    std::filesystem::remove_all(dir);
    std::vector<double> all;
    for (const auto& v : lat) all.insert(all.end(), v.begin(), v.end());
    std::sort(all.begin(), all.end());
    probe_calls_ += std::max<size_t>(all.size(), 1);
    probe_failures_ += failed.load();
    Emit("wal.log_p50_ns", Percentile(all, 0.50));
    Emit("wal.log_p99_ns", SupportsP99(all.size()) ? Percentile(all, 0.99) : 0);
  }

  void Tier() {
    // Block-cache hits: 1024 resident 4 KiB blocks, probed from 2 threads.
    {
      constexpr size_t kBlocks = 1024;
      constexpr size_t kLookups = 300'000;
      alex::tier::BlockCache cache(64u << 20);
      auto load = [](std::vector<uint8_t>* bytes) {
        bytes->assign(4096, 7);
        return true;
      };
      for (size_t b = 0; b < kBlocks; ++b) cache.GetOrLoad(1, b, load);
      std::vector<uint32_t> ids(kLookups);
      alex::util::Xoshiro256 rng(kBlocks);
      for (auto& id : ids) id = static_cast<uint32_t>(rng.NextUint64(kBlocks));
      const uint64_t misses = cache.misses();
      Emit("tier.cache_hit_ns", Probe("tier.BlockCache::GetOrLoad.t2", [&] {
             return TimeOnClients(kLookups, [&](size_t, size_t i) {
               return cache.GetOrLoad(1, ids[i], load).size() == 4096;
             });
           }));
      probe_failures_ += cache.misses() - misses;
    }
    // Segment reads straight from the mapping, on a segment of the preload.
    {
      const std::string path = scratch_ + "/probe.seg";
      double ns = 0.0;
      if (alex::tier::WriteSegmentFile<K, P>(path, in_.sorted.data(),
                                             in_.payloads.data(),
                                             in_.sorted.size(), 256) ==
          alex::core::SnapshotStatus::kOk) {
        alex::tier::ColdSegment<K, P> segment;
        if (segment.Open(path, 1) == alex::core::SnapshotStatus::kOk) {
          ns = Probe("tier.ColdSegment::Get", [&] {
            return Time(keys_.size(), [&](size_t i) {
              P v = 0;
              return segment.Get(keys_[i], &v) && v == PayloadOf(keys_[i]);
            });
          });
        } else {
          ++probe_calls_;
          ++probe_failures_;
        }
      } else {
        ++probe_calls_;
        ++probe_failures_;
      }
      std::filesystem::remove(path);
      Emit("tier.segment_get_ns", ns);
    }
    // ShardedAlex::Get split by whether the key's shard is cold.
    std::vector<K> hot, cold;
    for (K k : keys_) {
      (index_.IsShardCold(index_.ShardOf(k)) ? cold : hot).push_back(k);
    }
    auto time_gets = [&](const char* span, const std::vector<K>& keys) {
      return Probe(span, [&] {
        return Time(keys.size(), [&](size_t i) { return Get(keys[i]); });
      });
    };
    Emit("tier.hot_get_ns", time_gets("tier.ShardedAlex::Get.hot", hot));
    Emit("tier.cold_get_ns", time_gets("tier.ShardedAlex::Get.cold", cold));
  }

  const Inputs& in_;
  const Sharded& index_;
  const std::string scratch_;
  ClientPool& pool_;
  SpanLog* spans_;
  uint64_t root_ = 0;
  double sharded_get_ns_ = 0.0;
  std::vector<K> keys_;
  std::vector<uint32_t> scan_args_;
  std::vector<uint32_t> agg_args_;
  std::vector<Metric> out_;
  uint64_t probe_calls_ = 0;
  uint64_t probe_failures_ = 0;
};

}  // namespace perfbench
