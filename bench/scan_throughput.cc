// Scan/aggregate throughput sweep: selectivity × execution mode × shard
// fan-out, on ShardedAlex.
//
// The scan engine's claim is that pushing the predicate/aggregate down to
// the leaf kernels beats materializing the range and reducing it at the
// caller — no intermediate buffer, no per-record branching on dense
// occupancy runs, and (for multi-shard indexes) per-shard partials merged
// at the router instead of one serialized copy stream. So each cell runs
// the same random range queries four ways:
//
//   materialize     Scan(lo, hi) copied into a reusable buffer, then
//                   reduced at the caller (the pre-engine baseline)
//   scan_visitor    streaming Scan(lo, hi, visitor), reduce in the visitor
//                   (no buffer, but still one callback per record)
//   pushdown_agg    Aggregate(lo, hi) — fused count/sum/min/max SIMD
//                   kernels per leaf, partials merged at the router
//   pushdown_count  Aggregate with count_only — pure occupancy popcounts
//
// The headline line at the end reports pushdown_agg vs materialize at 1%
// selectivity single-threaded (the acceptance ratio the CI artifact
// tracks; the engine's floor is 2x).
//
// Sweeps: selectivity ∈ {0.1%, 1%, 10%} × shards ∈ {1, 8} ×
// scan_threads ∈ {1, 4}. scan_threads sets only Aggregate's fan-out; Scan
// always streams on the calling thread. Latency is recorded per query
// (p50/p99); a single-core machine will show no parallel win, which is
// why the headline ratio is pinned to the single-threaded cell.
//
// Flags / env:
// Every mode in a cell replays the same fixed query stream (same seed and
// count, sized so each cell touches about one index' worth of keys), so
// the per-mode key checksums must agree — the bench doubles as an
// end-to-end cross-check of the four execution paths.
//
// Flags / env:
//   --csv PATH, --json PATH   machine-readable results (bench/common.h)
//   --quick                   CI smoke mode (smaller preload)
//   ALEX_BENCH_SCALE          preload multiplier (default 2M keys)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.h"
#include "core/concurrent_alex.h"
#include "obs/metrics.h"
#include "shard/sharded_alex.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/timer.h"

namespace {
using namespace alex;  // NOLINT

using K = int64_t;
using P = int64_t;
using Sharded = shard::ShardedAlex<K, P>;

struct CellResult {
  double queries_per_sec = 0.0;
  double keys_per_sec = 0.0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t checksum = 0;  // anti-DCE + cross-mode agreement check
};

enum class Mode { kMaterialize, kScanVisitor, kPushdownAgg, kPushdownCount };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kMaterialize: return "materialize";
    case Mode::kScanVisitor: return "scan_visitor";
    case Mode::kPushdownAgg: return "pushdown_agg";
    case Mode::kPushdownCount: return "pushdown_count";
  }
  return "?";
}

/// Materialize-then-reduce baseline: Scan [lo, hi] into `buf`, then the
/// caller sums keys and counts. This is what every consumer had to write
/// before the scan engine existed (and what the single-tree adapters
/// still do).
uint64_t MaterializeReduce(const Sharded& index, K lo, K hi,
                           std::vector<std::pair<K, P>>* buf,
                           uint64_t* keys_seen) {
  buf->clear();
  index.Scan(lo, hi, [buf](const K& key, const P& payload) {
    buf->emplace_back(key, payload);
  });
  uint64_t sum = 0;
  for (const auto& [key, payload] : *buf) {
    (void)payload;
    sum += static_cast<uint64_t>(key);
  }
  *keys_seen += buf->size();
  return sum;
}

CellResult RunCell(const Sharded& index, Mode mode, K key_min, K span,
                   K range_width, uint64_t num_queries, uint64_t seed) {
  CellResult result;
  util::Xoshiro256 rng(seed);
  // Per-query latency through the shared obs accounting path (the same
  // scoped-timer layer the index itself uses), reset per cell.
  obs::Histogram* latencies =
      obs::MetricsRegistry::Global().GetHistogram("bench.scan_query_ns");
  latencies->Reset();
  std::vector<std::pair<K, P>> buf;
  uint64_t queries = 0;
  uint64_t keys = 0;
  util::Timer wall;
  while (queries < num_queries) {
    const K lo = key_min + static_cast<K>(rng.NextUint64(
                               static_cast<uint64_t>(span - range_width)));
    const K hi = lo + range_width;
    obs::ScopedLatencyTimer query(latencies);
    switch (mode) {
      case Mode::kMaterialize:
        result.checksum += MaterializeReduce(index, lo, hi, &buf, &keys);
        break;
      case Mode::kScanVisitor: {
        uint64_t sum = 0;
        keys += index.Scan(lo, hi, [&sum](const K& key, const P& payload) {
          (void)payload;
          sum += static_cast<uint64_t>(key);
        });
        result.checksum += sum;
        break;
      }
      case Mode::kPushdownAgg: {
        const auto agg = index.Aggregate(lo, hi);
        keys += agg.count;
        result.checksum += agg.keys.sum;
        break;
      }
      case Mode::kPushdownCount: {
        core::AggSpec<P> spec;
        spec.count_only = true;
        const auto agg = index.Aggregate(lo, hi, spec);
        keys += agg.count;
        result.checksum += agg.count;
        break;
      }
    }
    ++queries;
  }
  const double elapsed = wall.ElapsedSeconds();
  result.queries_per_sec =
      elapsed > 0.0 ? static_cast<double>(queries) / elapsed : 0.0;
  result.keys_per_sec =
      elapsed > 0.0 ? static_cast<double>(keys) / elapsed : 0.0;
  const util::Log2Histogram snapshot = latencies->Snapshot();
  result.p50_ns = snapshot.Quantile(0.50);
  result.p99_ns = snapshot.Quantile(0.99);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchArgs(argc, argv);
  const size_t n = bench::ScaledKeys(2000000);
  const double selectivities[] = {0.001, 0.01, 0.1};
  const size_t shard_counts[] = {1, 8};
  const size_t thread_counts[] = {1, 4};
  const Mode modes[] = {Mode::kMaterialize, Mode::kScanVisitor,
                        Mode::kPushdownAgg, Mode::kPushdownCount};

  // Keys i*2 so half the domain misses; payload i % 1000.
  std::vector<K> keys(n);
  std::vector<P> payloads(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = static_cast<K>(i) * 2;
    payloads[i] = static_cast<P>(i % 1000);
  }
  const K key_min = keys.front();
  const K span = keys.back() - keys.front();

  bench::ResultSink sink;
  bench::PrintRule("Scan/aggregate throughput (pushdown vs materialize)");
  std::printf(
      "| shards | threads | selectivity | mode | queries/s | Mkeys/s | "
      "p50 us | p99 us |\n");
  std::printf("|---|---|---|---|---|---|---|---|\n");

  // Headline cell: 1% selectivity, single shard, single thread.
  double headline_pushdown = 0.0;
  double headline_materialize = 0.0;

  for (const size_t shards : shard_counts) {
    for (const size_t threads : thread_counts) {
      shard::ShardedOptions options;
      options.num_shards = shards;
      options.scan_threads = threads;
      Sharded index(options);
      index.BulkLoad(keys.data(), payloads.data(), n);
      for (const double selectivity : selectivities) {
        const K range_width = static_cast<K>(
            selectivity * static_cast<double>(span));
        // Every mode runs the same fixed query stream (same seed, same
        // count) so the checksums are comparable and every cell touches
        // about one index' worth of keys regardless of selectivity.
        const double expected_keys =
            selectivity * static_cast<double>(std::max<size_t>(n, 1));
        const uint64_t num_queries = std::max<uint64_t>(
            20, std::min<uint64_t>(
                    2000, static_cast<uint64_t>(
                              static_cast<double>(n) /
                              std::max(expected_keys, 1.0))));
        uint64_t reference_checksum = 0;
        for (const Mode mode : modes) {
          const CellResult cell =
              RunCell(index, mode, key_min, span, range_width, num_queries,
                      /*seed=*/42);
          // materialize / scan_visitor / pushdown_agg sum the same keys
          // over the same query stream — their checksums must agree.
          if (mode == Mode::kMaterialize) {
            reference_checksum = cell.checksum;
          } else if (mode != Mode::kPushdownCount &&
                     cell.queries_per_sec > 0.0 &&
                     cell.checksum != reference_checksum) {
            std::fprintf(stderr,
                         "checksum mismatch: %s vs materialize "
                         "(%llu != %llu)\n",
                         ModeName(mode),
                         static_cast<unsigned long long>(cell.checksum),
                         static_cast<unsigned long long>(reference_checksum));
            return 1;
          }
          if (shards == 1 && threads == 1 && selectivity == 0.01) {
            if (mode == Mode::kPushdownAgg) {
              headline_pushdown = cell.keys_per_sec;
            } else if (mode == Mode::kMaterialize) {
              headline_materialize = cell.keys_per_sec;
            }
          }
          std::printf("| %zu | %zu | %.1f%% | %s | %.0f | %s | %.1f | %.1f |\n",
                      shards, threads, selectivity * 100.0, ModeName(mode),
                      cell.queries_per_sec,
                      bench::Mops(cell.keys_per_sec).c_str(),
                      static_cast<double>(cell.p50_ns) / 1000.0,
                      static_cast<double>(cell.p99_ns) / 1000.0);
          sink.Add({{"shards", std::to_string(shards)},
                    {"scan_threads", std::to_string(threads)},
                    {"selectivity", bench::ResultSink::Num(selectivity)},
                    {"mode", ModeName(mode)},
                    {"queries_per_sec",
                     bench::ResultSink::Num(cell.queries_per_sec)},
                    {"keys_per_sec",
                     bench::ResultSink::Num(cell.keys_per_sec)},
                    {"p50_ns", std::to_string(cell.p50_ns)},
                    {"p99_ns", std::to_string(cell.p99_ns)}});
        }
      }
    }
  }

  if (headline_materialize > 0.0) {
    std::printf(
        "\npushdown_agg vs materialize at 1%% selectivity, 1 shard, "
        "1 thread: %.2fx (floor: 2x)\n",
        headline_pushdown / headline_materialize);
  }
  sink.Flush();
  return 0;
}
