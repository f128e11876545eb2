// Concurrency scaling across the paper's §7 design space, coarse to
// lock-free to sharded:
//
//   * global shared_mutex         (baselines/global_lock_index.h)
//   * lock-free reads + EBR       (core/concurrent_alex.h)
//   * sharded + learned routing   (shard/sharded_alex.h)
//
// A read-mostly YCSB-B-style workload (95% Zipfian point lookups / 5%
// inserts of fresh keys; bench/read_mostly.h) runs on T threads against
// all three wrappers; the table reports aggregate throughput and speedups
// over the global lock. With the global lock every insert stalls all
// readers; the lock-free wrapper descends under an epoch guard and
// latches only its leaf, so only readers of the written leaf wait; the
// sharded wrapper additionally partitions leaf latches,
// splits and epoch advancement across independent shards. Shard-count ×
// thread-count sweeps live in bench/shard_scaling.cc.
//
// Flags / env:
//   --threads N          worker count (or ALEX_BENCH_THREADS; default 16)
//   --csv PATH, --json PATH   machine-readable results (bench/common.h)
//   --quick              CI smoke mode
//   ALEX_BENCH_SCALE     preloaded key multiplier (default 200k keys)
//   ALEX_BENCH_SECONDS   seconds per timed run
#include <cstdint>
#include <cstdio>

#include "baselines/global_lock_index.h"
#include "bench/common.h"
#include "bench/read_mostly.h"
#include "core/concurrent_alex.h"
#include "shard/sharded_alex.h"

namespace {
using namespace alex;  // NOLINT
}  // namespace

int main(int argc, char** argv) {
  alex::bench::ParseBenchArgs(argc, argv);
  const size_t threads = bench::BenchThreads(16);
  const size_t preload = bench::ScaledKeys(200000);
  const double seconds = bench::EnvSeconds();

  std::printf("Concurrency scaling: read-mostly 95/5, %zu threads, "
              "%zu preloaded keys, %.2gs per run\n",
              threads, preload, seconds);
  bench::PrintRule(
      "global lock vs lock-free reads vs sharded");

  struct Variant {
    const char* name;
    double (*run)(size_t, size_t, double);
  };
  const Variant variants[] = {
      {"global shared_mutex",
       [](size_t t, size_t p, double s) {
         return bench::RunReadMostly(
             [] { return baseline::GlobalLockAlex<int64_t, int64_t>(); }, t,
             p, s);
       }},
      {"lock-free reads + EBR",
       [](size_t t, size_t p, double s) {
         return bench::RunReadMostly(
             [] { return core::ConcurrentAlex<int64_t, int64_t>(); }, t, p,
             s);
       }},
      {"sharded (8 shards) + learned routing",
       [](size_t t, size_t p, double s) {
         return bench::RunReadMostly(
             [] { return shard::ShardedAlex<int64_t, int64_t>(); }, t, p,
             s);
       }},
      // The batched columns run the same 95/5 interleave with the 19
      // reads of each iteration going through one MultiGet (one epoch
      // guard + one latch per leaf run + slot prefetch) instead of 19
      // scalar Gets.
      {"lock-free reads + EBR (batched MultiGet)",
       [](size_t t, size_t p, double s) {
         return bench::RunReadMostlyBatched(
             [] { return core::ConcurrentAlex<int64_t, int64_t>(); }, t, p,
             s);
       }},
      {"sharded + learned routing (batched MultiGet)",
       [](size_t t, size_t p, double s) {
         return bench::RunReadMostlyBatched(
             [] { return shard::ShardedAlex<int64_t, int64_t>(); }, t, p,
             s);
       }},
  };

  bench::ResultSink sink;
  double baseline_ops = 0.0;
  std::printf("| wrapper | Mops/s | vs global |\n|---|---|---|\n");
  for (const Variant& variant : variants) {
    const double ops = variant.run(threads, preload, seconds);
    if (baseline_ops == 0.0) baseline_ops = ops;
    const double speedup = baseline_ops > 0.0 ? ops / baseline_ops : 0.0;
    std::printf("| %s | %s | %.2fx |\n", variant.name,
                bench::Mops(ops).c_str(), speedup);
    sink.Add({{"bench", "concurrency_scaling"},
              {"workload", "read_mostly_95_5"},
              {"wrapper", variant.name},
              {"threads", bench::ResultSink::Num(
                              static_cast<double>(threads))},
              {"preload_keys", bench::ResultSink::Num(
                                   static_cast<double>(preload))},
              {"seconds", bench::ResultSink::Num(seconds)},
              {"mops", bench::ResultSink::Num(ops / 1e6)},
              {"speedup_vs_global", bench::ResultSink::Num(speedup)}});
  }
  sink.Flush();
  return 0;
}
