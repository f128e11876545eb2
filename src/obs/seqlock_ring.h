// The obs stack's one lock-free publication ring: a fixed-size seqlock ring
// of trivially copyable records, stored as 64-bit words. The slow-op trace
// (obs/metrics.h), the event journal (obs/journal.h) and the health
// time-series (obs/health.h) are all instances of it.
//
// Protocol (Boehm, "Can Seqlocks Get Along with Programming Language Memory
// Models?", MSPC 2012). Push takes ticket t with one fetch_add; slot
// t % kCapacity publishes through its sequence word: 2t+1 while t writes,
// 2t+2 once t is published, 0 while never written.
//
//   - A writer *claims* its slot with a CAS from an even value below 2t+1
//     to 2t+1. If the slot is odd (another writer holds it) or already
//     newer, the record is dropped. One writer per slot at a time is what
//     keeps a lapped writer from tearing a record a reader then accepts;
//     an unconditional odd store cannot give that guarantee.
//   - Data words are stored `release` and loaded `acquire`. A reader that
//     loads any word of a later writer therefore also sees that writer's
//     claim when it re-reads the sequence word, and rejects the slot. The
//     final sequence store is `release`, the reader's first sequence load
//     `acquire`. No standalone fences.
//
// Records can be dropped under races (a lapped writer, a reader catching a
// slot mid-write), never torn. With one writer at a time nothing is dropped
// and Snapshot() is exact.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

namespace alex::obs {

/// `T` must be trivially copyable, a whole number of 64-bit words, and
/// carry a `uint64_t ticket` member, which Push stamps with the record's
/// position in push order.
template <typename T, size_t kCap>
class SeqlockRing {
  static_assert(std::is_trivially_copyable<T>::value,
                "SeqlockRing copies records as raw words");
  static_assert(sizeof(T) % sizeof(uint64_t) == 0,
                "SeqlockRing records must be whole 64-bit words");
  static_assert(std::is_same<decltype(T::ticket), uint64_t>::value,
                "SeqlockRing records carry a uint64_t ticket");
  static_assert(kCap > 0 && (kCap & (kCap - 1)) == 0,
                "capacity must be a power of two");

 public:
  static constexpr size_t kCapacity = kCap;
  static constexpr size_t kWords = sizeof(T) / sizeof(uint64_t);

  /// Total records ever pushed, dropped ones included (the ring keeps the
  /// newest kCapacity).
  uint64_t pushed() const { return next_.load(std::memory_order_relaxed); }

  /// Publishes `record` with the next ticket, which it returns.
  uint64_t Push(T record) {
    const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
    record.ticket = ticket;
    uint64_t words[kWords];
    std::memcpy(words, &record, sizeof(record));
    Slot& s = slots_[ticket & (kCapacity - 1)];
    const uint64_t claim = 2 * ticket + 1;
    uint64_t seq = s.seq.load(std::memory_order_relaxed);
    do {
      if ((seq & 1) != 0 || seq >= claim) return ticket;  // held or newer
    } while (!s.seq.compare_exchange_weak(seq, claim,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed));
    for (size_t w = 0; w < kWords; ++w) {
      s.words[w].store(words[w], std::memory_order_release);
    }
    s.seq.store(claim + 1, std::memory_order_release);
    return ticket;
  }

  /// Published records, oldest first (ascending tickets).
  std::vector<T> Snapshot() const {
    std::vector<T> out;
    out.reserve(kCapacity);
    for (const Slot& s : slots_) {
      const uint64_t seq = s.seq.load(std::memory_order_acquire);
      if (seq == 0 || (seq & 1) != 0) continue;  // empty or being written
      uint64_t words[kWords];
      for (size_t w = 0; w < kWords; ++w) {
        words[w] = s.words[w].load(std::memory_order_acquire);
      }
      if (s.seq.load(std::memory_order_relaxed) != seq) continue;  // reused
      T record;
      std::memcpy(&record, words, sizeof(record));
      out.push_back(record);
    }
    std::sort(out.begin(), out.end(),
              [](const T& a, const T& b) { return a.ticket < b.ticket; });
    return out;
  }

  /// Test/bench-only; must not race Push().
  void Reset() {
    next_.store(0, std::memory_order_relaxed);
    for (Slot& s : slots_) s.seq.store(0, std::memory_order_relaxed);
  }

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};
    std::array<std::atomic<uint64_t>, kWords> words{};
  };

  std::atomic<uint64_t> next_{0};
  std::array<Slot, kCapacity> slots_{};
};

}  // namespace alex::obs
