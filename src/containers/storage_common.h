// Storage machinery shared by the two ALEX leaf layouts (paper §3.3):
// the Gapped Array and the Packed Memory Array. Both store keys in a
// partially-filled sorted array where
//
//   * a per-slot bitmap marks which slots hold real keys vs. gaps
//     (paper §5.2.3),
//   * every gap holds a copy of the closest key to its right (trailing
//     gaps hold the last key), so the raw array is non-decreasing and
//     exponential search works unmodified (paper §3.3.1), and
//   * bulk placement is *model-based*: each key goes to the slot its linear
//     model predicts, colliding keys go to the first gap to the right
//     (paper Alg. 3, ModelBasedInsert).
//
// The layouts differ only in their *insert* policy (shift toward the
// nearest gap vs. PMA density-bound rebalancing), which lives in the
// derived classes.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "models/linear_model.h"
#include "util/bitmap.h"
#include "util/search.h"
#include "util/simd_scan.h"
#include "util/simd_search.h"

namespace alex::container {

/// Computes strictly-increasing placement slots for `n` sorted keys in an
/// array of `capacity >= n` slots, honouring the model's predictions as
/// closely as possible.
///
/// Implements the collision rule of Alg. 3 ("If the model tries to insert
/// multiple elements into the same position, every element after the first
/// will instead be inserted into the first gap to the right") plus a
/// right-edge fixup: if the model would push keys past the end of the
/// array, the tail of the placement is compacted against the right edge.
template <typename K>
void ComputeModelPlacement(const K* keys, size_t n,
                           const model::LinearModel& model, size_t capacity,
                           std::vector<size_t>* positions) {
  assert(capacity >= n);
  positions->resize(n);
  if (n == 0) return;
  size_t prev = 0;
  bool first = true;
  for (size_t i = 0; i < n; ++i) {
    size_t pos = model.Predict(static_cast<double>(keys[i]), capacity);
    if (!first && pos <= prev) pos = prev + 1;  // first gap to the right
    if (pos >= capacity) pos = capacity - 1;
    (*positions)[i] = pos;
    prev = pos;
    first = false;
  }
  // Right-edge fixup: slot i may be at most capacity - (n - i) so that all
  // later keys still fit. A single right-to-left pass restores strict
  // monotonicity within capacity.
  for (size_t i = n; i-- > 0;) {
    const size_t allowed = capacity - (n - i);
    if ((*positions)[i] > allowed) (*positions)[i] = allowed;
    if (i + 1 < n && (*positions)[i] >= (*positions)[i + 1]) {
      (*positions)[i] = (*positions)[i + 1] - 1;
    }
  }
}

/// Uniform (evenly spaced) placement used when no model is available
/// ("cold start", paper §3.3.3) and by classic PMA redistribution.
inline void ComputeUniformPlacement(size_t n, size_t capacity,
                                    std::vector<size_t>* positions) {
  assert(capacity >= n);
  positions->resize(n);
  if (n == 0) return;
  const double step = static_cast<double>(capacity) / static_cast<double>(n);
  size_t prev = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t pos = static_cast<size_t>(step * static_cast<double>(i));
    if (i > 0 && pos <= prev) pos = prev + 1;
    if (pos >= capacity) pos = capacity - 1;
    (*positions)[i] = pos;
    prev = pos;
  }
  for (size_t i = n; i-- > 0;) {
    const size_t allowed = capacity - (n - i);
    if ((*positions)[i] > allowed) (*positions)[i] = allowed;
    if (i + 1 < n && (*positions)[i] >= (*positions)[i + 1]) {
      (*positions)[i] = (*positions)[i + 1] - 1;
    }
  }
}

/// Base class holding the gapped, bitmap-tracked key/payload arrays and all
/// layout-independent operations. `K` must be an arithmetic key type; `P`
/// is an arbitrary copyable payload.
template <typename K, typename P>
class GappedStorage {
 public:
  GappedStorage() = default;

  size_t capacity() const { return keys_.size(); }
  size_t num_keys() const { return num_keys_; }
  bool empty() const { return num_keys_ == 0; }

  /// Fraction of slots occupied by real keys.
  double density() const {
    return capacity() == 0
               ? 0.0
               : static_cast<double>(num_keys_) /
                     static_cast<double>(capacity());
  }

  /// True when slot `i` holds a real key (not a gap-fill copy).
  bool IsOccupied(size_t i) const { return bitmap_.Get(i); }

  const K& key_at(size_t i) const { return keys_[i]; }
  const P& payload_at(size_t i) const { return payloads_[i]; }
  P& mutable_payload_at(size_t i) { return payloads_[i]; }

  const util::Bitmap& bitmap() const { return bitmap_; }

  /// First occupied slot, or capacity() when empty.
  size_t FirstOccupied() const { return bitmap_.NextSet(0); }

  /// Next occupied slot strictly after `i`, or capacity().
  size_t NextOccupied(size_t i) const { return bitmap_.NextSet(i + 1); }

  /// Total element moves performed by inserts/rebalances since
  /// construction (Figure 8's "shifts per insert" numerator).
  uint64_t num_shifts() const { return num_shifts_; }

  /// Heap bytes of the key/payload arrays plus the bitmap — the node's
  /// contribution to ALEX "data size" (paper §5.1).
  size_t DataSizeBytes() const {
    return keys_.size() * sizeof(K) + payloads_.size() * sizeof(P) +
           bitmap_.SizeBytes();
  }

  /// Smallest occupied slot whose key is >= `key`, searching outward from
  /// `predicted` (exponential search, paper §3.2). Returns capacity() when
  /// every key is < `key`.
  size_t LowerBoundSlot(K key, size_t predicted) const {
    const size_t pos = util::ExponentialSearchLowerBound(
        keys_.data(), keys_.size(), key, predicted);
    return bitmap_.NextSet(pos);
  }

  /// Smallest occupied slot whose key is > `key`.
  size_t UpperBoundSlot(K key, size_t predicted) const {
    const size_t pos = util::ExponentialSearchUpperBound(
        keys_.data(), keys_.size(), key, predicted);
    return bitmap_.NextSet(pos);
  }

  /// Slot of `key` if present, else capacity().
  ///
  /// The direct-hit fast path is the payoff of model-based insertion
  /// (§3.2): when the key sits exactly where the model predicted — the
  /// common case after bulk load (Fig. 7b) — the lookup is O(1) with no
  /// search at all.
  size_t FindSlot(K key, size_t predicted) const {
    if (predicted < capacity() && keys_[predicted] == key &&
        bitmap_.Get(predicted)) {
      return predicted;
    }
    const size_t slot = LowerBoundSlot(key, predicted);
    if (slot < capacity() && keys_[slot] == key) return slot;
    return capacity();
  }

  /// Bounded variant of LowerBoundSlot: resolves inside the model's error
  /// window [predicted - error, predicted + error] with a branchless scan
  /// (AVX2 when available), falling back to exponential search only when
  /// the result lands on a window edge (stale bound). Same answer as
  /// LowerBoundSlot for every input.
  size_t LowerBoundSlotBounded(K key, size_t predicted, size_t error) const {
    const size_t pos = util::PredictedWindowLowerBound(
        keys_.data(), keys_.size(), key, predicted, error);
    return bitmap_.NextSet(pos);
  }

  /// Bounded variant of UpperBoundSlot.
  size_t UpperBoundSlotBounded(K key, size_t predicted, size_t error) const {
    const size_t pos = util::PredictedWindowUpperBound(
        keys_.data(), keys_.size(), key, predicted, error);
    return bitmap_.NextSet(pos);
  }

  /// Bounded variant of FindSlot (keeps the direct-hit fast path).
  size_t FindSlotBounded(K key, size_t predicted, size_t error) const {
    if (predicted < capacity() && keys_[predicted] == key &&
        bitmap_.Get(predicted)) {
      return predicted;
    }
    const size_t slot = LowerBoundSlotBounded(key, predicted, error);
    if (slot < capacity() && keys_[slot] == key) return slot;
    return capacity();
  }

  /// Software-prefetches the key and payload cachelines of slot
  /// `predicted`, ahead of a batched probe (MultiGet issues these for the
  /// whole run before the first search touches memory).
  void PrefetchSlot(size_t predicted) const {
    if (predicted >= capacity()) return;
    __builtin_prefetch(keys_.data() + predicted, 0, 1);
    __builtin_prefetch(payloads_.data() + predicted, 0, 1);
  }

  /// Removes the key at occupied slot `slot`, restoring the gap-fill
  /// invariant for the slot and any gap run ending at it.
  void EraseAt(size_t slot) {
    assert(bitmap_.Get(slot));
    bitmap_.Clear(slot);
    --num_keys_;
    K fill;
    const size_t right = bitmap_.NextSet(slot + 1);
    if (right < capacity()) {
      fill = keys_[right];
    } else {
      // Erased the last occupied key. Trailing gaps beyond `slot` keep
      // their remnant values — each is >= the erased key >= the new fill,
      // so the array stays non-decreasing without an O(capacity) rewrite.
      const size_t left = slot == 0 ? capacity() : bitmap_.PrevSet(slot - 1);
      if (left < capacity()) {
        fill = keys_[left];
      } else {
        // Node is now empty: K{} has no ordering relation to the
        // remnants, so reset them all (once per node drain).
        fill = K{};
        for (size_t i = slot + 1; i < capacity(); ++i) keys_[i] = fill;
      }
    }
    // The cleared slot and the contiguous gap run to its left all pointed
    // at the erased key; repoint them at the new closest-right key.
    size_t i = slot;
    while (true) {
      keys_[i] = fill;
      if (i == 0 || bitmap_.Get(i - 1)) break;
      --i;
    }
  }

  /// Appends up to `max_results` (key, payload) pairs starting at the
  /// first occupied slot >= `slot` to `out`. Returns the number appended.
  /// This is the range-scan hot path (§5.2.3): one tight loop over the
  /// bitmap, no per-element dispatch.
  size_t ScanFrom(size_t slot, size_t max_results,
                  std::vector<std::pair<K, P>>* out) const {
    size_t got = 0;
    for (size_t i = bitmap_.NextSet(slot);
         i < capacity() && got < max_results; i = bitmap_.NextSet(i + 1)) {
      out->emplace_back(keys_[i], payloads_[i]);
      ++got;
    }
    return got;
  }

  /// Visits the occupied slots in [slot_lo, slot_hi) in ascending order
  /// as visit(key, payload), without materializing anything, until the
  /// visitor returns false. Returns the number of slots visited, counting
  /// the one that stopped the walk. The scan engine's per-leaf streaming
  /// path.
  template <typename Visitor>
  size_t VisitSlots(size_t slot_lo, size_t slot_hi, Visitor&& visit) const {
    if (slot_hi > capacity()) slot_hi = capacity();
    size_t got = 0;
    for (size_t i = bitmap_.NextSet(slot_lo); i < slot_hi;
         i = bitmap_.NextSet(i + 1)) {
      ++got;
      if (!visit(keys_[i], payloads_[i])) break;
    }
    return got;
  }

  /// Number of occupied slots in [slot_lo, slot_hi).
  size_t CountSlots(size_t slot_lo, size_t slot_hi) const {
    return bitmap_.PopCountRange(slot_lo, slot_hi);
  }

  /// Fused count/sum/min/max of the *keys* in occupied slots
  /// [slot_lo, slot_hi) (util/simd_scan.h kernels; gap slots are masked
  /// out by the occupancy bitmap, so gap-fill copies never contribute).
  util::AggState<K> AggregateKeySlots(size_t slot_lo, size_t slot_hi) const {
    if (slot_hi > capacity()) slot_hi = capacity();
    return util::MaskedAggregate(keys_.data(), bitmap_.words(), slot_lo,
                                 slot_hi);
  }

  /// Fused count/sum/min/max of the *payloads* in occupied slots
  /// [slot_lo, slot_hi). Only instantiated for arithmetic payload types.
  util::AggState<P> AggregatePayloadSlots(size_t slot_lo,
                                          size_t slot_hi) const {
    if (slot_hi > capacity()) slot_hi = capacity();
    return util::MaskedAggregate(payloads_.data(), bitmap_.words(), slot_lo,
                                 slot_hi);
  }

  /// Number of occupied slots in [slot_lo, slot_hi) whose payload lies in
  /// [payload_lo, payload_hi] — SIMD predicate pushdown. Only instantiated
  /// for arithmetic payload types.
  uint64_t CountPayloadSlotsBetween(size_t slot_lo, size_t slot_hi,
                                    P payload_lo, P payload_hi) const {
    if (slot_hi > capacity()) slot_hi = capacity();
    return util::MaskedCountBetween(payloads_.data(), bitmap_.words(),
                                    slot_lo, slot_hi, payload_lo, payload_hi);
  }

  /// Copies all (key, payload) pairs in slot order into `keys`/`payloads`.
  void ExtractAll(std::vector<K>* keys, std::vector<P>* payloads) const {
    keys->clear();
    payloads->clear();
    keys->reserve(num_keys_);
    payloads->reserve(num_keys_);
    for (size_t i = FirstOccupied(); i < capacity(); i = NextOccupied(i)) {
      keys->push_back(keys_[i]);
      payloads->push_back(payloads_[i]);
    }
  }

  /// Verifies internal invariants (occupied keys strictly increasing, gap
  /// fills correct, bitmap count matches num_keys). Test hook; O(capacity).
  bool CheckInvariants() const {
    if (bitmap_.size() != capacity()) return false;
    if (bitmap_.PopCount() != num_keys_) return false;
    bool have_prev = false;
    K prev{};
    for (size_t i = 0; i < capacity(); ++i) {
      if (bitmap_.Get(i)) {
        if (have_prev && !(prev < keys_[i])) return false;
        prev = keys_[i];
        have_prev = true;
      }
    }
    // Gap-fill: array must be non-decreasing and each gap must equal the
    // next occupied key (or the last key for trailing gaps).
    for (size_t i = 0; i + 1 < capacity(); ++i) {
      if (keys_[i + 1] < keys_[i]) return false;
    }
    for (size_t i = 0; i < capacity(); ++i) {
      if (!bitmap_.Get(i) && num_keys_ > 0) {
        const size_t right = bitmap_.NextSet(i);
        if (right < capacity()) {
          if (!(keys_[i] == keys_[right])) return false;
        }
      }
    }
    // Trailing gaps (no occupied slot to their right) must be >= the last
    // occupied key: exact copies after a (re)build, possibly larger
    // remnants after erasing a maximum (EraseAt skips rewriting them).
    if (num_keys_ > 0) {
      const size_t last = bitmap_.PrevSet(capacity() - 1);
      for (size_t i = last + 1; i < capacity(); ++i) {
        if (keys_[i] < keys_[last]) return false;
      }
    }
    return true;
  }

 protected:
  /// Reallocates to `capacity` empty slots. Resets the shift counter: it
  /// counts moves since the last (re)build, and owners accumulate it
  /// across rebuilds.
  void ResetStorage(size_t capacity) {
    keys_.assign(capacity, K{});
    payloads_.assign(capacity, P{});
    bitmap_ = util::Bitmap(capacity);
    num_keys_ = 0;
    num_shifts_ = 0;
  }

  /// Places `n` sorted keys at the given strictly-increasing `positions`
  /// and fills gaps per the invariant.
  void PlaceSorted(const K* keys, const P* payloads, size_t n,
                   const std::vector<size_t>& positions) {
    for (size_t i = 0; i < n; ++i) {
      const size_t pos = positions[i];
      keys_[pos] = keys[i];
      payloads_[pos] = payloads[i];
      bitmap_.Set(pos);
    }
    num_keys_ = n;
    RefillAllGaps();
  }

  /// Rewrites every gap with its closest-right key (last key for trailing
  /// gaps). O(capacity); used after bulk placement and rebalances.
  void RefillAllGaps() {
    if (num_keys_ == 0) return;
    K fill{};
    bool have_fill = false;
    for (size_t i = capacity(); i-- > 0;) {
      if (bitmap_.Get(i)) {
        fill = keys_[i];
        have_fill = true;
      } else if (have_fill) {
        keys_[i] = fill;
      }
    }
    // Trailing gaps (after the last occupied slot) hold the last key.
    const size_t last = bitmap_.PrevSet(capacity() - 1);
    if (last < capacity()) {
      for (size_t i = last + 1; i < capacity(); ++i) keys_[i] = keys_[last];
    }
  }

  /// Writes `key` into free slot `pos` and repairs gap fills in the gap run
  /// to its left (those gaps' closest-right key is now `key`).
  void PlaceInGap(size_t pos, K key, const P& payload) {
    assert(!bitmap_.Get(pos));
    keys_[pos] = key;
    payloads_[pos] = payload;
    bitmap_.Set(pos);
    ++num_keys_;
    size_t i = pos;
    while (i > 0 && !bitmap_.Get(i - 1)) {
      --i;
      keys_[i] = key;
    }
    // Trailing-gap repair: if `pos` is now the last occupied slot, gaps to
    // its right must hold it.
    if (bitmap_.NextSet(pos + 1) == capacity()) {
      for (size_t j = pos + 1; j < capacity(); ++j) keys_[j] = key;
    }
  }

  std::vector<K> keys_;
  std::vector<P> payloads_;
  util::Bitmap bitmap_;
  size_t num_keys_ = 0;
  uint64_t num_shifts_ = 0;
};

}  // namespace alex::container
