// Per-shard write-ahead log writer: appends into a mapped segment, group
// commit for fdatasync.
//
// One ShardLog serializes Put/Erase records for one shard (format:
// wal_format.h). Appends encode each record straight into a MAP_SHARED
// mapping of the live segment file under a short mutex. A store into a
// shared file mapping is in the page cache when it lands, so an appended
// record is "in the file" — visible to any reader and surviving a
// process crash — without a write(2).
//
// The mapping avoids the usual hazards of mmap'd files (Crotty et al.,
// "Are You Sure You Want to Use MMAP in Your DBMS?", CIDR 2022):
//   - an early writeback is harmless: the segment is append-only and
//     every record carries its own checksum;
//   - no store can raise SIGBUS: blocks are reserved with posix_fallocate
//     before they are mapped, nothing is stored past them, and the file
//     is trimmed only after it is unmapped;
//   - remapping is rare: the first chunk is kSegmentChunkBytes and a full
//     mapping doubles, so a segment is remapped O(log size) times.
// A failed reservation or mapping fails the log closed (sticky kIoError).
// Closing a segment (Rotate, Seal, destruction) unmaps it and trims the
// file to its written length, so a closed segment holds exactly the
// header and its records. A segment whose writer died while it was open
// ends in zeros, which the reader takes as a clean end (log_reader.h).
//
// Durability is a leader/follower *group commit* over fdatasync(2): the
// first committer that needs a sync and finds none in flight runs one
// fdatasync for every record appended so far, then wakes every follower
// it covered. The cost of a sync therefore amortizes over every writer
// that appended during the previous sync.
//
// Sync policy decides what an acknowledged Log() means:
//   kAlways — the record is fdatasync-durable before Log() returns.
//   kBatch  — the record has reached the file (page cache); an fdatasync
//             is piggybacked on the first commit after batch_interval_us.
//             A committer never waits for a sync already in flight.
//             A crash can lose at most the last interval's records.
//   kNone   — the record has reached the file; the OS syncs whenever.
//
// Seal() ends the log permanently (topology victim/retire hand-off): it
// appends a kSeal record stamped with the final LSN, syncs, and closes.
// Rotate() is the checkpoint hand-off: it closes the current segment and
// opens the next one (seq+1) whose header records the LSN watershed, so
// the superseded segment can be deleted once the checkpoint commits.
// LogTopology() writes a topology child's lineage record (parents[]) as
// the log's first record, fdatasync-durable before any data record can
// be acknowledged.
//
// Under kBatch with WalOptions::background_sync, a clock thread fsyncs
// on the interval even when no committer arrives, bounding how long an
// idle shard's acked batch stays page-cache-only; it is joined on Seal
// and destruction, and Rotate waits out any in-flight clock sync before
// swapping segments.
//
// Commit latency: every successful Log() records its wall-clock wait
// (entry to commit, microseconds) in a util/histogram.h Log2Histogram,
// so benches can report p50/p99 group-commit wait.
//
// Thread safety: Log() may be called from any number of threads. Seal()
// and Rotate() require the caller to exclude concurrent Log() calls —
// ShardedAlex calls them under the shard's exclusive write gate.
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/journal.h"
#include "obs/metrics.h"
#include "util/histogram.h"
#include "wal/wal_format.h"

namespace alex::wal {

/// Bytes a fresh segment reserves and maps; a full mapping doubles.
inline constexpr size_t kSegmentChunkBytes = size_t{1} << 20;

template <typename K, typename P>
class ShardLog {
 public:
  /// Describes a log without opening it; call Open() next. `start_lsn` is
  /// the LSN already covered elsewhere (0 for a brand-new shard,
  /// last_lsn at rotation).
  ShardLog(std::string prefix, uint64_t wal_id, uint64_t parent_wal_id,
           uint64_t seq, uint64_t start_lsn, const WalOptions& options)
      : prefix_(std::move(prefix)),
        options_(options),
        wal_id_(wal_id),
        parent_wal_id_(parent_wal_id),
        seq_(seq),
        last_lsn_(start_lsn),
        durable_lsn_(start_lsn),
        last_sync_(std::chrono::steady_clock::now()) {}

  /// Unmaps and trims the live segment (best effort, no sync) and closes.
  ~ShardLog() {
    std::unique_lock<std::mutex> lock(mu_);
    StopClockLocked(lock);
    WaitSyncIdleLocked(lock);
    (void)CloseSegment(&seg_, /*sync=*/false);
  }

  ShardLog(const ShardLog&) = delete;
  ShardLog& operator=(const ShardLog&) = delete;

  /// Creates (truncating) the segment file, maps it and writes its
  /// header; starts the background sync clock when the options ask for
  /// one.
  WalStatus Open() {
    std::unique_lock<std::mutex> lock(mu_);
    const WalStatus status = OpenSegment(seq_, &seg_);
    if (status == WalStatus::kOk &&
        options_.sync_policy == SyncPolicy::kBatch &&
        options_.background_sync && !clock_thread_.joinable()) {
      stop_clock_ = false;
      clock_thread_ = std::thread([this] { ClockLoop(); });
    }
    return status;
  }

  /// Appends one record and commits it per the sync policy (see the file
  /// comment for what "committed" means under each policy). Returns the
  /// first error sticky: once the log hit an I/O error no later append
  /// can claim durability.
  WalStatus Log(WalRecordType type, const K& key, const P* payload) {
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    if (sealed_) return WalStatus::kSealed;
    if (io_error_) return WalStatus::kIoError;
    const size_t bytes = WalRecordBytes<K, P>(type);
    uint8_t* out = ReserveLocked(bytes);
    if (out == nullptr) return FailLocked(last_lsn_ + 1);
    EncodeWalRecord<K, P>(out, ++last_lsn_, type, key, payload);
    seg_.used += bytes;
    CountCommit(bytes, 1);
    const WalStatus status = CommitLocked(lock, last_lsn_);
    if (status != WalStatus::kOk) return status;
    RecordCommitWait(t0);
    return WalStatus::kOk;
  }

  /// Appends `n` same-type records with consecutive LSNs and commits them
  /// as ONE group-commit batch: one wait on the batch's last LSN (so at
  /// most one fdatasync(2) covers the whole run, plus any concurrent
  /// committers it carries) and one commit-wait histogram sample for the
  /// batch. `payloads` may be null (erase batches carry no payload).
  /// All-or-nothing acknowledgement: on error none of the batch may be
  /// claimed durable.
  WalStatus LogBatch(WalRecordType type, const K* keys, const P* payloads,
                     size_t n) {
    if (n == 0) return WalStatus::kOk;
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    if (sealed_) return WalStatus::kSealed;
    if (io_error_) return WalStatus::kIoError;
    const size_t record_bytes = WalRecordBytes<K, P>(type);
    uint8_t* out = ReserveLocked(n * record_bytes);
    if (out == nullptr) return FailLocked(last_lsn_ + 1);
    for (size_t i = 0; i < n; ++i) {
      out += EncodeWalRecord<K, P>(
          out, ++last_lsn_, type, keys[i],
          payloads == nullptr ? nullptr : &payloads[i]);
    }
    seg_.used += n * record_bytes;
    CountCommit(n * record_bytes, n);
    const WalStatus status = CommitLocked(lock, last_lsn_);
    if (status != WalStatus::kOk) return status;
    RecordCommitWait(t0);
    return WalStatus::kOk;
  }

  /// Writes this log's lineage record — the wal ids of the topology
  /// victims it replaces — as its next (in practice: first) record, and
  /// makes it fdatasync-durable before returning. A recovery must never
  /// see acknowledged data records in a merge child without the parent
  /// list that anchors their baseline. Caller must exclude concurrent
  /// Log() calls (ShardedAlex writes it before the child is published).
  WalStatus LogTopology(const std::vector<uint64_t>& parents) {
    std::unique_lock<std::mutex> lock(mu_);
    if (sealed_) return WalStatus::kSealed;
    if (io_error_) return WalStatus::kIoError;
    if (parents.empty() || parents.size() > kMaxTopologyParents) {
      return WalStatus::kBadRecordLength;
    }
    WaitSyncIdleLocked(lock);
    const size_t bytes = WalTopologyRecordBytes(parents.size());
    uint8_t* out = ReserveLocked(bytes);
    if (out == nullptr) return FailLocked(last_lsn_ + 1);
    EncodeWalTopologyRecord(out, ++last_lsn_, parents);
    seg_.used += bytes;
    ALEX_OBS_COUNTER_ADD("wal.bytes_written", bytes);
    return LeadSync(lock) ? WalStatus::kOk : WalStatus::kIoError;
  }

  /// Ends the log: appends a kSeal record at the final LSN, then unmaps,
  /// trims, syncs and closes the segment. Caller must exclude concurrent
  /// Log() calls. The seal is what lets recovery distinguish "this log is
  /// complete by design" (a split victim) from a log that merely stops.
  WalStatus Seal() {
    std::unique_lock<std::mutex> lock(mu_);
    StopClockLocked(lock);  // the log is ending; the clock must not
                            // touch the fd past this point
    WaitSyncIdleLocked(lock);
    if (sealed_) return WalStatus::kOk;
    if (io_error_) return WalStatus::kIoError;
    const size_t bytes = WalRecordBytes<K, P>(WalRecordType::kSeal);
    uint8_t* out = ReserveLocked(bytes);
    if (out == nullptr) return FailLocked(last_lsn_ + 1);
    const K unused{};  // kSeal has no body; the key is never serialized
    EncodeWalRecord<K, P>(out, ++last_lsn_, WalRecordType::kSeal, unused,
                          nullptr);
    seg_.used += bytes;
    ALEX_OBS_COUNTER_ADD("wal.bytes_written", bytes);
    if (!CloseSegment(&seg_, /*sync=*/true)) return FailLocked(last_lsn_);
    durable_lsn_ = last_lsn_;
    sealed_ = true;
    return WalStatus::kOk;
  }

  /// Checkpoint rotation: opens segment seq+1 (whose header records the
  /// current LSN as its watershed), then closes the old segment. On
  /// failure to open, the old segment stays current, so the log never
  /// loses its tail. Caller must exclude concurrent Log() calls and is
  /// responsible for deleting the superseded segment once its checkpoint
  /// committed. `old_path` (optional) receives the superseded segment's
  /// path.
  WalStatus Rotate(std::string* old_path = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    // The clock thread may be mid-fdatasync with the mutex dropped; the
    // fd must not be swapped out from under it. (It survives rotation —
    // only Seal and destruction stop it.)
    WaitSyncIdleLocked(lock);
    if (sealed_) return WalStatus::kSealed;
    if (io_error_) return WalStatus::kIoError;
    Segment next;
    const WalStatus status = OpenSegment(seq_ + 1, &next);
    if (status != WalStatus::kOk) return status;
    const uint64_t old_seq = seq_;
    const bool closed = CloseSegment(&seg_, /*sync=*/false);
    seg_ = next;
    seq_ = old_seq + 1;
    if (old_path != nullptr) {
      *old_path = WalSegmentPath(prefix_, wal_id_, old_seq);
    }
    if (!closed) return FailLocked(last_lsn_);
    durable_lsn_ = last_lsn_;
    return WalStatus::kOk;
  }

  uint64_t wal_id() const { return wal_id_; }
  uint64_t seq() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seq_;
  }
  uint64_t last_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_lsn_;
  }
  /// Highest LSN covered by an fdatasync (tests/diagnostics; this is
  /// what the background sync clock advances on an idle log).
  uint64_t durable_lsn() const {
    std::lock_guard<std::mutex> lock(mu_);
    return durable_lsn_;
  }
  /// Snapshot of the per-commit wait histogram (microsecond buckets).
  util::Log2Histogram CommitWaitHistogram() const {
    std::lock_guard<std::mutex> lock(mu_);
    return commit_wait_;
  }
  bool sealed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sealed_;
  }
  std::string current_path() const {
    std::lock_guard<std::mutex> lock(mu_);
    return WalSegmentPath(prefix_, wal_id_, seq_);
  }

 private:
  /// One open segment file and its mapping.
  struct Segment {
    int fd = -1;
    uint8_t* map = nullptr;
    size_t mapped = 0;  ///< bytes reserved in the file and mapped
    size_t used = 0;    ///< bytes written: header + records
  };

  /// Creates segment `seq`, reserves and maps its first chunk, and stores
  /// its header (start_lsn = last_lsn_). On failure `*out` is untouched;
  /// the file may be left empty or all zeros, which recovery reads as a
  /// stub that never held a record.
  WalStatus OpenSegment(uint64_t seq, Segment* out) {
    const std::string path = WalSegmentPath(prefix_, wal_id_, seq);
    Segment seg;
    seg.fd = ::open(path.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
    if (seg.fd < 0) return WalStatus::kIoError;
    // Persist the directory entry: fdatasync(fd) makes record *data*
    // durable but not the file's existence — without this, a power loss
    // after a rotation could vanish the whole segment, acknowledged
    // records included.
    std::string dir, base;
    SplitPrefixPath(prefix_, &dir, &base);
    if (!SyncPath(dir) || !MapChunk(&seg, kSegmentChunkBytes)) {
      ::close(seg.fd);
      return WalStatus::kIoError;
    }
    WalSegmentHeader header;
    header.magic = internal::kWalMagic;
    header.version = internal::kWalVersion;
    header.key_size = sizeof(K);
    header.payload_size = sizeof(P);
    header.wal_id = wal_id_;
    header.parent_wal_id = parent_wal_id_;
    header.seq = seq;
    header.start_lsn = last_lsn_;
    header.header_checksum = WalHeaderChecksum(header);
    std::memcpy(seg.map, &header, sizeof(header));
    seg.used = sizeof(header);
    *out = seg;
    return WalStatus::kOk;
  }

  /// Reserves the file's blocks up to `size` and maps them in place of
  /// the current mapping. The reservation comes first, so the mapping
  /// never covers a page past EOF. On failure the old mapping stays.
  static bool MapChunk(Segment* seg, size_t size) {
    if (::posix_fallocate(seg->fd, static_cast<off_t>(seg->mapped),
                          static_cast<off_t>(size - seg->mapped)) != 0) {
      return false;
    }
    void* map = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED,
                       seg->fd, 0);
    if (map == MAP_FAILED) return false;
    if (seg->map != nullptr) ::munmap(seg->map, seg->mapped);
    seg->map = static_cast<uint8_t*>(map);
    seg->mapped = size;
    return true;
  }

  /// Room for `n` more bytes in the live segment, doubling the mapping
  /// when it is full. Null when the segment is closed or cannot grow.
  /// mu_ held.
  uint8_t* ReserveLocked(size_t n) {
    if (seg_.map == nullptr) return nullptr;
    if (seg_.used + n > seg_.mapped) {
      size_t size = seg_.mapped;
      while (seg_.used + n > size) size *= 2;
      if (!MapChunk(&seg_, size)) return nullptr;
    }
    return seg_.map + seg_.used;
  }

  /// Unmaps `seg`, trims its file to the bytes written, runs the sync
  /// that ends it when `sync` is set, and closes it. Trimming after the
  /// unmap means no store can ever land past EOF. False on any failure;
  /// the segment is closed either way.
  static bool CloseSegment(Segment* seg, bool sync) {
    if (seg->fd < 0) return true;
    bool ok = ::munmap(seg->map, seg->mapped) == 0;
    ok = ::ftruncate(seg->fd, static_cast<off_t>(seg->used)) == 0 && ok;
    if (ok && sync) {
      ok = ::fdatasync(seg->fd) == 0;
      ALEX_OBS_COUNTER_INC("wal.fsyncs");
    }
    ::close(seg->fd);
    *seg = Segment{};
    return ok;
  }

  /// Marks the log failed (sticky) and journals it. mu_ held.
  WalStatus FailLocked([[maybe_unused]] uint64_t lsn) {
    io_error_ = true;
    ALEX_OBS_EVENT(obs::EventType::kWalError, obs::kShardAll, wal_id_, lsn,
                   static_cast<int64_t>(WalStatus::kIoError), 0);
    return WalStatus::kIoError;
  }

  /// One commit's counters: bytes copied into the mapping and records
  /// logged by one Log/LogBatch, which is one commit.
  static void CountCommit([[maybe_unused]] size_t bytes,
                          [[maybe_unused]] size_t records) {
    ALEX_OBS_COUNTER_ADD("wal.bytes_written", bytes);
    ALEX_OBS_COUNTER_INC("wal.commit_batches");
    ALEX_OBS_COUNTER_ADD("wal.records_logged", records);
    // Batch-shape distributions only for multi-record commits: single
    // records say nothing about batching and would swamp the histograms.
    if (records > 1) {
      ALEX_OBS_HIST_RECORD("wal.commit_batch_bytes", bytes);
      ALEX_OBS_HIST_RECORD("wal.commit_batch_records", records);
    }
  }

  /// Commit wait, entry to acknowledgement. mu_ held, so the histogram
  /// needs no further synchronization.
  void RecordCommitWait(std::chrono::steady_clock::time_point t0) {
    const uint64_t wait_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    commit_wait_.Record(wait_ns / 1000);
    ALEX_OBS_HIST_RECORD("wal.commit_wait_ns", wait_ns);
    // Feed the op-context from the wait this call already measured —
    // the slow-op trace gets the number without a second clock pair.
    ALEX_OBS_CTX_ADD(wal_wait_ns, wait_ns);
  }

  /// Blocks until no sync (leader or clock) is in flight. mu_ held.
  void WaitSyncIdleLocked(std::unique_lock<std::mutex>& lock) {
    while (sync_in_flight_) cv_.wait(lock);
  }

  /// Stops and joins the background sync clock, dropping mu_ around the
  /// join (the thread needs it to observe the stop flag and exit).
  void StopClockLocked(std::unique_lock<std::mutex>& lock) {
    if (!clock_thread_.joinable()) return;
    stop_clock_ = true;
    clock_cv_.notify_all();
    lock.unlock();
    clock_thread_.join();
    lock.lock();
  }

  /// Leads one group-commit sync: claims sync_in_flight_, runs fdatasync
  /// with mu_ dropped (appends continue meanwhile), then covers every
  /// record appended before it started and wakes the waiters. Appends may
  /// remap the segment meanwhile; the sync needs only the fd, which
  /// Rotate/Seal/destruction keep open until the sync is idle.
  bool LeadSync(std::unique_lock<std::mutex>& lock) {
    sync_in_flight_ = true;
    const uint64_t target = last_lsn_;
    const int fd = seg_.fd;
    lock.unlock();
    const bool ok = ::fdatasync(fd) == 0;
    ALEX_OBS_COUNTER_INC("wal.fsyncs");
    lock.lock();
    sync_in_flight_ = false;
    if (!ok) {
      FailLocked(target);
    } else {
      if (target > durable_lsn_) durable_lsn_ = target;
      last_sync_ = std::chrono::steady_clock::now();
    }
    cv_.notify_all();
    return ok;
  }

  bool IntervalElapsedLocked() const {
    return std::chrono::steady_clock::now() - last_sync_ >=
           std::chrono::microseconds(options_.batch_interval_us);
  }

  /// kBatch background sync: wake every batch_interval_us and, when
  /// appended records are sitting unsynced past the interval with no
  /// sync in flight, run the fdatasync a committer would have. It leads
  /// the sync exactly as a committer would, so Rotate/Seal wait it out
  /// before touching the fd.
  void ClockLoop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_clock_) {
      clock_cv_.wait_for(
          lock, std::chrono::microseconds(options_.batch_interval_us));
      if (stop_clock_) break;
      if (seg_.fd < 0 || sealed_ || io_error_ || sync_in_flight_) continue;
      if (durable_lsn_ >= last_lsn_) continue;
      if (!IntervalElapsedLocked()) continue;
      LeadSync(lock);
    }
  }

  /// Commits `lsn`, already in the mapping, per the sync policy. kNone
  /// acknowledges at once. kBatch acknowledges at once unless the
  /// interval has elapsed with no sync in flight, in which case this
  /// committer leads the sync. kAlways waits until durable_lsn_ covers
  /// `lsn`, leading a sync whenever none is in flight. mu_ held on entry
  /// and exit; dropped around the sync.
  WalStatus CommitLocked(std::unique_lock<std::mutex>& lock, uint64_t lsn) {
    switch (options_.sync_policy) {
      case SyncPolicy::kNone:
        return WalStatus::kOk;
      case SyncPolicy::kBatch:
        if (sync_in_flight_ || !IntervalElapsedLocked()) {
          return WalStatus::kOk;
        }
        return LeadSync(lock) ? WalStatus::kOk : WalStatus::kIoError;
      case SyncPolicy::kAlways:
        while (durable_lsn_ < lsn) {
          if (io_error_) return WalStatus::kIoError;
          if (sync_in_flight_) {
            // The sync in flight may have started before our append; wait
            // for it, then (typically) lead the next one ourselves,
            // carrying everyone who appended meanwhile.
            cv_.wait(lock);
            continue;
          }
          if (!LeadSync(lock)) return WalStatus::kIoError;
        }
        return WalStatus::kOk;
    }
    return WalStatus::kOk;
  }

  const std::string prefix_;
  const WalOptions options_;
  const uint64_t wal_id_;
  const uint64_t parent_wal_id_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  Segment seg_;
  uint64_t seq_;
  uint64_t last_lsn_;     ///< highest LSN appended (in the mapping)
  uint64_t durable_lsn_;  ///< highest LSN covered by an fdatasync
  bool sync_in_flight_ = false;
  bool sealed_ = false;
  bool io_error_ = false;
  std::chrono::steady_clock::time_point last_sync_;
  util::Log2Histogram commit_wait_;  ///< per-commit wait, microseconds
  std::thread clock_thread_;         ///< background sync clock (kBatch)
  std::condition_variable clock_cv_;
  bool stop_clock_ = false;
};

}  // namespace alex::wal
