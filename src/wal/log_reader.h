// WAL segment reader and crash-recovery replayer.
//
// Reading a segment validates everything the writer promised: magic,
// version, key/payload sizes, the header checksum, per-record checksums,
// legal types/lengths, and contiguous ascending LSNs. Exactly one defect
// is *tolerated* rather than reported: a torn tail. A crash mid-append
// can leave the final record half-written (short header, short body, or
// a record whose bytes are present but whose checksum fails at EOF); the
// reader stops at the last intact record and reports how many bytes were
// valid, so the caller can truncate the file and lose at most that one
// unacknowledged record. Any defect *before* the tail region — a flipped
// byte mid-segment, an illegal type with intact data after it — is real
// corruption and maps to its distinct WalStatus instead.
//
// Replay is layered so the shard layer can reuse the validated pieces:
// ReadWalLineages reads every segment file (in parallel, on a small
// pool), then groups them by wal id, chains each group by (seq,
// start_lsn) so a rotation hole is detected, and returns one WalLineage
// per log — its parents (segment header + kTopology record, so
// merge/rebalance children list every parent), checkpoint LSN, and
// intact records. AnchorLineages walks the lineage graph in ascending
// wal-id order (parent-before-child by construction, wal_format.h) and
// marks each lineage whose baseline is provably in the snapshot; with
// require_known_roots, an orphan lineage holding records fails instead
// of silently replaying over the wrong baseline. Records at or below a
// log's checkpoint LSN are skipped (their effect is already in the
// snapshot), making replay idempotent.
//
// Applying a tail is one mechanism, a sorted run in the manner of a
// log-structured merge (O'Neil et al., "The Log-Structured Merge-Tree",
// Acta Informatica 1996): FoldTail stable-sorts the gathered records by
// key and folds each key's records into one FoldedKey, and MergeTail
// merges that run with a sorted base stream in one pass. ReplayWal
// composes the pieces onto a std::map; ShardedAlex::LoadFrom composes them
// per shard, in parallel (boundary-preserving recovery), and once over
// every log when no manifest exists.
#pragma once

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/parallel.h"
#include "util/timer.h"
#include "wal/wal_format.h"

namespace alex::wal {

/// One decoded record.
template <typename K, typename P>
struct WalRecord {
  uint64_t lsn = 0;
  WalRecordType type = WalRecordType::kInsert;
  K key{};
  P payload{};
};

/// Everything a segment read learns beyond the records.
struct WalSegmentInfo {
  uint64_t wal_id = 0;
  uint64_t parent_wal_id = 0;
  uint64_t seq = 0;
  uint64_t start_lsn = 0;
  uint64_t last_lsn = 0;     ///< start_lsn when the segment is empty
  bool sealed = false;       ///< ends with a kSeal record
  bool tail_truncated = false;
  uint64_t valid_bytes = 0;  ///< file is intact up to here
  /// Parent wal ids from a kTopology record (merge/rebalance children
  /// list several); empty when the segment holds none — the header's
  /// parent_wal_id is then the whole lineage story.
  std::vector<uint64_t> topology_parents;
};

/// Reads and validates one segment. On kOk, `records` holds every intact
/// record in order (the kSeal marker is reflected in info->sealed, not
/// appended). A torn tail yields kOk with info->tail_truncated set and
/// info->valid_bytes marking where the intact prefix ends.
template <typename K, typename P>
WalStatus ReadWalSegment(const std::string& path, WalSegmentInfo* info,
                         std::vector<WalRecord<K, P>>* records) {
  records->clear();
  *info = WalSegmentInfo{};
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return WalStatus::kIoError;
  core::internal::FileCloser closer{f};
  if (std::fseek(f, 0, SEEK_END) != 0) return WalStatus::kIoError;
  const long end = std::ftell(f);
  if (end < 0) return WalStatus::kIoError;
  if (std::fseek(f, 0, SEEK_SET) != 0) return WalStatus::kIoError;
  std::vector<uint8_t> data(static_cast<size_t>(end));
  if (!data.empty() &&
      std::fread(data.data(), 1, data.size(), f) != data.size()) {
    return WalStatus::kIoError;
  }

  WalSegmentHeader header;
  if (data.size() < sizeof(header)) return WalStatus::kBadMagic;
  std::memcpy(&header, data.data(), sizeof(header));
  if (header.magic != internal::kWalMagic) return WalStatus::kBadMagic;
  if (header.version != internal::kWalVersion) {
    return WalStatus::kBadVersion;
  }
  if (header.key_size != sizeof(K)) return WalStatus::kKeySizeMismatch;
  if (header.payload_size != sizeof(P)) {
    return WalStatus::kPayloadSizeMismatch;
  }
  if (header.header_checksum != WalHeaderChecksum(header)) {
    return WalStatus::kBadHeaderChecksum;
  }
  info->wal_id = header.wal_id;
  info->parent_wal_id = header.parent_wal_id;
  info->seq = header.seq;
  info->start_lsn = header.start_lsn;
  info->last_lsn = header.start_lsn;

  // A torn write can only damage the final record, so a defect is
  // tolerated as "torn" only when it lies within one maximal record's
  // span of EOF; anything earlier is mid-segment corruption. The span
  // is position-dependent: a topology record's body (count + up to
  // kMaxTopologyParents ids) can exceed key+payload, but the writer
  // only ever emits one as a log's *first* record — so only that
  // position gets the wide span. Using it everywhere would let a
  // corrupted type/length field within ~4 data records of EOF pass as
  // "torn" and silently truncate acknowledged durable writes.
  constexpr size_t kMaxDataRecord =
      sizeof(WalRecordHeader) + sizeof(K) + sizeof(P);
  constexpr size_t kMaxFirstRecord = std::max(
      kMaxDataRecord, sizeof(WalRecordHeader) +
                          (1 + kMaxTopologyParents) * sizeof(uint64_t));
  uint64_t expected_lsn = header.start_lsn;
  size_t at = sizeof(header);
  info->valid_bytes = at;
  while (at < data.size()) {
    const size_t remaining = data.size() - at;
    const bool in_tail_span =
        remaining <=
        (at == sizeof(header) ? kMaxFirstRecord : kMaxDataRecord);
    if (remaining < sizeof(WalRecordHeader)) {
      info->tail_truncated = true;  // header itself is torn
      return WalStatus::kOk;
    }
    WalRecordHeader rec;
    std::memcpy(&rec, data.data() + at, sizeof(rec));
    const size_t legal_len = WalBodyLen<K, P>(rec.type);
    if (legal_len == SIZE_MAX) {
      if (in_tail_span) {
        info->tail_truncated = true;
        return WalStatus::kOk;
      }
      return WalStatus::kBadRecordType;
    }
    const bool bad_len = legal_len == kWalVariableBody
                             ? !ValidTopologyBodyLen(rec.body_len)
                             : rec.body_len != legal_len;
    if (bad_len) {
      if (in_tail_span) {
        info->tail_truncated = true;
        return WalStatus::kOk;
      }
      return WalStatus::kBadRecordLength;
    }
    if (sizeof(rec) + rec.body_len > remaining) {
      info->tail_truncated = true;  // body runs past EOF
      return WalStatus::kOk;
    }
    const uint8_t* body = data.data() + at + sizeof(rec);
    if (rec.checksum != WalRecordChecksum(rec, body)) {
      if (at + sizeof(rec) + rec.body_len == data.size()) {
        info->tail_truncated = true;  // final record, torn mid-write
        return WalStatus::kOk;
      }
      return WalStatus::kChecksumMismatch;
    }
    if (rec.lsn != expected_lsn + 1) return WalStatus::kOutOfOrderLsn;
    expected_lsn = rec.lsn;
    info->last_lsn = rec.lsn;
    const auto type = static_cast<WalRecordType>(rec.type);
    if (type == WalRecordType::kSeal) {
      info->sealed = true;
    } else if (type == WalRecordType::kTopology) {
      // Lineage metadata, never data: the body's declared count must
      // agree with its length (ValidTopologyBodyLen bounded the shape).
      uint64_t count = 0;
      std::memcpy(&count, body, sizeof(count));
      if (count != rec.body_len / sizeof(uint64_t) - 1) {
        return WalStatus::kBadRecordLength;
      }
      info->topology_parents.resize(count);
      std::memcpy(info->topology_parents.data(), body + sizeof(count),
                  count * sizeof(uint64_t));
    } else {
      WalRecord<K, P> out;
      out.lsn = rec.lsn;
      out.type = type;
      std::memcpy(&out.key, body, sizeof(K));
      if (rec.body_len == sizeof(K) + sizeof(P)) {
        std::memcpy(&out.payload, body + sizeof(K), sizeof(P));
      }
      records->push_back(out);
    }
    at += sizeof(rec) + rec.body_len;
    info->valid_bytes = at;
  }
  return WalStatus::kOk;
}

/// Per-shard (or per-lineage) replay accounting, so an operator can see
/// *which* shard lost its unacked write, not just that one did.
struct ShardReplayStats {
  /// Manifest shard index this entry describes; SIZE_MAX when recovery
  /// ran without a manifest (the entry is then per-lineage).
  size_t shard = SIZE_MAX;
  uint64_t wal_id = 0;  ///< the shard's log at checkpoint / lineage root
  size_t records_replayed = 0;
  size_t records_skipped = 0;
  /// A torn final record was truncated somewhere in this shard's
  /// lineage: this shard is where the lost unacknowledged write lived
  /// (a merge child's torn tail flags every shard it spanned).
  bool tail_truncated = false;
};

/// What a recovery replay did, for operators and tests. `status` mirrors
/// the returned status; `detail` names the offending file on failure.
/// `shards` breaks the aggregate counts down per shard (with a
/// manifest) or per lineage (without one). The three durations are wall
/// time and split recovery by layer; they sum to less than the whole
/// LoadFrom, which also opens and audits the checkpoint's segments.
struct RecoveryReport {
  WalStatus status = WalStatus::kOk;
  size_t segments_scanned = 0;
  size_t records_replayed = 0;
  size_t records_skipped = 0;  ///< at or below their log's checkpoint LSN
  /// Lineages on disk that recovery did not replay: superseded by the
  /// checkpoint, or orphans that acknowledged nothing (AnchorLineages).
  size_t lineages_skipped = 0;
  bool tail_truncated = false;
  uint64_t max_wal_id = 0;  ///< highest wal id seen on disk
  double read_s = 0;   ///< read, checksum, chain-check and anchor the logs
  double fold_s = 0;   ///< gather each tail, sort it by key, fold each key
  double build_s = 0;  ///< merge with the base, bulk-load or fill overlays
  std::string detail;
  std::vector<ShardReplayStats> shards;
};

/// One log's worth of validated recovery input: its lineage links, its
/// checkpoint LSN, and every intact record across its segment chain.
template <typename K, typename P>
struct WalLineage {
  uint64_t wal_id = 0;
  /// Parent wal ids: the kTopology record's list when present, else the
  /// segment header's single parent (empty for a root log).
  std::vector<uint64_t> parents;
  uint64_t checkpoint_lsn = 0;  ///< from the caller's map; 0 if unknown
  bool known = false;      ///< wal id appears in the checkpoint map
  bool anchored = false;   ///< baseline proven (set by AnchorLineages)
  bool tail_truncated = false;
  std::string last_path;   ///< last segment file (error detail)
  std::vector<WalRecord<K, P>> records;
};

/// Reads and validates every WAL segment of `prefix`, grouped into one
/// WalLineage per wal id (ascending id order — parent-before-child).
/// The files are read and checksummed on up to `threads` workers; every
/// check that relates files — the chain, the gap and torn-tail rules, the
/// truncation — then runs serially in file order. The first remaining
/// segment of a log must start at or below the checkpoint LSN and each
/// later one must resume exactly where its predecessor ended (a hole means
/// a rotation deleted records the snapshot never captured → kSegmentGap).
/// A torn final record is tolerated and, with `truncate_torn_tail`,
/// physically truncated away. Fills the report's segments_scanned /
/// max_wal_id / tail_truncated; on failure, status and detail (the first
/// bad file in file order, as a serial read would name).
template <typename K, typename P>
WalStatus ReadWalLineages(
    const std::string& prefix,
    const std::map<uint64_t, uint64_t>& checkpoint_lsns,
    std::vector<WalLineage<K, P>>* out, RecoveryReport* rep,
    bool truncate_torn_tail, size_t threads = 1) {
  out->clear();
  const std::vector<WalSegmentFile> files = ListWalSegments(prefix);
  struct FileRead {
    bool header_stub = false;  // shorter than a segment header
    WalStatus status = WalStatus::kOk;
    WalSegmentInfo info;
    std::vector<WalRecord<K, P>> records;
  };
  std::vector<FileRead> reads(files.size());
  const auto last_of_log = [&](size_t i) {
    return i + 1 >= files.size() || files[i + 1].wal_id != files[i].wal_id;
  };
  util::ParallelFor(files.size(), threads, [&](size_t i) {
    // A crash can tear even the segment *header* of the newest segment
    // (written but never synced). Tolerate a short file only when it is
    // the last segment of its log — it cannot have held acknowledged
    // records; anywhere else a short file is real damage.
    struct ::stat st;
    if (last_of_log(i) && ::stat(files[i].path.c_str(), &st) == 0 &&
        static_cast<size_t>(st.st_size) < sizeof(WalSegmentHeader)) {
      reads[i].header_stub = true;
      return;
    }
    reads[i].status = ReadWalSegment<K, P>(files[i].path, &reads[i].info,
                                           &reads[i].records);
  });
  size_t i = 0;
  while (i < files.size()) {
    const uint64_t wal_id = files[i].wal_id;
    if (wal_id > rep->max_wal_id) rep->max_wal_id = wal_id;
    WalLineage<K, P> lineage;
    lineage.wal_id = wal_id;
    const auto cp = checkpoint_lsns.find(wal_id);
    lineage.known = cp != checkpoint_lsns.end();
    lineage.checkpoint_lsn = lineage.known ? cp->second : 0;
    uint64_t prev_last_lsn = 0;
    bool first_segment = true;
    bool have_segment = false;
    uint64_t header_parent = 0;
    for (; i < files.size() && files[i].wal_id == wal_id; ++i) {
      FileRead& read = reads[i];
      ++rep->segments_scanned;
      if (read.header_stub) {
        rep->tail_truncated = true;
        continue;
      }
      if (read.status != WalStatus::kOk) {
        rep->detail = files[i].path;
        return rep->status = read.status;
      }
      const WalSegmentInfo& info = read.info;
      // The remaining segments must cover everything past the
      // checkpoint: the first one must start at or before it, and each
      // later one must resume exactly where its predecessor ended.
      if (first_segment ? info.start_lsn > lineage.checkpoint_lsn
                        : info.start_lsn != prev_last_lsn) {
        rep->detail = files[i].path;
        return rep->status = WalStatus::kSegmentGap;
      }
      if (first_segment) header_parent = info.parent_wal_id;
      first_segment = false;
      have_segment = true;
      prev_last_lsn = info.last_lsn;
      lineage.last_path = files[i].path;
      if (!info.topology_parents.empty()) {
        lineage.parents = info.topology_parents;
      }
      if (info.tail_truncated) {
        rep->tail_truncated = true;
        lineage.tail_truncated = true;
        if (truncate_torn_tail) {
          // Best effort: a failure just means the next recovery
          // re-tolerates the same tail.
          (void)::truncate(files[i].path.c_str(),
                           static_cast<off_t>(info.valid_bytes));
        }
        // A torn tail is only tolerable at the very end of a log: a
        // later segment of the same wal id would have started past the
        // lost records, which the chain check above reports as a gap.
      }
      if (lineage.records.empty()) {
        lineage.records = std::move(read.records);
      } else {
        lineage.records.insert(lineage.records.end(), read.records.begin(),
                               read.records.end());
        std::vector<WalRecord<K, P>>().swap(read.records);
      }
    }
    if (!have_segment) continue;  // only a torn header stub
    if (lineage.parents.empty() && header_parent != 0) {
      lineage.parents.push_back(header_parent);
    }
    out->push_back(std::move(lineage));
  }
  return WalStatus::kOk;
}

/// Marks every lineage whose baseline is provably covered: a
/// checkpointed root, or a child all of whose parents are themselves
/// anchored (its baseline is the parents' final states, which replay
/// reconstructs parent-first). With `require_known_roots` (set when a
/// checkpoint manifest exists), an *orphan* lineage — unknown root, or
/// a child with an unanchored parent — means records whose baseline was
/// never checkpointed (e.g. a crash between a bulk load's publish and
/// its auto-checkpoint): replaying them over the older snapshot would
/// silently produce wrong contents, so an orphan with records fails
/// with kSegmentGap, while an empty orphan (nothing acknowledged) is
/// skipped. Two orphan shapes are benign, superseded by the checkpoint:
///   - a lineage some *known* lineage names as an ancestor: a topology
///     victim, whose full effects the snapshot holds through its
///     checkpointed children (it was sealed before a child could
///     acknowledge anything);
///   - a lineage whose id is below `next_wal_id`, the checkpoint's wal-id
///     counter: it was opened before the checkpoint, which named every
///     log then live, so it had ended (sealed by a bulk load, EnableWal
///     or a topology change) and its effects are in the snapshot.
/// Only the crash window between a checkpoint's manifest rename and its
/// segment sweep leaves either on disk; both are skipped, not fatal, so
/// such a crash never wedges recovery. A lineage at or above
/// `next_wal_id` was opened after the checkpoint and stays an orphan
/// (0, for a checkpoint that logged nothing, supersedes nothing). Without
/// `require_known_roots` everything anchors (logs-alone recovery). Every
/// skipped lineage counts in rep->lineages_skipped.
template <typename K, typename P>
WalStatus AnchorLineages(std::vector<WalLineage<K, P>>* lineages,
                         const std::map<uint64_t, uint64_t>& checkpoint_lsns,
                         bool require_known_roots, RecoveryReport* rep,
                         uint64_t next_wal_id = 0) {
  std::vector<uint64_t> anchored;
  for (const auto& [id, lsn] : checkpoint_lsns) {
    (void)lsn;
    anchored.push_back(id);
  }
  // Every ancestor of a checkpointed lineage is superseded by that
  // checkpoint: a child's snapshot baseline includes its parents' final
  // states, transitively. Descending wal-id order visits children
  // before parents, so one pass propagates coverage up the whole
  // lineage tree (a victim whose children were themselves split before
  // the checkpoint is covered through those intermediate victims).
  std::vector<uint64_t> superseded;
  for (auto it = lineages->rbegin(); it != lineages->rend(); ++it) {
    const bool covered =
        it->known || std::find(superseded.begin(), superseded.end(),
                               it->wal_id) != superseded.end();
    if (covered) {
      superseded.insert(superseded.end(), it->parents.begin(),
                        it->parents.end());
    }
  }
  for (WalLineage<K, P>& lineage : *lineages) {
    bool parents_anchored = !lineage.parents.empty();
    for (const uint64_t parent : lineage.parents) {
      parents_anchored =
          parents_anchored && std::find(anchored.begin(), anchored.end(),
                                        parent) != anchored.end();
    }
    if (require_known_roots && !lineage.known && !parents_anchored) {
      const bool benign =
          lineage.wal_id < next_wal_id || lineage.records.empty() ||
          std::find(superseded.begin(), superseded.end(), lineage.wal_id) !=
              superseded.end();
      if (!benign) {
        rep->detail = lineage.last_path;
        return rep->status = WalStatus::kSegmentGap;
      }
      ++rep->lineages_skipped;  // superseded, or acknowledged nothing
      continue;
    }
    lineage.anchored = true;
    anchored.push_back(lineage.wal_id);
  }
  return WalStatus::kOk;
}

/// One key's outcome after its records, folded from one starting state.
template <typename P>
struct FoldOutcome {
  bool present = false;
  /// Some record applied (an insert of an absent key, an update or an
  /// erase of a present one). A present key no record changed keeps its
  /// starting payload.
  bool changed = false;
  P payload{};  ///< the final payload, when changed

  /// The index ops' exact semantics: insert-if-absent, overwrite-if-
  /// present, erase. A logged-but-failed operation is the same no-op.
  template <typename K>
  void Apply(const WalRecord<K, P>& rec) {
    switch (rec.type) {
      case WalRecordType::kInsert:
        if (present) return;
        present = true;
        payload = rec.payload;
        break;
      case WalRecordType::kUpdate:
        if (!present) return;
        payload = rec.payload;
        break;
      case WalRecordType::kErase:
        if (!present) return;
        present = false;
        break;
      case WalRecordType::kSeal:
      case WalRecordType::kTopology:
        return;  // never materialized as data records
    }
    changed = true;
  }
};

/// One key of a folded log tail: the key's final state after all its
/// records, in replay order, from either starting state. The fold needs
/// no look at the base the tail applies to; a merge resolves each key
/// against it afterwards.
template <typename K, typename P>
struct FoldedKey {
  K key{};
  FoldOutcome<P> from_absent;
  FoldOutcome<P> from_present{true, false, P{}};

  const FoldOutcome<P>& From(bool base_present) const {
    return base_present ? from_present : from_absent;
  }

  /// Final state over a base that holds the key with `*base` (null: the
  /// base lacks it). True when the key ends present, with `*out` set.
  bool Resolve(const P* base, P* out) const {
    const FoldOutcome<P>& o = From(base != nullptr);
    if (!o.present) return false;
    *out = o.changed ? o.payload : *base;
    return true;
  }
};

/// The fold: sorts a log tail — records gathered in replay order (wal id,
/// then LSN) — by key, stably, so each key's records keep replay order,
/// then folds each key's records into one FoldedKey. Returns the keys in
/// ascending order. Folding a key's records in replay order is exactly
/// what applying the whole tail record by record does to that key, since
/// every op touches one key only.
template <typename K, typename P>
std::vector<FoldedKey<K, P>> FoldTail(std::vector<WalRecord<K, P>> records) {
  std::stable_sort(records.begin(), records.end(),
                   [](const WalRecord<K, P>& a, const WalRecord<K, P>& b) {
                     return a.key < b.key;
                   });
  std::vector<FoldedKey<K, P>> run;
  for (size_t i = 0; i < records.size();) {
    FoldedKey<K, P> folded;
    folded.key = records[i].key;
    for (; i < records.size() && !(folded.key < records[i].key); ++i) {
      folded.from_absent.Apply(records[i]);
      folded.from_present.Apply(records[i]);
    }
    run.push_back(folded);
  }
  return run;
}

/// Merges a folded run with a sorted base in one pass: `scan_base(visit)`
/// streams the base's records in ascending key order to a
/// `visit(key, payload)` that returns true; `emit(key, payload)` receives
/// every record of the result, ascending.
template <typename K, typename P, typename ScanBase, typename Emit>
void MergeTail(const std::vector<FoldedKey<K, P>>& run, ScanBase&& scan_base,
               Emit&& emit) {
  size_t r = 0;
  P out{};
  // Emits the run's keys below `*bound` (all remaining ones when null),
  // each resolved over a base that lacks it.
  const auto emit_run_below = [&](const K* bound) {
    for (; r < run.size() && (bound == nullptr || run[r].key < *bound);
         ++r) {
      if (run[r].Resolve(nullptr, &out)) emit(run[r].key, out);
    }
  };
  scan_base([&](const K& key, const P& payload) {
    emit_run_below(&key);
    if (r < run.size() && !(key < run[r].key)) {
      if (run[r++].Resolve(&payload, &out)) emit(key, out);
    } else {
      emit(key, payload);
    }
    return true;
  });
  emit_run_below(nullptr);
}

/// Reads and anchors every lineage of `prefix` (ReadWalLineages +
/// AnchorLineages) and gathers the records of every anchored one past
/// its checkpoint LSN, in replay order, into `tail`. The report gains
/// one per-lineage stats entry (shard = SIZE_MAX: no manifest names
/// shards here) and read_s.
template <typename K, typename P>
WalStatus ReadWalTail(const std::string& prefix,
                      const std::map<uint64_t, uint64_t>& checkpoint_lsns,
                      std::vector<WalRecord<K, P>>* tail,
                      RecoveryReport* rep, bool truncate_torn_tail,
                      bool require_known_roots, size_t threads) {
  const util::Timer timer;
  std::vector<WalLineage<K, P>> lineages;
  WalStatus status = ReadWalLineages<K, P>(
      prefix, checkpoint_lsns, &lineages, rep, truncate_torn_tail, threads);
  if (status == WalStatus::kOk) {
    status = AnchorLineages(&lineages, checkpoint_lsns, require_known_roots,
                            rep);
  }
  rep->read_s = timer.ElapsedSeconds();
  if (status != WalStatus::kOk) return status;
  tail->clear();
  for (const WalLineage<K, P>& lineage : lineages) {
    if (!lineage.anchored) continue;
    ShardReplayStats stats;
    stats.wal_id = lineage.wal_id;
    stats.tail_truncated = lineage.tail_truncated;
    for (const WalRecord<K, P>& rec : lineage.records) {
      if (rec.lsn <= lineage.checkpoint_lsn) {
        ++stats.records_skipped;
        continue;
      }
      tail->push_back(rec);
      ++stats.records_replayed;
    }
    rep->records_replayed += stats.records_replayed;
    rep->records_skipped += stats.records_skipped;
    rep->shards.push_back(stats);
  }
  return WalStatus::kOk;
}

/// Replays every WAL segment of `prefix` onto `state` (the logical
/// key-payload map recovered so far, typically pre-seeded from the
/// snapshot). `checkpoint_lsns` maps wal id -> highest LSN already
/// captured by the snapshot; unknown wal ids replay from LSN 0. When
/// `truncate_torn_tail` is set, a torn final record is physically
/// truncated away so a second recovery sees a clean log.
/// ReadWalTail, FoldTail, then one MergeTail over the map.
template <typename K, typename P>
WalStatus ReplayWal(const std::string& prefix,
                    const std::map<uint64_t, uint64_t>& checkpoint_lsns,
                    std::map<K, P>* state, RecoveryReport* report,
                    bool truncate_torn_tail = true,
                    bool require_known_roots = false) {
  RecoveryReport local;
  RecoveryReport* rep = report != nullptr ? report : &local;
  *rep = RecoveryReport{};
  std::vector<WalRecord<K, P>> tail;
  const WalStatus status =
      ReadWalTail<K, P>(prefix, checkpoint_lsns, &tail, rep,
                        truncate_torn_tail, require_known_roots, 1);
  if (status != WalStatus::kOk) return status;
  const util::Timer fold_timer;
  const std::vector<FoldedKey<K, P>> run = FoldTail(std::move(tail));
  rep->fold_s = fold_timer.ElapsedSeconds();
  const util::Timer build_timer;
  std::map<K, P> merged;
  MergeTail(
      run,
      [&](auto&& visit) {
        for (const auto& [key, payload] : *state) visit(key, payload);
      },
      [&](const K& key, const P& payload) {
        merged.emplace_hint(merged.end(), key, payload);
      });
  state->swap(merged);
  rep->build_s = build_timer.ElapsedSeconds();
  return rep->status = WalStatus::kOk;
}

}  // namespace alex::wal
