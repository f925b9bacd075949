// Durable provider state: an append-only, CRC-framed write-ahead log.
//
// A provider that is killed loses everything it held in memory — the paper's
// k-resilience claim is only real if a restarted provider can rebuild the
// exact state it died with. The WAL makes that possible with one rule:
//
//   a delivered message reaches the engine only after it is durable.
//
// Every engine-consumed message (post link-unwrap, with any signature header
// still attached — replay re-verifies it through a fresh validator) is
// appended and committed before dispatch. Recovery is then deterministic
// re-execution: construct a fresh engine over an endpoint seeded with the
// *same* per-node RNG seed (recorded in the meta record) and re-feed the
// logged messages in order. Because the engine is a deterministic state
// machine and its RNG draws replay in the same order, the rebuilt state —
// including hidden coin commitments and reveal secrets — is bit-identical to
// the pre-crash state, and everything the engine re-sends during replay is
// byte-identical to what it sent the first time (signatures included:
// ed25519 is deterministic). The re-sends repopulate the reliability layer's
// sent cache, so peers' re-requests get answered; peers deduplicate the
// copies and re-ack. The gap — messages the node never received — is closed
// by a rejoin sweep over the existing rl/rreq path (net/reliable.hpp).
//
// Record framing (versioned via the meta record):
//
//   [u32 len][u8 type][payload: len-1 bytes][u32 crc32(type ‖ payload)]
//
// Record types: meta (run identity + the node's endpoint seed — a WAL from a
// different run or node is refused), message (one delivered message),
// decision (signed round decision: started / bids-agreed / outcome),
// snapshot (periodic consistency checkpoint cross-checked during replay).
// open() scans sequentially and truncates at the first bad record — a torn,
// short, or bit-flipped tail loses at most the uncommitted suffix, never a
// committed record.
//
// The byte sink is abstracted (Storage): FileStorage appends to a real file
// with fsync'd batch commit (tcp runtime, CLI); MemStorage keeps the bytes in
// memory for the deterministic simulator — the WAL logic (framing, CRC,
// truncation, replay) is identical and real in both.
//
// Equivalence contract: with durability disabled nothing here is constructed
// and every runtime is byte-identical to the pre-WAL implementation (pinned
// against the golden fingerprints in tests/durability_test.cpp). Full format
// reference: docs/DURABILITY.md.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "crypto/rng.hpp"

namespace dauct::store {

/// CRC-32 (IEEE 802.3, reflected) of `data`. Local table implementation —
/// the WAL needs tamper-evidence against torn writes and bit rot, not
/// cryptographic integrity (decision records carry signatures for that).
std::uint32_t crc32(BytesView data);

/// Durability knobs, threaded from scenario files / CLI flags through the
/// runtime configs. Disabled (the default) constructs nothing.
struct WalConfig {
  bool enable = false;
  /// Append a snapshot record every N message records (0 = never). Snapshots
  /// are consistency checkpoints cross-checked during replay, not compaction
  /// points: replay always starts from the beginning of the log.
  std::size_t snapshot_every = 8;
};

/// What the WAL did, for reports and assertions.
struct WalStats {
  std::uint64_t records_appended = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t commits = 0;             ///< sync() batch commits
  std::uint64_t messages_replayed = 0;   ///< message records re-fed on recovery
  std::uint64_t snapshots_checked = 0;   ///< snapshot records verified on replay
  std::uint64_t snapshot_mismatches = 0; ///< checkpoints that disagreed (0 = healthy)
  std::uint64_t truncated_bytes = 0;     ///< torn/corrupt tail dropped on open

  WalStats& operator+=(const WalStats& o) {
    records_appended += o.records_appended;
    bytes_appended += o.bytes_appended;
    commits += o.commits;
    messages_replayed += o.messages_replayed;
    snapshots_checked += o.snapshots_checked;
    snapshot_mismatches += o.snapshot_mismatches;
    truncated_bytes += o.truncated_bytes;
    return *this;
  }
};

/// Byte sink under the WAL. Implementations must make append() visible to a
/// subsequent read_all() on the same object; sync() is the durability point
/// (fsync for files, a no-op for memory).
class Storage {
 public:
  virtual ~Storage() = default;
  virtual Bytes read_all() = 0;
  virtual bool append(BytesView data) = 0;
  virtual bool sync() = 0;
  /// Drop everything past `size` bytes (tail truncation on open).
  virtual bool truncate(std::size_t size) = 0;
};

/// In-memory storage: the deterministic simulator's sink. The buffer
/// deliberately lives *outside* the per-node endpoint chain so it survives
/// an amnesia crash (the disk survives the process).
class MemStorage final : public Storage {
 public:
  Bytes read_all() override { return buf_; }
  bool append(BytesView data) override {
    buf_.insert(buf_.end(), data.begin(), data.end());
    return true;
  }
  bool sync() override {
    ++syncs_;
    return true;
  }
  bool truncate(std::size_t size) override {
    if (size < buf_.size()) buf_.resize(size);
    return true;
  }
  std::size_t size() const { return buf_.size(); }
  std::uint64_t syncs() const { return syncs_; }

  /// Test hook: corrupt the byte at `offset` (bit-flip injection).
  void corrupt_byte(std::size_t offset) {
    if (offset < buf_.size()) buf_[offset] ^= 0x40;
  }

 private:
  Bytes buf_;
  std::uint64_t syncs_ = 0;
};

/// POSIX file storage with fsync'd commit. open() creates the file when
/// absent; returns null on any filesystem error.
class FileStorage final : public Storage {
 public:
  static std::unique_ptr<FileStorage> open(const std::string& path);
  ~FileStorage() override;

  FileStorage(const FileStorage&) = delete;
  FileStorage& operator=(const FileStorage&) = delete;

  Bytes read_all() override;
  bool append(BytesView data) override;
  bool sync() override;
  bool truncate(std::size_t size) override;

  const std::string& path() const { return path_; }

 private:
  FileStorage(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}
  int fd_ = -1;
  std::string path_;
};

/// Knobs for FaultyStorage below, threaded from scenario files through the
/// runtime configs. Disabled (the default) wraps nothing.
struct StorageFaultConfig {
  bool enable = false;
  std::uint64_t seed = 1;  ///< the decorator's own RNG stream
  /// P(an individual sync() lies: reports success, commits nothing). The
  /// un-committed suffix stays at risk until the next honest sync.
  double sync_drop = 0.0;
  /// P(a crash() tears the at-risk suffix at a drawn byte offset). Offset 0
  /// degenerates to a short append that lost the whole uncommitted tail.
  double torn = 0.0;
  /// P(a crash() bit-flips one byte inside the at-risk suffix instead).
  double flip = 0.0;
};

/// Seeded lying-disk decorator: models fsync drops plus power-loss damage to
/// the bytes a dropped sync left uncommitted. Appends and reads pass through;
/// sync() may silently not advance the durable frontier; crash() — called by
/// the runtime at the amnesia-crash instant, before recovery reopens the log
/// — applies drawn damage (torn write or bit flip) to the at-risk suffix.
/// Everything up to the last *effective* sync is never touched, matching the
/// contract real disks are asked (and sometimes fail) to honour.
///
/// Determinism: all draws come from the decorator's own RNG (seeded from
/// StorageFaultConfig::seed), so a fuzzer case replays bit-identically.
class FaultyStorage final : public Storage {
 public:
  struct Stats {
    std::uint64_t syncs_dropped = 0;
    std::uint64_t crashes = 0;       ///< crash() calls
    std::uint64_t torn_bytes = 0;    ///< at-risk bytes lost to torn writes
    std::uint64_t flipped_bytes = 0; ///< at-risk bytes bit-flipped
  };

  FaultyStorage(std::shared_ptr<Storage> inner, StorageFaultConfig config);

  Bytes read_all() override { return inner_->read_all(); }
  bool append(BytesView data) override;
  bool sync() override;
  bool truncate(std::size_t size) override;

  /// Power-loss moment: damage the suffix written since the last effective
  /// sync. Call before the recovering node reopens the log.
  void crash();

  std::size_t synced_bytes() const { return synced_bytes_; }
  const Stats& stats() const { return stats_; }

 private:
  std::shared_ptr<Storage> inner_;
  StorageFaultConfig config_;
  crypto::Rng rng_;
  std::size_t size_ = 0;          ///< bytes appended (tracked; Storage has no size())
  std::size_t synced_bytes_ = 0;  ///< durable frontier: last effective sync
  Stats stats_;
};

enum class RecordType : std::uint8_t {
  kMeta = 1,      ///< run identity; must be the first record
  kMessage = 2,   ///< one engine-consumed delivered message
  kDecision = 3,  ///< signed round decision (started / bids-agreed / outcome)
  kSnapshot = 4,  ///< periodic consistency checkpoint
};

/// Run identity, written as the first record. A WAL whose meta does not
/// match the recovering run is *foreign state*: replaying it would silently
/// diverge, so recovery refuses it instead (meta_matches()).
struct WalMeta {
  std::uint32_t version = 1;       ///< record-format version (kWalVersion)
  std::uint64_t run_seed = 0;      ///< workload + protocol seed
  NodeId node = kNoNode;           ///< whose log this is
  std::uint64_t providers = 0;
  std::uint64_t users = 0;
  std::uint64_t k = 0;
  /// The node's endpoint RNG seed: what makes replay re-execution exact.
  std::uint64_t endpoint_seed = 0;

  bool operator==(const WalMeta&) const = default;
};

/// One logged delivered message: link header stripped, signature header
/// (auth on) still attached — the reliability layer's dedup digests are
/// computed pre-validator, so restored keys only match wire duplicates if
/// the logged bytes are the pre-validator form; replay re-verifies the
/// signature through a fresh validator. The topic travels as a string —
/// interned ids are per-process, a restarted process re-interns.
struct LoggedMessage {
  NodeId from = kNoNode;
  std::string topic;
  Bytes payload;
};

/// Round decisions a provider commits to durably, signable with the node's
/// ed25519 key when the auth layer is on (64-byte RFC 8032 signature over
/// kind ‖ digest; empty otherwise).
enum class DecisionKind : std::uint8_t {
  kStarted = 1,    ///< engine started on the client's bid batch
  kBidsAgreed = 2, ///< bid agreement reached; digest = sha256(encoded bids)
  kOutcome = 3,    ///< final outcome; digest = sha256(encoded result) or zero on ⊥
};

struct Decision {
  DecisionKind kind = DecisionKind::kStarted;
  bool ok = true;                      ///< kOutcome: (x, p⃗) vs ⊥
  std::array<std::uint8_t, 32> digest{};
  Bytes signature;                     ///< 64 bytes when signed, empty otherwise
};

/// Consistency checkpoint: enough to detect a divergent replay without being
/// a replay input (replay re-derives everything from the message records).
struct Snapshot {
  std::uint64_t messages_delivered = 0;  ///< message records before this point
  bool started = false;
  bool bids_agreed = false;
  bool done = false;

  bool operator==(const Snapshot&) const = default;
};

// --- Record payload codecs (serde framing, defensive decode) ---------------

Bytes encode_meta(const WalMeta& meta);
std::optional<WalMeta> decode_meta(BytesView payload);
Bytes encode_message(NodeId from, std::string_view topic, BytesView payload);
std::optional<LoggedMessage> decode_message(BytesView payload);
Bytes encode_decision(const Decision& d);
std::optional<Decision> decode_decision(BytesView payload);
Bytes encode_snapshot(const Snapshot& s);
std::optional<Snapshot> decode_snapshot(BytesView payload);

/// One good record recovered from the log.
struct WalRecord {
  RecordType type{};
  Bytes payload;
};

/// Result of scanning a log: every good record up to the first damage.
struct WalScan {
  std::vector<WalRecord> records;
  std::size_t good_bytes = 0;       ///< offset of the first bad byte (= file
                                    ///  size when the whole log is good)
  std::size_t truncated_bytes = 0;  ///< damaged tail length (0 = clean)
};

/// Scan `data` sequentially, stopping at the first short, oversized, or
/// CRC-failing record. Never throws: damage means a shorter scan, not an
/// error — the damaged suffix is exactly what an interrupted append leaves.
WalScan scan_wal(BytesView data);

/// The write-ahead log over a Storage. One writer per log.
class Wal {
 public:
  static constexpr std::uint32_t kVersion = 1;
  /// Defensive bound on a single record (peers never write our WAL, but a
  /// corrupt length prefix must not drive a huge allocation).
  static constexpr std::size_t kMaxRecordBytes = 16u << 20;

  explicit Wal(std::shared_ptr<Storage> storage);

  /// Read the existing log: scan, truncate any damaged tail down to the last
  /// good record, and return the good records. Call before the first append.
  WalScan open();

  /// Append one record (buffered in the storage; durable after commit()).
  bool append(RecordType type, BytesView payload);
  /// Durability point: everything appended so far survives a crash.
  bool commit();

  /// Convenience: append + decide whether a snapshot checkpoint is due.
  bool append_message_record(NodeId from, std::string_view topic,
                             BytesView payload);
  std::uint64_t message_records() const { return message_records_; }

  const WalStats& stats() const { return stats_; }
  WalStats& stats() { return stats_; }
  Storage& storage() { return *storage_; }

 private:
  std::shared_ptr<Storage> storage_;
  std::uint64_t message_records_ = 0;
  WalStats stats_;
};

/// True iff a recovered meta record names the same run and node as `expected`
/// (all fields, version included). The fail-fast gate against foreign state.
bool meta_matches(const WalMeta& recovered, const WalMeta& expected,
                  std::string* why = nullptr);

}  // namespace dauct::store
