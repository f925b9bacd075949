#include "store/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "serde/codec.hpp"

namespace dauct::store {

namespace {

/// CRC-32 lookup table (IEEE 802.3 reflected polynomial 0xEDB88320),
/// generated once on first use.
const std::uint32_t* crc_table() {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int b = 0; b < 8; ++b) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table.data();
}

}  // namespace

std::uint32_t crc32(BytesView data) {
  const std::uint32_t* table = crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    c = table[(c ^ byte) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// --- MemStorage ------------------------------------------------------------

Bytes MemStorage::read_all() {
  Bytes out;
  out.reserve(size_);
  for (const Bytes& c : chunks_) out.insert(out.end(), c.begin(), c.end());
  return out;
}

bool MemStorage::append(BytesView data) {
  while (!data.empty()) {
    if (chunks_.empty() || chunks_.back().size() == kChunk) {
      chunks_.emplace_back().reserve(kChunk);
    }
    Bytes& tail = chunks_.back();
    const std::size_t n = std::min(kChunk - tail.size(), data.size());
    tail.insert(tail.end(), data.begin(), data.begin() + n);
    data = data.subspan(n);
    size_ += n;
  }
  return true;
}

bool MemStorage::truncate(std::size_t size) {
  if (size >= size_) return true;
  chunks_.resize((size + kChunk - 1) / kChunk);
  if (size % kChunk != 0) chunks_.back().resize(size % kChunk);
  size_ = size;
  return true;
}

// --- FileStorage -----------------------------------------------------------

std::unique_ptr<FileStorage> FileStorage::open(const std::string& path) {
  // O_APPEND: every write lands at the current end regardless of read
  // position — an append-only log must not depend on callers' seek history.
  const int fd = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return nullptr;
  return std::unique_ptr<FileStorage>(new FileStorage(fd, path));
}

FileStorage::~FileStorage() {
  if (fd_ >= 0) ::close(fd_);
}

Bytes FileStorage::read_all() {
  Bytes out;
  const off_t end = ::lseek(fd_, 0, SEEK_END);
  if (end <= 0) return out;
  out.resize(static_cast<std::size_t>(end));
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n =
        ::pread(fd_, out.data() + got, out.size() - got, static_cast<off_t>(got));
    if (n <= 0) {
      out.resize(got);  // short read: scan what we have, truncation handles it
      break;
    }
    got += static_cast<std::size_t>(n);
  }
  return out;
}

bool FileStorage::append(BytesView data) {
  std::size_t put = 0;
  while (put < data.size()) {
    const ssize_t n = ::write(fd_, data.data() + put, data.size() - put);
    if (n <= 0) return false;
    put += static_cast<std::size_t>(n);
  }
  return true;
}

bool FileStorage::sync() { return ::fsync(fd_) == 0; }

bool FileStorage::truncate(std::size_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) return false;
  return ::lseek(fd_, 0, SEEK_END) >= 0;
}

// --- Record payload codecs -------------------------------------------------

Bytes encode_meta(const WalMeta& meta) {
  serde::Writer w;
  w.u32(meta.version);
  w.u64(meta.run_seed);
  w.u32(meta.node);
  w.u64(meta.providers);
  w.u64(meta.users);
  w.u64(meta.k);
  w.u64(meta.endpoint_seed);
  return w.take();
}

std::optional<WalMeta> decode_meta(BytesView payload) {
  serde::Reader r(payload);
  WalMeta m;
  m.version = r.u32();
  m.run_seed = r.u64();
  m.node = static_cast<NodeId>(r.u32());
  m.providers = r.u64();
  m.users = r.u64();
  m.k = r.u64();
  m.endpoint_seed = r.u64();
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return m;
}

Bytes encode_message(NodeId from, std::string_view topic, BytesView payload) {
  serde::Writer w(4 + serde::varint_len(topic.size()) + topic.size() +
                  serde::varint_len(payload.size()) + payload.size());
  w.u32(from);
  w.str(topic);
  w.bytes(payload);
  return w.take();
}

std::optional<LoggedMessage> decode_message(BytesView payload) {
  serde::Reader r(payload);
  LoggedMessage m;
  m.from = static_cast<NodeId>(r.u32());
  const std::string_view topic = r.str_view();
  const BytesView body = r.bytes_view();
  if (!r.ok() || !r.at_end()) return std::nullopt;
  m.topic.assign(topic);
  m.payload.assign(body.begin(), body.end());
  return m;
}

Bytes encode_decision(const Decision& d) {
  serde::Writer w;
  w.u8(static_cast<std::uint8_t>(d.kind));
  w.boolean(d.ok);
  w.raw(BytesView(d.digest.data(), d.digest.size()));
  w.bytes(d.signature);
  return w.take();
}

std::optional<Decision> decode_decision(BytesView payload) {
  serde::Reader r(payload);
  Decision d;
  const std::uint8_t kind = r.u8();
  if (kind < 1 || kind > 3) return std::nullopt;
  d.kind = static_cast<DecisionKind>(kind);
  d.ok = r.boolean();
  const BytesView digest = r.raw_view(32);
  const BytesView sig = r.bytes_view();
  if (!r.ok() || !r.at_end()) return std::nullopt;
  if (!sig.empty() && sig.size() != 64) return std::nullopt;
  std::memcpy(d.digest.data(), digest.data(), 32);
  d.signature.assign(sig.begin(), sig.end());
  return d;
}

Bytes encode_snapshot(const Snapshot& s) {
  serde::Writer w;
  w.u64(s.messages_delivered);
  w.boolean(s.started);
  w.boolean(s.bids_agreed);
  w.boolean(s.done);
  return w.take();
}

std::optional<Snapshot> decode_snapshot(BytesView payload) {
  serde::Reader r(payload);
  Snapshot s;
  s.messages_delivered = r.u64();
  s.started = r.boolean();
  s.bids_agreed = r.boolean();
  s.done = r.boolean();
  if (!r.ok() || !r.at_end()) return std::nullopt;
  return s;
}

// --- Log scan --------------------------------------------------------------

WalScan scan_wal(BytesView data) {
  WalScan out;
  std::size_t off = 0;
  while (off + 4 <= data.size()) {
    std::uint32_t len;
    std::memcpy(&len, data.data() + off, 4);
    // A record is [u32 len][u8 type][payload][u32 crc]; len covers type +
    // payload. Oversized or zero lengths are damage, not records.
    if (len == 0 || len > Wal::kMaxRecordBytes) break;
    const std::size_t total = 4 + static_cast<std::size_t>(len) + 4;
    if (off + total > data.size()) break;  // torn tail: record cut short
    const BytesView body(data.data() + off + 4, len);
    std::uint32_t stored_crc;
    std::memcpy(&stored_crc, data.data() + off + 4 + len, 4);
    if (crc32(body) != stored_crc) break;  // bit flip in body, length, or crc
    const auto type = static_cast<RecordType>(body[0]);
    if (type != RecordType::kMeta && type != RecordType::kMessage &&
        type != RecordType::kDecision && type != RecordType::kSnapshot) {
      break;  // future/unknown type: cannot be replayed safely
    }
    out.records.push_back(
        WalRecord{type, Bytes(body.begin() + 1, body.end())});
    off += total;
  }
  out.good_bytes = off;
  out.truncated_bytes = data.size() - off;
  return out;
}

// --- Wal -------------------------------------------------------------------

Wal::Wal(std::shared_ptr<Storage> storage) : storage_(std::move(storage)) {}

WalScan Wal::open() {
  const Bytes data = storage_->read_all();
  WalScan scan = scan_wal(BytesView(data));
  if (scan.truncated_bytes > 0) {
    // Drop the damaged tail so subsequent appends extend the last *good*
    // record instead of burying garbage mid-log.
    storage_->truncate(scan.good_bytes);
    stats_.truncated_bytes += scan.truncated_bytes;
  }
  for (const auto& rec : scan.records) {
    if (rec.type == RecordType::kMessage) ++message_records_;
  }
  return scan;
}

bool Wal::append(RecordType type, BytesView payload) {
  serde::Writer w(4 + 1 + payload.size() + 4);
  w.u32(static_cast<std::uint32_t>(1 + payload.size()));
  w.u8(static_cast<std::uint8_t>(type));
  w.raw(payload);
  const Bytes frame = w.take();
  // CRC over type ‖ payload (everything between length and trailer).
  const std::uint32_t crc = crc32(BytesView(frame.data() + 4, frame.size() - 4));
  serde::Writer tail(4);
  tail.u32(crc);
  if (!storage_->append(BytesView(frame)) ||
      !storage_->append(BytesView(tail.take()))) {
    return false;
  }
  ++stats_.records_appended;
  stats_.bytes_appended += frame.size() + 4;
  return true;
}

bool Wal::commit() {
  ++stats_.commits;
  return storage_->sync();
}

bool Wal::append_message_record(NodeId from, std::string_view topic,
                                BytesView payload) {
  if (!append(RecordType::kMessage, BytesView(encode_message(from, topic, payload)))) {
    return false;
  }
  ++message_records_;
  return true;
}

bool meta_matches(const WalMeta& recovered, const WalMeta& expected,
                  std::string* why) {
  const auto fail = [&](const std::string& what) {
    if (why) *why = what;
    return false;
  };
  if (recovered.version != expected.version) {
    return fail("wal version " + std::to_string(recovered.version) +
                " != " + std::to_string(expected.version));
  }
  if (recovered.run_seed != expected.run_seed) {
    return fail("wal written by run seed " + std::to_string(recovered.run_seed) +
                ", this run is seed " + std::to_string(expected.run_seed));
  }
  if (recovered.node != expected.node) {
    return fail("wal written by node " + std::to_string(recovered.node) +
                ", this is node " + std::to_string(expected.node));
  }
  if (recovered.providers != expected.providers ||
      recovered.users != expected.users || recovered.k != expected.k) {
    return fail("wal written for a different deployment shape (m=" +
                std::to_string(recovered.providers) + ", n=" +
                std::to_string(recovered.users) + ", k=" +
                std::to_string(recovered.k) + ")");
  }
  if (recovered.endpoint_seed != expected.endpoint_seed) {
    return fail("wal endpoint seed mismatch: replay would diverge");
  }
  return true;
}

// --- FaultyStorage ----------------------------------------------------------

FaultyStorage::FaultyStorage(std::shared_ptr<Storage> inner,
                             StorageFaultConfig config)
    : inner_(std::move(inner)), config_(config), rng_(config.seed) {
  size_ = synced_bytes_ = inner_->read_all().size();
}

bool FaultyStorage::append(BytesView data) {
  if (!inner_->append(data)) return false;
  size_ += data.size();
  return true;
}

bool FaultyStorage::sync() {
  if (config_.sync_drop > 0 && rng_.next_double() < config_.sync_drop) {
    ++stats_.syncs_dropped;
    return true;  // the lying disk: reports success, commits nothing
  }
  if (!inner_->sync()) return false;
  synced_bytes_ = size_;
  return true;
}

bool FaultyStorage::truncate(std::size_t size) {
  if (!inner_->truncate(size)) return false;
  if (size < size_) size_ = size;
  if (synced_bytes_ > size_) synced_bytes_ = size_;
  return true;
}

void FaultyStorage::crash() {
  ++stats_.crashes;
  const std::size_t at_risk = size_ - synced_bytes_;
  if (at_risk == 0) return;
  const double draw = rng_.next_double();
  if (draw < config_.torn) {
    // Torn write: the at-risk suffix survives only up to a drawn offset.
    // keep = 0 degenerates to a short append (the whole tail vanished).
    const auto keep = static_cast<std::size_t>(rng_.next_below(at_risk));
    inner_->truncate(synced_bytes_ + keep);
    stats_.torn_bytes += at_risk - keep;
    size_ = synced_bytes_ + keep;
  } else if (draw < config_.torn + config_.flip) {
    // Bit rot in the at-risk tail: rewrite the suffix with one byte flipped
    // (Storage has no write-at-offset, so flip via truncate + re-append).
    const std::size_t off =
        synced_bytes_ + static_cast<std::size_t>(rng_.next_below(at_risk));
    Bytes all = inner_->read_all();
    all[off] ^= 0x40;
    inner_->truncate(off);
    inner_->append(BytesView(all.data() + off, all.size() - off));
    ++stats_.flipped_bytes;
  }
  // Otherwise the at-risk suffix happened to land intact — real disks
  // usually do commit what an un-synced write buffered.
}

}  // namespace dauct::store
