// Write-ahead-log unit tests: CRC framing, record codecs, and — the part
// that earns the "durable" in durable provider state — damage recovery.
// Every corruption an interrupted append or decaying disk can leave behind
// (truncated tail, torn mid-record, bit-flipped body/CRC/length, empty file)
// must recover to exactly the last good record, never fewer, never garbage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>

#include "store/wal.hpp"

namespace dauct::store {
namespace {

WalMeta sample_meta() {
  WalMeta m;
  m.run_seed = 7;
  m.node = 2;
  m.providers = 5;
  m.users = 12;
  m.k = 2;
  m.endpoint_seed = 0xfeedbeef;
  return m;
}

// ---------------------------------------------------------------------------
// crc32 + record codecs
// ---------------------------------------------------------------------------

TEST(WalCrc, MatchesTheIeeeCheckValue) {
  // The standard check vector for CRC-32/IEEE: crc("123456789") = 0xCBF43926.
  const Bytes data{'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(BytesView(data)), 0xCBF43926u);
  EXPECT_EQ(crc32(BytesView()), 0u);
}

TEST(WalCodec, MetaRoundTripsAndRejectsTrailingBytes) {
  const WalMeta m = sample_meta();
  Bytes enc = encode_meta(m);
  const auto dec = decode_meta(BytesView(enc));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(*dec, m);
  enc.push_back(0);  // trailing byte: defensive decode must refuse
  EXPECT_FALSE(decode_meta(BytesView(enc)).has_value());
  EXPECT_FALSE(decode_meta(BytesView(enc.data(), 3)).has_value());
}

TEST(WalCodec, MessageRoundTripsWithEmptyAndBinaryPayloads) {
  const Bytes payload{0x00, 0xff, 0x7f, 0x80};
  const Bytes enc = encode_message(3, "blk/bids", BytesView(payload));
  const auto dec = decode_message(BytesView(enc));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->from, 3u);
  EXPECT_EQ(dec->topic, "blk/bids");
  EXPECT_EQ(dec->payload, payload);

  const Bytes empty = encode_message(0, "", BytesView());
  const auto dec2 = decode_message(BytesView(empty));
  ASSERT_TRUE(dec2.has_value());
  EXPECT_TRUE(dec2->topic.empty());
  EXPECT_TRUE(dec2->payload.empty());
}

TEST(WalCodec, DecisionRoundTripsAndValidatesKindAndSignatureLength) {
  Decision d;
  d.kind = DecisionKind::kOutcome;
  d.ok = true;
  d.digest.fill(0xab);
  d.signature.assign(64, 0x11);
  const Bytes enc = encode_decision(d);
  const auto dec = decode_decision(BytesView(enc));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->kind, DecisionKind::kOutcome);
  EXPECT_TRUE(dec->ok);
  EXPECT_EQ(dec->digest, d.digest);
  EXPECT_EQ(dec->signature, d.signature);

  Bytes bad_kind = enc;
  bad_kind[0] = 9;  // unknown decision kind
  EXPECT_FALSE(decode_decision(BytesView(bad_kind)).has_value());

  Decision short_sig = d;
  short_sig.signature.assign(10, 0x22);  // neither empty nor 64 bytes
  EXPECT_FALSE(decode_decision(BytesView(encode_decision(short_sig))).has_value());
}

TEST(WalCodec, SnapshotRoundTrips) {
  Snapshot s;
  s.messages_delivered = 17;
  s.started = true;
  s.bids_agreed = true;
  s.done = false;
  const auto dec = decode_snapshot(BytesView(encode_snapshot(s)));
  ASSERT_TRUE(dec.has_value());
  EXPECT_EQ(dec->messages_delivered, 17u);
  EXPECT_TRUE(dec->started);
  EXPECT_TRUE(dec->bids_agreed);
  EXPECT_FALSE(dec->done);
}

// ---------------------------------------------------------------------------
// scan + damage recovery (satellite: corruption matrix)
// ---------------------------------------------------------------------------

/// A log with meta + `messages` message records; returns per-record end
/// offsets so tests can aim corruption at exact byte positions.
struct BuiltLog {
  std::shared_ptr<MemStorage> mem;
  std::vector<std::size_t> record_ends;
};

BuiltLog build_log(std::size_t messages) {
  BuiltLog out;
  out.mem = std::make_shared<MemStorage>();
  Wal wal(out.mem);
  wal.open();
  EXPECT_TRUE(wal.append(RecordType::kMeta, BytesView(encode_meta(sample_meta()))));
  out.record_ends.push_back(out.mem->size());
  for (std::size_t i = 0; i < messages; ++i) {
    const Bytes payload(5 + i, static_cast<std::uint8_t>(i));
    EXPECT_TRUE(wal.append_message_record(1, "blk/bids", BytesView(payload)));
    out.record_ends.push_back(out.mem->size());
  }
  EXPECT_TRUE(wal.commit());
  return out;
}

TEST(WalScanTest, EmptyLogIsCleanAndReplaysNothing) {
  auto mem = std::make_shared<MemStorage>();
  Wal wal(mem);
  const WalScan scan = wal.open();
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.good_bytes, 0u);
  EXPECT_EQ(scan.truncated_bytes, 0u);
  EXPECT_EQ(wal.message_records(), 0u);
}

TEST(WalScanTest, CleanLogRecoversEveryRecordInOrder) {
  const BuiltLog log = build_log(3);
  Wal wal(log.mem);
  const WalScan scan = wal.open();
  ASSERT_EQ(scan.records.size(), 4u);
  EXPECT_EQ(scan.records[0].type, RecordType::kMeta);
  EXPECT_EQ(scan.truncated_bytes, 0u);
  EXPECT_EQ(wal.message_records(), 3u);
  for (std::size_t i = 1; i < 4; ++i) {
    const auto msg = decode_message(BytesView(scan.records[i].payload));
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->payload.size(), 5 + (i - 1));
  }
}

TEST(WalScanTest, TruncatedTailRecoversToTheLastGoodRecord) {
  // Chop anywhere inside the final record — every cut point must yield
  // exactly the first two records and truncate the storage to their end.
  const BuiltLog reference = build_log(2);
  const std::size_t second_end = reference.record_ends[1];
  const std::size_t full = reference.record_ends[2];
  for (std::size_t cut = second_end + 1; cut < full; ++cut) {
    const BuiltLog log = build_log(2);
    log.mem->truncate(cut);
    Wal wal(log.mem);
    const WalScan scan = wal.open();
    ASSERT_EQ(scan.records.size(), 2u) << "cut at byte " << cut;
    EXPECT_EQ(scan.good_bytes, second_end);
    EXPECT_EQ(scan.truncated_bytes, cut - second_end);
    EXPECT_EQ(log.mem->size(), second_end) << "open() must truncate the tail";
    EXPECT_EQ(wal.stats().truncated_bytes, cut - second_end);
  }
}

TEST(WalScanTest, TornMidRecordThenAppendYieldsACleanLog) {
  // The interrupted-append lifecycle: tear the last record, reopen (tail
  // dropped), append a replacement, and the log must scan clean again.
  const BuiltLog log = build_log(2);
  log.mem->truncate(log.record_ends[1] + 3);
  Wal wal(log.mem);
  EXPECT_EQ(wal.open().records.size(), 2u);
  EXPECT_TRUE(wal.append_message_record(2, "blk/votes", BytesView()));
  EXPECT_TRUE(wal.commit());

  Wal reread(log.mem);
  const WalScan scan = reread.open();
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.truncated_bytes, 0u);
  const auto msg = decode_message(BytesView(scan.records[2].payload));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->topic, "blk/votes");
}

TEST(WalScanTest, BitFlipAnywhereInARecordInvalidatesItButKeepsThePrefix) {
  // Flip one bit at every byte of the third record (length, type, payload,
  // CRC): the scan must stop after the second record every time.
  const BuiltLog reference = build_log(3);
  const std::size_t third_start = reference.record_ends[1];
  const std::size_t third_end = reference.record_ends[2];
  for (std::size_t off = third_start; off < third_end; ++off) {
    const BuiltLog log = build_log(3);
    log.mem->corrupt_byte(off);
    const WalScan scan = scan_wal(BytesView(log.mem->read_all()));
    ASSERT_EQ(scan.records.size(), 2u) << "bit flip at byte " << off;
    EXPECT_EQ(scan.good_bytes, third_start);
  }
}

TEST(WalScanTest, OversizedOrZeroLengthPrefixStopsTheScan) {
  Bytes data(8, 0);
  data[0] = 0xff; data[1] = 0xff; data[2] = 0xff; data[3] = 0x7f;  // huge len
  EXPECT_TRUE(scan_wal(BytesView(data)).records.empty());
  Bytes zero(8, 0);  // len = 0: not a record
  EXPECT_TRUE(scan_wal(BytesView(zero)).records.empty());
}

TEST(WalScanTest, UnknownRecordTypeStopsTheScanEvenWithAValidCrc) {
  const BuiltLog log = build_log(1);
  Wal wal(log.mem);
  wal.open();
  // A well-formed record of a future type: CRC passes, replay must not.
  EXPECT_TRUE(wal.append(static_cast<RecordType>(9), BytesView()));
  const WalScan scan = scan_wal(BytesView(log.mem->read_all()));
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_GT(scan.truncated_bytes, 0u);
}

// ---------------------------------------------------------------------------
// meta gate
// ---------------------------------------------------------------------------

TEST(WalMetaGate, EachIdentityFieldProducesItsOwnDiagnostic) {
  const WalMeta expected = sample_meta();
  std::string why;
  EXPECT_TRUE(meta_matches(expected, expected, &why));

  WalMeta seed = expected;
  seed.run_seed = 8;
  EXPECT_FALSE(meta_matches(seed, expected, &why));
  EXPECT_NE(why.find("run seed"), std::string::npos);

  WalMeta node = expected;
  node.node = 0;
  EXPECT_FALSE(meta_matches(node, expected, &why));
  EXPECT_NE(why.find("node"), std::string::npos);

  WalMeta shape = expected;
  shape.providers = 3;
  EXPECT_FALSE(meta_matches(shape, expected, &why));
  EXPECT_NE(why.find("deployment shape"), std::string::npos);

  WalMeta version = expected;
  version.version = kWalVersion + 1;
  EXPECT_FALSE(meta_matches(version, expected, &why));
  EXPECT_NE(why.find("version"), std::string::npos);

  WalMeta eps = expected;
  eps.endpoint_seed = 1;
  EXPECT_FALSE(meta_matches(eps, expected, &why));
  EXPECT_NE(why.find("endpoint seed"), std::string::npos);
}

// A log written under record-format version 1 (fixed-width Money and ids in
// its journaled bid frames and decision digests) reopens cleanly, but its
// meta record fails the identity gate: replaying it would diverge.
TEST(WalMetaGate, VersionOneLogIsRefused) {
  ASSERT_EQ(kWalVersion, 2u);
  WalMeta v1 = sample_meta();
  v1.version = 1;
  auto mem = std::make_shared<MemStorage>();
  {
    Wal wal(mem);
    wal.open();
    ASSERT_TRUE(wal.append(RecordType::kMeta, BytesView(encode_meta(v1))));
    ASSERT_TRUE(wal.commit());
  }
  Wal wal(mem);
  const WalScan scan = wal.open();
  ASSERT_EQ(scan.records.size(), 1u);
  const auto recovered = decode_meta(BytesView(scan.records[0].payload));
  ASSERT_TRUE(recovered.has_value());
  std::string why;
  EXPECT_FALSE(meta_matches(*recovered, sample_meta(), &why));
  EXPECT_EQ(why, "wal version 1 != 2");
}

// ---------------------------------------------------------------------------
// MemStorage: the simulator's sink, stored in fixed-size chunks
// ---------------------------------------------------------------------------

TEST(WalMemStorage, BehavesLikeOneFlatBufferAcrossChunkBoundaries) {
  // Odd-sized appends spanning several 64 KiB chunks, then truncations
  // inside a chunk, onto a chunk boundary and to zero, each followed by more
  // appends: read_all, size and corrupt_byte must match a flat buffer.
  MemStorage mem;
  Bytes flat;
  std::uint8_t next = 0;
  const auto append = [&](std::size_t n) {
    Bytes piece(n);
    for (auto& b : piece) b = next++;
    ASSERT_TRUE(mem.append(BytesView(piece)));
    flat.insert(flat.end(), piece.begin(), piece.end());
  };
  const auto check = [&] {
    EXPECT_EQ(mem.size(), flat.size());
    EXPECT_EQ(mem.read_all(), flat);
  };
  for (std::size_t n : {1u, 70'000u, 3u, 65'533u, 131'072u}) append(n);
  check();
  for (std::size_t cut : {200'000u, 131'072u, 65'536u, 65'535u, 0u}) {
    ASSERT_TRUE(mem.truncate(cut));
    flat.resize(cut);
    check();
    append(40'000);
    append(30'000);
    check();
  }
  mem.corrupt_byte(65'536);
  flat[65'536] ^= 0x40;
  mem.corrupt_byte(flat.size());  // past the end: no effect
  check();
}

// ---------------------------------------------------------------------------
// FileStorage: the real-disk sink behind the tcp runtime
// ---------------------------------------------------------------------------

TEST(WalFileStorage, PersistsAcrossReopenAndTruncatesDamage) {
  const std::string path = testing::TempDir() + "/wal_file_test.wal";
  std::remove(path.c_str());
  {
    auto file = FileStorage::open(path);
    ASSERT_NE(file, nullptr);
    Wal wal(std::shared_ptr<Storage>(std::move(file)));
    wal.open();
    ASSERT_TRUE(wal.append(RecordType::kMeta, BytesView(encode_meta(sample_meta()))));
    ASSERT_TRUE(wal.append_message_record(1, "blk/bids", BytesView(Bytes{1, 2, 3})));
    ASSERT_TRUE(wal.commit());
  }
  // Simulate a torn append: garbage past the last committed record.
  {
    auto file = FileStorage::open(path);
    ASSERT_NE(file, nullptr);
    ASSERT_TRUE(file->append(BytesView(Bytes{0x10, 0x00, 0x00, 0x00, 0xde, 0xad})));
    ASSERT_TRUE(file->sync());
  }
  {
    auto file = FileStorage::open(path);
    ASSERT_NE(file, nullptr);
    auto shared = std::shared_ptr<Storage>(std::move(file));
    Wal wal(shared);
    const WalScan scan = wal.open();
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.truncated_bytes, 6u);
    EXPECT_EQ(wal.message_records(), 1u);
    // The truncation is durable: a third open sees a clean file.
    EXPECT_EQ(scan_wal(BytesView(shared->read_all())).truncated_bytes, 0u);
    const auto meta = decode_meta(BytesView(scan.records[0].payload));
    ASSERT_TRUE(meta.has_value());
    EXPECT_TRUE(meta_matches(*meta, sample_meta()));
  }
  std::remove(path.c_str());
}

TEST(WalFileStorage, OpenFailsCleanlyOnAnUnwritablePath) {
  EXPECT_EQ(FileStorage::open("/nonexistent-dir/x/y.wal"), nullptr);
}

// ---------------------------------------------------------------------------
// FaultyStorage: the seeded lying-disk decorator
// ---------------------------------------------------------------------------

StorageFaultConfig faulty(double sync_drop, double torn, double flip,
                          std::uint64_t seed = 42) {
  StorageFaultConfig cfg;
  cfg.enable = true;
  cfg.seed = seed;
  cfg.sync_drop = sync_drop;
  cfg.torn = torn;
  cfg.flip = flip;
  return cfg;
}

TEST(FaultyStorageTest, ZeroRatesAreATransparentPassThrough) {
  auto mem = std::make_shared<MemStorage>();
  FaultyStorage disk(mem, faulty(0.0, 0.0, 0.0));
  const Bytes a(10, 0xaa);
  const Bytes b(6, 0xbb);
  EXPECT_TRUE(disk.append(BytesView(a)));
  EXPECT_TRUE(disk.sync());
  EXPECT_EQ(disk.synced_bytes(), a.size());
  EXPECT_TRUE(disk.append(BytesView(b)));
  disk.crash();  // at-risk suffix exists, but torn and flip both lose the draw
  Bytes expect = a;
  expect.insert(expect.end(), b.begin(), b.end());
  EXPECT_EQ(mem->read_all(), expect);
  EXPECT_EQ(disk.stats().syncs_dropped, 0u);
  EXPECT_EQ(disk.stats().crashes, 1u);
  EXPECT_EQ(disk.stats().torn_bytes, 0u);
  EXPECT_EQ(disk.stats().flipped_bytes, 0u);
}

TEST(FaultyStorageTest, DroppedSyncReportsSuccessButMovesNoFrontier) {
  auto mem = std::make_shared<MemStorage>();
  FaultyStorage disk(mem, faulty(1.0, 0.0, 0.0));
  EXPECT_TRUE(disk.append(BytesView(Bytes(8, 0x11))));
  EXPECT_TRUE(disk.sync());  // the lie: true, yet nothing became durable
  EXPECT_EQ(disk.synced_bytes(), 0u);
  EXPECT_EQ(disk.stats().syncs_dropped, 1u);
  // The bytes themselves are still readable — only durability was lost.
  EXPECT_EQ(mem->read_all().size(), 8u);
}

TEST(FaultyStorageTest, CrashTearsOnlyTheAtRiskSuffix) {
  auto mem = std::make_shared<MemStorage>();
  FaultyStorage disk(mem, faulty(0.0, 1.0, 0.0));
  const Bytes synced(16, 0xcc);
  EXPECT_TRUE(disk.append(BytesView(synced)));
  EXPECT_TRUE(disk.sync());
  EXPECT_TRUE(disk.append(BytesView(Bytes(24, 0xdd))));
  disk.crash();
  const Bytes after = mem->read_all();
  // Everything up to the durable frontier is untouchable; the tail shrank.
  ASSERT_GE(after.size(), synced.size());
  EXPECT_LT(after.size(), synced.size() + 24u);
  EXPECT_TRUE(std::equal(synced.begin(), synced.end(), after.begin()));
  EXPECT_EQ(disk.stats().torn_bytes, synced.size() + 24u - after.size());
  EXPECT_GT(disk.stats().torn_bytes, 0u);
}

TEST(FaultyStorageTest, CrashBitFlipChangesExactlyOneSuffixByte) {
  auto mem = std::make_shared<MemStorage>();
  FaultyStorage disk(mem, faulty(0.0, 0.0, 1.0));
  const Bytes synced(16, 0xcc);
  EXPECT_TRUE(disk.append(BytesView(synced)));
  EXPECT_TRUE(disk.sync());
  EXPECT_TRUE(disk.append(BytesView(Bytes(24, 0xdd))));
  const Bytes before = mem->read_all();
  disk.crash();
  const Bytes after = mem->read_all();
  ASSERT_EQ(after.size(), before.size());
  std::size_t diffs = 0;
  std::size_t diff_at = 0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i] != before[i]) {
      ++diffs;
      diff_at = i;
    }
  }
  EXPECT_EQ(diffs, 1u);
  EXPECT_GE(diff_at, synced.size());  // never inside the durable prefix
  EXPECT_EQ(after[diff_at], static_cast<std::uint8_t>(before[diff_at] ^ 0x40));
  EXPECT_EQ(disk.stats().flipped_bytes, 1u);
}

TEST(FaultyStorageTest, SameSeedReplaysTheSameDamage) {
  const auto run_once = [](std::uint64_t seed) {
    auto mem = std::make_shared<MemStorage>();
    FaultyStorage disk(mem, faulty(0.5, 0.6, 0.4, seed));
    for (int i = 0; i < 6; ++i) {
      disk.append(BytesView(Bytes(11 + i, static_cast<std::uint8_t>(i))));
      disk.sync();
    }
    disk.crash();
    return mem->read_all();
  };
  EXPECT_EQ(run_once(9), run_once(9));
}

TEST(FaultyStorageTest, WalRecoversACleanPrefixAfterTornCrash) {
  // End-to-end with the log layer: every commit lied, the crash tore the
  // whole at-risk region mid-record — Wal::open must still come back with a
  // valid (possibly empty) prefix of the original records, never garbage.
  auto mem = std::make_shared<MemStorage>();
  auto disk =
      std::make_shared<FaultyStorage>(mem, faulty(1.0, 1.0, 0.0, 7));
  {
    Wal wal(disk);
    wal.open();
    ASSERT_TRUE(
        wal.append(RecordType::kMeta, BytesView(encode_meta(sample_meta()))));
    for (std::size_t i = 0; i < 4; ++i) {
      ASSERT_TRUE(wal.append_message_record(
          1, "blk/bids", BytesView(Bytes(20 + i, static_cast<std::uint8_t>(i)))));
    }
    ASSERT_TRUE(wal.commit());  // dropped: frontier stays at 0
  }
  disk->crash();
  EXPECT_GT(disk->stats().torn_bytes, 0u);

  Wal recovered(mem);
  const WalScan scan = recovered.open();
  EXPECT_LT(scan.records.size(), 5u);  // something was really lost
  if (!scan.records.empty()) {
    // Whatever survived is the original prefix, starting with intact meta.
    EXPECT_EQ(scan.records[0].type, RecordType::kMeta);
    const auto meta = decode_meta(BytesView(scan.records[0].payload));
    ASSERT_TRUE(meta.has_value());
    EXPECT_TRUE(meta_matches(*meta, sample_meta()));
  }
  // Recovery truncated the torn tail durably: a re-open is clean.
  EXPECT_EQ(scan_wal(BytesView(mem->read_all())).truncated_bytes, 0u);
}

}  // namespace
}  // namespace dauct::store
