// Copyright 2026 The DataCell Authors.
//
// Durability proof (docs/DURABILITY.md): kill-and-recover at EVERY
// filesystem operation the durability layer performs — mid-WAL-record,
// between an append and its fsync, mid-snapshot-rename, after a snapshot
// lands but before the WALs truncate — then recover on the real files,
// resume the deterministic row tape, and compare every query's emission
// sequence against an uninterrupted oracle:
//
//   recovered emissions  ==  a contiguous SUFFIX of the oracle's, and
//   |oracle| - |recovered|  <=  emissions already delivered at the last
//                               checkpoint that STARTED before the trip
//                               (0 when no checkpoint had started).
//
// The suffix half proves no divergence and no duplication; the bound half
// proves nothing is lost beyond what a checkpoint had durably handed to
// sinks before the crash. Storage-level unit tests (framing, torn-tail
// scans, snapshot prev-fallback), an fsync-policy sweep, and a threaded
// background-checkpointer round-trip ride along.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "tests/crash_util.h"
#include "tests/durability_workload.h"
#include "tests/test_util.h"
#include "util/random.h"
#include "util/string_util.h"

// Full crash-point enumeration is cheap in a normal build but 10-20x
// slower under sanitizers; stride the kill points there (coverage still
// spans the whole op range, offset per style so the two styles interleave).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define DC_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define DC_SANITIZED_BUILD 1
#endif
#endif

namespace dc {
namespace {

using storage::FsyncPolicy;
using testutil::CrashEnv;
using testutil::DurableSyncOptions;
using testutil::IsSuffixOf;
using testutil::MakeTempDir;
using testutil::RemoveDirRecursive;
using testutil::WorkloadDdl;
using testutil::WorkloadFeed;
using testutil::WorkloadQueries;
using testutil::WorkloadRows;
using testutil::WorkloadSeal;
using testutil::WorkloadSubmit;
using testutil::WorkloadTake;
using testutil::WRow;

// --------------------------------------------------------------------------
// Storage-level unit coverage.
// --------------------------------------------------------------------------

TEST(WalCodec, RecordsRoundTripThroughWriterAndScan) {
  const std::string dir = MakeTempDir("walcodec");
  const std::string path = dir + "/t.wal";

  storage::WalReset reset;
  reset.start_seq = 17;
  reset.next_ordinal = 5;
  reset.watermark = 123456;
  reset.sealed = true;
  storage::WalSubmit sub;
  sub.token = 42;
  sub.sql = "SELECT count(*) FROM s [ROWS 4 SLIDE 4]";
  sub.mode = 1;
  sub.name = "q";
  sub.origins = {7, 9};
  sub.batch_cursor = 3;
  sub.node_label = "s#1";
  sub.node_origin = 7;

  {
    auto w = storage::WalWriter::Open(storage::WalEnv::Default(), path,
                                      FsyncPolicy::kAlways, 1,
                                      storage::WalCounters{});
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE((*w)->Append(storage::EncodeReset(reset)).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeBatch(5, 17, 0, {})).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeHeartbeat(-7)).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeSeal()).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeStatement("CREATE TABLE t (x int)"))
                    .ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeSubmit(sub)).ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeRemove(42)).ok());
  }

  auto scan = storage::ReadWalFile(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan->clean_tail);
  ASSERT_EQ(scan->records.size(), 7u);

  auto r0 = storage::DecodeReset(scan->records[0]);
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0->start_seq, 17u);
  EXPECT_EQ(r0->next_ordinal, 5u);
  EXPECT_EQ(r0->watermark, 123456);
  EXPECT_TRUE(r0->sealed);

  auto r1 = storage::DecodeBatch(scan->records[1]);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->ordinal, 5u);
  EXPECT_EQ(r1->begin_seq, 17u);
  EXPECT_EQ(r1->rows, 0u);

  auto r2 = storage::DecodeHeartbeat(scan->records[2]);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r2, -7);
  EXPECT_EQ(scan->records[3].type, storage::WalRecordType::kSeal);

  auto r4 = storage::DecodeStatement(scan->records[4]);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(*r4, "CREATE TABLE t (x int)");

  auto r5 = storage::DecodeSubmit(scan->records[5]);
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(r5->token, 42u);
  EXPECT_EQ(r5->sql, sub.sql);
  EXPECT_EQ(r5->mode, 1);
  EXPECT_EQ(r5->name, "q");
  EXPECT_EQ(r5->origins, sub.origins);
  EXPECT_EQ(r5->batch_cursor, 3u);
  EXPECT_EQ(r5->node_label, "s#1");
  EXPECT_EQ(r5->node_origin, 7u);

  auto r6 = storage::DecodeRemove(scan->records[6]);
  ASSERT_TRUE(r6.ok());
  EXPECT_EQ(*r6, 42u);

  RemoveDirRecursive(dir);
}

TEST(WalCodec, TornAndGarbageTailsScanToTheValidPrefix) {
  const std::string dir = MakeTempDir("waltorn");
  const std::string path = dir + "/t.wal";
  {
    auto w = storage::WalWriter::Open(storage::WalEnv::Default(), path,
                                      FsyncPolicy::kAlways, 1,
                                      storage::WalCounters{});
    ASSERT_TRUE(w.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*w)->Append(storage::EncodeHeartbeat(i)).ok());
    }
  }
  auto full = storage::ReadWalFile(path);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->records.size(), 4u);
  ASSERT_TRUE(full->clean_tail);

  // Garbage appended past the last record: same records, dirty tail.
  {
    FILE* f = fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    fwrite("\x03\x00\x00", 1, 3, f);
    fclose(f);
  }
  auto dirty = storage::ReadWalFile(path);
  ASSERT_TRUE(dirty.ok());
  EXPECT_EQ(dirty->records.size(), 4u);
  EXPECT_FALSE(dirty->clean_tail);
  EXPECT_EQ(dirty->valid_bytes, full->valid_bytes);

  // Truncation mid-record: one fewer record, dirty tail.
  ASSERT_TRUE(storage::WalEnv::Default()
                  ->TruncateFile(path, full->valid_bytes - 3)
                  .ok());
  auto torn = storage::ReadWalFile(path);
  ASSERT_TRUE(torn.ok());
  EXPECT_EQ(torn->records.size(), 3u);
  EXPECT_FALSE(torn->clean_tail);

  // Re-opening a writer truncates to the valid prefix and appends cleanly.
  {
    auto w = storage::WalWriter::Open(storage::WalEnv::Default(), path,
                                      FsyncPolicy::kAlways, 1,
                                      storage::WalCounters{});
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE((*w)->Append(storage::EncodeHeartbeat(99)).ok());
  }
  auto fixed = storage::ReadWalFile(path);
  ASSERT_TRUE(fixed.ok());
  ASSERT_EQ(fixed->records.size(), 4u);
  EXPECT_TRUE(fixed->clean_tail);
  auto hb = storage::DecodeHeartbeat(fixed->records[3]);
  ASSERT_TRUE(hb.ok());
  EXPECT_EQ(*hb, 99);

  RemoveDirRecursive(dir);
}

std::string Hex(std::string_view bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

/// The kBatch fixture for the golden-bytes and round-trip tests: every
/// column type without NULLs, the same types with NULLs at the front,
/// middle and back, and a 0-row batch.
struct CodecFixture {
  uint64_t ordinal, begin_seq, rows;
  std::vector<BatPtr> cols;
};

std::vector<CodecFixture> CodecFixtures() {
  std::vector<CodecFixture> out;
  out.push_back({3, 40, 3,
                 {Bat::MakeI64({1, -2, INT64_MAX}),
                  Bat::MakeTs({1000, 2000, 3000}),
                  Bat::MakeF64({0.5, -1.25, 1e300}), Bat::MakeBool({1, 0, 1}),
                  Bat::MakeStr({"a", "", "hello wal"})}});
  auto i = Bat::MakeEmpty(TypeId::kI64);
  i->AppendI64(7);
  i->AppendNull();
  i->AppendI64(9);
  auto t = Bat::MakeEmpty(TypeId::kTs);
  t->AppendNull();
  t->AppendI64(5);
  t->AppendI64(6);
  auto f = Bat::MakeEmpty(TypeId::kF64);
  f->AppendF64(1.5);
  f->AppendF64(2.5);
  f->AppendNull();
  auto b = Bat::MakeEmpty(TypeId::kBool);
  b->AppendNull();
  b->AppendBool(true);
  b->AppendBool(false);
  auto s = Bat::MakeEmpty(TypeId::kStr);
  s->AppendStr("x");
  s->AppendNull();
  s->AppendStr("z");
  out.push_back({4, 43, 3, {i, t, f, b, s}});
  out.push_back({5, 46, 0,
                 {Bat::MakeEmpty(TypeId::kI64), Bat::MakeEmpty(TypeId::kStr)}});
  return out;
}

TEST(WalCodec, Crc32KnownAnswer) {
  EXPECT_EQ(storage::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(storage::Crc32("", 0), 0u);
}

TEST(WalCodec, SliceBy8MatchesBytewiseReference) {
  // The original bytewise IEEE CRC32 — the definition every existing
  // DCWAL001 frame was checksummed with.
  auto reference = [](const unsigned char* p, size_t n) {
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
      c ^= p[i];
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
  };
  Rng rng(7);
  std::vector<unsigned char> buf(4096 + 8);
  for (unsigned char& c : buf) c = static_cast<unsigned char>(rng.Next());
  for (size_t align = 0; align < 8; ++align) {
    for (int trial = 0; trial < 64; ++trial) {
      const size_t n = trial < 17 ? static_cast<size_t>(trial)
                                  : static_cast<size_t>(rng.Next() % 4097);
      const unsigned char* p = buf.data() + align;
      ASSERT_EQ(storage::Crc32(p, n), reference(p, n))
          << "align " << align << " length " << n;
    }
  }
}

TEST(WalCodec, BatchEncodingMatchesGoldenBytes) {
  // Hex of EncodeBatch for CodecFixtures(), as written by the bytewise
  // encoder that produced every existing DCWAL001 log.
  const std::vector<std::string> golden = {
      "0203000000000000002800000000000000030000000000000005000000010300000000"
      "000000000100000000000000feffffffffffffffffffffffffffff7f04030000000000"
      "000000e803000000000000d007000000000000b80b0000000000000203000000000000"
      "0000000000000000e03f000000000000f4bf9c7500883ce4377e000300000000000000"
      "00010001030300000000000000000100000061000000000900000068656c6c6f207761"
      "6c",
      "0204000000000000002b00000000000000030000000000000005000000010300000000"
      "0000000100010007000000000000000000000000000000090000000000000004030000"
      "0000000000010100000000000000000000050000000000000006000000000000000203"
      "0000000000000001000001000000000000f83f00000000000004400000000000000000"
      "0003000000000000000101000000010003030000000000000001000100010000007800"
      "000000010000007a",
      "0205000000000000002e00000000000000000000000000000002000000010000000000"
      "0000000003000000000000000000",
  };
  const std::vector<CodecFixture> fixtures = CodecFixtures();
  ASSERT_EQ(fixtures.size(), golden.size());
  for (size_t k = 0; k < fixtures.size(); ++k) {
    const CodecFixture& fx = fixtures[k];
    EXPECT_EQ(Hex(storage::EncodeBatch(fx.ordinal, fx.begin_seq, fx.rows,
                                       fx.cols)),
              golden[k])
        << "fixture " << k;
  }
  // The frame around it: [len][crc] from the same writer.
  EXPECT_EQ(Hex(storage::FrameRecord(storage::EncodeBatch(
                    3, 40, 3, fixtures[0].cols)))
                .substr(0, 16),
            "b00000007efa5c6a");
}

TEST(WalCodec, BatchDecodeRoundTripsFromAnOddOffset) {
  for (const CodecFixture& fx : CodecFixtures()) {
    const std::string payload =
        storage::EncodeBatch(fx.ordinal, fx.begin_seq, fx.rows, fx.cols);
    // Place the body (payload minus its type byte) at an address that is
    // 1 mod 8, so every 8-byte column load is misaligned.
    std::vector<char> buf(payload.size() + 16);
    const auto addr = reinterpret_cast<uintptr_t>(buf.data());
    const size_t off = (9 - addr % 8) % 8;
    std::copy(payload.begin() + 1, payload.end(), buf.begin() + off);
    storage::WalRecord rec;
    rec.type = storage::WalRecordType::kBatch;
    rec.body = std::string_view(buf.data() + off, payload.size() - 1);

    auto b = storage::DecodeBatch(rec);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(b->ordinal, fx.ordinal);
    EXPECT_EQ(b->begin_seq, fx.begin_seq);
    EXPECT_EQ(b->rows, fx.rows);
    ASSERT_EQ(b->cols.size(), fx.cols.size());
    for (size_t c = 0; c < fx.cols.size(); ++c) {
      const Bat& want = *fx.cols[c];
      const Bat& got = *b->cols[c];
      ASSERT_EQ(got.type(), want.type());
      ASSERT_EQ(got.size(), want.size());
      EXPECT_EQ(got.has_nulls(), want.has_nulls());
      for (uint64_t r = 0; r < want.size(); ++r) {
        EXPECT_EQ(got.IsNull(r), want.IsNull(r)) << "col " << c << " row " << r;
        EXPECT_EQ(got.GetValue(r).ToString(), want.GetValue(r).ToString())
            << "col " << c << " row " << r;
      }
    }
    // Decode then encode reproduces the bytes.
    EXPECT_EQ(storage::EncodeBatch(b->ordinal, b->begin_seq, b->rows, b->cols),
              payload);
  }
}

TEST(SnapshotFiles, AtomicRotationWithPrevFallback) {
  const std::string dir = MakeTempDir("snap");
  ASSERT_TRUE(storage::LoadSnapshot(dir).status().IsNotFound());

  storage::SnapshotData one;
  one.checkpoint_id = 1;
  one.baskets.push_back({"s", 10});
  storage::SnapshotData two;
  two.checkpoint_id = 2;
  two.baskets.push_back({"s", 20});
  two.queries.push_back({7, storage::FactoryProgress{{20}, true, 5, 3, 11}});
  two.nodes.push_back({"s#1", 20});

  ASSERT_TRUE(
      storage::WriteSnapshot(storage::WalEnv::Default(), dir, one).ok());
  ASSERT_TRUE(
      storage::WriteSnapshot(storage::WalEnv::Default(), dir, two).ok());

  auto loaded = storage::LoadSnapshot(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->checkpoint_id, 2u);
  ASSERT_EQ(loaded->queries.size(), 1u);
  EXPECT_EQ(loaded->queries[0].token, 7u);
  EXPECT_EQ(loaded->queries[0].progress.origins, std::vector<uint64_t>{20});
  EXPECT_TRUE(loaded->queries[0].progress.has_next_emission);
  EXPECT_EQ(loaded->queries[0].progress.emissions, 11u);
  ASSERT_EQ(loaded->nodes.size(), 1u);
  EXPECT_EQ(loaded->nodes[0].label, "s#1");

  // Corrupt the current snapshot: the previous one must serve.
  {
    FILE* f = fopen(storage::SnapshotPath(dir).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 12, SEEK_SET);
    fputc(0x5a, f);
    fclose(f);
  }
  auto fallback = storage::LoadSnapshot(dir);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(fallback->checkpoint_id, 1u);

  // Both corrupt: refuse (the WAL tail alone cannot be trusted once a
  // checkpoint may have truncated it).
  {
    FILE* f = fopen(storage::SnapshotPrevPath(dir).c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    fseek(f, 12, SEEK_SET);
    fputc(0x5a, f);
    fclose(f);
  }
  EXPECT_FALSE(storage::LoadSnapshot(dir).ok());
  EXPECT_FALSE(storage::LoadSnapshot(dir).status().IsNotFound());

  RemoveDirRecursive(dir);
}

// --------------------------------------------------------------------------
// Engine-level recovery harness.
// --------------------------------------------------------------------------

struct ScriptMarks {
  std::vector<int64_t> ops;                   // env op count at ckpt start
  std::vector<std::vector<uint64_t>> counts;  // per-query emissions there
};

/// DDL + submits + segmented feed with a Checkpoint between segments.
/// No seal — the tape is resumable. Checkpoint failures are tolerated
/// only once the env has tripped (a dead env can surface a short read).
std::vector<int> RunScript(Engine& e, const std::vector<WRow>& rows,
                           const std::vector<size_t>& ckpts, CrashEnv* env,
                           ScriptMarks* marks) {
  WorkloadDdl(e);
  std::vector<int> qids = WorkloadSubmit(e);
  size_t lo = 0;
  for (size_t c : ckpts) {
    WorkloadFeed(e, rows, lo, lo, c);
    lo = c;
    if (marks != nullptr) {
      marks->ops.push_back(env != nullptr ? env->OpCount() : 0);
      std::vector<uint64_t> cnt;
      for (int q : qids) cnt.push_back(e.GetFactory(q)->Stats().emissions);
      marks->counts.push_back(cnt);
    }
    const Status cs = e.Checkpoint();
    if (env == nullptr || !env->tripped()) {
      EXPECT_TRUE(cs.ok()) << cs.ToString();
    }
  }
  WorkloadFeed(e, rows, lo, lo, rows.size());
  return qids;
}

/// Recovers from `dir` on the real filesystem, re-creates whatever part
/// of the catalog the crash predated (a lost CREATE/submit implies the
/// trip came before any data op — the catalog log is fsync-always and
/// strictly precedes feeding — which the HighSeq assertions verify),
/// resumes the tape from each basket's replayed HighSeq, seals, and
/// returns per-query emissions in workload order.
void RecoverAndResume(const std::string& dir, FsyncPolicy fsync,
                      const std::vector<WRow>& rows,
                      std::vector<std::vector<std::string>>* out) {
  Engine rec(DurableSyncOptions(dir, nullptr, fsync));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();

  bool rebuilt_catalog = false;
  if (!rec.StreamStats("s").ok()) {
    rebuilt_catalog = true;
    ASSERT_TRUE(
        rec.Execute("CREATE STREAM s (ts timestamp, g int, v int, w double)")
            .ok());
  }
  if (!rec.StreamStats("r").ok()) {
    rebuilt_catalog = true;
    ASSERT_TRUE(
        rec.Execute("CREATE STREAM r (rts timestamp, kr int, y int)").ok());
  }

  std::map<std::string, int> by_sql;
  for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
  std::vector<int> qids;
  for (const std::string& sql : WorkloadQueries()) {
    if (auto it = by_sql.find(sql); it != by_sql.end()) {
      qids.push_back(it->second);
      continue;
    }
    rebuilt_catalog = true;
    auto q = rec.SubmitContinuous(sql,
                                  testutil::WithMode(ExecMode::kIncremental));
    ASSERT_TRUE(q.ok()) << q.status().ToString() << "\nsql: " << sql;
    qids.push_back(*q);
  }
  if (rebuilt_catalog) {
    // Catalog loss can only mean the crash predated every data append.
    ASSERT_EQ(rec.GetBasket("s")->HighSeq(), 0u);
    ASSERT_EQ(rec.GetBasket("r")->HighSeq(), 0u);
  }

  const uint64_t lo_s = rec.GetBasket("s")->HighSeq();
  const uint64_t lo_r = rec.GetBasket("r")->HighSeq();
  ASSERT_LE(lo_s, rows.size());
  ASSERT_LE(lo_r, rows.size());
  WorkloadFeed(rec, rows, lo_s, lo_r, rows.size());
  WorkloadSeal(rec);
  *out = WorkloadTake(rec, qids);
}

/// Index of the last checkpoint whose first op precedes trip `k`
/// (its emission count upper-bounds what recovery may not re-emit).
int64_t LastStartedCheckpoint(const ScriptMarks& marks, int64_t k) {
  int64_t j = -1;
  for (size_t i = 0; i < marks.ops.size(); ++i) {
    if (marks.ops[i] <= k) j = static_cast<int64_t>(i);
  }
  return j;
}

void AssertRecoveredAgainstOracle(
    const std::vector<std::vector<std::string>>& got,
    const std::vector<std::vector<std::string>>& oracle,
    const ScriptMarks& marks, int64_t k) {
  ASSERT_EQ(got.size(), oracle.size());
  const int64_t j = LastStartedCheckpoint(marks, k);
  for (size_t q = 0; q < oracle.size(); ++q) {
    ASSERT_TRUE(IsSuffixOf(got[q], oracle[q])) << "query " << q;
    const size_t missing = oracle[q].size() - got[q].size();
    const uint64_t bound = j >= 0 ? marks.counts[j][q] : 0;
    EXPECT_LE(missing, bound)
        << "query " << q << ": recovery lost emissions a checkpoint never "
        << "covered (trip op " << k << ", last started checkpoint " << j
        << ")";
  }
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { dir_ = MakeTempDir("recovery"); }
  void TearDown() override { testutil::RemoveDirRecursive(dir_); }

  /// Uninterrupted durable run: the oracle emissions and per-checkpoint
  /// emission counts every crash run is judged against.
  void RunOracle(const std::vector<WRow>& rows,
                 const std::vector<size_t>& ckpts, FsyncPolicy fsync,
                 std::vector<std::vector<std::string>>* emissions,
                 ScriptMarks* marks) {
    const std::string odir = MakeTempDir("oracle");
    {
      Engine e(DurableSyncOptions(odir, nullptr, fsync));
      ASSERT_TRUE(e.recovery_status().ok());
      std::vector<int> qids = RunScript(e, rows, ckpts, nullptr, marks);
      WorkloadSeal(e);
      *emissions = WorkloadTake(e, qids);
    }
    RemoveDirRecursive(odir);
    for (const auto& per_query : *emissions) {
      ASSERT_GT(per_query.size(), 3u) << "oracle produced a trivial tape";
    }
  }

  std::string dir_;
};

TEST_F(RecoveryTest, ColdStartOnEmptyDirIsANoOp) {
  Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
  EXPECT_TRUE(e.recovery_status().ok());
  EXPECT_EQ(e.metrics().GetCounter("recovery.runs")->Value(), 0u);
  WorkloadDdl(e);
  EXPECT_GT(e.metrics().GetCounter("wal.records")->Value(), 0u);
}

// Graceful shutdown + no checkpoint: the destructor syncs every log, so
// a restart replays the WHOLE history and re-emits every emission — the
// recovered engine's output equals the oracle exactly, with no resume
// feed at all (the seal was logged too).
TEST_F(RecoveryTest, GracefulRestartReplaysTheFullTape) {
  const std::vector<WRow> rows = WorkloadRows(36);
  std::vector<std::vector<std::string>> oracle;
  std::vector<int> qids;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kNever));
    qids = RunScript(e, rows, {}, nullptr, nullptr);
    WorkloadSeal(e);
    oracle = WorkloadTake(e, qids);
  }
  Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kNever));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  EXPECT_EQ(rec.metrics().GetCounter("recovery.runs")->Value(), 1u);
  EXPECT_GT(rec.metrics().GetCounter("recovery.replayed_rows")->Value(), 0u);
  // Replay happens in the constructor; emissions are already buffered.
  EXPECT_EQ(WorkloadTake(rec, qids), oracle);
  // The shared-window nodes came back under their original deterministic
  // labels: one per distinct window on s, with the tier-P pair (HAVING
  // twins) still co-subscribed to s#1.
  const SharingStats ss = rec.GetSharingStats();
  ASSERT_EQ(ss.shared_nodes, 3u);
  bool found_pair = false;
  for (const auto& n : ss.nodes) {
    if (n.label == "s#1") {
      EXPECT_EQ(n.subscribers, 2);
      found_pair = true;
    }
  }
  EXPECT_TRUE(found_pair) << "tier-P node s#1 did not survive recovery";
}

// Checkpoint then graceful restart: recovery restores the checkpoint's
// progress cursors, so the replay re-emits EXACTLY the post-checkpoint
// tail — equality, not just a bound.
TEST_F(RecoveryTest, CheckpointCutsReplayExactlyAtItsEmissionCounts) {
  const std::vector<WRow> rows = WorkloadRows(36);
  ScriptMarks marks;
  std::vector<std::vector<std::string>> oracle;
  std::vector<int> qids;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kInterval));
    qids = RunScript(e, rows, {24}, nullptr, &marks);
    WorkloadSeal(e);
    oracle = WorkloadTake(e, qids);
  }
  Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kInterval));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  const std::vector<std::vector<std::string>> got = WorkloadTake(rec, qids);
  ASSERT_EQ(got.size(), oracle.size());
  ASSERT_EQ(marks.counts.size(), 1u);
  for (size_t q = 0; q < oracle.size(); ++q) {
    const size_t cut = static_cast<size_t>(marks.counts[0][q]);
    ASSERT_LE(cut, oracle[q].size());
    EXPECT_EQ(got[q],
              std::vector<std::string>(oracle[q].begin() + cut,
                                       oracle[q].end()))
        << "query " << q << " did not resume exactly at checkpoint cut "
        << cut;
  }
}

// A recovered engine is an ordinary durable engine: it recovers again.
// Replay must leave its own catalog log untouched (every statement and
// submit logged exactly once, however often the engine restarts), and
// going live must hook every replayed stream, or rows fed after the
// first recovery would be missing from the second. Each recovery resumes
// exactly at its checkpoint's emission counts.
TEST_F(RecoveryTest, RecoveredEngineRecoversAgain) {
  const std::vector<WRow> rows = WorkloadRows(48);
  constexpr size_t kFirstStop = 16;
  constexpr size_t kSecondStop = 32;
  std::vector<std::vector<std::string>> oracle;
  {
    Engine e(testutil::SyncOptions());
    WorkloadDdl(e);
    std::vector<int> qids = WorkloadSubmit(e);
    WorkloadFeed(e, rows, 0, 0, rows.size());
    WorkloadSeal(e);
    oracle = WorkloadTake(e, qids);
  }
  auto recovered_qids = [](Engine& e) {
    std::map<std::string, int> by_sql;
    for (const ContinuousQueryInfo& q : e.Queries()) by_sql[q.sql] = q.id;
    std::vector<int> qids;
    for (const std::string& sql : WorkloadQueries()) {
      EXPECT_EQ(by_sql.count(sql), 1u) << sql;
      qids.push_back(by_sql[sql]);
    }
    return qids;
  };
  auto emission_counts = [](Engine& e, const std::vector<int>& qids) {
    std::vector<size_t> counts;
    for (int q : qids) counts.push_back(e.GetFactory(q)->Stats().emissions);
    return counts;
  };
  auto expect_slice = [&](const std::vector<std::vector<std::string>>& got,
                          const std::vector<size_t>& from,
                          const std::vector<size_t>& to) {
    ASSERT_EQ(got.size(), oracle.size());
    for (size_t q = 0; q < oracle.size(); ++q) {
      ASSERT_LE(from[q], to[q]);
      ASSERT_LE(to[q], oracle[q].size());
      EXPECT_EQ(got[q], std::vector<std::string>(oracle[q].begin() + from[q],
                                                 oracle[q].begin() + to[q]))
          << "query " << q;
    }
  };

  std::vector<size_t> first_cut;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kInterval));
    ASSERT_TRUE(e.recovery_status().ok());
    WorkloadDdl(e);
    const std::vector<int> qids = WorkloadSubmit(e);
    WorkloadFeed(e, rows, 0, 0, kFirstStop);
    first_cut = emission_counts(e, qids);
    ASSERT_TRUE(e.Checkpoint().ok());
  }

  std::vector<size_t> second_cut;
  {
    Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kInterval));
    ASSERT_TRUE(rec.recovery_status().ok())
        << rec.recovery_status().ToString();
    const std::vector<int> qids = recovered_qids(rec);
    ASSERT_EQ(rec.GetBasket("s")->HighSeq(), kFirstStop);
    ASSERT_EQ(rec.GetBasket("r")->HighSeq(), kFirstStop);
    WorkloadFeed(rec, rows, kFirstStop, kFirstStop, kSecondStop);
    second_cut = emission_counts(rec, qids);
    ASSERT_NO_FATAL_FAILURE(
        expect_slice(WorkloadTake(rec, qids), first_cut, second_cut));
    ASSERT_TRUE(rec.Checkpoint().ok());
  }

  Engine again(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kInterval));
  ASSERT_TRUE(again.recovery_status().ok())
      << again.recovery_status().ToString();
  const std::vector<int> qids = recovered_qids(again);
  // Rows fed after the first recovery were logged: go-live hooked both
  // replayed streams.
  ASSERT_EQ(again.GetBasket("s")->HighSeq(), kSecondStop);
  ASSERT_EQ(again.GetBasket("r")->HighSeq(), kSecondStop);
  WorkloadFeed(again, rows, kSecondStop, kSecondStop, rows.size());
  WorkloadSeal(again);
  const std::vector<std::vector<std::string>> got = WorkloadTake(again, qids);
  for (size_t q = 0; q < got.size(); ++q) {
    EXPECT_TRUE(IsSuffixOf(got[q], oracle[q])) << "query " << q;
  }
  std::vector<size_t> ends;
  for (const auto& per_query : oracle) ends.push_back(per_query.size());
  ASSERT_NO_FATAL_FAILURE(expect_slice(got, second_cut, ends));

  // Two restarts later, the catalog log still holds each statement and
  // each submit exactly once.
  auto scan = storage::ReadWalFile(dir_ + "/catalog.wal");
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  std::map<std::string, int> statements;
  std::map<std::string, int> submits;
  for (const storage::WalRecord& rec : scan->records) {
    if (rec.type == storage::WalRecordType::kStatement) {
      auto sql = storage::DecodeStatement(rec);
      ASSERT_TRUE(sql.ok());
      ++statements[*sql];
    } else if (rec.type == storage::WalRecordType::kSubmit) {
      auto sub = storage::DecodeSubmit(rec);
      ASSERT_TRUE(sub.ok());
      ++submits[sub->sql];
    } else {
      ADD_FAILURE() << "unexpected catalog record type "
                    << static_cast<int>(rec.type);
    }
  }
  EXPECT_EQ(statements.size(), 2u);
  for (const auto& [sql, n] : statements) EXPECT_EQ(n, 1) << sql;
  EXPECT_EQ(submits.size(), WorkloadQueries().size());
  for (const auto& [sql, n] : submits) EXPECT_EQ(n, 1) << sql;
}

// RemoveContinuous is logged and replayed: a removed query stays removed
// after restart, and the survivors still match the oracle.
TEST_F(RecoveryTest, RemoveContinuousSurvivesRestart) {
  const std::vector<WRow> rows = WorkloadRows(24);
  std::vector<int> qids;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
    WorkloadDdl(e);
    qids = WorkloadSubmit(e);
    WorkloadFeed(e, rows, 0, 0, 12);
    ASSERT_TRUE(e.RemoveContinuous(qids[1]).ok());
    WorkloadFeed(e, rows, 12, 12, rows.size());
  }
  Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  std::map<std::string, int> by_sql;
  for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
  const std::vector<std::string> sqls = WorkloadQueries();
  EXPECT_EQ(by_sql.count(sqls[1]), 0u) << "removed query resurrected";
  EXPECT_EQ(by_sql.size(), sqls.size() - 1);
  WorkloadSeal(rec);
  for (const auto& [sql, id] : by_sql) {
    auto r = rec.TakeResults(id);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->size(), 0u) << sql;
  }
}

// A tier-F alias whose FOUNDING query was removed before the last
// checkpoint: the founder's token has no snapshot entry, so its replay
// restores stale submit-time origins — below the WAL truncation floor
// once a second checkpoint cut the logs. The surviving alias's snapshot
// progress must be re-applied when its kSubmit replays, or recovery
// re-reads rows that no longer exist / re-emits delivered output.
TEST_F(RecoveryTest, AliasRestoresSnapshotProgressAfterFounderRemoval) {
  const std::vector<WRow> rows = WorkloadRows(36);
  // The stream-stream join: not tier-P eligible, so the alias shares the
  // factory directly (tier F) and the restored FACTORY origins — not a
  // shared node's snapshot-restored origin — are what recovery must fix.
  const std::string sql = WorkloadQueries()[4];

  // Oracle: same submit/remove schedule on a transient engine.
  std::vector<std::string> oracle;
  {
    Engine e(testutil::SyncOptions());
    WorkloadDdl(e);
    auto a = e.SubmitContinuous(sql, testutil::WithMode(ExecMode::kIncremental));
    auto b = e.SubmitContinuous(sql, testutil::WithMode(ExecMode::kIncremental));
    ASSERT_TRUE(a.ok() && b.ok());
    WorkloadFeed(e, rows, 0, 0, 12);
    ASSERT_TRUE(e.RemoveContinuous(*a).ok());
    WorkloadFeed(e, rows, 12, 12, rows.size());
    WorkloadSeal(e);
    auto r = e.TakeResults(*b);
    ASSERT_TRUE(r.ok());
    oracle = testutil::EmissionStrings(*r);
    ASSERT_GT(oracle.size(), 3u);
  }

  uint64_t at_ckpt = 0;  // alias emissions already counted at checkpoint
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
    ASSERT_TRUE(e.recovery_status().ok());
    WorkloadDdl(e);
    auto a = e.SubmitContinuous(sql, testutil::WithMode(ExecMode::kIncremental));
    auto b = e.SubmitContinuous(sql, testutil::WithMode(ExecMode::kIncremental));
    ASSERT_TRUE(a.ok() && b.ok());
    WorkloadFeed(e, rows, 0, 0, 12);
    ASSERT_TRUE(e.RemoveContinuous(*a).ok());
    at_ckpt = e.GetFactory(*b)->Stats().emissions;
    // Two checkpoints: the second truncates the WALs to the first's
    // horizon, making the founder's submit-time origins unreplayable.
    ASSERT_TRUE(e.Checkpoint().ok());
    ASSERT_TRUE(e.Checkpoint().ok());
    WorkloadFeed(e, rows, 12, 12, 24);
  }

  Engine rec(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  std::map<std::string, int> by_sql;
  for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
  ASSERT_EQ(by_sql.size(), 1u) << "only the alias should survive";
  const uint64_t lo = rec.GetBasket("s")->HighSeq();
  ASSERT_LE(lo, rows.size());
  WorkloadFeed(rec, rows, lo, lo, rows.size());
  WorkloadSeal(rec);
  auto r = rec.TakeResults(by_sql[sql]);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<std::string> got = testutil::EmissionStrings(*r);
  ASSERT_TRUE(IsSuffixOf(got, oracle));
  EXPECT_LE(oracle.size() - got.size(), at_ckpt)
      << "recovery lost emissions the checkpoint never covered";
}

// A replayed WAL tail longer than the basket bound. With a checkpoint
// every 100 K rows, the log holds everything since the PREVIOUS
// checkpoint — 150 K rows at restart against a 64 Ki-row bound — and the
// restored cursors have already passed the first 100 K of them, so no
// fire releases those rows. Recovery must position the restored readers
// (a node tail, a full-reevaluation window, a per-batch filter) at their
// next read and drop the passed rows as they replay, instead of refusing
// with "basket full and nothing to pump". The two incremental ROWS
// tails share one node but need different rows: the shorter window's
// next read lies 3000 rows past the longer one's, so the node reader
// must wait at the slower tail, not at whichever restores first.
// Emissions taken before the last checkpoint plus everything the
// recovered engine emits must equal an uninterrupted run.
TEST_F(RecoveryTest, ReplayTailLongerThanTheBasketBoundRecovers) {
  constexpr int64_t kRows = 250000;
  constexpr int64_t kResumeRows = 50000;
  constexpr int64_t kBatch = 1000;
  constexpr int64_t kCheckpointEvery = 100000;
  const std::vector<std::pair<std::string, ExecMode>> queries = {
      {"SELECT count(*), sum(v) FROM s [ROWS 1000 SLIDE 500]",
       ExecMode::kIncremental},
      {"SELECT count(*), sum(v) FROM s [ROWS 4000 SLIDE 500]",
       ExecMode::kIncremental},
      {"SELECT count(*), max(v) FROM s [ROWS 1000 SLIDE 500]",
       ExecMode::kFullReeval},
      {"SELECT ts, v FROM s WHERE v = 7", ExecMode::kFullReeval},
  };
  auto options = [&](bool durable) {
    EngineOptions o = durable
                          ? DurableSyncOptions(dir_, nullptr,
                                               FsyncPolicy::kNever)
                          : testutil::SyncOptions();
    o.basket_limits = BasketLimits{/*max_rows=*/1 << 16};
    return o;
  };
  auto push = [](Engine& e, int64_t lo, int64_t hi) {
    for (int64_t b = lo; b < hi; b += kBatch) {
      BatPtr ts = Bat::MakeEmpty(TypeId::kTs);
      BatPtr v = Bat::MakeEmpty(TypeId::kI64);
      for (int64_t i = b; i < b + kBatch; ++i) {
        ts->AppendI64(i * 1000);
        v->AppendI64((i * 7919) % 1000);
      }
      ASSERT_TRUE(e.PushColumns("s", {ts, v}).ok()) << "row " << b;
      e.Pump();
    }
  };
  auto take = [](Engine& e, const std::vector<int>& qids,
                 std::vector<std::vector<std::string>>* out) {
    out->resize(qids.size());
    for (size_t q = 0; q < qids.size(); ++q) {
      auto r = e.TakeResults(qids[q]);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      for (std::string& row : testutil::EmissionStrings(*r)) {
        (*out)[q].push_back(std::move(row));
      }
    }
  };

  std::vector<std::vector<std::string>> oracle;
  {
    Engine e(options(/*durable=*/false));
    ASSERT_TRUE(e.Execute("CREATE STREAM s (ts timestamp, v int)").ok());
    std::vector<int> qids;
    for (const auto& [sql, mode] : queries) {
      auto id = e.SubmitContinuous(sql, testutil::WithMode(mode));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      qids.push_back(*id);
    }
    push(e, 0, kRows + kResumeRows);
    take(e, qids, &oracle);
  }

  // Durable run: emissions are taken at every checkpoint, so `got` holds
  // exactly what the last checkpoint covered when the engine shuts down.
  std::vector<std::vector<std::string>> got;
  {
    Engine e(options(/*durable=*/true));
    ASSERT_TRUE(e.recovery_status().ok());
    ASSERT_TRUE(e.Execute("CREATE STREAM s (ts timestamp, v int)").ok());
    std::vector<int> qids;
    for (const auto& [sql, mode] : queries) {
      auto id = e.SubmitContinuous(sql, testutil::WithMode(mode));
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      qids.push_back(*id);
    }
    for (int64_t lo = 0; lo < kRows; lo += kCheckpointEvery) {
      const int64_t hi = std::min(kRows, lo + kCheckpointEvery);
      push(e, lo, hi);
      if (hi % kCheckpointEvery == 0) {
        take(e, qids, &got);
        ASSERT_TRUE(e.Checkpoint().ok());
      }
    }
  }

  Engine rec(options(/*durable=*/true));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  std::vector<int> qids;
  for (const auto& [sql, mode] : queries) {
    for (const ContinuousQueryInfo& q : rec.Queries()) {
      if (q.sql == sql) qids.push_back(q.id);
    }
  }
  ASSERT_EQ(qids.size(), queries.size());
  ASSERT_EQ(rec.GetBasket("s")->HighSeq(), static_cast<uint64_t>(kRows));
  // Both incremental tails hang off one node.
  ASSERT_EQ(rec.GetSharingStats().prefix_hits, 1u);
  // The replayed tail really was longer than the basket bound.
  EXPECT_GT(rec.metrics().GetCounter("recovery.replayed_rows")->Value(),
            uint64_t{1} << 16);
  push(rec, kRows, kRows + kResumeRows);
  take(rec, qids, &got);
  for (size_t q = 0; q < queries.size(); ++q) {
    EXPECT_EQ(got[q], oracle[q]) << queries[q].first;
  }
}

// The tentpole: enumerate every crash point of the scripted run (two
// checkpoints, fsync=interval) under both loss styles and hold recovery
// to the suffix + checkpoint-bound contract.
TEST_F(RecoveryTest, CrashPointEnumerationMatchesOracle) {
  const std::vector<WRow> rows = WorkloadRows(40);
  const std::vector<size_t> ckpts = {14, 28};
  const FsyncPolicy policy = FsyncPolicy::kInterval;

  std::vector<std::vector<std::string>> oracle;
  ScriptMarks oracle_marks;
  ASSERT_NO_FATAL_FAILURE(
      RunOracle(rows, ckpts, policy, &oracle, &oracle_marks));

  // Counting run: identical script under an unarmed CrashEnv. Its op
  // marks index the same op sequence every armed run replays pre-trip.
  int64_t n_ops = 0;
  ScriptMarks marks;
  {
    const std::string cdir = MakeTempDir("count");
    CrashEnv env;
    {
      Engine e(DurableSyncOptions(cdir, &env, policy));
      RunScript(e, rows, ckpts, &env, &marks);
    }
    n_ops = env.OpCount();
    RemoveDirRecursive(cdir);
  }
  ASSERT_GT(n_ops, 60) << "enumeration would be vacuous";
  // Determinism cross-check: buffering must not change what fires when.
  ASSERT_EQ(marks.counts, oracle_marks.counts);

#ifdef DC_SANITIZED_BUILD
  int64_t stride = 9;
#else
  int64_t stride = 1;
#endif
  if (const char* s = std::getenv("DC_CRASH_STRIDE")) stride = atoll(s);
  if (stride < 1) stride = 1;

  for (const CrashEnv::Style style :
       {CrashEnv::Style::kDropTail, CrashEnv::Style::kTorn}) {
    const int64_t offset =
        style == CrashEnv::Style::kTorn ? stride / 2 : 0;
    for (int64_t k = offset; k < n_ops; k += stride) {
      SCOPED_TRACE(StrFormat(
          "trip=%lld/%lld style=%s", static_cast<long long>(k),
          static_cast<long long>(n_ops),
          style == CrashEnv::Style::kTorn ? "torn" : "drop-tail"));
      const std::string kdir = MakeTempDir("crash");
      CrashEnv env;
      env.ArmTrip(k, style, /*torn_seed=*/0xC0FFEEull ^
                                static_cast<uint64_t>(k) * 2654435761ull);
      {
        Engine e(DurableSyncOptions(kdir, &env, policy));
        RunScript(e, rows, ckpts, &env, nullptr);
      }
      ASSERT_TRUE(env.tripped());
      std::vector<std::vector<std::string>> got;
      ASSERT_NO_FATAL_FAILURE(RecoverAndResume(kdir, policy, rows, &got));
      ASSERT_NO_FATAL_FAILURE(
          AssertRecoveredAgainstOracle(got, oracle, marks, k));
      RemoveDirRecursive(kdir);
    }
  }
}

// Every fsync policy honors the same contract at representative mid-run
// crash points (kNever only persists via checkpoints and clean Sync;
// kAlways tightens the loss window to at most the in-flight record).
TEST_F(RecoveryTest, FsyncPolicySweepAtRepresentativeCrashPoints) {
  const std::vector<WRow> rows = WorkloadRows(40);
  const std::vector<size_t> ckpts = {14, 28};

  for (const FsyncPolicy policy :
       {FsyncPolicy::kNever, FsyncPolicy::kInterval, FsyncPolicy::kAlways}) {
    std::vector<std::vector<std::string>> oracle;
    ScriptMarks oracle_marks;
    ASSERT_NO_FATAL_FAILURE(
        RunOracle(rows, ckpts, policy, &oracle, &oracle_marks));

    int64_t n_ops = 0;
    ScriptMarks marks;
    {
      const std::string cdir = MakeTempDir("count");
      CrashEnv env;
      {
        Engine e(DurableSyncOptions(cdir, &env, policy));
        RunScript(e, rows, ckpts, &env, &marks);
      }
      n_ops = env.OpCount();
      RemoveDirRecursive(cdir);
    }
    ASSERT_GT(n_ops, 20);

    for (const CrashEnv::Style style :
         {CrashEnv::Style::kDropTail, CrashEnv::Style::kTorn}) {
      for (const int64_t k :
           {n_ops / 4, n_ops / 2, (3 * n_ops) / 4, n_ops - 1}) {
        SCOPED_TRACE(StrFormat(
            "policy=%d trip=%lld style=%s", static_cast<int>(policy),
            static_cast<long long>(k),
            style == CrashEnv::Style::kTorn ? "torn" : "drop-tail"));
        const std::string kdir = MakeTempDir("sweep");
        CrashEnv env;
        env.ArmTrip(k, style, 0xFACEull + static_cast<uint64_t>(k));
        {
          Engine e(DurableSyncOptions(kdir, &env, policy));
          RunScript(e, rows, ckpts, &env, nullptr);
        }
        std::vector<std::vector<std::string>> got;
        ASSERT_NO_FATAL_FAILURE(RecoverAndResume(kdir, policy, rows, &got));
        ASSERT_NO_FATAL_FAILURE(
            AssertRecoveredAgainstOracle(got, oracle, marks, k));
        RemoveDirRecursive(kdir);
      }
    }
  }
}

// Durability must be output-invisible: the durable engine's emissions
// equal a plain in-memory engine's, checkpoint calls and all.
TEST_F(RecoveryTest, DurabilityDoesNotChangeEmissions) {
  const std::vector<WRow> rows = WorkloadRows(36);
  std::vector<std::vector<std::string>> plain;
  {
    Engine e(testutil::SyncOptions());
    WorkloadDdl(e);
    std::vector<int> qids = WorkloadSubmit(e);
    WorkloadFeed(e, rows, 0, 0, rows.size());
    WorkloadSeal(e);
    plain = WorkloadTake(e, qids);
  }
  std::vector<std::vector<std::string>> durable;
  {
    Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kInterval));
    std::vector<int> qids = RunScript(e, rows, {12, 24}, nullptr, nullptr);
    WorkloadSeal(e);
    durable = WorkloadTake(e, qids);
  }
  EXPECT_EQ(durable, plain);
}

// Threaded engine with checkpoints racing the workers' fires: a second
// thread checkpoints every 5 ms while rows stream in, a restart recovers
// cleanly, and the resumed sync-mode run still lands on a suffix of the
// deterministic per-window oracle.
TEST(RecoveryThreaded, ConcurrentCheckpointsRecover) {
  const std::string dir = MakeTempDir("ckptloop");
  const std::vector<WRow> rows = WorkloadRows(240);

  std::vector<std::vector<std::string>> oracle;
  {
    Engine e(testutil::SyncOptions());
    WorkloadDdl(e);
    std::vector<int> qids = WorkloadSubmit(e);
    WorkloadFeed(e, rows, 0, 0, rows.size());
    WorkloadSeal(e);
    oracle = WorkloadTake(e, qids);
  }

  {
    EngineOptions o = testutil::Threaded(2);
    o.durability.dir = dir;
    o.durability.fsync = FsyncPolicy::kInterval;
    o.durability.fsync_interval_batches = 8;
    Engine e(o);
    ASSERT_TRUE(e.recovery_status().ok());
    WorkloadDdl(e);
    WorkloadSubmit(e);
    std::atomic<bool> stop{false};
    std::thread checkpointer([&] {
      while (!stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        EXPECT_TRUE(e.Checkpoint().ok());
      }
    });
    // Joined before `e` goes, also when an assertion below returns early.
    struct Joiner {
      std::atomic<bool>& stop;
      std::thread& t;
      ~Joiner() {
        stop.store(true);
        t.join();
      }
    } joiner{stop, checkpointer};
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(
          e.PushRow("s", {Value::Ts(rows[i].ts_us), Value::I64(rows[i].g),
                          Value::I64(rows[i].v),
                          Value::F64(static_cast<double>(rows[i].w16) / 16.0)})
              .ok());
      ASSERT_TRUE(e.PushRow("r", {Value::Ts(rows[i].ts_us),
                                  Value::I64(rows[i].v % 5),
                                  Value::I64(rows[i].w16)})
                      .ok());
      if (i % 10 == 9) {
        ASSERT_TRUE(e.Heartbeat("s", rows[i].ts_us).ok());
        ASSERT_TRUE(e.Heartbeat("r", rows[i].ts_us).ok());
      }
      if (i % 48 == 47) {
        std::this_thread::sleep_for(std::chrono::milliseconds(8));
      }
    }
    ASSERT_TRUE(e.WaitIdle());
    EXPECT_GE(e.metrics().GetCounter("snapshot.writes")->Value(), 1u);
  }

  Engine rec(DurableSyncOptions(dir, nullptr, FsyncPolicy::kInterval));
  ASSERT_TRUE(rec.recovery_status().ok())
      << rec.recovery_status().ToString();
  EXPECT_GT(rec.metrics().GetCounter("recovery.replayed_records")->Value(),
            0u);
  std::map<std::string, int> by_sql;
  for (const ContinuousQueryInfo& q : rec.Queries()) by_sql[q.sql] = q.id;
  std::vector<int> qids;
  for (const std::string& sql : WorkloadQueries()) {
    ASSERT_EQ(by_sql.count(sql), 1u) << sql;
    qids.push_back(by_sql[sql]);
  }
  const uint64_t lo_s = rec.GetBasket("s")->HighSeq();
  const uint64_t lo_r = rec.GetBasket("r")->HighSeq();
  ASSERT_EQ(lo_s, rows.size());  // graceful shutdown synced everything
  ASSERT_EQ(lo_r, rows.size());
  WorkloadSeal(rec);
  const std::vector<std::vector<std::string>> got = WorkloadTake(rec, qids);
  for (size_t q = 0; q < got.size(); ++q) {
    EXPECT_TRUE(IsSuffixOf(got[q], oracle[q])) << "query " << q;
  }
  RemoveDirRecursive(dir);
}

TEST_F(RecoveryTest, DurabilityMetricsAreExposed) {
  const std::vector<WRow> rows = WorkloadRows(24);
  Engine e(DurableSyncOptions(dir_, nullptr, FsyncPolicy::kAlways));
  // Two checkpoints: a WAL is only truncated to the PREVIOUS checkpoint's
  // horizon, so the first checkpoint snapshots but cannot cut yet.
  std::vector<int> qids = RunScript(e, rows, {8, 16}, nullptr, nullptr);
  WorkloadSeal(e);
  WorkloadTake(e, qids);
  EXPECT_GT(e.metrics().GetCounter("wal.records")->Value(), 0u);
  EXPECT_GT(e.metrics().GetCounter("wal.bytes")->Value(), 0u);
  EXPECT_GT(e.metrics().GetCounter("wal.syncs")->Value(), 0u);
  EXPECT_GT(e.metrics().GetCounter("wal.truncations")->Value(), 0u);
  EXPECT_EQ(e.metrics().GetCounter("snapshot.writes")->Value(), 2u);
  EXPECT_GT(e.metrics().GetCounter("snapshot.bytes")->Value(), 0u);
}

}  // namespace
}  // namespace dc
