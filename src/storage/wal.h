// Copyright 2026 The DataCell Authors.
//
// Per-basket write-ahead log (docs/DURABILITY.md). Every stream basket
// gets an append-only log of its batch-ordinal history (the PR 2 batch
// log is the unit of logging), and the engine keeps one extra "catalog"
// log of DDL and continuous-query submissions. Records are
// length-prefixed and CRC32-checksummed; a reader stops at the first
// invalid record, so a torn tail degrades to a shorter-but-consistent
// prefix instead of garbage.
//
// All file I/O goes through the injectable WalEnv/WalFile abstraction so
// the crash-point harness (tests/crash_util.h) can buffer unsynced
// writes, tear them mid-record, and swallow renames deterministically.
//
// Locking: WalWriter::mu_ has rank kWal (105) — above kBasket (100), so
// the basket append hook may log while holding the basket lock, and the
// same mutex serializes catalog-log appends from the submit path (which
// runs under kSharingRegistry/kEngine, both < 105).

#ifndef DATACELL_STORAGE_WAL_H_
#define DATACELL_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/bat/bat.h"
#include "src/monitor/metrics.h"
#include "src/util/result.h"
#include "src/util/status.h"
#include "src/util/sync.h"

namespace dc {
namespace storage {

/// IEEE CRC32 (reflected polynomial 0xEDB88320) over `n` bytes,
/// slice-by-8: eight table lookups per 8-byte word. Values match the
/// bytewise definition exactly, so existing logs keep verifying.
uint32_t Crc32(const void* data, size_t n);

// --------------------------------------------------------------------------
// Injectable file abstraction.
// --------------------------------------------------------------------------

/// An append-only file handle. The default implementation writes through
/// to the filesystem immediately and fsyncs on Sync(); test
/// implementations may buffer appends and lose them on simulated crash.
class WalFile {
 public:
  virtual ~WalFile() = default;
  virtual Status Append(std::string_view data) = 0;
  /// Makes all appended bytes durable (fsync).
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// Filesystem operations the durability layer performs. All paths are
/// plain strings; the engine never touches the filesystem except through
/// the WalEnv configured in EngineOptions::durability.
class WalEnv {
 public:
  virtual ~WalEnv() = default;
  /// Opens `path` for appending, creating it if missing. `truncate`
  /// discards existing contents.
  virtual Result<std::unique_ptr<WalFile>> Open(const std::string& path,
                                                bool truncate) = 0;
  /// Atomically replaces `to` with `from` (POSIX rename semantics).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status RemoveFile(const std::string& path) = 0;
  /// Makes directory-entry updates under `path` durable (fsync of the
  /// directory itself). Without it, a rename or file creation whose
  /// CONTENTS were fsynced can still vanish on power loss — the entry
  /// lives in the parent directory, not the file. Called after the
  /// snapshot rotation renames, after a log rewrite's rename, and after
  /// creating a fresh log file.
  virtual Status SyncDir(const std::string& path) = 0;
  /// Truncates `path` to exactly `len` bytes (drops a corrupt tail).
  virtual Status TruncateFile(const std::string& path, uint64_t len) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  /// mkdir -p.
  virtual Status CreateDirs(const std::string& path) = 0;

  /// The real-filesystem environment (process-lifetime singleton).
  static WalEnv* Default();
};

// --------------------------------------------------------------------------
// Record framing and codecs.
// --------------------------------------------------------------------------

/// Record type tags. Basket logs use 1-9, the catalog log 10-19,
/// snapshot files 30-39 (see snapshot.h).
enum class WalRecordType : uint8_t {
  // Basket log.
  kReset = 1,      // {start_seq u64, next_ordinal u64, watermark i64,
                   //  sealed u8} — log starts here; written at creation
                   //  and rewritten at the head on truncation.
  kBatch = 2,      // {ordinal u64, begin_seq u64, rows u64, ncols u32,
                   //  cols...} — one appended batch, post-clamp values.
  kHeartbeat = 3,  // {ts i64}
  kSeal = 4,       // {}
  // Catalog log.
  kStatement = 10,  // {sql str} — DDL / table DML, re-executed on replay.
  kSubmit = 11,     // continuous-query submission (see WalSubmit).
  kRemove = 12,     // {token u64}
};

/// One scanned record: the type tag plus the payload bytes after it.
/// `body` views the owning WalScan's buffer (WalScan::data), so a record
/// is valid only while some copy of its scan is alive.
struct WalRecord {
  WalRecordType type = WalRecordType::kReset;
  std::string_view body;
  uint64_t offset = 0;  // file offset of the record's frame header
};

/// Little-endian append-only byte sink used by all record codecs.
class WalEncoder {
 public:
  void Reserve(size_t n) { buf_.reserve(n); }
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF64(double v);
  void PutStr(std::string_view s);  // u32 length prefix + bytes
  void PutBytes(const void* data, size_t n);
  void PutZeros(size_t n) { buf_.append(n, '\0'); }
  std::string Take() { return std::move(buf_); }
  const std::string& buf() const { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian reader (memcpy loads, so any alignment
/// is fine); underflow latches ok()==false and all further Gets return
/// zero values.
class WalDecoder {
 public:
  explicit WalDecoder(std::string_view data) : data_(data) {}
  bool ok() const { return ok_; }
  bool Done() const { return pos_ == data_.size(); }
  uint8_t GetU8();
  uint32_t GetU32();
  uint64_t GetU64();
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  double GetF64();
  std::string GetStr();
  std::string_view GetBytes(size_t n);

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Serializes one column for a kBatch record: {type u8, n u64,
/// has_nulls u8, [n null flags u8], values} with fixed-width values as
/// n little-endian words and strings as n length-prefixed byte runs.
/// Little-endian hosts copy fixed-width columns in bulk.
void EncodeBat(WalEncoder& enc, const Bat& b);
/// Decodes one column (fixed-width columns in bulk); error on malformed
/// input.
Result<BatPtr> DecodeBat(WalDecoder& dec);

/// kReset payload: where the log starts and the basket state (watermark,
/// sealed flag) accumulated by everything truncated away before it.
struct WalReset {
  uint64_t start_seq = 0;
  uint64_t next_ordinal = 0;
  int64_t watermark = INT64_MIN;
  bool sealed = false;
};

/// Decoded kBatch payload.
struct WalBatch {
  uint64_t ordinal = 0;
  uint64_t begin_seq = 0;
  uint64_t rows = 0;
  std::vector<BatPtr> cols;
};

/// kSubmit payload: everything needed to re-run SubmitContinuous
/// deterministically plus the initial factory progress (per-input basket
/// origins) captured right after the original submit validated.
struct WalSubmit {
  uint64_t token = 0;  // submit sequence number, assigned by the engine
  std::string sql;
  uint8_t mode = 0;  // core::ExecMode
  std::string name;  // user-provided query name ("" = engine default)
  std::vector<uint64_t> origins;
  uint64_t batch_cursor = 0;
  std::string node_label;   // "" = this submit created no shared node
  uint64_t node_origin = 0;  // the node's origin_seq at creation
};

std::string EncodeReset(const WalReset& r);
std::string EncodeBatch(uint64_t ordinal, uint64_t begin_seq, uint64_t rows,
                        const std::vector<BatPtr>& cols);
std::string EncodeHeartbeat(int64_t ts);
std::string EncodeSeal();
std::string EncodeStatement(std::string_view sql);
std::string EncodeSubmit(const WalSubmit& s);
std::string EncodeRemove(uint64_t token);

Result<WalReset> DecodeReset(const WalRecord& rec);
Result<WalBatch> DecodeBatch(const WalRecord& rec);
Result<int64_t> DecodeHeartbeat(const WalRecord& rec);
Result<std::string> DecodeStatement(const WalRecord& rec);
Result<WalSubmit> DecodeSubmit(const WalRecord& rec);
Result<uint64_t> DecodeRemove(const WalRecord& rec);

/// Frames `payload` as [u32 len][u32 crc][payload] — what WalWriter
/// appends and ReadWalFile parses. Exposed for the fuzzer.
std::string FrameRecord(std::string_view payload);

/// 8-byte magic at offset 0 of every WAL and snapshot file.
inline constexpr char kWalMagic[8] = {'D', 'C', 'W', 'A', 'L', '0', '0', '1'};

/// Result of scanning a log file: every record up to the first invalid
/// byte, the length of that valid prefix, and whether the scan consumed
/// the whole file (clean_tail == false means a torn/corrupt tail was
/// dropped at `valid_bytes`). `data` holds the file's bytes; the record
/// bodies view into it, and it lives on the heap, so moving or copying
/// the scan leaves them valid.
struct WalScan {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;
  bool clean_tail = true;
  std::shared_ptr<const std::string> data;
};

/// Reads a log file from the real filesystem in one sized read (recovery
/// always reads what actually survived) and CRC-checks every frame.
/// Missing file -> NotFound. A file without a valid magic scans as zero
/// records with valid_bytes == 0.
Result<WalScan> ReadWalFile(const std::string& path);

// --------------------------------------------------------------------------
// WalWriter.
// --------------------------------------------------------------------------

/// When appends are made durable. kInterval syncs every
/// `fsync_interval` records; checkpoints always force a sync.
enum class FsyncPolicy { kNever, kInterval, kAlways };

/// Shared metric handles, resolved once by the engine.
struct WalCounters {
  std::shared_ptr<monitor::Counter> records;
  std::shared_ptr<monitor::Counter> bytes;
  std::shared_ptr<monitor::Counter> syncs;
  std::shared_ptr<monitor::Counter> truncations;
};

/// Appends framed records to one log file under its own kWal mutex.
/// Thread-safe; used both by basket hooks (under the basket lock) and by
/// the engine's submit path for the catalog log.
class WalWriter {
 public:
  /// Opens `path` for appending. A missing file is created with the
  /// magic header; an existing file with a corrupt tail is truncated to
  /// its valid prefix first so new appends extend the good bytes.
  /// `scan`, when given, is the caller's ReadWalFile(path) of the
  /// existing file (recovery has just replayed it) and saves a re-read.
  static Result<std::unique_ptr<WalWriter>> Open(WalEnv* env, std::string path,
                                                 FsyncPolicy policy,
                                                 int fsync_interval,
                                                 WalCounters counters,
                                                 const WalScan* scan = nullptr);

  /// Appends one framed record (one WalFile::Append of header plus
  /// payload, framed in a reused buffer) and applies the fsync policy.
  Status Append(std::string_view payload);

  /// Forces all appended records durable regardless of policy.
  Status Sync();

  /// Rewrites the log, dropping every batch wholly below `horizon` and
  /// folding the dropped prefix (watermark advances, ordinal/seq
  /// positions, seal) into a fresh kReset head record. Only each batch's
  /// 24-byte header is decoded; the kept suffix is copied verbatim (its
  /// frames were CRC-checked by the scan). Atomic via tmp + rename; the
  /// writer continues on the rewritten file.
  Status TruncateTo(uint64_t horizon);

  const std::string& path() const { return path_; }

 private:
  WalWriter(WalEnv* env, std::string path, FsyncPolicy policy,
            int fsync_interval, WalCounters counters)
      : env_(env),
        path_(std::move(path)),
        policy_(policy),
        fsync_interval_(fsync_interval < 1 ? 1 : fsync_interval),
        counters_(std::move(counters)) {}

  Status SyncLocked() DC_REQUIRES(mu_);

  WalEnv* const env_;
  const std::string path_;
  const FsyncPolicy policy_;
  const int fsync_interval_;
  WalCounters counters_;

  Mutex mu_{LockRank::kWal};
  std::unique_ptr<WalFile> file_ DC_GUARDED_BY(mu_);
  int unsynced_ DC_GUARDED_BY(mu_) = 0;
  // Frame buffer reused by Append: grows to the largest record once.
  std::string frame_ DC_GUARDED_BY(mu_);
};

}  // namespace storage
}  // namespace dc

#endif  // DATACELL_STORAGE_WAL_H_
