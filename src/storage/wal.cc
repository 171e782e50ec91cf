// Copyright 2026 The DataCell Authors.

#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstring>
#include <optional>
#include <span>

#include "monitor/trace.h"
#include "util/string_util.h"

namespace dc {
namespace storage {

namespace {

/// Records larger than this are treated as corruption (a torn length
/// field must not trigger a gigabyte allocation).
constexpr uint32_t kMaxRecordBytes = 1u << 30;

/// Record frame header: {payload_len u32, crc32 u32}.
constexpr size_t kWalFrameHeaderBytes = 8;

/// kBatch header: {ordinal u64, begin_seq u64, rows u64}.
constexpr size_t kBatchHeaderBytes = 24;

/// Parent directory of `path` ("." when there is no separator), for the
/// directory fsyncs that make renames and file creations durable.
std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  return slash == 0 ? "/" : path.substr(0, slash);
}

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/// Host <-> little-endian word order (the identity on little-endian
/// hosts). Loads and stores go through memcpy: WAL buffers are unaligned.
template <typename T>
T ToLittle(T v) {
  if constexpr (kLittleEndian) {
    return v;
  } else if constexpr (sizeof(T) == 4) {
    return __builtin_bswap32(v);
  } else {
    return __builtin_bswap64(v);
  }
}

template <typename T>
T LoadLittle(const void* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return ToLittle(v);
}

template <typename T>
void StoreLittle(void* p, T v) {
  v = ToLittle(v);
  std::memcpy(p, &v, sizeof(v));
}

/// Slice-by-8 tables: t[0] is the bytewise IEEE table and t[k][b] the
/// CRC register after byte b is followed by k zero bytes, so one 8-byte
/// word folds in with eight independent lookups.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

const Crc32Tables& Crc32Slices() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const Crc32Tables& t = Crc32Slices();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLittle<uint32_t>(p) ^ c;
    const uint32_t hi = LoadLittle<uint32_t>(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

// --------------------------------------------------------------------------
// Default (real filesystem) environment.
// --------------------------------------------------------------------------

namespace {

class PosixWalFile : public WalFile {
 public:
  explicit PosixWalFile(int fd) : fd_(fd) {}
  ~PosixWalFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(std::string_view data) override {
    const char* p = data.data();
    size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(
            StrFormat("wal write failed: %s", std::strerror(errno)));
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::Internal(
          StrFormat("wal fsync failed: %s", std::strerror(errno)));
    }
    return Status::OK();
  }

  Status Close() override {
    if (fd_ >= 0 && ::close(fd_) != 0) {
      fd_ = -1;
      return Status::Internal(
          StrFormat("wal close failed: %s", std::strerror(errno)));
    }
    fd_ = -1;
    return Status::OK();
  }

 private:
  int fd_;
};

class PosixWalEnv : public WalEnv {
 public:
  Result<std::unique_ptr<WalFile>> Open(const std::string& path,
                                        bool truncate) override {
    int flags = O_CREAT | O_WRONLY | O_APPEND;
    if (truncate) flags |= O_TRUNC;
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      return Status::Internal(
          StrFormat("open %s failed: %s", path.c_str(), std::strerror(errno)));
    }
    return {std::make_unique<PosixWalFile>(fd)};
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return Status::Internal(StrFormat("rename %s -> %s failed: %s",
                                        from.c_str(), to.c_str(),
                                        std::strerror(errno)));
    }
    return Status::OK();
  }

  Status RemoveFile(const std::string& path) override {
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::Internal(StrFormat("unlink %s failed: %s", path.c_str(),
                                        std::strerror(errno)));
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override {
    const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
      return Status::Internal(StrFormat("open dir %s failed: %s",
                                        path.c_str(), std::strerror(errno)));
    }
    const int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
      return Status::Internal(StrFormat("fsync dir %s failed: %s",
                                        path.c_str(), std::strerror(errno)));
    }
    return Status::OK();
  }

  Status TruncateFile(const std::string& path, uint64_t len) override {
    if (::truncate(path.c_str(), static_cast<off_t>(len)) != 0) {
      return Status::Internal(StrFormat("truncate %s failed: %s", path.c_str(),
                                        std::strerror(errno)));
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Status CreateDirs(const std::string& path) override {
    for (size_t i = 1; i <= path.size(); ++i) {
      if (i < path.size() && path[i] != '/') continue;
      const std::string partial = path.substr(0, i);
      if (partial.empty() || partial == "/") continue;
      if (::mkdir(partial.c_str(), 0755) == 0) {
        // The new entry lives in the parent; fsync it so the directory
        // itself survives power loss.
        DC_RETURN_NOT_OK(SyncDir(DirName(partial)));
      } else if (errno != EEXIST) {
        return Status::Internal(StrFormat("mkdir %s failed: %s",
                                          partial.c_str(),
                                          std::strerror(errno)));
      }
    }
    return Status::OK();
  }
};

}  // namespace

WalEnv* WalEnv::Default() {
  static PosixWalEnv* env = new PosixWalEnv();
  return env;
}


// --------------------------------------------------------------------------
// Encoder / decoder.
// --------------------------------------------------------------------------

void WalEncoder::PutU32(uint32_t v) {
  char b[sizeof(v)];
  StoreLittle(b, v);
  buf_.append(b, sizeof(b));
}

void WalEncoder::PutU64(uint64_t v) {
  char b[sizeof(v)];
  StoreLittle(b, v);
  buf_.append(b, sizeof(b));
}

void WalEncoder::PutF64(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

void WalEncoder::PutStr(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(s.data(), s.size());
}

void WalEncoder::PutBytes(const void* data, size_t n) {
  buf_.append(static_cast<const char*>(data), n);
}

uint8_t WalDecoder::GetU8() {
  const std::string_view b = GetBytes(1);
  return ok_ ? static_cast<uint8_t>(b[0]) : 0;
}

uint32_t WalDecoder::GetU32() {
  const std::string_view b = GetBytes(sizeof(uint32_t));
  return ok_ ? LoadLittle<uint32_t>(b.data()) : 0;
}

uint64_t WalDecoder::GetU64() {
  const std::string_view b = GetBytes(sizeof(uint64_t));
  return ok_ ? LoadLittle<uint64_t>(b.data()) : 0;
}

double WalDecoder::GetF64() { return std::bit_cast<double>(GetU64()); }

std::string WalDecoder::GetStr() {
  const uint32_t n = GetU32();
  return std::string(GetBytes(n));
}

std::string_view WalDecoder::GetBytes(size_t n) {
  if (!ok_ || n > data_.size() - pos_) {
    ok_ = false;
    return {};
  }
  std::string_view out = data_.substr(pos_, n);
  pos_ += n;
  return out;
}

// --------------------------------------------------------------------------
// Column codec.
// --------------------------------------------------------------------------

namespace {

/// Bytes EncodeBat writes for `b` (lets EncodeBatch reserve exactly).
size_t EncodedBatBytes(const Bat& b) {
  const uint64_t n = b.size();
  size_t bytes = 1 + 8 + 1 + (b.has_nulls() ? n : 0);
  switch (b.type()) {
    case TypeId::kBool:
      bytes += n;
      break;
    case TypeId::kI64:
    case TypeId::kTs:
    case TypeId::kF64:
      bytes += n * 8;
      break;
    case TypeId::kStr:
      for (uint64_t i = 0; i < n; ++i) bytes += 4 + b.StrAt(i).size();
      break;
  }
  return bytes;
}

/// Appends 8-byte values as little-endian words: one bulk copy on
/// little-endian hosts, a per-value byte swap elsewhere.
template <typename T>
void PutWords(WalEncoder& enc, std::span<const T> v) {
  static_assert(sizeof(T) == 8);
  if constexpr (kLittleEndian) {
    enc.PutBytes(v.data(), v.size_bytes());
  } else {
    for (T x : v) enc.PutU64(std::bit_cast<uint64_t>(x));
  }
}

/// Reads `n` little-endian 8-byte words into a fresh vector (the inverse
/// of PutWords); empty on underflow, with `dec` latched !ok().
template <typename T>
std::vector<T> GetWords(WalDecoder& dec, uint64_t n) {
  static_assert(sizeof(T) == 8);
  const std::string_view raw = dec.GetBytes(n * sizeof(T));
  std::vector<T> out;
  if (!dec.ok() || n == 0) return out;
  out.resize(n);
  if constexpr (kLittleEndian) {
    std::memcpy(out.data(), raw.data(), raw.size());
  } else {
    for (uint64_t i = 0; i < n; ++i) {
      out[i] = std::bit_cast<T>(LoadLittle<uint64_t>(raw.data() + 8 * i));
    }
  }
  return out;
}

}  // namespace

void EncodeBat(WalEncoder& enc, const Bat& b) {
  const uint64_t n = b.size();
  enc.PutU8(static_cast<uint8_t>(b.type()));
  enc.PutU64(n);
  const bool nulls = b.has_nulls();
  enc.PutU8(nulls ? 1 : 0);
  if (nulls) {
    // The bitmap holds 0/1 per row and may stop short of n (rows past
    // its end are non-null).
    const std::span<const uint8_t> flags = b.NullFlags();
    const size_t k = std::min<size_t>(flags.size(), n);
    enc.PutBytes(flags.data(), k);
    enc.PutZeros(n - k);
  }
  switch (b.type()) {
    case TypeId::kBool:
      enc.PutBytes(b.BoolData().data(), n);
      break;
    case TypeId::kI64:
    case TypeId::kTs:
      PutWords(enc, b.I64Data());
      break;
    case TypeId::kF64:
      PutWords(enc, b.F64Data());
      break;
    case TypeId::kStr:
      for (uint64_t i = 0; i < n; ++i) enc.PutStr(b.StrAt(i));
      break;
  }
}

Result<BatPtr> DecodeBat(WalDecoder& dec) {
  const uint8_t type_raw = dec.GetU8();
  const uint64_t n = dec.GetU64();
  const bool nulls = dec.GetU8() != 0;
  if (!dec.ok() || type_raw > static_cast<uint8_t>(TypeId::kTs)) {
    return Status::ParseError("wal: malformed column header");
  }
  if (n > kMaxRecordBytes) {
    return Status::ParseError("wal: implausible column length");
  }
  const TypeId type = static_cast<TypeId>(type_raw);
  std::string_view flags;
  if (nulls) flags = dec.GetBytes(n);
  BatPtr out;
  switch (type) {
    case TypeId::kBool: {
      const std::string_view raw = dec.GetBytes(n);
      std::vector<uint8_t> v(raw.begin(), raw.end());
      for (uint8_t& x : v) x = x != 0 ? 1 : 0;
      out = Bat::MakeBool(std::move(v));
      break;
    }
    case TypeId::kI64:
      out = Bat::MakeI64(GetWords<int64_t>(dec, n));
      break;
    case TypeId::kTs:
      out = Bat::MakeTs(GetWords<int64_t>(dec, n));
      break;
    case TypeId::kF64:
      out = Bat::MakeF64(GetWords<double>(dec, n));
      break;
    case TypeId::kStr:
      out = Bat::MakeEmpty(type);
      for (uint64_t i = 0; i < n && dec.ok(); ++i) {
        out->AppendStr(dec.GetBytes(dec.GetU32()));
      }
      break;
  }
  if (!dec.ok()) return Status::ParseError("wal: truncated column payload");
  if (nulls) out->SetNulls(std::vector<uint8_t>(flags.begin(), flags.end()));
  return out;
}

// --------------------------------------------------------------------------
// Record codecs.
// --------------------------------------------------------------------------

namespace {

/// A payload encoder that starts with the record type byte, so record
/// bodies are written once, in place.
WalEncoder Typed(WalRecordType t) {
  WalEncoder enc;
  enc.PutU8(static_cast<uint8_t>(t));
  return enc;
}

Result<WalDecoder> BodyDecoder(const WalRecord& rec, WalRecordType want) {
  if (rec.type != want) return Status::ParseError("wal: record type mismatch");
  return WalDecoder(rec.body);
}

/// Reads the fixed kBatch header {ordinal, begin_seq, rows}, leaving
/// `dec` at the column count.
Status GetBatchHeader(WalDecoder& dec, WalBatch& b) {
  b.ordinal = dec.GetU64();
  b.begin_seq = dec.GetU64();
  b.rows = dec.GetU64();
  if (!dec.ok()) return Status::ParseError("wal: malformed batch header");
  return Status::OK();
}

/// Writes the frame of `payload` into `out` (replacing its contents).
void FrameInto(std::string_view payload, uint32_t crc, std::string& out) {
  char hdr[kWalFrameHeaderBytes];
  StoreLittle(hdr, static_cast<uint32_t>(payload.size()));
  StoreLittle(hdr + 4, crc);
  out.clear();
  out.reserve(sizeof(hdr) + payload.size());
  out.append(hdr, sizeof(hdr));
  out.append(payload);
}

}  // namespace

std::string EncodeReset(const WalReset& r) {
  WalEncoder enc = Typed(WalRecordType::kReset);
  enc.PutU64(r.start_seq);
  enc.PutU64(r.next_ordinal);
  enc.PutI64(r.watermark);
  enc.PutU8(r.sealed ? 1 : 0);
  return enc.Take();
}

std::string EncodeBatch(uint64_t ordinal, uint64_t begin_seq, uint64_t rows,
                        const std::vector<BatPtr>& cols) {
  size_t bytes = 1 + kBatchHeaderBytes + 4;
  for (const BatPtr& c : cols) bytes += EncodedBatBytes(*c);
  WalEncoder enc;
  enc.Reserve(bytes);
  enc.PutU8(static_cast<uint8_t>(WalRecordType::kBatch));
  enc.PutU64(ordinal);
  enc.PutU64(begin_seq);
  enc.PutU64(rows);
  enc.PutU32(static_cast<uint32_t>(cols.size()));
  for (const BatPtr& c : cols) EncodeBat(enc, *c);
  return enc.Take();
}

std::string EncodeHeartbeat(int64_t ts) {
  WalEncoder enc = Typed(WalRecordType::kHeartbeat);
  enc.PutI64(ts);
  return enc.Take();
}

std::string EncodeSeal() { return Typed(WalRecordType::kSeal).Take(); }

std::string EncodeStatement(std::string_view sql) {
  WalEncoder enc = Typed(WalRecordType::kStatement);
  enc.PutStr(sql);
  return enc.Take();
}

std::string EncodeSubmit(const WalSubmit& s) {
  WalEncoder enc = Typed(WalRecordType::kSubmit);
  enc.PutU64(s.token);
  enc.PutStr(s.sql);
  enc.PutU8(s.mode);
  enc.PutStr(s.name);
  enc.PutU32(static_cast<uint32_t>(s.origins.size()));
  for (uint64_t o : s.origins) enc.PutU64(o);
  enc.PutU64(s.batch_cursor);
  enc.PutStr(s.node_label);
  enc.PutU64(s.node_origin);
  return enc.Take();
}

std::string EncodeRemove(uint64_t token) {
  WalEncoder enc = Typed(WalRecordType::kRemove);
  enc.PutU64(token);
  return enc.Take();
}

Result<WalReset> DecodeReset(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec, BodyDecoder(rec, WalRecordType::kReset));
  WalReset r;
  r.start_seq = dec.GetU64();
  r.next_ordinal = dec.GetU64();
  r.watermark = dec.GetI64();
  r.sealed = dec.GetU8() != 0;
  if (!dec.ok()) return Status::ParseError("wal: malformed reset record");
  return r;
}

Result<WalBatch> DecodeBatch(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec, BodyDecoder(rec, WalRecordType::kBatch));
  WalBatch b;
  DC_RETURN_NOT_OK(GetBatchHeader(dec, b));
  const uint32_t ncols = dec.GetU32();
  if (!dec.ok() || ncols > 4096) {
    return Status::ParseError("wal: malformed batch header");
  }
  b.cols.reserve(ncols);
  for (uint32_t i = 0; i < ncols; ++i) {
    DC_ASSIGN_OR_RETURN(BatPtr col, DecodeBat(dec));
    if (col->size() != b.rows) {
      return Status::ParseError("wal: batch column row-count mismatch");
    }
    b.cols.push_back(std::move(col));
  }
  if (!dec.Done()) return Status::ParseError("wal: trailing batch bytes");
  return b;
}

Result<int64_t> DecodeHeartbeat(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec,
                      BodyDecoder(rec, WalRecordType::kHeartbeat));
  const int64_t ts = dec.GetI64();
  if (!dec.ok()) return Status::ParseError("wal: malformed heartbeat");
  return ts;
}

Result<std::string> DecodeStatement(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec,
                      BodyDecoder(rec, WalRecordType::kStatement));
  std::string sql = dec.GetStr();
  if (!dec.ok()) return Status::ParseError("wal: malformed statement record");
  return sql;
}

Result<WalSubmit> DecodeSubmit(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec, BodyDecoder(rec, WalRecordType::kSubmit));
  WalSubmit s;
  s.token = dec.GetU64();
  s.sql = dec.GetStr();
  s.mode = dec.GetU8();
  s.name = dec.GetStr();
  const uint32_t n = dec.GetU32();
  if (!dec.ok() || n > 4096) {
    return Status::ParseError("wal: malformed submit record");
  }
  s.origins.reserve(n);
  for (uint32_t i = 0; i < n; ++i) s.origins.push_back(dec.GetU64());
  s.batch_cursor = dec.GetU64();
  s.node_label = dec.GetStr();
  s.node_origin = dec.GetU64();
  if (!dec.ok()) return Status::ParseError("wal: malformed submit record");
  return s;
}

Result<uint64_t> DecodeRemove(const WalRecord& rec) {
  DC_ASSIGN_OR_RETURN(WalDecoder dec, BodyDecoder(rec, WalRecordType::kRemove));
  const uint64_t token = dec.GetU64();
  if (!dec.ok()) return Status::ParseError("wal: malformed remove record");
  return token;
}


// --------------------------------------------------------------------------
// File scan.
// --------------------------------------------------------------------------

std::string FrameRecord(std::string_view payload) {
  std::string out;
  FrameInto(payload, Crc32(payload.data(), payload.size()), out);
  return out;
}

namespace {

/// The whole file at `path`, read with one sized read.
Result<std::shared_ptr<std::string>> ReadWholeFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound(StrFormat("wal file %s not found", path.c_str()));
    }
    return Status::Internal(
        StrFormat("open %s failed: %s", path.c_str(), std::strerror(errno)));
  }
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    return Status::Internal(
        StrFormat("stat %s failed: %s", path.c_str(), std::strerror(errno)));
  }
  auto data = std::make_shared<std::string>();
  data->resize(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < data->size()) {
    const ssize_t n = ::read(fd, data->data() + got, data->size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      return Status::Internal(
          StrFormat("read %s failed: %s", path.c_str(), std::strerror(errno)));
    }
    if (n == 0) break;  // shrank since the stat: scan what is there
    got += static_cast<size_t>(n);
  }
  data->resize(got);
  return data;
}

}  // namespace

Result<WalScan> ReadWalFile(const std::string& path) {
  DC_ASSIGN_OR_RETURN(std::shared_ptr<std::string> file, ReadWholeFile(path));
  const std::string_view data = *file;
  WalScan scan;
  scan.data = std::move(file);
  if (data.size() < sizeof(kWalMagic) ||
      std::memcmp(data.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    scan.valid_bytes = 0;
    scan.clean_tail = data.empty();
    return scan;
  }
  size_t pos = sizeof(kWalMagic);
  scan.valid_bytes = pos;
  while (data.size() - pos >= kWalFrameHeaderBytes) {
    const uint32_t len = LoadLittle<uint32_t>(data.data() + pos);
    const uint32_t crc = LoadLittle<uint32_t>(data.data() + pos + 4);
    const size_t start = pos + kWalFrameHeaderBytes;
    if (len == 0 || len > kMaxRecordBytes || len > data.size() - start) break;
    const std::string_view payload = data.substr(start, len);
    if (Crc32(payload.data(), payload.size()) != crc) break;
    WalRecord rec;
    rec.type = static_cast<WalRecordType>(static_cast<uint8_t>(payload[0]));
    rec.body = payload.substr(1);
    rec.offset = pos;
    scan.records.push_back(rec);
    pos = start + len;
    scan.valid_bytes = pos;
  }
  scan.clean_tail = scan.valid_bytes == data.size();
  return scan;
}

// --------------------------------------------------------------------------
// WalWriter.
// --------------------------------------------------------------------------

Result<std::unique_ptr<WalWriter>> WalWriter::Open(WalEnv* env,
                                                   std::string path,
                                                   FsyncPolicy policy,
                                                   int fsync_interval,
                                                   WalCounters counters,
                                                   const WalScan* scan) {
  bool fresh = scan == nullptr && !env->FileExists(path);
  if (!fresh) {
    // Drop a corrupt tail so new records extend the valid prefix. The
    // scan reads the real file: anything a simulated crash never
    // persisted is (correctly) not there.
    std::optional<WalScan> reread;
    if (scan == nullptr) {
      if (Result<WalScan> r = ReadWalFile(path); r.ok()) {
        reread = std::move(r).value();
        scan = &*reread;
      }
    }
    if (scan == nullptr || scan->valid_bytes == 0) {
      fresh = true;  // unreadable or no valid magic — rewrite from scratch
    } else if (!scan->clean_tail) {
      DC_RETURN_NOT_OK(env->TruncateFile(path, scan->valid_bytes));
    }
  }
  std::unique_ptr<WalWriter> w(new WalWriter(
      env, std::move(path), policy, fsync_interval, std::move(counters)));
  DC_ASSIGN_OR_RETURN(std::unique_ptr<WalFile> file,
                      env->Open(w->path_, /*truncate=*/fresh));
  {
    MutexLock lock(w->mu_);
    w->file_ = std::move(file);
    if (fresh) {
      DC_RETURN_NOT_OK(
          w->file_->Append(std::string_view(kWalMagic, sizeof(kWalMagic))));
    }
  }
  if (fresh) {
    // A freshly created log is durable only once its directory ENTRY is:
    // fsyncing the file alone does not survive power loss of the parent.
    DC_RETURN_NOT_OK(env->SyncDir(DirName(w->path_)));
  }
  return w;
}

Status WalWriter::Append(std::string_view payload) {
  trace::Span span("wal.append", "wal",
                   static_cast<int64_t>(kWalFrameHeaderBytes + payload.size()));
  const uint32_t crc = Crc32(payload.data(), payload.size());
  MutexLock lock(mu_);
  if (file_ == nullptr) return Status::Internal("wal writer closed");
  FrameInto(payload, crc, frame_);
  DC_RETURN_NOT_OK(file_->Append(frame_));
  if (counters_.records) counters_.records->Add(1);
  if (counters_.bytes) counters_.bytes->Add(frame_.size());
  switch (policy_) {
    case FsyncPolicy::kNever:
      break;
    case FsyncPolicy::kAlways:
      DC_RETURN_NOT_OK(SyncLocked());
      break;
    case FsyncPolicy::kInterval:
      if (++unsynced_ >= fsync_interval_) DC_RETURN_NOT_OK(SyncLocked());
      break;
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  MutexLock lock(mu_);
  if (file_ == nullptr) return Status::Internal("wal writer closed");
  return SyncLocked();
}

Status WalWriter::SyncLocked() {
  trace::Span span("wal.fsync", "wal");
  DC_RETURN_NOT_OK(file_->Sync());
  unsynced_ = 0;
  if (counters_.syncs) counters_.syncs->Add(1);
  return Status::OK();
}

Status WalWriter::TruncateTo(uint64_t horizon) {
  trace::Span span("wal.truncate", "wal");
  MutexLock lock(mu_);
  if (file_ == nullptr) return Status::Internal("wal writer closed");
  // Flush so the rewrite below sees every record appended so far.
  DC_RETURN_NOT_OK(SyncLocked());
  DC_ASSIGN_OR_RETURN(WalScan scan, ReadWalFile(path_));

  // Fold the dropped prefix into a fresh reset record. Heartbeat
  // watermarks fold exactly; dropped batch timestamps need no folding
  // because the basket clamps appends to be globally non-decreasing, so
  // any surviving row revives at least the dropped rows' watermark (see
  // docs/DURABILITY.md, "Truncation"). A batch needs only its header:
  // the scan already CRC-checked every frame, and dropped columns are
  // never read again.
  WalReset reset;
  size_t keep_from = scan.records.size();
  for (size_t i = 0; i < scan.records.size(); ++i) {
    const WalRecord& rec = scan.records[i];
    if (rec.type == WalRecordType::kReset) {
      DC_ASSIGN_OR_RETURN(reset, DecodeReset(rec));
      continue;
    }
    if (rec.type == WalRecordType::kHeartbeat) {
      DC_ASSIGN_OR_RETURN(const int64_t ts, DecodeHeartbeat(rec));
      if (ts > reset.watermark) reset.watermark = ts;
      continue;
    }
    if (rec.type == WalRecordType::kSeal) {
      reset.sealed = true;
      continue;
    }
    if (rec.type == WalRecordType::kBatch) {
      WalDecoder dec(rec.body);
      WalBatch b;
      DC_RETURN_NOT_OK(GetBatchHeader(dec, b));
      const uint64_t end_seq = b.begin_seq + b.rows;
      const bool droppable =
          b.rows > 0 ? end_seq <= horizon : b.begin_seq < horizon;
      if (!droppable) {
        keep_from = i;
        break;
      }
      reset.start_seq = end_seq;
      reset.next_ordinal = b.ordinal + 1;
      continue;
    }
    // Unknown record type in a basket log: keep it and everything after.
    keep_from = i;
    break;
  }
  // The kept records' frames, byte for byte as the scan validated them.
  std::string_view kept;
  if (keep_from < scan.records.size()) {
    const uint64_t from = scan.records[keep_from].offset;
    kept = std::string_view(*scan.data).substr(from, scan.valid_bytes - from);
  }
  span.set_arg(static_cast<int64_t>(kept.size()));

  const std::string tmp = path_ + ".tmp";
  DC_ASSIGN_OR_RETURN(std::unique_ptr<WalFile> out,
                      env_->Open(tmp, /*truncate=*/true));
  DC_RETURN_NOT_OK(out->Append(std::string_view(kWalMagic, sizeof(kWalMagic))));
  DC_RETURN_NOT_OK(out->Append(FrameRecord(EncodeReset(reset))));
  if (!kept.empty()) DC_RETURN_NOT_OK(out->Append(kept));
  DC_RETURN_NOT_OK(out->Sync());
  DC_RETURN_NOT_OK(out->Close());
  DC_RETURN_NOT_OK(file_->Close());
  file_ = nullptr;
  DC_RETURN_NOT_OK(env_->Rename(tmp, path_));
  // Make the rename durable before appending to the rewritten file.
  DC_RETURN_NOT_OK(env_->SyncDir(DirName(path_)));
  DC_ASSIGN_OR_RETURN(file_, env_->Open(path_, /*truncate=*/false));
  unsynced_ = 0;
  if (counters_.truncations) counters_.truncations->Add(1);
  return Status::OK();
}

}  // namespace storage
}  // namespace dc
