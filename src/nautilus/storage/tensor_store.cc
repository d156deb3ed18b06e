#include "nautilus/storage/tensor_store.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "nautilus/obs/metrics.h"
#include "nautilus/obs/trace.h"
#include "nautilus/storage/fault_injection.h"
#include "nautilus/storage/integrity.h"
#include "nautilus/storage/mmap_file.h"
#include "nautilus/tensor/quant.h"
#include "nautilus/util/logging.h"
#include "nautilus/util/parallel.h"

namespace nautilus {
namespace storage {

namespace fs = std::filesystem;

namespace {

constexpr int64_t kMagic = 0x4e41555433000001;  // "NAUT3" + version

// On-disk header: magic, dtype, rank, dims[rank] (int64 little-endian; dims
// describe the LOGICAL f32 shape). The first HeaderBytes(rank) bytes of this
// struct are exactly the header bytes on disk, so it is read, written and
// checksummed in place.
struct Header {
  int64_t magic;
  int64_t dtype;
  int64_t rank;
  int64_t dims[8];
};

constexpr int64_t HeaderBytes(int64_t rank) {
  return static_cast<int64_t>(sizeof(int64_t)) * (3 + rank);
}

constexpr int64_t kMaxHeaderBytes = HeaderBytes(8);
static_assert(sizeof(Header) == kMaxHeaderBytes, "Header must be unpadded");

// Byte offset of dims[0] (the row count AppendRows bumps in place).
constexpr int64_t kRowCountOffset = HeaderBytes(0);

// Logical per-record f32 elements (product of dims past the batch dim), or
// -1 on overflow/negative dims.
int64_t PerRecordElementsFor(const Header& h) {
  int64_t per_record = 1;
  for (int64_t i = 1; i < h.rank; ++i) {
    const int64_t d = h.dims[i];
    if (d < 0) return -1;
    if (d > 0 && per_record > (INT64_MAX / 8) / d) return -1;
    per_record *= d;
  }
  return per_record;
}

// Payload bytes implied by the header dims and dtype, or -1 on
// overflow/negative dims.
int64_t PayloadBytesFor(const Header& h) {
  const int64_t rows = h.dims[0];
  if (rows < 0) return -1;
  const int64_t per_record = PerRecordElementsFor(h);
  if (per_record < 0) return -1;
  const int64_t row_bytes =
      ShardRowBytes(static_cast<ShardDtype>(h.dtype), per_record);
  if (row_bytes < 0) return -1;
  if (rows > 0 && row_bytes > 0 && rows > INT64_MAX / row_bytes) return -1;
  return rows * row_bytes;
}

// 64-bit-clean absolute seek; plain fseek takes a long, which truncates byte
// offsets past 2 GiB on LP64-hostile platforms.
int Seek64(std::FILE* f, int64_t offset, int whence) {
#if defined(_WIN32)
  return ::_fseeki64(f, offset, whence);
#else
  return ::fseeko(f, static_cast<off_t>(offset), whence);
#endif
}

// --- Filename encoding -----------------------------------------------------
//
// Keys are arbitrary strings; filenames must be safe and collision-free.
// Reversible escape: alnum / '-' / '.' pass through, every other byte
// (including '_', the escape introducer) becomes '_' + two hex digits. An
// FNV-1a hash suffix ("-xxxxxxxx") guards against foreign files and makes
// any residual collision impossible in practice; ListKeys decodes stems back
// to the raw keys callers wrote.

bool IsPlainChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
         c == '.';
}

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

std::string EncodeKey(const std::string& key) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    if (IsPlainChar(c)) {
      out.push_back(c);
    } else {
      const auto b = static_cast<unsigned char>(c);
      out.push_back('_');
      out.push_back(kHex[b >> 4]);
      out.push_back(kHex[b & 0xf]);
    }
  }
  return out;
}

bool DecodeKey(const std::string& encoded, std::string* out) {
  out->clear();
  out->reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    const char c = encoded[i];
    if (c == '_') {
      if (i + 2 >= encoded.size()) return false;
      const int hi = HexVal(encoded[i + 1]);
      const int lo = HexVal(encoded[i + 2]);
      if (hi < 0 || lo < 0) return false;
      out->push_back(static_cast<char>(hi * 16 + lo));
      i += 2;
    } else if (IsPlainChar(c)) {
      out->push_back(c);
    } else {
      return false;
    }
  }
  return true;
}

std::string KeyHash8(const std::string& key) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a 64
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  const uint32_t folded = static_cast<uint32_t>(h ^ (h >> 32));
  static const char kHex[] = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 0; i < 8; ++i) {
    out[7 - i] = kHex[(folded >> (4 * i)) & 0xf];
  }
  return out;
}

constexpr size_t kHashSuffixLen = 9;  // '-' + 8 hex digits

// Inverse of PathFor's stem: "<encoded>-<hash8>" -> raw key, verifying the
// hash so files not written by this store are skipped.
bool StemToKey(const std::string& stem, std::string* key) {
  if (stem.size() < kHashSuffixLen + 1) return false;
  const size_t dash = stem.size() - kHashSuffixLen;
  if (stem[dash] != '-') return false;
  if (!DecodeKey(stem.substr(0, dash), key)) return false;
  return stem.compare(dash + 1, 8, KeyHash8(*key)) == 0;
}

// RAII FILE handle.
class File {
 public:
  File(const std::string& path, const char* mode)
      : f_(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (f_ != nullptr) std::fclose(f_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  std::FILE* get() const { return f_; }
  bool ok() const { return f_ != nullptr; }

 private:
  std::FILE* f_;
};

// Parsed and cross-checked on-disk shard metadata, shared by the buffered
// and mapped read paths.
struct ShardInfo {
  Header header = {};
  int64_t header_bytes = 0;
  int64_t payload_bytes = 0;
  int64_t per_record = 0;  // logical f32 elements per row
  int64_t row_bytes = 0;   // encoded bytes per row
  ShardDtype dtype = ShardDtype::kF32;
  ShardFooter footer;
};

// The one shard parser. `head` holds the first min(file_size,
// kMaxHeaderBytes) bytes of the file and `tail` its last kShardFooterBytes
// (read only once the size check proves they exist). Checks magic, dtype,
// rank bounds, overflow-safe dims, the exact size header + payload + footer,
// the footer's own checksum, and the footer's header CRC and payload size.
// A corrupt header can therefore never drive a huge or undersized
// allocation. The payload checksum is left to the caller, which verifies it
// over the payload bytes it reads anyway.
Status ParseShard(const char* head, int64_t file_size, const char* tail,
                  const std::string& key, ShardInfo* info) {
  Header h = {};
  if (file_size < HeaderBytes(0)) {
    return CorruptionError("short read on tensor header: " + key);
  }
  std::memcpy(&h, head, static_cast<size_t>(HeaderBytes(0)));
  if (h.magic != kMagic) {
    return CorruptionError("bad tensor-file magic: " + key);
  }
  if (h.dtype != static_cast<int64_t>(ShardDtype::kF32) &&
      h.dtype != static_cast<int64_t>(ShardDtype::kInt8) &&
      h.dtype != static_cast<int64_t>(ShardDtype::kF16)) {
    return CorruptionError("unknown shard dtype on disk: " + key);
  }
  if (h.rank < 1 || h.rank > 8) {
    return CorruptionError("unsupported tensor rank on disk: " + key);
  }
  const int64_t header_bytes = HeaderBytes(h.rank);
  if (file_size < header_bytes) {
    return CorruptionError("short read on tensor dims: " + key);
  }
  std::memcpy(h.dims, head + HeaderBytes(0),
              static_cast<size_t>(h.rank) * sizeof(int64_t));
  const int64_t payload = PayloadBytesFor(h);
  if (payload < 0) {
    return CorruptionError("corrupt tensor dims on disk: " + key);
  }
  if (payload != file_size - header_bytes - kShardFooterBytes) {
    return CorruptionError("tensor file size mismatch (torn write?): " + key);
  }
  if (!DecodeShardFooter(tail, &info->footer)) {
    return CorruptionError("torn tensor footer: " + key);
  }
  if (info->footer.header_crc !=
      Crc32c(0, &h, static_cast<size_t>(header_bytes))) {
    return CorruptionError("header checksum mismatch: " + key);
  }
  if (info->footer.payload_bytes != payload) {
    return CorruptionError("footer/header payload size mismatch: " + key);
  }
  info->header = h;
  info->header_bytes = header_bytes;
  info->payload_bytes = payload;
  info->per_record = PerRecordElementsFor(h);
  info->dtype = static_cast<ShardDtype>(h.dtype);
  info->row_bytes = ShardRowBytes(info->dtype, info->per_record);
  return Status::OK();
}

// Reads the header prefix and the footer of an open shard file and parses
// them. On return the stream position is unspecified; the payload checksum
// is NOT yet verified (callers do that while streaming the payload).
Status ReadShardInfo(std::FILE* f, int64_t file_size, const std::string& key,
                     ShardInfo* info) {
  char head[kMaxHeaderBytes];
  char tail[kShardFooterBytes] = {};
  const size_t head_n =
      static_cast<size_t>(std::min(file_size, kMaxHeaderBytes));
  if (Seek64(f, 0, SEEK_SET) != 0 || std::fread(head, 1, head_n, f) != head_n) {
    return CorruptionError("short read on tensor header: " + key);
  }
  if (file_size >= kShardFooterBytes &&
      (Seek64(f, file_size - kShardFooterBytes, SEEK_SET) != 0 ||
       std::fread(tail, 1, sizeof(tail), f) != sizeof(tail))) {
    return CorruptionError("short read on tensor footer: " + key);
  }
  return ParseShard(head, file_size, tail, key, info);
}

// Parses a fully mapped shard and verifies its payload checksum.
Status ParseAndVerifyMapped(const MappedFile& file, const std::string& key,
                            ShardInfo* info) {
  const char* data = file.data();
  const int64_t size = file.size();
  NAUTILUS_RETURN_IF_ERROR(ParseShard(
      data, size, size >= kShardFooterBytes ? data + size - kShardFooterBytes
                                            : nullptr,
      key, info));
  const uint32_t payload_crc = Crc32c(
      0, data + info->header_bytes, static_cast<size_t>(info->payload_bytes));
  if (payload_crc != info->footer.payload_crc) {
    return CorruptionError("payload checksum mismatch: " + key);
  }
  return Status::OK();
}

Status WriteHeader(std::FILE* f, const Shape& shape, ShardDtype dtype,
                   uint32_t* header_crc) {
  Header h = {kMagic, static_cast<int64_t>(dtype), shape.rank(), {}};
  for (int i = 0; i < shape.rank(); ++i) h.dims[i] = shape.dim(i);
  const size_t n = static_cast<size_t>(HeaderBytes(h.rank));
  *header_crc = Crc32c(0, &h, n);
  if (std::fwrite(&h, 1, n, f) != n) {
    return Status::IoError("short write on tensor header");
  }
  return Status::OK();
}

// Shape described by a validated header (always the logical f32 shape).
Shape ShapeOf(const Header& h) {
  std::vector<int64_t> dims(h.dims, h.dims + h.rank);
  return Shape(dims);
}

// --- Quantized row codecs --------------------------------------------------

// Encodes `rows` logical f32 rows of `per_record` elements into the on-disk
// representation of a quantized dtype. int8: [f32 absmax scale][per_record
// int8] per row; f16: 2 bytes per element. Returns the encoded bytes.
std::vector<char> EncodeRows(ShardDtype dtype, const float* src, int64_t rows,
                             int64_t per_record) {
  const int64_t row_bytes = ShardRowBytes(dtype, per_record);
  std::vector<char> enc(static_cast<size_t>(rows * row_bytes));
  if (dtype == ShardDtype::kInt8) {
    for (int64_t r = 0; r < rows; ++r) {
      char* dst = enc.data() + r * row_bytes;
      const float scale = quant::QuantizeRowAbsMax(
          src + r * per_record, per_record,
          reinterpret_cast<int8_t*>(dst + sizeof(float)));
      std::memcpy(dst, &scale, sizeof(float));
    }
  } else {  // kF16
    for (int64_t r = 0; r < rows; ++r) {
      char* dst = enc.data() + r * row_bytes;
      const float* row = src + r * per_record;
      for (int64_t i = 0; i < per_record; ++i) {
        const uint16_t half = quant::F32ToF16(row[i]);
        std::memcpy(dst + i * 2, &half, sizeof(half));
      }
    }
  }
  static obs::Counter& encode_bytes =
      obs::MetricsRegistry::Global().counter("quant.encode_bytes");
  encode_bytes.Add(static_cast<int64_t>(enc.size()));
  return enc;
}

// Inverse of EncodeRows: decodes `rows` encoded rows back to f32.
void DecodeRows(ShardDtype dtype, const char* enc, int64_t rows,
                int64_t per_record, float* dst) {
  const int64_t row_bytes = ShardRowBytes(dtype, per_record);
  if (dtype == ShardDtype::kInt8) {
    for (int64_t r = 0; r < rows; ++r) {
      const char* src = enc + r * row_bytes;
      float scale;
      std::memcpy(&scale, src, sizeof(float));
      quant::DequantizeRow(reinterpret_cast<const int8_t*>(src + sizeof(float)),
                           per_record, scale, dst + r * per_record);
    }
  } else {  // kF16
    for (int64_t r = 0; r < rows; ++r) {
      const char* src = enc + r * row_bytes;
      float* out = dst + r * per_record;
      for (int64_t i = 0; i < per_record; ++i) {
        uint16_t half;
        std::memcpy(&half, src + i * 2, sizeof(half));
        out[i] = quant::F16ToF32(half);
      }
    }
  }
  static obs::Counter& decode_bytes =
      obs::MetricsRegistry::Global().counter("quant.decode_bytes");
  decode_bytes.Add(rows * row_bytes);
}

// Per-dtype write accounting: how many shard writes landed in each encoding.
void CountShardWrite(ShardDtype dtype) {
  static obs::Counter& f32 =
      obs::MetricsRegistry::Global().counter("store.shard_dtype.f32");
  static obs::Counter& i8 =
      obs::MetricsRegistry::Global().counter("store.shard_dtype.int8");
  static obs::Counter& f16 =
      obs::MetricsRegistry::Global().counter("store.shard_dtype.f16");
  switch (dtype) {
    case ShardDtype::kF32:
      f32.Add();
      break;
    case ShardDtype::kInt8:
      i8.Add();
      break;
    case ShardDtype::kF16:
      f16.Add();
      break;
  }
}

}  // namespace

const char* ShardDtypeName(ShardDtype dtype) {
  switch (dtype) {
    case ShardDtype::kF32:
      return "f32";
    case ShardDtype::kInt8:
      return "int8";
    case ShardDtype::kF16:
      return "f16";
  }
  return "?";
}

int64_t ShardRowBytes(ShardDtype dtype, int64_t per_record) {
  if (per_record < 0) return -1;
  switch (dtype) {
    case ShardDtype::kF32:
      if (per_record > INT64_MAX / 4) return -1;
      return per_record * 4;
    case ShardDtype::kInt8:
      if (per_record > INT64_MAX - 4) return -1;
      return static_cast<int64_t>(sizeof(float)) + per_record;
    case ShardDtype::kF16:
      if (per_record > INT64_MAX / 2) return -1;
      return per_record * 2;
  }
  return -1;
}

TensorStore::TensorStore(std::string directory, IoStats* stats,
                         int64_t cache_budget_bytes)
    : directory_(std::move(directory)),
      stats_(stats),
      cache_(cache_budget_bytes < 0 ? DefaultCacheBudgetBytes()
                                    : cache_budget_bytes) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  NAUTILUS_CHECK(!ec) << "cannot create store directory " << directory_
                      << ": " << ec.message();
}

int64_t TensorStore::DefaultCacheBudgetBytes() {
  constexpr int64_t kDefault = 256ll * 1024 * 1024;
  const char* env = std::getenv("NAUTILUS_IO_CACHE_MB");
  if (env == nullptr || *env == '\0') return kDefault;
  char* end = nullptr;
  const long long mb = std::strtoll(env, &end, 10);
  if (end == env || mb < 0) return kDefault;
  return static_cast<int64_t>(mb) * 1024 * 1024;
}

std::string TensorStore::PathFor(const std::string& key) const {
  return directory_ + "/" + EncodeKey(key) + "-" + KeyHash8(key) + ".tns";
}

Status TensorStore::Put(const std::string& key, const Tensor& value,
                        ShardDtype dtype) {
  NAUTILUS_CHECK_GE(value.shape().rank(), 1);
  obs::TraceScope span("io", "store.put");
  span.AddArg("key", key)
      .AddArg("bytes", value.SizeBytes())
      .AddArg("dtype", ShardDtypeName(dtype));
  const std::string path = PathFor(key);
  const Durability durability = GlobalDurability();
  const int64_t rows = value.shape().dim(0);
  const int64_t per_record = value.shape().ElementsPerRecord();
  // Write-then-rename: live mmap views of the old inode keep their bytes;
  // truncating in place would SIGBUS concurrent readers. A crash mid-write
  // leaves only a stale .tmp (swept by Scrub), never a torn shard.
  const std::string tmp = path + ".tmp";
  int64_t payload_bytes = 0;
  {
    File f(tmp, "wb");
    if (!f.ok()) return Status::IoError("cannot open for write: " + key);
    ShardFooter footer;
    NAUTILUS_RETURN_IF_ERROR(
        WriteHeader(f.get(), value.shape(), dtype, &footer.header_crc));
    if (dtype == ShardDtype::kF32) {
      const size_t n = static_cast<size_t>(value.NumElements());
      if (n > 0 &&
          std::fwrite(value.data(), sizeof(float), n, f.get()) != n) {
        return Status::IoError("short write on tensor data: " + key);
      }
      footer.payload_crc = Crc32c(0, value.data(), n * sizeof(float));
      payload_bytes = static_cast<int64_t>(n * sizeof(float));
    } else {
      const std::vector<char> enc =
          EncodeRows(dtype, value.data(), rows, per_record);
      if (!enc.empty() &&
          std::fwrite(enc.data(), 1, enc.size(), f.get()) != enc.size()) {
        return Status::IoError("short write on tensor data: " + key);
      }
      footer.payload_crc = Crc32c(0, enc.data(), enc.size());
      payload_bytes = static_cast<int64_t>(enc.size());
    }
    footer.payload_bytes = payload_bytes;
    NAUTILUS_RETURN_IF_ERROR(WriteShardFooter(f.get(), footer));
    NAUTILUS_RETURN_IF_ERROR(SyncFile(f.get(), durability));
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) return Status::IoError("rename failed for " + key + ": " + ec.message());
  NAUTILUS_RETURN_IF_ERROR(SyncParentDir(path, durability));
  cache_.Invalidate(key);
  if (stats_ != nullptr) {
    stats_->RecordWrite(HeaderBytes(value.shape().rank()) + payload_bytes +
                        kShardFooterBytes);
  }
  CountShardWrite(dtype);
  FaultInjector::Global().OnWriteCommitted(path);
  return Status::OK();
}

Status TensorStore::AppendRows(const std::string& key, const Tensor& rows,
                               ShardDtype dtype) {
  // Injected refusal (NAUTILUS_FAULT=fail_append:N): error out before any
  // byte is written, as a full disk or EIO would.
  if (FaultInjector::Global().ShouldFailAppend()) {
    return Status::IoError("injected append failure for " + key);
  }
  if (!Contains(key)) return Put(key, rows, dtype);
  obs::TraceScope span("io", "store.append");
  span.AddArg("key", key).AddArg("bytes", rows.SizeBytes());
  const std::string path = PathFor(key);
  const Durability durability = GlobalDurability();
  // Invalidate before mutating: from here until the post-commit invalidate,
  // no reader may latch a cached shard that could disagree with the bytes a
  // crashed append leaves behind.
  cache_.Invalidate(key);
  std::error_code ec;
  const auto size_or = fs::file_size(path, ec);
  if (ec) return Status::IoError("cannot stat for update: " + key);
  const int64_t file_size = static_cast<int64_t>(size_or);
  {
    File f(path, "rb+");
    if (!f.ok()) return Status::IoError("cannot open for update: " + key);
    ShardInfo info;
    NAUTILUS_RETURN_IF_ERROR(ReadShardInfo(f.get(), file_size, key, &info));
    const Header& h = info.header;
    if (h.rank != rows.shape().rank()) {
      return Status::InvalidArgument("append rank mismatch for " + key);
    }
    int64_t per_record = 1;
    for (int64_t i = 1; i < h.rank; ++i) {
      if (h.dims[i] != rows.shape().dim(static_cast<int>(i))) {
        return Status::InvalidArgument("append dims mismatch for " + key);
      }
      per_record *= h.dims[i];
    }
    // The payload must be exactly (new rows) x (stored per-record elements);
    // anything else would silently shear every row after this one.
    if (rows.NumElements() != rows.shape().dim(0) * per_record) {
      return Status::InvalidArgument("append payload size mismatch for " +
                                     key);
    }
    // Running payload checksum, extended from the stored footer.
    uint32_t payload_crc = info.footer.payload_crc;
    // Commit order: (1) new payload rows land over the old footer, (2) the
    // header row count bumps, (3) a fresh footer seals the file, (4) the
    // durability policy pushes it down and the handle closes. A crash at any
    // intermediate point leaves a file whose size/footer/header cross-checks
    // fail, so a reopened store detects the tear (and quarantines it)
    // instead of serving rows past the durable payload.
    if (Seek64(f.get(), info.header_bytes + info.payload_bytes, SEEK_SET) !=
        0) {
      return Status::IoError("seek failed: " + key);
    }
    // The STORED dtype wins over the caller's: one shard never mixes row
    // encodings, even when the process quant mode changed between cycles.
    int64_t appended_bytes;
    if (info.dtype == ShardDtype::kF32) {
      const size_t n = static_cast<size_t>(rows.NumElements());
      if (n > 0 && std::fwrite(rows.data(), sizeof(float), n, f.get()) != n) {
        return Status::IoError("short append: " + key);
      }
      payload_crc = Crc32c(payload_crc, rows.data(), n * sizeof(float));
      appended_bytes = static_cast<int64_t>(n * sizeof(float));
    } else {
      const std::vector<char> enc = EncodeRows(
          info.dtype, rows.data(), rows.shape().dim(0), info.per_record);
      if (!enc.empty() &&
          std::fwrite(enc.data(), 1, enc.size(), f.get()) != enc.size()) {
        return Status::IoError("short append: " + key);
      }
      payload_crc = Crc32c(payload_crc, enc.data(), enc.size());
      appended_bytes = static_cast<int64_t>(enc.size());
    }
    Header updated = h;
    updated.dims[0] = h.dims[0] + rows.shape().dim(0);
    const int64_t new_rows = updated.dims[0];
    if (Seek64(f.get(), kRowCountOffset, SEEK_SET) != 0 ||
        std::fwrite(&new_rows, sizeof(int64_t), 1, f.get()) != 1) {
      return Status::IoError("cannot update row count: " + key);
    }
    ShardFooter footer;
    footer.header_crc =
        Crc32c(0, &updated, static_cast<size_t>(info.header_bytes));
    footer.payload_crc = payload_crc;
    footer.payload_bytes = info.payload_bytes + appended_bytes;
    if (Seek64(f.get(), info.header_bytes + footer.payload_bytes, SEEK_SET) !=
        0) {
      return Status::IoError("seek failed: " + key);
    }
    NAUTILUS_RETURN_IF_ERROR(WriteShardFooter(f.get(), footer));
    NAUTILUS_RETURN_IF_ERROR(SyncFile(f.get(), durability));
    CountShardWrite(info.dtype);
    if (stats_ != nullptr) {
      stats_->RecordWrite(appended_bytes + kShardFooterBytes);
    }
  }  // commit: the handle closes (flushing stdio buffers) before the hook
  cache_.Invalidate(key);
  FaultInjector::Global().OnWriteCommitted(path);
  return Status::OK();
}

Result<std::shared_ptr<const Tensor>> TensorStore::LoadShared(
    const std::string& key) const {
  if (std::shared_ptr<const Tensor> cached = cache_.Lookup(key)) {
    obs::TraceScope span("io", "store.cache_hit");
    span.AddArg("key", key).AddArg("bytes", cached->SizeBytes());
    return cached;
  }
  const std::string path = PathFor(key);
  auto mapped_or = MappedFile::Open(path);
  if (!mapped_or.ok()) {
    if (mapped_or.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no tensor stored under " + key);
    }
    return mapped_or.status();
  }
  std::shared_ptr<MappedFile> mapped = std::move(mapped_or).value();
  obs::TraceScope span("io", "store.mmap");
  // Verifies header + payload checksums over the mapped bytes before the
  // shard can enter the cache, so cache hits serve pre-verified bytes and
  // stay checksum-free on the hot path.
  ShardInfo info;
  NAUTILUS_RETURN_IF_ERROR(ParseAndVerifyMapped(*mapped, key, &info));
  const Shape shape = ShapeOf(info.header);
  span.AddArg("key", key)
      .AddArg("bytes", mapped->size())
      .AddArg("mapped", mapped->is_mapped())
      .AddArg("dtype", ShardDtypeName(info.dtype));
  const char* payload = mapped->data() + info.header_bytes;
  std::shared_ptr<Tensor> shard;
  if (info.dtype == ShardDtype::kF32) {
    const float* elements = reinterpret_cast<const float*>(payload);
    shard = std::make_shared<Tensor>(
        Tensor::FromBorrowed(elements, shape, std::move(mapped)));
  } else {
    // Dequant-on-view: decode the quantized payload to f32 ONCE here, then
    // park the owned f32 tensor in the cache. Warm reads stay zero-copy f32
    // views over the cache entry; only the cold fill pays the decode.
    Tensor decoded = Tensor::Uninitialized(shape);
    DecodeRows(info.dtype, payload, info.header.dims[0], info.per_record,
               decoded.data());
    shard = std::make_shared<Tensor>(std::move(decoded));
  }
  if (stats_ != nullptr) {
    stats_->RecordRead(info.header_bytes + info.payload_bytes);
  }
  cache_.Insert(key, shard);
  return std::shared_ptr<const Tensor>(std::move(shard));
}

Result<Tensor> TensorStore::Get(const std::string& key) const {
  obs::TraceScope span("io", "store.get");
  span.AddArg("key", key);
  NAUTILUS_ASSIGN_OR_RETURN(std::shared_ptr<const Tensor> shard,
                            LoadShared(key));
  return Tensor::FromBorrowed(shard->data(), shard->shape(), shard);
}

Result<Tensor> TensorStore::GetRowsView(const std::string& key, int64_t begin,
                                        int64_t end) const {
  obs::TraceScope span("io", "store.get_rows");
  span.AddArg("key", key).AddArg("begin", begin).AddArg("end", end);
  NAUTILUS_ASSIGN_OR_RETURN(std::shared_ptr<const Tensor> shard,
                            LoadShared(key));
  if (begin < 0 || begin > end || end > shard->shape().dim(0)) {
    return Status::OutOfRange("row range out of bounds for " + key);
  }
  const int64_t stride = shard->shape().ElementsPerRecord();
  return Tensor::FromBorrowed(shard->data() + begin * stride,
                              shard->shape().WithBatch(end - begin), shard);
}

Result<Tensor> TensorStore::GetRows(const std::string& key, int64_t begin,
                                    int64_t end) const {
  obs::TraceScope span("io", "store.get_rows");
  span.AddArg("key", key).AddArg("begin", begin).AddArg("end", end);
  // A resident shard serves the slice zero-copy. On a miss, read just the
  // requested byte range from disk and do NOT populate the cache: GetRows is
  // the forced-disk path (calibration measures real reads through it).
  if (std::shared_ptr<const Tensor> cached = cache_.Lookup(key)) {
    obs::TraceScope hit("io", "store.cache_hit");
    hit.AddArg("key", key);
    if (begin < 0 || begin > end || end > cached->shape().dim(0)) {
      return Status::OutOfRange("row range out of bounds for " + key);
    }
    const int64_t stride = cached->shape().ElementsPerRecord();
    return Tensor::FromBorrowed(cached->data() + begin * stride,
                                cached->shape().WithBatch(end - begin),
                                cached);
  }
  const std::string path = PathFor(key);
  std::error_code ec;
  const auto size_or = fs::file_size(path, ec);
  if (ec) return Status::NotFound("no tensor stored under " + key);
  File f(path, "rb");
  if (!f.ok()) return Status::NotFound("no tensor stored under " + key);
  ShardInfo info;
  NAUTILUS_RETURN_IF_ERROR(
      ReadShardInfo(f.get(), static_cast<int64_t>(size_or), key, &info));
  const Header& h = info.header;
  if (begin < 0 || begin > end || end > h.dims[0]) {
    return Status::OutOfRange("row range out of bounds for " + key);
  }
  std::vector<int64_t> dims(h.dims, h.dims + h.rank);
  dims[0] = end - begin;
  Tensor out((Shape(dims)));
  // Slice offsets in ENCODED bytes (row-aligned for every dtype).
  const int64_t slice_begin = begin * info.row_bytes;
  const int64_t slice_bytes = (end - begin) * info.row_bytes;
  // The payload checksum covers the whole payload, so the forced-disk path
  // streams every payload byte once — checksumming as it goes and copying
  // the requested slice out of the stream — before any float is surfaced.
  // A bit-flip anywhere in the shard (including an int8 row's SCALE bytes)
  // fails the read even when the flip is outside the requested rows (it may
  // sit under a row served next).
  if (Seek64(f.get(), info.header_bytes, SEEK_SET) != 0) {
    return Status::IoError("seek failed: " + key);
  }
  std::vector<char> buf(1 << 20);
  // f32 slices land straight in the output tensor; quantized slices stage
  // through an encoded scratch strip and decode after the CRC verdict.
  std::vector<char> enc_slice;
  char* slice_dst;
  if (info.dtype == ShardDtype::kF32) {
    slice_dst = reinterpret_cast<char*>(out.data());
  } else {
    enc_slice.resize(static_cast<size_t>(slice_bytes));
    slice_dst = enc_slice.data();
  }
  uint32_t payload_crc = 0;
  int64_t pos = 0;
  while (pos < info.payload_bytes) {
    const size_t chunk = static_cast<size_t>(std::min<int64_t>(
        info.payload_bytes - pos, static_cast<int64_t>(buf.size())));
    if (std::fread(buf.data(), 1, chunk, f.get()) != chunk) {
      return CorruptionError("short row read: " + key);
    }
    payload_crc = Crc32c(payload_crc, buf.data(), chunk);
    // Copy the overlap between [pos, pos+chunk) and the requested slice.
    const int64_t lo = std::max<int64_t>(pos, slice_begin);
    const int64_t hi = std::min<int64_t>(pos + static_cast<int64_t>(chunk),
                                         slice_begin + slice_bytes);
    if (lo < hi) {
      std::memcpy(slice_dst + (lo - slice_begin), buf.data() + (lo - pos),
                  static_cast<size_t>(hi - lo));
    }
    pos += static_cast<int64_t>(chunk);
  }
  if (payload_crc != info.footer.payload_crc) {
    return CorruptionError("payload checksum mismatch: " + key);
  }
  if (info.dtype != ShardDtype::kF32) {
    DecodeRows(info.dtype, enc_slice.data(), end - begin, info.per_record,
               out.data());
  }
  if (stats_ != nullptr) stats_->RecordRead(info.payload_bytes);
  return out;
}

Result<std::vector<Tensor>> TensorStore::GetBatch(
    const std::vector<KeyRange>& ranges) const {
  obs::TraceScope span("io", "store.get_batch");
  span.AddArg("keys", ranges.size());
  std::vector<Tensor> out(ranges.size());
  std::vector<Status> errors(ranges.size());
  TaskGroup group;
  for (size_t i = 0; i < ranges.size(); ++i) {
    group.Submit([this, &ranges, &out, &errors, i] {
      const KeyRange& r = ranges[i];
      Result<Tensor> t = r.end < 0 ? Get(r.key)
                                   : GetRowsView(r.key, r.begin, r.end);
      if (t.ok()) {
        out[i] = std::move(t).value();
      } else {
        errors[i] = t.status();
      }
    });
  }
  group.Wait();
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }
  return out;
}

bool TensorStore::Contains(const std::string& key) const {
  std::error_code ec;
  return fs::exists(PathFor(key), ec);
}

Status TensorStore::Remove(const std::string& key) {
  std::error_code ec;
  fs::remove(PathFor(key), ec);
  cache_.Invalidate(key);
  if (ec) return Status::IoError("remove failed: " + key);
  return Status::OK();
}

int64_t TensorStore::NumRows(const std::string& key) const {
  const std::string path = PathFor(key);
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) return 0;
  File f(path, "rb");
  if (!f.ok()) return 0;
  // Structural validation only (header/footer cross-checks, no payload CRC
  // pass): a torn or corrupt shard reports 0 rows, which is exactly what
  // makes ReconcileMaterializedStore rebuild it.
  ShardInfo info;
  if (!ReadShardInfo(f.get(), static_cast<int64_t>(size), key, &info).ok()) {
    return 0;
  }
  return info.header.dims[0];
}

ShardDtype TensorStore::DtypeOf(const std::string& key) const {
  const std::string path = PathFor(key);
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  if (ec) return ShardDtype::kF32;
  File f(path, "rb");
  if (!f.ok()) return ShardDtype::kF32;
  ShardInfo info;
  if (!ReadShardInfo(f.get(), static_cast<int64_t>(size), key, &info).ok()) {
    return ShardDtype::kF32;
  }
  return info.dtype;
}

int64_t TensorStore::SizeBytes(const std::string& key) const {
  std::error_code ec;
  const auto size = fs::file_size(PathFor(key), ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

int64_t TensorStore::TotalBytes() const {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (entry.is_regular_file()) {
      total += static_cast<int64_t>(entry.file_size());
    }
  }
  return total;
}

ScrubReport TensorStore::Scrub() {
  obs::TraceScope span("io", "store.scrub");
  static obs::Counter& checked_counter =
      obs::MetricsRegistry::Global().counter("store.scrub.shards_checked");
  static obs::Counter& quarantined_counter =
      obs::MetricsRegistry::Global().counter("store.scrub.quarantined");
  static obs::Counter& tmp_counter =
      obs::MetricsRegistry::Global().counter("store.scrub.tmp_swept");
  ScrubReport report;
  std::vector<fs::path> stale_tmp;
  std::vector<fs::path> shards;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file()) continue;
    const fs::path& p = entry.path();
    if (p.extension() == ".tmp") {
      stale_tmp.push_back(p);
    } else if (p.extension() == ".tns") {
      shards.push_back(p);
    }
  }
  // Stale temp files are debris from a writer that crashed before its
  // rename; the commit never happened, so they are safe to drop.
  for (const fs::path& p : stale_tmp) {
    std::error_code rm_ec;
    fs::remove(p, rm_ec);
    tmp_counter.Add();
  }
  for (const fs::path& p : shards) {
    std::string key;
    const bool known_key = StemToKey(p.stem().string(), &key);
    if (!known_key) key = p.filename().string();
    ++report.checked;
    checked_counter.Add();
    // The same map + parse + payload-CRC check a cold Get runs, minus the
    // cache fill.
    auto mapped_or = MappedFile::Open(p.string());
    ShardInfo info;
    const Status verdict = mapped_or.ok()
                               ? ParseAndVerifyMapped(*mapped_or.value(), key,
                                                      &info)
                               : mapped_or.status();
    if (verdict.ok()) {
      ++report.ok;
      continue;
    }
    // Quarantine-by-rename: the key now reads as absent, so the
    // materializer's reconciliation pass recomputes it from the frozen
    // prefix instead of training on damaged floats. The evidence file is
    // kept for post-mortems.
    NAUTILUS_LOG(WARNING) << "store scrub quarantining " << p.string() << ": "
                          << verdict.message();
    std::error_code mv_ec;
    fs::rename(p, fs::path(p.string() + ".quarantined"), mv_ec);
    if (mv_ec) fs::remove(p, mv_ec);  // last resort: unreadable either way
    if (known_key) cache_.Invalidate(key);
    ++report.quarantined;
    quarantined_counter.Add();
    if (known_key) report.quarantined_keys.push_back(key);
  }
  std::sort(report.quarantined_keys.begin(), report.quarantined_keys.end());
  span.AddArg("checked", report.checked)
      .AddArg("ok", report.ok)
      .AddArg("quarantined", report.quarantined);
  return report;
}

std::vector<std::string> TensorStore::ListKeys() const {
  std::vector<std::string> keys;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".tns") {
      continue;
    }
    std::string key;
    if (StemToKey(entry.path().stem().string(), &key)) {
      keys.push_back(std::move(key));
    }
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

Status TensorStore::Clear() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    fs::remove(entry.path(), ec);
  }
  cache_.Clear();
  return Status::OK();
}

}  // namespace storage
}  // namespace nautilus
