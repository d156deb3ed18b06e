#include "nautilus/storage/integrity.h"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#if !defined(_WIN32)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "nautilus/obs/metrics.h"

namespace nautilus {
namespace storage {

namespace {

// --- CRC32C slice-by-8 ------------------------------------------------------

struct Crc32cTables {
  uint32_t t[8][256];
  Crc32cTables() {
    constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

const Crc32cTables& Tables() {
  static const Crc32cTables tables;
  return tables;
}

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32c(uint32_t crc, const void* data, size_t n) {
  const Crc32cTables& tb = Tables();
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  // Head: byte-at-a-time until 8-byte aligned.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
    --n;
  }
  while (n >= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = tb.t[7][lo & 0xff] ^ tb.t[6][(lo >> 8) & 0xff] ^
          tb.t[5][(lo >> 16) & 0xff] ^ tb.t[4][lo >> 24] ^
          tb.t[3][hi & 0xff] ^ tb.t[2][(hi >> 8) & 0xff] ^
          tb.t[1][(hi >> 16) & 0xff] ^ tb.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *p++) & 0xff];
    --n;
  }
  return ~crc;
}

// --- Durability -------------------------------------------------------------

namespace {

std::atomic<int>& DurabilityState() {
  static std::atomic<int> state = [] {
    Durability d = Durability::kNone;
    const char* env = std::getenv("NAUTILUS_DURABILITY");
    if (env != nullptr && *env != '\0') ParseDurability(env, &d);
    return std::atomic<int>(static_cast<int>(d));
  }();
  return state;
}

}  // namespace

Durability GlobalDurability() {
  return static_cast<Durability>(
      DurabilityState().load(std::memory_order_relaxed));
}

void SetGlobalDurability(Durability d) {
  DurabilityState().store(static_cast<int>(d), std::memory_order_relaxed);
}

bool ParseDurability(const std::string& name, Durability* out) {
  if (name == "none") {
    *out = Durability::kNone;
  } else if (name == "flush") {
    *out = Durability::kFlush;
  } else if (name == "fsync") {
    *out = Durability::kFsync;
  } else {
    return false;
  }
  return true;
}

const char* DurabilityName(Durability d) {
  switch (d) {
    case Durability::kNone:
      return "none";
    case Durability::kFlush:
      return "flush";
    case Durability::kFsync:
      return "fsync";
  }
  return "none";
}

Status SyncFile(std::FILE* f, Durability d) {
  if (d == Durability::kNone) return Status::OK();
  if (std::fflush(f) != 0) return Status::IoError("fflush failed");
#if !defined(_WIN32)
  if (d == Durability::kFsync && ::fsync(::fileno(f)) != 0) {
    return Status::IoError("fsync failed");
  }
#endif
  return Status::OK();
}

Status SyncParentDir(const std::string& path, Durability d) {
  if (d != Durability::kFsync) return Status::OK();
#if !defined(_WIN32)
  const std::string dir =
      std::filesystem::path(path).parent_path().string();
  const int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open directory for fsync");
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IoError("directory fsync failed");
#else
  (void)path;
#endif
  return Status::OK();
}

// --- Shard footer -----------------------------------------------------------

namespace {

// Byte offsets inside the 32-byte footer.
constexpr size_t kOffHeaderCrc = 0;
constexpr size_t kOffPayloadCrc = 4;
constexpr size_t kOffPayloadBytes = 8;
constexpr size_t kOffVersion = 16;
constexpr size_t kOffFooterCrc = 20;
constexpr size_t kOffMagic = 24;
constexpr size_t kFooterCrcSpan = kOffFooterCrc;  // bytes covered by footer_crc

}  // namespace

void EncodeShardFooter(const ShardFooter& f, char* out) {
  std::memcpy(out + kOffHeaderCrc, &f.header_crc, sizeof(uint32_t));
  std::memcpy(out + kOffPayloadCrc, &f.payload_crc, sizeof(uint32_t));
  std::memcpy(out + kOffPayloadBytes, &f.payload_bytes, sizeof(int64_t));
  std::memcpy(out + kOffVersion, &f.version, sizeof(uint32_t));
  const uint32_t footer_crc = Crc32c(0, out, kFooterCrcSpan);
  std::memcpy(out + kOffFooterCrc, &footer_crc, sizeof(uint32_t));
  const int64_t magic = kShardFooterMagic;
  std::memcpy(out + kOffMagic, &magic, sizeof(int64_t));
}

bool DecodeShardFooter(const char* bytes, ShardFooter* out) {
  int64_t magic = 0;
  std::memcpy(&magic, bytes + kOffMagic, sizeof(int64_t));
  if (magic != kShardFooterMagic) return false;
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes + kOffFooterCrc, sizeof(uint32_t));
  if (Crc32c(0, bytes, kFooterCrcSpan) != stored_crc) return false;
  ShardFooter f;
  std::memcpy(&f.header_crc, bytes + kOffHeaderCrc, sizeof(uint32_t));
  std::memcpy(&f.payload_crc, bytes + kOffPayloadCrc, sizeof(uint32_t));
  std::memcpy(&f.payload_bytes, bytes + kOffPayloadBytes, sizeof(int64_t));
  std::memcpy(&f.version, bytes + kOffVersion, sizeof(uint32_t));
  if (f.version != kShardFooterVersion || f.payload_bytes < 0) return false;
  *out = f;
  return true;
}

Status WriteShardFooter(std::FILE* f, const ShardFooter& footer) {
  char bytes[kShardFooterBytes];
  EncodeShardFooter(footer, bytes);
  if (std::fwrite(bytes, 1, sizeof(bytes), f) != sizeof(bytes)) {
    return Status::IoError("short footer write");
  }
  return Status::OK();
}

Status CorruptionError(const std::string& detail) {
  static obs::Counter& detected =
      obs::MetricsRegistry::Global().counter("store.corruption_detected");
  detected.Add();
  return Status::IoError(detail);
}

}  // namespace storage
}  // namespace nautilus
