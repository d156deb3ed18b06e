#ifndef NAUTILUS_STORAGE_INTEGRITY_H_
#define NAUTILUS_STORAGE_INTEGRITY_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "nautilus/util/status.h"

namespace nautilus {
namespace storage {

// ---------------------------------------------------------------------------
// CRC32C (Castagnoli) kernel
// ---------------------------------------------------------------------------

/// Extends `crc` over `n` more bytes (slice-by-8 software kernel). Start from
/// 0 for a fresh checksum; feeding a file through in chunks yields the same
/// value as one call over the whole buffer, which is what lets AppendRows
/// extend a stored checksum with just the new rows.
uint32_t Crc32c(uint32_t crc, const void* data, size_t n);

// ---------------------------------------------------------------------------
// Durability policy
// ---------------------------------------------------------------------------

/// How hard writers push bytes toward the platter before reporting success.
///  - kNone:  stdio buffering only (fastest; a crash can lose whole files).
///  - kFlush: fflush to the kernel, so the data survives a process crash but
///            not a power loss.
///  - kFsync: fflush + fsync (and fsync of the parent directory after
///            renames), surviving power loss at the cost of one disk round
///            trip per commit.
enum class Durability { kNone, kFlush, kFsync };

/// Process-wide policy consulted by the stores at every commit point.
/// Initialized from NAUTILUS_DURABILITY ("none" | "flush" | "fsync", default
/// none) on first use; SetGlobalDurability (e.g. the --durability CLI flag)
/// overrides it.
Durability GlobalDurability();
void SetGlobalDurability(Durability d);

/// Parses "none" / "flush" / "fsync"; returns false on anything else.
bool ParseDurability(const std::string& name, Durability* out);
const char* DurabilityName(Durability d);

/// Applies `d` to an open write stream: no-op, fflush, or fflush + fsync.
Status SyncFile(std::FILE* f, Durability d);

/// With kFsync, fsyncs the directory containing `path` so a just-renamed
/// file's directory entry is durable too. No-op otherwise.
Status SyncParentDir(const std::string& path, Durability d);

// ---------------------------------------------------------------------------
// Shard footer
// ---------------------------------------------------------------------------
//
// Every shard and checkpoint file ends in a mandatory 32-byte trailer:
//
//   offset  size  field
//        0     4  header_crc     CRC32C of the header bytes
//        4     4  payload_crc    CRC32C of the payload bytes (extended on
//                                append with just the new bytes)
//        8     8  payload_bytes  bytes covered by payload_crc
//       16     4  version        footer format version (2)
//       20     4  footer_crc     CRC32C of the 20 bytes above (tear check)
//       24     8  magic          kShardFooterMagic, last so detection is
//                                one 8-byte read at EOF
//
// A file whose trailer is missing or fails these checks is torn or corrupt;
// there is no footer-less format.

constexpr int64_t kShardFooterBytes = 32;
constexpr int64_t kShardFooterMagic = 0x4e415554'46545232;  // "NAUTFTR2"
constexpr uint32_t kShardFooterVersion = 2;

struct ShardFooter {
  uint32_t header_crc = 0;
  uint32_t payload_crc = 0;
  int64_t payload_bytes = 0;
  uint32_t version = kShardFooterVersion;
};

/// Serializes `f` (with footer_crc and magic) into `out[kShardFooterBytes]`.
void EncodeShardFooter(const ShardFooter& f, char* out);

/// Decodes `bytes[kShardFooterBytes]` (the last 32 bytes of a file). True
/// when magic, footer_crc and version check out and `out` is filled in;
/// false for a missing or torn footer.
bool DecodeShardFooter(const char* bytes, ShardFooter* out);

/// Appends the footer for (header_crc, payload_crc, payload_bytes) at the
/// current position of `f`.
Status WriteShardFooter(std::FILE* f, const ShardFooter& footer);

/// Bumps the `store.corruption_detected` counter and returns
/// IoError(`detail`). Every integrity failure on a read path funnels through
/// this so detection is observable.
Status CorruptionError(const std::string& detail);

}  // namespace storage
}  // namespace nautilus

#endif  // NAUTILUS_STORAGE_INTEGRITY_H_
