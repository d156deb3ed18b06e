#ifndef NAUTILUS_STORAGE_TENSOR_STORE_H_
#define NAUTILUS_STORAGE_TENSOR_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nautilus/storage/io_cache.h"
#include "nautilus/storage/io_stats.h"
#include "nautilus/tensor/tensor.h"
#include "nautilus/util/status.h"

namespace nautilus {
namespace storage {

/// One entry of a batched multi-key read. `end == -1` means "all rows".
struct KeyRange {
  std::string key;
  int64_t begin = 0;
  int64_t end = -1;
};

/// On-disk element encoding of a shard payload, stored in the header. The
/// header dims always describe the LOGICAL f32 tensor — reads of any dtype
/// return the same shape.
enum class ShardDtype : int64_t { kF32 = 0, kInt8 = 1, kF16 = 2 };

const char* ShardDtypeName(ShardDtype dtype);

/// Bytes one stored row (record) of `per_record` logical f32 elements
/// occupies on disk under `dtype`. An int8 row is a self-contained
/// [f32 absmax scale][per_record int8] unit — appends add whole rows and the
/// incremental footer CRC covers scales and payload alike; an f16 row is
/// 2 bytes per element.
int64_t ShardRowBytes(ShardDtype dtype, int64_t per_record);

/// Outcome of a TensorStore::Scrub pass over the shard directory.
struct ScrubReport {
  int64_t checked = 0;      // .tns files examined
  int64_t ok = 0;           // verified clean (structure and checksums)
  int64_t quarantined = 0;  // failed verification, renamed aside
  std::vector<std::string> quarantined_keys;  // decoded keys, sorted
};

/// File-backed store for materialized layer outputs. One binary file per
/// key; rows (records) can be appended incrementally as new labeled data
/// arrives each model-selection cycle (Section 4.2.3 of the Nautilus paper).
///
/// File format, one layout for every dtype: magic, dtype, rank, dims (int64
/// little-endian), the payload, then a mandatory 32-byte CRC32C footer
/// (integrity.h) covering header and payload; the payload checksum is
/// extended in place on AppendRows. A file is valid only at exactly
/// header + payload + footer bytes. Every read path — buffered, mmap, cache
/// fill, and Scrub — verifies checksums before trusting bytes, so torn or
/// bit-flipped shards surface as IoError, never as wrong floats. Writes
/// honor the process durability policy (integrity.h, NAUTILUS_DURABILITY /
/// --durability).
///
/// Quantized shards: when a writer passes ShardDtype::kInt8 / kF16 the
/// payload is row-encoded at reduced precision (see ShardRowBytes) and the
/// footer covers the quantized bytes and the per-row scales. Reads decode
/// back to f32 once at cache-fill time (dequant-on-view), so warm reads stay
/// zero-copy f32 views.
///
/// Reads are zero-copy: a miss mmaps the shard (`MappedFile`) and parks a
/// borrowed tensor in a byte-budgeted LRU cache (`IoCache`); hits and misses
/// alike return non-owning `Tensor` views whose holder pins the backing
/// bytes, so views stay valid after eviction, `Remove`, or a replacing `Put`
/// (writes go to a temp file and rename over, never truncating a mapped
/// inode; appends only grow the file past the mapped region). Writers
/// invalidate their key so the next read sees fresh bytes.
class TensorStore {
 public:
  /// Creates/uses `directory` (made on demand). `stats` may be shared with
  /// other stores and must outlive this object; pass nullptr to skip
  /// accounting. `cache_budget_bytes` bounds the in-memory shard cache:
  /// 0 disables caching, negative means DefaultCacheBudgetBytes().
  TensorStore(std::string directory, IoStats* stats,
              int64_t cache_budget_bytes = -1);

  /// Cache budget from the NAUTILUS_IO_CACHE_MB environment variable, or
  /// 256 MiB when unset/unparsable.
  static int64_t DefaultCacheBudgetBytes();

  /// Writes (replacing any previous value). Writes a temp file and renames
  /// it into place so concurrently live mmap views never see truncation.
  /// Non-kF32 dtypes write a quantized shard (lossy: int8 keeps ~2.4
  /// significant digits per row, f16 ~3.3 — use only for recomputable feeds,
  /// never for parameters).
  Status Put(const std::string& key, const Tensor& value,
             ShardDtype dtype = ShardDtype::kF32);

  /// Appends rows along the batch dimension (creates the file if absent,
  /// with `dtype`). For an existing file the STORED dtype wins — a shard
  /// never mixes encodings even if the quant mode changed between cycles.
  Status AppendRows(const std::string& key, const Tensor& rows,
                    ShardDtype dtype = ShardDtype::kF32);

  /// Stored payload encoding of `key` (kF32 when absent or unreadable).
  ShardDtype DtypeOf(const std::string& key) const;

  /// Reads the whole tensor. Returns a zero-copy view backed by the shard
  /// cache / file mapping; mutating the result detaches it (copy-on-write).
  Result<Tensor> Get(const std::string& key) const;

  /// Reads only rows [begin, end). On a cache hit this is a zero-copy slice
  /// view; on a miss it streams the whole payload from disk once, verifying
  /// its checksum and copying out the requested rows, without populating
  /// the cache.
  Result<Tensor> GetRows(const std::string& key, int64_t begin,
                         int64_t end) const;

  /// Zero-copy variant of GetRows: loads (and caches) the whole shard via
  /// mmap on a miss, then returns a view over the requested rows.
  Result<Tensor> GetRowsView(const std::string& key, int64_t begin,
                             int64_t end) const;

  /// Reads several keys/ranges concurrently on the global thread pool.
  /// Result order matches `ranges`; fails with the error of the
  /// lowest-indexed failing entry.
  Result<std::vector<Tensor>> GetBatch(const std::vector<KeyRange>& ranges) const;

  bool Contains(const std::string& key) const;
  Status Remove(const std::string& key);

  /// Rows currently stored under `key` (0 if absent).
  int64_t NumRows(const std::string& key) const;

  /// Bytes on disk under `key` (0 if absent).
  int64_t SizeBytes(const std::string& key) const;

  /// Total bytes across all keys.
  int64_t TotalBytes() const;

  /// Removes every stored tensor.
  Status Clear();

  /// Startup integrity pass: walks every shard, verifies it with the same
  /// map + parse + checksum check a cold Get runs (without filling the
  /// cache), and quarantines failures by renaming them to
  /// `<shard>.tns.quarantined` (so Contains/Get report the key as absent and
  /// the materializer recomputes it). Also sweeps stale `.tmp` files left by
  /// crashed writers. Feeds `store.scrub.*` metrics and the `store.scrub`
  /// span.
  ScrubReport Scrub();

  /// Raw keys of every stored tensor, decoded from the reversible filename
  /// encoding (so callers can compare against the keys they wrote).
  std::vector<std::string> ListKeys() const;

  const std::string& directory() const { return directory_; }

  /// Adjusts the shard-cache budget at runtime (0 disables; evicts down).
  void SetCacheBudget(int64_t budget_bytes) { cache_.SetBudget(budget_bytes); }
  int64_t cache_budget_bytes() const { return cache_.budget_bytes(); }
  int64_t cache_resident_bytes() const { return cache_.resident_bytes(); }
  int64_t cache_entry_count() const { return cache_.entry_count(); }

 private:
  std::string PathFor(const std::string& key) const;

  /// Cache-then-mmap load of a whole shard as a shared immutable tensor.
  Result<std::shared_ptr<const Tensor>> LoadShared(const std::string& key) const;

  std::string directory_;
  IoStats* stats_;
  mutable IoCache cache_;
};

}  // namespace storage
}  // namespace nautilus

#endif  // NAUTILUS_STORAGE_TENSOR_STORE_H_
