#include "nautilus/storage/checkpoint_store.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "nautilus/storage/fault_injection.h"
#include "nautilus/storage/integrity.h"
#include "nautilus/util/logging.h"

namespace nautilus {
namespace storage {

namespace fs = std::filesystem;

namespace {

constexpr int64_t kMagic = 0x4e4155544350'0001;  // "NAUTCP" + version
constexpr int64_t kHeaderBytes = 2 * static_cast<int64_t>(sizeof(int64_t));

// RAII FILE handle (local copy; the stores keep no shared file machinery).
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

int Seek64(std::FILE* f, int64_t offset, int whence) {
#if defined(_WIN32)
  return ::_fseeki64(f, offset, whence);
#else
  return ::fseeko(f, static_cast<off_t>(offset), whence);
#endif
}

// Write funnel that keeps a running CRC32C and byte count of everything it
// emits, so the footer checksums drop out of the normal serialization pass.
struct CrcWriter {
  std::FILE* f = nullptr;
  uint32_t crc = 0;
  int64_t bytes = 0;

  bool Write(const void* p, size_t n) {
    if (n == 0) return true;
    if (std::fwrite(p, 1, n, f) != n) return false;
    crc = Crc32c(crc, p, n);
    bytes += static_cast<int64_t>(n);
    return true;
  }
  bool WriteI64(int64_t v) { return Write(&v, sizeof(int64_t)); }
};

Status WriteString(CrcWriter* w, const std::string& s) {
  if (!w->WriteI64(static_cast<int64_t>(s.size())) ||
      !w->Write(s.data(), s.size())) {
    return Status::IoError("short string write");
  }
  return Status::OK();
}

Result<std::string> ReadString(std::FILE* f) {
  int64_t len = 0;
  if (std::fread(&len, sizeof(int64_t), 1, f) != 1 || len < 0 ||
      len > (1 << 20)) {
    return Status::IoError("bad string length");
  }
  std::string s(static_cast<size_t>(len), '\0');
  if (len > 0 && std::fread(s.data(), 1, s.size(), f) != s.size()) {
    return Status::IoError("short string read");
  }
  return s;
}

// Unique layers of the model, in node order, filtered by freezing.
std::vector<nn::Layer*> UniqueLayers(const graph::ModelGraph& model,
                                     bool include_frozen) {
  std::vector<nn::Layer*> layers;
  std::unordered_set<const nn::Layer*> seen;
  for (const graph::GraphNode& node : model.nodes()) {
    if (!include_frozen && node.frozen) continue;
    if (node.layer->Params().empty()) continue;
    if (!seen.insert(node.layer.get()).second) continue;
    layers.push_back(node.layer.get());
  }
  return layers;
}

void SerializeCheckpointHeader(int64_t num_params, char* out) {
  std::memcpy(out, &kMagic, sizeof(int64_t));
  std::memcpy(out + sizeof(int64_t), &num_params, sizeof(int64_t));
}

}  // namespace

CheckpointStore::CheckpointStore(std::string directory, IoStats* stats)
    : directory_(std::move(directory)), stats_(stats) {
  std::error_code ec;
  fs::create_directories(directory_, ec);
  NAUTILUS_CHECK(!ec) << "cannot create checkpoint directory " << directory_;
}

std::string CheckpointStore::PathFor(const std::string& key) const {
  std::string safe;
  for (char c : key) {
    safe.push_back((std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == '-' || c == '.')
                       ? c
                       : '_');
  }
  return directory_ + "/" + safe + ".ckpt";
}

Status CheckpointStore::SaveModel(const graph::ModelGraph& model,
                                  const std::string& key,
                                  bool include_frozen) {
  const std::string path = PathFor(key);
  const Durability durability = GlobalDurability();
  // Write-then-rename: the previous checkpoint under this key stays intact
  // until the replacement is fully written (and synced, per the durability
  // policy). A crash mid-save leaves a stale .tmp and the old checkpoint,
  // never a torn file under the live name.
  const std::string tmp = path + ".tmp";
  int64_t payload_bytes = 0;
  {
    File f(tmp, "wb");
    if (!f.ok()) return Status::IoError("cannot open checkpoint: " + key);
    std::vector<nn::Layer*> layers = UniqueLayers(model, include_frozen);
    int64_t num_params = 0;
    for (nn::Layer* layer : layers) {
      num_params += static_cast<int64_t>(layer->Params().size());
    }
    char header[kHeaderBytes];
    SerializeCheckpointHeader(num_params, header);
    if (std::fwrite(header, 1, sizeof(header), f.get()) != sizeof(header)) {
      return Status::IoError("short checkpoint header write");
    }
    CrcWriter w{f.get()};
    for (nn::Layer* layer : layers) {
      for (nn::Parameter* p : layer->Params()) {
        NAUTILUS_CHECK(!p->IsStub())
            << "cannot checkpoint profile-only layer " << layer->name();
        NAUTILUS_RETURN_IF_ERROR(WriteString(&w, p->name));
        if (!w.WriteI64(p->shape.rank())) {
          return Status::IoError("short rank write");
        }
        for (int i = 0; i < p->shape.rank(); ++i) {
          if (!w.WriteI64(p->shape.dim(i))) {
            return Status::IoError("short dim write");
          }
        }
        const size_t n = static_cast<size_t>(p->value.NumElements());
        if (!w.Write(p->value.data(), n * sizeof(float))) {
          return Status::IoError("short param write");
        }
      }
    }
    ShardFooter footer;
    footer.header_crc = Crc32c(0, header, sizeof(header));
    footer.payload_crc = w.crc;
    footer.payload_bytes = w.bytes;
    payload_bytes = w.bytes;
    NAUTILUS_RETURN_IF_ERROR(WriteShardFooter(f.get(), footer));
    NAUTILUS_RETURN_IF_ERROR(SyncFile(f.get(), durability));
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    return Status::IoError("rename failed for " + key + ": " + ec.message());
  }
  NAUTILUS_RETURN_IF_ERROR(SyncParentDir(path, durability));
  if (stats_ != nullptr) {
    stats_->RecordWrite(kHeaderBytes + payload_bytes + kShardFooterBytes);
  }
  FaultInjector::Global().OnWriteCommitted(path);
  return Status::OK();
}

Status CheckpointStore::LoadModel(const graph::ModelGraph& model,
                                  const std::string& key) {
  const std::string path = PathFor(key);
  std::error_code ec;
  const auto size_or = fs::file_size(path, ec);
  if (ec) return Status::NotFound("no checkpoint: " + key);
  const int64_t file_size = static_cast<int64_t>(size_or);
  File f(path, "rb");
  if (!f.ok()) return Status::NotFound("no checkpoint: " + key);
  if (file_size < kHeaderBytes + kShardFooterBytes) {
    return CorruptionError("checkpoint too small for header and footer: " +
                           key);
  }
  int64_t magic = 0;
  int64_t num_params = 0;
  if (std::fread(&magic, sizeof(int64_t), 1, f.get()) != 1 ||
      std::fread(&num_params, sizeof(int64_t), 1, f.get()) != 1) {
    return CorruptionError("short checkpoint header: " + key);
  }
  if (magic != kMagic || num_params < 0) {
    return CorruptionError("bad checkpoint header: " + key);
  }
  // The footer is mandatory: its checksums are verified in full before the
  // parse touches a single parameter.
  ShardFooter footer;
  char tail[kShardFooterBytes];
  if (Seek64(f.get(), file_size - kShardFooterBytes, SEEK_SET) != 0 ||
      std::fread(tail, 1, sizeof(tail), f.get()) != sizeof(tail)) {
    return CorruptionError("short checkpoint footer read: " + key);
  }
  if (!DecodeShardFooter(tail, &footer)) {
    return CorruptionError("missing or torn checkpoint footer: " + key);
  }
  const int64_t payload_end = file_size - kShardFooterBytes;
  char header[kHeaderBytes];
  SerializeCheckpointHeader(num_params, header);
  if (footer.header_crc != Crc32c(0, header, sizeof(header))) {
    return CorruptionError("checkpoint header checksum mismatch: " + key);
  }
  if (footer.payload_bytes != payload_end - kHeaderBytes) {
    return CorruptionError("checkpoint size mismatch (torn write?): " + key);
  }
  // Whole-file checksum pass BEFORE the parse touches any parameter, so a
  // bit-flip anywhere in the file rejects the checkpoint outright.
  if (Seek64(f.get(), kHeaderBytes, SEEK_SET) != 0) {
    return Status::IoError("seek failed: " + key);
  }
  std::vector<char> buf(1 << 20);
  uint32_t payload_crc = 0;
  int64_t left = footer.payload_bytes;
  while (left > 0) {
    const size_t chunk = static_cast<size_t>(
        std::min<int64_t>(left, static_cast<int64_t>(buf.size())));
    if (std::fread(buf.data(), 1, chunk, f.get()) != chunk) {
      return CorruptionError("short checkpoint read: " + key);
    }
    payload_crc = Crc32c(payload_crc, buf.data(), chunk);
    left -= static_cast<int64_t>(chunk);
  }
  if (payload_crc != footer.payload_crc) {
    return CorruptionError("checkpoint payload checksum mismatch: " + key);
  }
  if (Seek64(f.get(), kHeaderBytes, SEEK_SET) != 0) {
    return Status::IoError("seek failed: " + key);
  }
  // Index the model's parameters by name.
  std::unordered_map<std::string, nn::Parameter*> by_name;
  for (nn::Layer* layer : UniqueLayers(model, /*include_frozen=*/true)) {
    for (nn::Parameter* p : layer->Params()) by_name[p->name] = p;
  }
  // Parse every parameter into a staging area first and apply only after the
  // whole file deserializes cleanly: a checkpoint either loads entirely or
  // leaves the model untouched, never half-overwritten.
  struct StagedParam {
    nn::Parameter* target;
    Tensor value;
  };
  std::vector<StagedParam> staged;
  int64_t pos = kHeaderBytes;
  for (int64_t i = 0; i < num_params; ++i) {
    NAUTILUS_ASSIGN_OR_RETURN(std::string name, ReadString(f.get()));
    pos += static_cast<int64_t>(sizeof(int64_t) + name.size());
    int64_t rank = 0;
    if (std::fread(&rank, sizeof(int64_t), 1, f.get()) != 1 || rank < 0 ||
        rank > 8) {
      return CorruptionError("bad param rank: " + key);
    }
    pos += static_cast<int64_t>(sizeof(int64_t));
    std::vector<int64_t> dims(static_cast<size_t>(rank));
    int64_t elements = 1;
    for (int64_t d = 0; d < rank; ++d) {
      int64_t& dim = dims[static_cast<size_t>(d)];
      if (std::fread(&dim, sizeof(int64_t), 1, f.get()) != 1 || dim < 0) {
        return CorruptionError("bad param dims: " + key);
      }
      if (dim > 0 && elements > (INT64_MAX / 4) / dim) {
        return CorruptionError("bad param dims: " + key);
      }
      elements *= dim;
      pos += static_cast<int64_t>(sizeof(int64_t));
    }
    // Cross-check against the actual bytes left in the file before the
    // allocation: corrupt dims can never drive a huge or past-EOF read.
    const int64_t value_bytes = elements * static_cast<int64_t>(sizeof(float));
    if (value_bytes > payload_end - pos) {
      return CorruptionError("param overruns checkpoint: " + key);
    }
    Shape shape(dims);
    Tensor value(shape);
    const size_t n = static_cast<size_t>(value.NumElements());
    if (n > 0 && std::fread(value.data(), sizeof(float), n, f.get()) != n) {
      return CorruptionError("short param read: " + key);
    }
    pos += value_bytes;
    auto it = by_name.find(name);
    if (it != by_name.end()) {
      if (it->second->shape != shape) {
        return Status::InvalidArgument("shape mismatch for param " + name);
      }
      staged.push_back(StagedParam{it->second, std::move(value)});
    }
  }
  for (StagedParam& s : staged) {
    s.target->value = std::move(s.value);
  }
  if (stats_ != nullptr) stats_->RecordRead(pos);
  return Status::OK();
}

bool CheckpointStore::Contains(const std::string& key) const {
  std::error_code ec;
  return fs::exists(PathFor(key), ec);
}

int64_t CheckpointStore::SizeBytes(const std::string& key) const {
  std::error_code ec;
  const auto size = fs::file_size(PathFor(key), ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

Status CheckpointStore::Remove(const std::string& key) {
  std::error_code ec;
  fs::remove(PathFor(key), ec);
  if (ec) return Status::IoError("remove failed: " + key);
  return Status::OK();
}

double CheckpointStore::EstimateBytes(const graph::ModelGraph& model,
                                      bool include_frozen) {
  double bytes = 2.0 * sizeof(int64_t);
  for (nn::Layer* layer : UniqueLayers(model, include_frozen)) {
    for (nn::Parameter* p : layer->Params()) {
      bytes += static_cast<double>(sizeof(int64_t)) * (2 + p->shape.rank()) +
               static_cast<double>(p->name.size()) +
               static_cast<double>(p->NumElements()) * sizeof(float);
    }
  }
  return bytes;
}

}  // namespace storage
}  // namespace nautilus
