#ifndef NAUTILUS_STORAGE_CHECKPOINT_STORE_H_
#define NAUTILUS_STORAGE_CHECKPOINT_STORE_H_

#include <string>

#include "nautilus/graph/model_graph.h"
#include "nautilus/storage/io_stats.h"
#include "nautilus/util/status.h"

namespace nautilus {
namespace storage {

/// Saves and restores model parameters on disk. The paper's Figure 11
/// analysis hinges on what gets checkpointed: current practice writes the
/// whole model (frozen parameters included, ~400-500 MB for BERT-base) after
/// every training run, while Nautilus checkpoints rewritten graphs whose
/// frozen parameters are pruned.
///
/// Checkpoints end in the same mandatory 32-byte CRC32C footer as tensor
/// shards (integrity.h); a file without a valid footer is rejected.
/// Saves are atomic (temp file + rename, honoring the process durability
/// policy) and loads are all-or-nothing: the whole file is checksum-verified
/// and parsed before any parameter is overwritten.
class CheckpointStore {
 public:
  CheckpointStore(std::string directory, IoStats* stats);

  /// Serializes parameter values of `model`'s layers (shared layers once).
  /// With include_frozen=false, only trainable layers are written. Writes a
  /// temp file and renames it into place, so a crash mid-save leaves the
  /// previous checkpoint intact under the live name.
  Status SaveModel(const graph::ModelGraph& model, const std::string& key,
                   bool include_frozen);

  /// Restores parameter values into `model`'s layer instances in place.
  /// Layers absent from the checkpoint are left untouched. Verifies the
  /// file's checksums and fully deserializes it before applying anything: on
  /// any error (IoError for corruption) the model is left untouched.
  Status LoadModel(const graph::ModelGraph& model, const std::string& key);

  bool Contains(const std::string& key) const;
  int64_t SizeBytes(const std::string& key) const;
  Status Remove(const std::string& key);

  /// Analytic size of the checkpoint SaveModel would produce, without
  /// writing (used by the simulated executor; works on stub parameters).
  static double EstimateBytes(const graph::ModelGraph& model,
                              bool include_frozen);

 private:
  std::string PathFor(const std::string& key) const;

  std::string directory_;
  IoStats* stats_;
};

}  // namespace storage
}  // namespace nautilus

#endif  // NAUTILUS_STORAGE_CHECKPOINT_STORE_H_
