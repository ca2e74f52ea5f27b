#ifndef VELOCE_STORAGE_VERSION_H_
#define VELOCE_STORAGE_VERSION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/dbformat.h"
#include "storage/sstable.h"

namespace veloce::storage {

/// One live SSTable: its manifest record and, once opened, its reader.
struct FileMeta {
  uint64_t number = 0;
  uint64_t file_size = 0;
  std::string smallest, largest;  // internal keys
  std::shared_ptr<Table> table;
};
using FileList = std::vector<std::shared_ptr<FileMeta>>;

/// One compaction's inputs: files of `level` (inputs[0]) and the files of
/// level + 1 they overlap (inputs[1]). The output goes to level + 1.
struct Compaction {
  int level = 0;
  FileList inputs[2];
};

/// The engine's level set: which tables live at which level, each level's
/// round-robin compaction cursor, and the manifest image that records them
/// (LevelDB's VersionSet without the version history — readers pin the
/// tables they use by shared_ptr instead). Not thread-safe: the engine
/// mutex guards it.
class VersionSet {
 public:
  static constexpr int kNumLevels = 7;

  /// L0 compacts at `l0_compaction_trigger` files, L1 past
  /// `level_base_bytes`, each deeper level past 10x the one above.
  VersionSet(int l0_compaction_trigger, uint64_t level_base_bytes);

  /// L0 newest first (its files may overlap); L1+ sorted by smallest key.
  const FileList& files(int level) const { return levels_[level]; }
  uint64_t LevelBytes(int level) const;

  /// The shallowest L1+ level over its size target, or -1.
  int OverfullLevel() const;
  /// The level the next compaction step compacts (L0 at its file trigger,
  /// else OverfullLevel()), or -1.
  int CompactionLevel() const;
  /// All of L0, or a deeper level's next file round robin, plus what they
  /// overlap one level down.
  Compaction PickCompaction(int level);

  /// Installs a flushed table as the newest L0 file.
  void AddFlushed(std::shared_ptr<FileMeta> file);
  /// Replaces a compaction's inputs with its outputs.
  void ApplyCompaction(const Compaction& c, const FileList& outputs);

  /// Manifest image: next file number, last sequence, then every live file
  /// (level, number, size, smallest, largest) level by level.
  std::string EncodeManifest(uint64_t next_file, SequenceNumber last_seq) const;
  /// Restores the levels from a manifest image; `open` attaches each file's
  /// table, in manifest order.
  Status LoadManifest(Slice contents, uint64_t* next_file, SequenceNumber* last_seq,
                      const std::function<Status(FileMeta*)>& open);

 private:
  FileList Overlapping(int level, Slice smallest_user, Slice largest_user) const;
  uint64_t MaxBytesForLevel(int level) const;
  void SortLevel(int level);

  const int l0_compaction_trigger_;
  const uint64_t level_base_bytes_;
  FileList levels_[kNumLevels];
  size_t compact_pointer_[kNumLevels] = {};
};

}  // namespace veloce::storage

#endif  // VELOCE_STORAGE_VERSION_H_
