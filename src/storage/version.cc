#include "storage/version.h"

#include <algorithm>

#include "common/codec.h"

namespace veloce::storage {

VersionSet::VersionSet(int l0_compaction_trigger, uint64_t level_base_bytes)
    : l0_compaction_trigger_(l0_compaction_trigger),
      level_base_bytes_(level_base_bytes) {}

uint64_t VersionSet::LevelBytes(int level) const {
  uint64_t total = 0;
  for (const auto& f : levels_[level]) total += f->file_size;
  return total;
}

uint64_t VersionSet::MaxBytesForLevel(int level) const {
  uint64_t max = level_base_bytes_;
  for (int i = 1; i < level; ++i) max *= 10;
  return max;
}

int VersionSet::OverfullLevel() const {
  for (int level = 1; level < kNumLevels - 1; ++level) {
    if (LevelBytes(level) > MaxBytesForLevel(level)) return level;
  }
  return -1;
}

int VersionSet::CompactionLevel() const {
  if (!levels_[0].empty() &&
      static_cast<int>(levels_[0].size()) >= l0_compaction_trigger_) {
    return 0;
  }
  return OverfullLevel();
}

FileList VersionSet::Overlapping(int level, Slice smallest_user,
                                 Slice largest_user) const {
  FileList out;
  for (const auto& f : levels_[level]) {
    const Slice file_small = ExtractUserKey(Slice(f->smallest));
    const Slice file_large = ExtractUserKey(Slice(f->largest));
    if (file_large < smallest_user || file_small > largest_user) continue;
    out.push_back(f);
  }
  return out;
}

Compaction VersionSet::PickCompaction(int level) {
  Compaction c;
  c.level = level;
  if (level == 0) {
    c.inputs[0] = levels_[0];
  } else {
    const size_t idx = compact_pointer_[level] % levels_[level].size();
    compact_pointer_[level] = idx + 1;
    c.inputs[0] = {levels_[level][idx]};
  }
  std::string smallest, largest;
  for (const auto& f : c.inputs[0]) {
    const Slice su = ExtractUserKey(Slice(f->smallest));
    const Slice lu = ExtractUserKey(Slice(f->largest));
    if (smallest.empty() || su < Slice(smallest)) smallest = su.ToString();
    if (largest.empty() || lu > Slice(largest)) largest = lu.ToString();
  }
  c.inputs[1] = Overlapping(level + 1, Slice(smallest), Slice(largest));
  return c;
}

void VersionSet::SortLevel(int level) {
  if (level == 0) {
    // Higher file number = newer flush.
    std::sort(levels_[0].begin(), levels_[0].end(),
              [](const auto& a, const auto& b) { return a->number > b->number; });
    return;
  }
  std::sort(levels_[level].begin(), levels_[level].end(),
            [](const auto& a, const auto& b) {
              return Slice(a->smallest) < Slice(b->smallest);
            });
}

void VersionSet::AddFlushed(std::shared_ptr<FileMeta> file) {
  levels_[0].insert(levels_[0].begin(), std::move(file));
}

void VersionSet::ApplyCompaction(const Compaction& c, const FileList& outputs) {
  for (int which = 0; which < 2; ++which) {
    FileList& list = levels_[c.level + which];
    const FileList& gone = c.inputs[which];
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](const std::shared_ptr<FileMeta>& f) {
                                for (const auto& g : gone) {
                                  if (g->number == f->number) return true;
                                }
                                return false;
                              }),
               list.end());
  }
  FileList& out = levels_[c.level + 1];
  out.insert(out.end(), outputs.begin(), outputs.end());
  SortLevel(c.level + 1);
}

std::string VersionSet::EncodeManifest(uint64_t next_file,
                                       SequenceNumber last_seq) const {
  std::string out;
  PutFixed64(&out, next_file);
  PutFixed64(&out, last_seq);
  uint32_t num_files = 0;
  for (const FileList& files : levels_) num_files += static_cast<uint32_t>(files.size());
  PutFixed32(&out, num_files);
  for (int level = 0; level < kNumLevels; ++level) {
    for (const auto& f : levels_[level]) {
      PutFixed32(&out, static_cast<uint32_t>(level));
      PutFixed64(&out, f->number);
      PutFixed64(&out, f->file_size);
      PutLengthPrefixed(&out, Slice(f->smallest));
      PutLengthPrefixed(&out, Slice(f->largest));
    }
  }
  return out;
}

Status VersionSet::LoadManifest(Slice in, uint64_t* next_file,
                                SequenceNumber* last_seq,
                                const std::function<Status(FileMeta*)>& open) {
  uint32_t num_files = 0;
  if (!GetFixed64(&in, next_file) || !GetFixed64(&in, last_seq) ||
      !GetFixed32(&in, &num_files)) {
    return Status::Corruption("bad manifest header");
  }
  for (uint32_t i = 0; i < num_files; ++i) {
    uint32_t level = 0;
    auto meta = std::make_shared<FileMeta>();
    Slice smallest, largest;
    if (!GetFixed32(&in, &level) || !GetFixed64(&in, &meta->number) ||
        !GetFixed64(&in, &meta->file_size) || !GetLengthPrefixed(&in, &smallest) ||
        !GetLengthPrefixed(&in, &largest) || level >= kNumLevels) {
      return Status::Corruption("bad manifest entry");
    }
    meta->smallest = smallest.ToString();
    meta->largest = largest.ToString();
    VELOCE_RETURN_IF_ERROR(open(meta.get()));
    levels_[level].push_back(std::move(meta));
  }
  for (int level = 0; level < kNumLevels; ++level) SortLevel(level);
  return Status::OK();
}

}  // namespace veloce::storage
