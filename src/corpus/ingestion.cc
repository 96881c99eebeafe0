#include "corpus/ingestion.h"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>

#include "obs/metrics.h"
#include "text/ingredient_parser.h"
#include "text/stemmer.h"
#include "util/csv.h"
#include "util/failpoint.h"
#include "util/file_io.h"
#include "util/hash.h"
#include "util/strings.h"

namespace culevo {
namespace {

struct IngestMetrics {
  obs::Counter* recipes;
  obs::Counter* delta_rebuilds;

  static const IngestMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Get();
    static const IngestMetrics metrics = {
        registry.counter("corpus.ingest.recipes"),
        registry.counter("corpus.ingest.delta_rebuilds"),
    };
    return metrics;
  }
};

}  // namespace

Result<RecipeCorpus> IngestRawRecipes(const std::vector<RawRecipe>& raw,
                                      const Lexicon& lexicon,
                                      IngestionReport* report) {
  IngestionReport local_report;
  IngestionReport& r = report != nullptr ? *report : local_report;
  r = IngestionReport{};
  std::map<std::string, size_t> unresolved;

  RecipeCorpus::Builder builder;
  for (const RawRecipe& recipe : raw) {
    ++r.recipes_in;
    Result<CuisineId> cuisine = CuisineFromCode(recipe.cuisine_code);
    if (!cuisine.ok()) {
      ++r.recipes_dropped;
      continue;
    }
    std::vector<IngredientId> ids;
    for (const std::string& line : recipe.ingredient_lines) {
      ++r.lines_in;
      const ParsedIngredientLine parsed = ParseIngredientLine(line);
      const std::vector<IngredientId> resolved =
          lexicon.ResolveMention(parsed.mention);
      if (resolved.empty()) {
        // Stemmed form: canonical key for the curation worklist.
        if (!parsed.mention.empty()) ++unresolved[StemPhrase(parsed.mention)];
        continue;
      }
      ++r.lines_resolved;
      ids.insert(ids.end(), resolved.begin(), resolved.end());
    }
    if (ids.empty()) {
      ++r.recipes_dropped;
      continue;
    }
    CULEVO_RETURN_IF_ERROR(builder.Add(cuisine.value(), std::move(ids)));
    ++r.recipes_ingested;
  }

  r.unresolved_mentions.assign(unresolved.begin(), unresolved.end());
  std::sort(r.unresolved_mentions.begin(), r.unresolved_mentions.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return builder.Build();
}

std::vector<RawRecipe> ParseRawRecipeText(std::string_view text) {
  std::vector<RawRecipe> out;
  RawRecipe current;
  bool in_block = false;
  const auto flush = [&]() {
    if (in_block && !current.cuisine_code.empty()) {
      out.push_back(std::move(current));
    }
    current = RawRecipe{};
    in_block = false;
  };
  for (const std::string& line : Split(text, '\n')) {
    const std::string_view trimmed = Trim(line);
    if (!trimmed.empty() && trimmed.front() == '#') continue;
    if (trimmed.empty()) {
      flush();
      continue;
    }
    if (!in_block) {
      current.cuisine_code = std::string(trimmed);
      in_block = true;
    } else {
      current.ingredient_lines.emplace_back(trimmed);
    }
  }
  flush();
  return out;
}

// ---------------------------------------------------------------------------
// IncrementalCorpus.

IncrementalCorpus::IncrementalCorpus() : stats_(kNumCuisines) {
  for (int c = 0; c < kNumCuisines; ++c) {
    stats_[static_cast<size_t>(c)].cuisine = static_cast<CuisineId>(c);
  }
  delta_.columns_appended_only = true;
}

IncrementalCorpus IncrementalCorpus::FromCorpus(
    const RecipeCorpus& corpus, std::span<const CuisineStats> stats) {
  IncrementalCorpus out;
  const std::span<const IngredientId> flat = corpus.flat();
  const std::span<const uint32_t> offsets = corpus.offsets();
  const std::span<const CuisineId> cuisines = corpus.cuisines();
  out.flat_.assign(flat.begin(), flat.end());
  out.offsets_.assign(offsets.begin(), offsets.end());
  out.cuisines_.assign(cuisines.begin(), cuisines.end());
  for (int c = 0; c <= kNumCuisines; ++c) {
    const std::span<const IngredientId> unique =
        c < kNumCuisines ? corpus.UniqueIngredients(static_cast<CuisineId>(c))
                         : corpus.UniqueIngredients();
    const size_t ci = static_cast<size_t>(c);
    out.unique_[ci].assign(unique.begin(), unique.end());
    for (const IngredientId id : unique) {
      if (out.seen_[ci].size() <= id) out.seen_[ci].resize(id + 1, false);
      out.seen_[ci][id] = true;
    }
    if (c < kNumCuisines) {
      const std::span<const uint32_t> shard =
          corpus.recipes_of(static_cast<CuisineId>(c));
      out.shards_[ci].assign(shard.begin(), shard.end());
      out.drained_[ci] = shard.size();
    }
  }
  if (stats.empty()) {
    out.stats_ = ComputeCuisineStats(corpus);
  } else {
    out.stats_.assign(stats.begin(), stats.end());
  }
  return out;
}

Status IncrementalCorpus::Add(CuisineId cuisine,
                              std::span<const IngredientId> ingredients) {
  const uint32_t index = static_cast<uint32_t>(cuisines_.size());
  CULEVO_RETURN_IF_ERROR(AppendCanonicalRecipe(cuisine, ingredients, &flat_));
  offsets_.push_back(static_cast<uint32_t>(flat_.size()));
  cuisines_.push_back(cuisine);
  shards_[cuisine].push_back(index);
  const RecipeRun added{
      std::span<const IngredientId>(flat_).subspan(offsets_[index]),
      std::span<const uint32_t>(offsets_).subspan(index),
      std::span<const CuisineId>(cuisines_).subspan(index)};

  // Unique lists: a sorted insert only on the first sighting of an id in
  // each scope, so steady-state appends never shift the lists.
  for (const size_t scope : {static_cast<size_t>(cuisine),
                             static_cast<size_t>(kNumCuisines)}) {
    for (const IngredientId id : added.flat) {
      if (seen_[scope].size() <= id) seen_[scope].resize(id + 1, false);
      if (seen_[scope][id]) continue;
      seen_[scope][id] = true;
      std::vector<IngredientId>& list = unique_[scope];
      list.insert(std::lower_bound(list.begin(), list.end(), id), id);
    }
  }

  // Stats, advanced by the rule ComputeCuisineStats derives them with.
  ExtendCuisineStats(added, &stats_);
  stats_[cuisine].num_unique_ingredients = unique_[cuisine].size();

  delta_.cuisine[cuisine] = true;
  IngestMetrics::Get().recipes->Increment();
  return Status::Ok();
}

std::span<const uint32_t> IncrementalCorpus::DrainNewRecipes(
    CuisineId cuisine) {
  const std::span<const uint32_t> shard = shards_[cuisine];
  return shard.subspan(std::exchange(drained_[cuisine], shard.size()));
}

namespace {

/// Concatenates `lists` into `flat`, with list i spanning
/// offsets[i]..offsets[i + 1] (RecipeCorpus's shard and unique layout).
template <typename T, size_t N>
void Flatten(const std::array<std::vector<T>, N>& lists, std::vector<T>* flat,
             std::vector<uint32_t>* offsets) {
  offsets->assign(1, 0);
  for (const std::vector<T>& list : lists) {
    flat->insert(flat->end(), list.begin(), list.end());
    offsets->push_back(static_cast<uint32_t>(flat->size()));
  }
}

}  // namespace

RecipeCorpus IncrementalCorpus::Adopt(std::vector<IngredientId> flat,
                                      std::vector<uint32_t> offsets,
                                      std::vector<CuisineId> cuisines) const {
  RecipeCorpus corpus;
  RecipeCorpus::Storage& s = corpus.storage_;
  s.flat = std::move(flat);
  s.offsets = std::move(offsets);
  s.cuisines = std::move(cuisines);
  s.shard_index.reserve(s.cuisines.size());
  Flatten(shards_, &s.shard_index, &s.shard_offsets);
  Flatten(unique_, &s.unique_flat, &s.unique_offsets);
  corpus.RebindViews();
  return corpus;
}

Result<RecipeCorpus> IncrementalCorpus::Materialize() const& {
  return Adopt(flat_, offsets_, cuisines_);
}

Result<RecipeCorpus> IncrementalCorpus::Materialize() && {
  RecipeCorpus corpus =
      Adopt(std::move(flat_), std::move(offsets_), std::move(cuisines_));
  *this = IncrementalCorpus();
  return corpus;
}

Status IncrementalCorpus::WriteSnapshot(const std::string& path,
                                        const SnapshotWriteOptions& options) {
  SnapshotWriter::Input input;
  input.flat = flat_;
  input.offsets = offsets_;
  input.cuisines = cuisines_;
  for (int c = 0; c < kNumCuisines; ++c) {
    const size_t ci = static_cast<size_t>(c);
    input.shards[ci] = shards_[ci];
    input.unique[ci] = unique_[ci];
  }
  input.unique[kNumCuisines] = unique_[kNumCuisines];
  input.stats = stats_;

  int dirty_cuisines = 0;
  for (const bool dirty : delta_.cuisine) {
    if (dirty) ++dirty_cuisines;
  }
  CULEVO_RETURN_IF_ERROR(writer_.Write(path, input, delta_, options));
  IngestMetrics::Get().delta_rebuilds->Increment(dirty_cuisines);
  delta_ = SnapshotWriter::Dirty{};
  delta_.columns_appended_only = true;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// CULEVO-DELTA 2.

namespace {

constexpr char kDeltaMagic[8] = {'C', 'U', 'L', 'E', 'V', 'O', 'D', 'L'};
constexpr uint32_t kDeltaEndianProbe = 0x01020304;
/// magic, version, endian probe: the bytes the checksum does not cover.
constexpr size_t kDeltaPreambleBytes = 16;
/// base_recipes, base_fingerprint, record_count: checksummed header.
constexpr size_t kDeltaHeaderFieldBytes = 24;
/// A record is at least its cuisine byte and its ingredient count.
constexpr size_t kDeltaMinRecordBytes = sizeof(uint8_t) + sizeof(uint32_t);

template <typename T>
void DeltaAppendPod(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Bounds-checked fixed-width read; false past the end of the file.
template <typename T>
bool DeltaReadPod(std::string_view bytes, size_t* cursor, T* out) {
  if (bytes.size() - *cursor < sizeof(T)) return false;
  std::memcpy(out, bytes.data() + *cursor, sizeof(T));
  *cursor += sizeof(T);
  return true;
}

/// The v2 checksum: FNV-1a-64 over the header fields after the endianness
/// probe, resumed over the record payload. `header` starts at those
/// fields; the stored checksum sits between them and the payload.
uint64_t DeltaChecksum(std::string_view header, std::string_view payload) {
  return Fnv1a64(payload.data(), payload.size(),
                 Fnv1a64(header.data(), kDeltaHeaderFieldBytes));
}

}  // namespace

Status WriteCorpusDelta(const std::string& path, const CorpusDelta& delta,
                        const SnapshotWriteOptions& options) {
  std::string payload;
  for (const CorpusDeltaRecord& record : delta.records) {
    if (record.cuisine >= kNumCuisines) {
      return Status::InvalidArgument(
          StrFormat("delta record cuisine id %d out of range",
                    static_cast<int>(record.cuisine)));
    }
    if (record.ingredients.empty()) {
      return Status::InvalidArgument("delta record has no ingredients");
    }
    DeltaAppendPod<uint8_t>(&payload, record.cuisine);
    DeltaAppendPod<uint32_t>(&payload,
                             static_cast<uint32_t>(record.ingredients.size()));
    for (const IngredientId id : record.ingredients) {
      DeltaAppendPod<IngredientId>(&payload, id);
    }
  }

  std::string content;
  content.append(kDeltaMagic, sizeof(kDeltaMagic));
  DeltaAppendPod<uint32_t>(&content, kCorpusDeltaVersion);
  DeltaAppendPod<uint32_t>(&content, kDeltaEndianProbe);
  DeltaAppendPod<uint64_t>(&content, delta.base_recipes);
  DeltaAppendPod<uint64_t>(&content, delta.base_fingerprint);
  DeltaAppendPod<uint64_t>(&content,
                           static_cast<uint64_t>(delta.records.size()));
  DeltaAppendPod<uint64_t>(
      &content,
      DeltaChecksum(std::string_view(content).substr(kDeltaPreambleBytes),
                    payload));
  content += payload;

  AtomicWriteOptions write_options;
  write_options.sync = options.sync;
  return WriteFileAtomic(path, content, write_options);
}

Result<CorpusDelta> LoadCorpusDelta(const std::string& path) {
  CULEVO_FAILPOINT("corpus.delta.read");
  if (::access(path.c_str(), F_OK) != 0) {
    return Status::NotFound("delta file not found: " + path);
  }
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  const std::string_view bytes = *content;

  size_t cursor = 0;
  char magic[sizeof(kDeltaMagic)];
  if (bytes.size() < sizeof(magic) ||
      std::memcmp(bytes.data(), kDeltaMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(path + " is not a CULEVO-DELTA file");
  }
  cursor += sizeof(magic);
  uint32_t version = 0;
  uint32_t endian = 0;
  CorpusDelta delta;
  uint64_t record_count = 0;
  uint64_t checksum = 0;
  if (!DeltaReadPod(bytes, &cursor, &version) ||
      !DeltaReadPod(bytes, &cursor, &endian) ||
      !DeltaReadPod(bytes, &cursor, &delta.base_recipes) ||
      !DeltaReadPod(bytes, &cursor, &delta.base_fingerprint) ||
      !DeltaReadPod(bytes, &cursor, &record_count) ||
      !DeltaReadPod(bytes, &cursor, &checksum)) {
    return Status::DataLoss(path + ": truncated delta header");
  }
  if (version != kCorpusDeltaVersion) {
    return Status::FailedPrecondition(
        StrFormat("%s: delta format version %u, this build reads %u",
                  path.c_str(), version, kCorpusDeltaVersion));
  }
  if (endian != kDeltaEndianProbe) {
    return Status::FailedPrecondition(
        path + ": delta written with a different byte order");
  }
  if (DeltaChecksum(bytes.substr(kDeltaPreambleBytes),
                    bytes.substr(cursor)) != checksum) {
    return Status::DataLoss(path + ": delta checksum mismatch");
  }
  // Counts are checked against the bytes that follow before anything is
  // sized by them: a crafted count must not become a huge allocation.
  if (record_count > (bytes.size() - cursor) / kDeltaMinRecordBytes) {
    return Status::DataLoss(StrFormat(
        "%s: delta header claims %llu records, more than the file holds",
        path.c_str(), static_cast<unsigned long long>(record_count)));
  }

  delta.records.reserve(record_count);
  for (uint64_t r = 0; r < record_count; ++r) {
    CorpusDeltaRecord record;
    uint8_t cuisine = 0;
    uint32_t count = 0;
    if (!DeltaReadPod(bytes, &cursor, &cuisine) ||
        !DeltaReadPod(bytes, &cursor, &count)) {
      return Status::DataLoss(path + ": truncated delta record");
    }
    if (cuisine >= kNumCuisines) {
      return Status::DataLoss(
          StrFormat("%s: delta record cuisine id %d out of range",
                    path.c_str(), static_cast<int>(cuisine)));
    }
    if (count > (bytes.size() - cursor) / sizeof(IngredientId)) {
      return Status::DataLoss(StrFormat(
          "%s: delta record claims %u ingredients, more than the file holds",
          path.c_str(), count));
    }
    record.cuisine = static_cast<CuisineId>(cuisine);
    record.ingredients.resize(count);
    for (IngredientId& id : record.ingredients) {
      DeltaReadPod(bytes, &cursor, &id);  // In bounds: checked above.
    }
    delta.records.push_back(std::move(record));
  }
  if (cursor != bytes.size()) {
    return Status::DataLoss(path + ": trailing bytes after delta records");
  }
  return delta;
}

}  // namespace culevo
