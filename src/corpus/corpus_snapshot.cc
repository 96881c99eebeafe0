#include "corpus/corpus_snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/file_io.h"
#include "util/hash.h"
#include "util/stopwatch.h"
#include "util/strings.h"

namespace culevo {
namespace {

// ---------------------------------------------------------------------------
// Container constants (layout documented in docs/DATA_FORMATS.md).

constexpr char kMagic[16] = "CULEVO-CORPUS";  // NUL-padded to 16 bytes.
constexpr uint32_t kEndianMarker = 0x01020304;
constexpr size_t kHeaderBytes = 64;
constexpr size_t kTableEntryBytes = 32;
constexpr size_t kSectionAlign = 8;

constexpr uint32_t kSecFlat = 1;
constexpr uint32_t kSecOffsets = 2;
constexpr uint32_t kSecCuisines = 3;
constexpr uint32_t kSecStats = 4;
constexpr uint32_t kSecShardBase = 0x100;   // + cuisine id
constexpr uint32_t kSecUniqueBase = 0x200;  // + cuisine id; +kNumCuisines
                                            // is the corpus-wide list.

struct SnapshotMetrics {
  obs::Counter* writes;
  obs::Counter* bytes_written;
  obs::Counter* mmap_loads;
  obs::Counter* fallback_loads;
  obs::Counter* sections_rewritten;
  obs::Counter* sections_reused;
  obs::Histogram* load_ms;

  static const SnapshotMetrics& Get() {
    auto& registry = obs::MetricsRegistry::Get();
    static const SnapshotMetrics metrics = {
        registry.counter("corpus.snapshot.writes"),
        registry.counter("corpus.snapshot.bytes_written"),
        registry.counter("corpus.snapshot.mmap_loads"),
        registry.counter("corpus.snapshot.fallback_loads"),
        registry.counter("corpus.snapshot.sections_rewritten"),
        registry.counter("corpus.snapshot.sections_reused"),
        registry.histogram("corpus.snapshot.load_ms"),
    };
    return metrics;
  }
};

Status CheckHostEndianness() {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::Unimplemented(
        "CULEVO-CORPUS snapshots are little-endian; this host is not");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Serialization helpers.

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

template <typename T>
void AppendPod(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  AppendRaw(out, &value, sizeof(value));
}

template <typename T>
std::string ColumnBytes(std::span<const T> column) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::string out;
  out.resize(column.size_bytes());
  if (!column.empty()) {
    std::memcpy(out.data(), column.data(), column.size_bytes());
  }
  return out;
}

std::string SerializeStats(std::span<const CuisineStats> stats) {
  std::string out;
  for (const CuisineStats& s : stats) {
    AppendPod<uint32_t>(&out, s.cuisine);
    AppendPod<uint32_t>(&out, 0);  // reserved
    AppendPod<uint64_t>(&out, s.num_recipes);
    AppendPod<uint64_t>(&out, s.num_unique_ingredients);
    AppendPod<uint64_t>(&out, std::bit_cast<uint64_t>(s.mean_recipe_size));
    AppendPod<int64_t>(&out, s.min_recipe_size);
    AppendPod<int64_t>(&out, s.max_recipe_size);
    AppendPod<uint64_t>(&out, s.size_histogram.size());
    for (size_t bucket : s.size_histogram) {
      AppendPod<uint64_t>(&out, bucket);
    }
  }
  return out;
}

/// Bounds-checked cursor over the stats section.
class StatsCursor {
 public:
  StatsCursor(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Read(T* out) {
    if (pos_ + sizeof(T) > size_) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool AtEnd() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Result<std::vector<CuisineStats>> ParseStats(const uint8_t* data,
                                             size_t size) {
  const auto corrupt = [] {
    return Status::DataLoss("corpus snapshot: malformed stats section");
  };
  std::vector<CuisineStats> out;
  out.reserve(kNumCuisines);
  StatsCursor cursor(data, size);
  for (int c = 0; c < kNumCuisines; ++c) {
    CuisineStats s;
    uint32_t cuisine = 0;
    uint32_t reserved = 0;
    uint64_t num_recipes = 0;
    uint64_t num_unique = 0;
    uint64_t mean_bits = 0;
    int64_t min_size = 0;
    int64_t max_size = 0;
    uint64_t hist_len = 0;
    if (!cursor.Read(&cuisine) || !cursor.Read(&reserved) ||
        !cursor.Read(&num_recipes) || !cursor.Read(&num_unique) ||
        !cursor.Read(&mean_bits) || !cursor.Read(&min_size) ||
        !cursor.Read(&max_size) || !cursor.Read(&hist_len)) {
      return corrupt();
    }
    if (cuisine != static_cast<uint32_t>(c) ||
        hist_len > size / sizeof(uint64_t)) {
      return corrupt();
    }
    s.cuisine = static_cast<CuisineId>(cuisine);
    s.num_recipes = num_recipes;
    s.num_unique_ingredients = num_unique;
    s.mean_recipe_size = std::bit_cast<double>(mean_bits);
    s.min_recipe_size = static_cast<int>(min_size);
    s.max_recipe_size = static_cast<int>(max_size);
    s.size_histogram.resize(hist_len);
    for (uint64_t i = 0; i < hist_len; ++i) {
      uint64_t bucket = 0;
      if (!cursor.Read(&bucket)) return corrupt();
      s.size_histogram[i] = bucket;
    }
    out.push_back(std::move(s));
  }
  if (!cursor.AtEnd()) return corrupt();
  return out;
}

// ---------------------------------------------------------------------------
// Load-side file backing: an mmap'ed region or an owned aligned buffer.

struct SnapshotBacking {
  const uint8_t* data = nullptr;
  size_t size = 0;
  bool mapped = false;
  void* map_addr = nullptr;
  std::vector<uint64_t> buffer;  ///< Fallback storage, 8-byte aligned.

  ~SnapshotBacking() {
    if (map_addr != nullptr) ::munmap(map_addr, size);
  }
};

Result<std::shared_ptr<SnapshotBacking>> OpenBacking(
    const std::string& path, const SnapshotLoadOptions& options) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("no corpus snapshot at " + path);
    }
    return Status::IOError(StrFormat("cannot open %s: %s", path.c_str(),
                                     std::strerror(errno)));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status status = Status::IOError(StrFormat(
        "cannot stat %s: %s", path.c_str(), std::strerror(errno)));
    ::close(fd);
    return status;
  }
  auto backing = std::make_shared<SnapshotBacking>();
  backing->size = static_cast<size_t>(st.st_size);

  if (options.allow_mmap && backing->size > 0) {
    void* addr =
        ::mmap(nullptr, backing->size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr != MAP_FAILED) {
      backing->map_addr = addr;
      backing->data = static_cast<const uint8_t*>(addr);
      backing->mapped = true;
      ::close(fd);
      return backing;
    }
    // Fall through to the buffered read; a filesystem that cannot mmap
    // must not make snapshots unreadable.
  }

  backing->buffer.resize((backing->size + 7) / 8, 0);
  uint8_t* dst = reinterpret_cast<uint8_t*>(backing->buffer.data());
  size_t done = 0;
  while (done < backing->size) {
    const ssize_t n =
        ::read(fd, dst + done, backing->size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = Status::IOError(StrFormat(
          "read failure on %s: %s", path.c_str(), std::strerror(errno)));
      ::close(fd);
      return status;
    }
    if (n == 0) break;  // Shrank underneath us; caught by size checks.
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  if (done != backing->size) {
    return Status::DataLoss(StrFormat(
        "%s: short read (%zu of %zu bytes)", path.c_str(), done,
        backing->size));
  }
  backing->data = dst;
  backing->mapped = false;
  return backing;
}

template <typename T>
T ReadPod(const uint8_t* data, size_t offset) {
  T value;
  std::memcpy(&value, data + offset, sizeof(T));
  return value;
}

struct SectionEntry {
  uint32_t id = 0;
  uint64_t offset = 0;
  uint64_t size = 0;
  uint64_t checksum = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Content identity.

CorpusContentState CorpusContentState::Of(const RecipeCorpus& corpus) {
  const std::span<const IngredientId> flat = corpus.flat();
  const std::span<const uint32_t> offsets = corpus.offsets();
  const std::span<const CuisineId> cuisines = corpus.cuisines();
  CorpusContentState state;
  state.flat = Fnv1a64(flat.data(), flat.size_bytes());
  state.offsets = Fnv1a64(offsets.data(), offsets.size_bytes());
  state.cuisines = Fnv1a64(cuisines.data(), cuisines.size_bytes());
  return state;
}

void CorpusContentState::Extend(RecipeRun run) {
  const std::span<const uint32_t> offsets = run.offsets.subspan(1);
  this->flat = Fnv1a64(run.flat.data(), run.flat.size_bytes(), this->flat);
  this->offsets = Fnv1a64(offsets.data(), offsets.size_bytes(), this->offsets);
  this->cuisines =
      Fnv1a64(run.cuisines.data(), run.cuisines.size_bytes(), this->cuisines);
}

uint64_t CorpusContentState::Fingerprint() const {
  const uint64_t states[3] = {flat, offsets, cuisines};
  return Fnv1a64(states, sizeof(states));
}

uint64_t CorpusContentFingerprint(const RecipeCorpus& corpus) {
  return CorpusContentState::Of(corpus).Fingerprint();
}

// ---------------------------------------------------------------------------
// SnapshotWriter.

SnapshotWriter::Input SnapshotWriter::Input::FromCorpus(
    const RecipeCorpus& corpus, std::span<const CuisineStats> stats) {
  Input input;
  input.flat = corpus.flat();
  input.offsets = corpus.offsets();
  input.cuisines = corpus.cuisines();
  for (int c = 0; c < kNumCuisines; ++c) {
    input.shards[static_cast<size_t>(c)] =
        corpus.recipes_of(static_cast<CuisineId>(c));
    input.unique[static_cast<size_t>(c)] =
        corpus.UniqueIngredients(static_cast<CuisineId>(c));
  }
  input.unique[kNumCuisines] = corpus.UniqueIngredients();
  input.stats = stats;
  return input;
}

SnapshotWriter::CachedSection* SnapshotWriter::Find(uint32_t id) {
  for (CachedSection& section : sections_) {
    if (section.id == id) return &section;
  }
  return nullptr;
}

Status SnapshotWriter::Write(const std::string& path, const Input& input,
                             const Dirty& dirty,
                             const SnapshotWriteOptions& options) {
  CULEVO_RETURN_IF_ERROR(CheckHostEndianness());
  if (input.offsets.size() != input.cuisines.size() + 1 ||
      input.stats.size() != static_cast<size_t>(kNumCuisines)) {
    return Status::InvalidArgument(
        "corpus snapshot: malformed writer input (offsets/stats shape)");
  }
  const SnapshotMetrics& metrics = SnapshotMetrics::Get();
  const bool first = !has_written_;
  const bool any_dirty = first || dirty.AnyCuisine();

  // Rebuild (or extend, for append-only columns) exactly the sections the
  // delta touches; everything else reuses its cached bytes + checksum.
  int rewritten = 0;
  int reused = 0;
  const auto refresh = [&](uint32_t id, bool section_dirty, auto serialize,
                           size_t source_elems) {
    CachedSection* cached = Find(id);
    if (cached == nullptr) {
      sections_.push_back(CachedSection{id, {}, 0, 0});
      cached = &sections_.back();
      section_dirty = true;
    }
    if (!first && !section_dirty && cached->source_elems == source_elems) {
      ++reused;
      return;
    }
    cached->bytes = serialize();
    cached->checksum = Fnv1a64(cached->bytes.data(), cached->bytes.size());
    cached->source_elems = source_elems;
    ++rewritten;
  };
  // Append-only column refresh: extend the cached bytes with the new tail
  // and resume the FNV-1a state instead of rehashing the whole column.
  const auto extend = [&]<typename T>(uint32_t id, std::span<const T> column) {
    CachedSection* cached = Find(id);
    const bool can_extend = !first && dirty.columns_appended_only &&
                            cached != nullptr &&
                            cached->source_elems <= column.size() &&
                            cached->bytes.size() ==
                                cached->source_elems * sizeof(T);
    if (!can_extend) {
      refresh(id, true, [&] { return ColumnBytes(column); }, column.size());
      return;
    }
    if (cached->source_elems == column.size()) {
      ++reused;
      return;
    }
    const std::span<const T> tail = column.subspan(cached->source_elems);
    const size_t old_size = cached->bytes.size();
    cached->bytes.resize(old_size + tail.size_bytes());
    std::memcpy(cached->bytes.data() + old_size, tail.data(),
                tail.size_bytes());
    cached->checksum = Fnv1a64(cached->bytes.data() + old_size,
                               tail.size_bytes(), cached->checksum);
    cached->source_elems = column.size();
    ++rewritten;
  };

  extend(kSecFlat, input.flat);
  extend(kSecOffsets, input.offsets);
  extend(kSecCuisines, input.cuisines);
  refresh(
      kSecStats, any_dirty, [&] { return SerializeStats(input.stats); },
      input.cuisines.size());
  for (int c = 0; c < kNumCuisines; ++c) {
    const size_t ci = static_cast<size_t>(c);
    refresh(
        kSecShardBase + static_cast<uint32_t>(c), dirty.cuisine[ci],
        [&] { return ColumnBytes(input.shards[ci]); },
        input.shards[ci].size());
    refresh(
        kSecUniqueBase + static_cast<uint32_t>(c), dirty.cuisine[ci],
        [&] { return ColumnBytes(input.unique[ci]); },
        input.unique[ci].size());
  }
  refresh(
      kSecUniqueBase + static_cast<uint32_t>(kNumCuisines), any_dirty,
      [&] { return ColumnBytes(input.unique[kNumCuisines]); },
      input.unique[kNumCuisines].size());

  // Assemble the container: header, section table, 8-byte-aligned
  // payloads.
  const size_t section_count = sections_.size();
  const size_t table_bytes = section_count * kTableEntryBytes;
  size_t cursor = kHeaderBytes + table_bytes;
  std::string table;
  table.reserve(table_bytes);
  for (const CachedSection& section : sections_) {
    cursor = (cursor + kSectionAlign - 1) & ~(kSectionAlign - 1);
    AppendPod<uint32_t>(&table, section.id);
    AppendPod<uint32_t>(&table, 0);  // reserved
    AppendPod<uint64_t>(&table, cursor);
    AppendPod<uint64_t>(&table, section.bytes.size());
    AppendPod<uint64_t>(&table, section.checksum);
    cursor += section.bytes.size();
  }
  const size_t file_bytes = cursor;

  std::string content;
  content.reserve(file_bytes);
  AppendRaw(&content, kMagic, sizeof(kMagic));
  AppendPod<uint32_t>(&content, kCorpusSnapshotVersion);
  AppendPod<uint32_t>(&content, kEndianMarker);
  AppendPod<uint64_t>(&content, input.cuisines.size());
  AppendPod<uint64_t>(&content, input.flat.size());
  AppendPod<uint32_t>(&content, static_cast<uint32_t>(kNumCuisines));
  AppendPod<uint32_t>(&content, static_cast<uint32_t>(section_count));
  AppendPod<uint64_t>(&content, file_bytes);
  AppendPod<uint64_t>(&content, Fnv1a64(table.data(), table.size()));
  content.append(table);
  for (const CachedSection& section : sections_) {
    const size_t aligned =
        (content.size() + kSectionAlign - 1) & ~(kSectionAlign - 1);
    content.append(aligned - content.size(), '\0');
    content.append(section.bytes);
  }

  if (Status status = FailpointCheck("corpus.snapshot.write");
      !status.ok()) {
    return status;
  }
  AtomicWriteOptions write_options;
  write_options.sync = options.sync;
  CULEVO_RETURN_IF_ERROR(WriteFileAtomic(path, content, write_options));
  has_written_ = true;
  metrics.writes->Increment();
  metrics.bytes_written->Increment(static_cast<int64_t>(content.size()));
  metrics.sections_rewritten->Increment(rewritten);
  metrics.sections_reused->Increment(reused);
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// One-shot write + load.

Status WriteCorpusSnapshot(const std::string& path,
                           const RecipeCorpus& corpus,
                           const SnapshotWriteOptions& options) {
  const std::vector<CuisineStats> stats = ComputeCuisineStats(corpus);
  return WriteCorpusSnapshot(path, corpus, stats, options);
}

Status WriteCorpusSnapshot(const std::string& path,
                           const RecipeCorpus& corpus,
                           std::span<const CuisineStats> stats,
                           const SnapshotWriteOptions& options) {
  SnapshotWriter writer;
  return writer.Write(path, SnapshotWriter::Input::FromCorpus(corpus, stats),
                      SnapshotWriter::Dirty::Everything(), options);
}

Result<LoadedCorpusSnapshot> LoadCorpusSnapshot(
    const std::string& path, const SnapshotLoadOptions& options) {
  CULEVO_RETURN_IF_ERROR(CheckHostEndianness());
  CULEVO_RETURN_IF_ERROR(FailpointCheck("corpus.snapshot.read"));
  const SnapshotMetrics& metrics = SnapshotMetrics::Get();
  Stopwatch load_watch;

  Result<std::shared_ptr<SnapshotBacking>> backing_or =
      OpenBacking(path, options);
  if (!backing_or.ok()) return backing_or.status();
  std::shared_ptr<SnapshotBacking> backing = std::move(backing_or).value();
  const uint8_t* data = backing->data;
  const size_t size = backing->size;

  const auto truncated = [&](const char* what) {
    return Status::DataLoss(
        StrFormat("%s: truncated corpus snapshot (%s)", path.c_str(), what));
  };
  if (size < kHeaderBytes) return truncated("missing header");

  if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument(
        StrFormat("%s: not a CULEVO-CORPUS snapshot (bad magic)",
                  path.c_str()));
  }
  const uint32_t version = ReadPod<uint32_t>(data, 16);
  if (version != kCorpusSnapshotVersion) {
    return Status::FailedPrecondition(StrFormat(
        "%s: snapshot format version %u, this build understands %u — "
        "refusing to guess at the section layout",
        path.c_str(), version, kCorpusSnapshotVersion));
  }
  const uint32_t endian = ReadPod<uint32_t>(data, 20);
  if (endian != kEndianMarker) {
    return Status::FailedPrecondition(StrFormat(
        "%s: snapshot written with foreign byte order (marker 0x%08x)",
        path.c_str(), endian));
  }
  const uint64_t num_recipes = ReadPod<uint64_t>(data, 24);
  const uint64_t num_mentions = ReadPod<uint64_t>(data, 32);
  const uint32_t num_cuisines = ReadPod<uint32_t>(data, 40);
  const uint32_t section_count = ReadPod<uint32_t>(data, 44);
  const uint64_t file_bytes = ReadPod<uint64_t>(data, 48);
  const uint64_t table_checksum = ReadPod<uint64_t>(data, 56);

  if (num_cuisines != static_cast<uint32_t>(kNumCuisines)) {
    return Status::FailedPrecondition(StrFormat(
        "%s: snapshot has %u cuisines, this build is compiled for %d",
        path.c_str(), num_cuisines, kNumCuisines));
  }
  if (file_bytes != size) {
    return truncated("header size does not match the file");
  }
  const size_t table_bytes =
      static_cast<size_t>(section_count) * kTableEntryBytes;
  if (section_count > 4096 || kHeaderBytes + table_bytes > size) {
    return truncated("section table exceeds the file");
  }
  if (Fnv1a64(data + kHeaderBytes, table_bytes) != table_checksum) {
    return Status::DataLoss(StrFormat(
        "%s: section-table checksum mismatch (bit rot or torn write)",
        path.c_str()));
  }

  // Verify every section before adopting any of it.
  const Status forced_corrupt = FailpointCheck("corpus.snapshot.read.corrupt");
  std::vector<SectionEntry> sections(section_count);
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t at = kHeaderBytes + i * kTableEntryBytes;
    SectionEntry& entry = sections[i];
    entry.id = ReadPod<uint32_t>(data, at);
    entry.offset = ReadPod<uint64_t>(data, at + 8);
    entry.size = ReadPod<uint64_t>(data, at + 16);
    entry.checksum = ReadPod<uint64_t>(data, at + 24);
    if (entry.offset % kSectionAlign != 0 || entry.offset > size ||
        entry.size > size - entry.offset) {
      return truncated("section extends past end of file");
    }
    if (!forced_corrupt.ok() ||
        Fnv1a64(data + entry.offset, entry.size) != entry.checksum) {
      return Status::DataLoss(StrFormat(
          "%s: checksum mismatch in section %u (bit rot or torn write)",
          path.c_str(), entry.id));
    }
  }
  const auto find_section = [&](uint32_t id) -> const SectionEntry* {
    for (const SectionEntry& entry : sections) {
      if (entry.id == id) return &entry;
    }
    return nullptr;
  };
  const auto require = [&](uint32_t id, size_t expected_bytes,
                           const SectionEntry** out) {
    const SectionEntry* entry = find_section(id);
    if (entry == nullptr) {
      return Status::DataLoss(StrFormat(
          "%s: required section %u missing", path.c_str(), id));
    }
    if (expected_bytes != static_cast<size_t>(-1) &&
        entry->size != expected_bytes) {
      return Status::DataLoss(StrFormat(
          "%s: section %u has %llu bytes, expected %zu", path.c_str(), id,
          static_cast<unsigned long long>(entry->size), expected_bytes));
    }
    *out = entry;
    return Status::Ok();
  };

  const SectionEntry* flat = nullptr;
  const SectionEntry* offsets = nullptr;
  const SectionEntry* cuisines = nullptr;
  const SectionEntry* stats_entry = nullptr;
  CULEVO_RETURN_IF_ERROR(
      require(kSecFlat, num_mentions * sizeof(IngredientId), &flat));
  CULEVO_RETURN_IF_ERROR(require(
      kSecOffsets, (num_recipes + 1) * sizeof(uint32_t), &offsets));
  CULEVO_RETURN_IF_ERROR(
      require(kSecCuisines, num_recipes * sizeof(CuisineId), &cuisines));
  CULEVO_RETURN_IF_ERROR(
      require(kSecStats, static_cast<size_t>(-1), &stats_entry));

  RecipeCorpus::ColumnViews views;
  views.flat = std::span<const IngredientId>(
      reinterpret_cast<const IngredientId*>(data + flat->offset),
      num_mentions);
  views.offsets = std::span<const uint32_t>(
      reinterpret_cast<const uint32_t*>(data + offsets->offset),
      num_recipes + 1);
  views.cuisines = std::span<const CuisineId>(
      reinterpret_cast<const CuisineId*>(data + cuisines->offset),
      num_recipes);
  for (int c = 0; c <= kNumCuisines; ++c) {
    if (c < kNumCuisines) {
      const SectionEntry* shard = nullptr;
      CULEVO_RETURN_IF_ERROR(require(
          kSecShardBase + static_cast<uint32_t>(c),
          static_cast<size_t>(-1), &shard));
      if (shard->size % sizeof(uint32_t) != 0) {
        return truncated("shard section not a whole number of entries");
      }
      views.shards[static_cast<size_t>(c)] = std::span<const uint32_t>(
          reinterpret_cast<const uint32_t*>(data + shard->offset),
          shard->size / sizeof(uint32_t));
    }
    const SectionEntry* unique = nullptr;
    CULEVO_RETURN_IF_ERROR(require(
        kSecUniqueBase + static_cast<uint32_t>(c), static_cast<size_t>(-1),
        &unique));
    if (unique->size % sizeof(IngredientId) != 0) {
      return truncated("unique section not a whole number of entries");
    }
    views.unique[static_cast<size_t>(c)] = std::span<const IngredientId>(
        reinterpret_cast<const IngredientId*>(data + unique->offset),
        unique->size / sizeof(IngredientId));
  }

  Result<std::vector<CuisineStats>> stats =
      ParseStats(data + stats_entry->offset, stats_entry->size);
  if (!stats.ok()) return stats.status();

  const bool mapped = backing->mapped;
  Result<RecipeCorpus> corpus =
      RecipeCorpus::FromColumns(views, std::move(backing));
  if (!corpus.ok()) {
    // Checksums passed but the columns are not a well-formed corpus: the
    // writer (or a crafted file) lied about the invariants.
    return Status::DataLoss(
        StrFormat("%s: %s", path.c_str(),
                  corpus.status().message().c_str()));
  }

  LoadedCorpusSnapshot loaded;
  loaded.corpus = std::move(corpus).value();
  loaded.stats = std::move(stats).value();
  // `require` pinned these sections to exactly the column bytes, and their
  // checksums were verified above: they are the columns' content states.
  loaded.content = {flat->checksum, offsets->checksum, cuisines->checksum};
  loaded.memory_mapped = mapped;
  loaded.file_bytes = size;
  (mapped ? metrics.mmap_loads : metrics.fallback_loads)->Increment();
  metrics.load_ms->Record(load_watch.ElapsedMillis());
  return loaded;
}

}  // namespace culevo
