#ifndef CULEVO_UTIL_HASH_H_
#define CULEVO_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace culevo {

inline constexpr uint64_t kFnv1aOffset = 0xCBF29CE484222325ull;
inline constexpr uint64_t kFnv1aPrime = 0x100000001B3ull;

/// FNV-1a-64 of `size` bytes at `data`, resumed from `state`. The hash is
/// a running state, so hashing a prefix and resuming over the rest equals
/// hashing the whole buffer. This one function is the checksum of every
/// on-disk container (CULEVO-CORPUS sections, CULEVO-DELTA, journal
/// records) and the per-column corpus content state
/// (CorpusContentState, corpus/corpus_snapshot.h).
inline uint64_t Fnv1a64(const void* data, size_t size,
                        uint64_t state = kFnv1aOffset) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    state ^= bytes[i];
    state *= kFnv1aPrime;
  }
  return state;
}

/// Mixes `value` into `seed` (boost::hash_combine style, 64-bit constants).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  seed ^= value + 0x9E3779B97F4A7C15ull + (seed << 12) + (seed >> 4);
  return seed;
}

/// Order-sensitive hash of an integral sequence. Itemsets are kept sorted,
/// so this doubles as a set hash for canonicalized itemsets.
template <typename Int>
uint64_t HashSequence(const std::vector<Int>& values) {
  uint64_t seed = 0xC2B2AE3D27D4EB4Full ^ values.size();
  for (Int v : values) seed = HashCombine(seed, static_cast<uint64_t>(v));
  return seed;
}

/// Functor for unordered_map keys holding sorted id vectors.
template <typename Int>
struct SequenceHash {
  size_t operator()(const std::vector<Int>& values) const {
    return static_cast<size_t>(HashSequence(values));
  }
};

}  // namespace culevo

#endif  // CULEVO_UTIL_HASH_H_
