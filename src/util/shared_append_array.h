#ifndef CULEVO_UTIL_SHARED_APPEND_ARRAY_H_
#define CULEVO_UTIL_SHARED_APPEND_ARRAY_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>

namespace culevo {

/// A growable array whose copies share storage. Copying is O(1); appending
/// to a copy writes into the shared storage's spare room when no other
/// copy has appended past this one's end, so a chain of copies, each
/// extended by a few elements, costs O(appended) amortized, not O(size).
///
/// Each copy sees exactly its own first size() elements, and an append
/// never writes below the longest size any copy over the same storage has
/// reached. Reads of any copy may therefore run concurrently with appends
/// to another. Appends to copies that share storage must not run
/// concurrently with each other (one writer at a time).
template <typename T>
class SharedAppendArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& operator[](size_t i) const { return block_->data[i]; }
  const T& back() const { return block_->data[size_ - 1]; }
  std::span<const T> span() const {
    return size_ == 0 ? std::span<const T>()
                      : std::span<const T>(block_->data.get(), size_);
  }

  /// Room for `more` appends without another allocation. Moves this array
  /// to storage of its own, copying its elements, when the shared storage
  /// is full or another copy has appended past this one's end.
  void Reserve(size_t more) {
    if (block_ != nullptr && block_->claimed == size_ &&
        block_->capacity - size_ >= more) {
      return;
    }
    // At least double, so a run of appends costs O(1) each amortized.
    const size_t capacity = std::max({size_ + more, 2 * size_, size_t{4}});
    auto block = std::make_shared<Block>();
    block->data = std::make_unique_for_overwrite<T[]>(capacity);
    block->capacity = capacity;
    block->claimed = size_;
    if (size_ > 0) std::copy_n(block_->data.get(), size_, block->data.get());
    block_ = std::move(block);
  }

  void push_back(const T& value) {
    Reserve(1);
    block_->data[size_++] = value;
    block_->claimed = size_;
  }

  void Append(std::span<const T> values) {
    Reserve(values.size());
    std::copy(values.begin(), values.end(), block_->data.get() + size_);
    size_ += values.size();
    block_->claimed = size_;
  }

 private:
  struct Block {
    std::unique_ptr<T[]> data;
    size_t capacity = 0;
    /// The longest size any array over this block has reached; elements
    /// below it may be visible to some copy, so no append writes there.
    size_t claimed = 0;
  };

  std::shared_ptr<Block> block_;
  size_t size_ = 0;
};

}  // namespace culevo

#endif  // CULEVO_UTIL_SHARED_APPEND_ARRAY_H_
