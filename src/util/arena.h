#ifndef HISTWALK_UTIL_ARENA_H_
#define HISTWALK_UTIL_ARENA_H_

#include <atomic>
#include <cstddef>
#include <cstring>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

// Single-allocation refcounted array blocks — the access layer's storage
// for cached neighbor lists.
//
// A cached response used to be a shared_ptr<const vector<NodeId>>: one heap
// block for the control block + vector object (make_shared) and a second
// for the vector's data buffer, with the payload two pointer hops from the
// handle. BlockRef collapses that to ONE allocation: an intrusive atomic
// refcount, the element count, and the payload laid out contiguously. The
// pinned-handle lifetime contract is unchanged — copying a BlockRef bumps
// the refcount, so an evicted entry's payload stays valid for as long as
// any walker still holds a handle — but a hot Get now touches a single
// cache-resident block, and a miss pays one allocation instead of two.
//
// The element type must be trivially copyable and trivially destructible
// (graph::NodeId is), so blocks are filled with memcpy and freed without
// destructor walks.

namespace histwalk::util {

// The heap layout BlockRef points at: header + inline payload. Immutable
// after construction; only the refcount ever changes, atomically.
template <typename T>
class ArrayBlock {
 public:
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::is_trivially_destructible_v<T>);

  size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  const T* data() const noexcept {
    return reinterpret_cast<const T*>(reinterpret_cast<const char*>(this) +
                                      kPayloadOffset);
  }
  const T* begin() const noexcept { return data(); }
  const T* end() const noexcept { return data() + size_; }
  const T& operator[](size_t i) const noexcept { return data()[i]; }
  std::span<const T> span() const noexcept { return {data(), size_}; }

  // Whole-allocation footprint (header + payload), for byte accounting.
  size_t allocated_bytes() const noexcept {
    return kPayloadOffset + size_ * sizeof(T);
  }

  // Sizes first; memcmp only on non-empty payloads (an empty vector's
  // data() may be null, and memcmp on a null pointer is undefined even for
  // zero bytes).
  friend bool operator==(const ArrayBlock& a, const ArrayBlock& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 ||
            std::memcmp(a.data(), b.data(), a.size_ * sizeof(T)) == 0);
  }
  friend bool operator==(const ArrayBlock& a, const std::vector<T>& b) {
    return a.size_ == b.size() &&
           (a.size_ == 0 ||
            std::memcmp(a.data(), b.data(), a.size_ * sizeof(T)) == 0);
  }

 private:
  template <typename U>
  friend class BlockRef;

  // Payload starts at the first properly aligned offset past the header.
  static constexpr size_t kPayloadOffset =
      (sizeof(std::atomic<uint32_t>) + sizeof(uint32_t) + alignof(T) - 1) /
      alignof(T) * alignof(T);

  explicit ArrayBlock(uint32_t size) noexcept : refs_(1), size_(size) {}

  mutable std::atomic<uint32_t> refs_;
  uint32_t size_;
};

// Shared-ownership handle to an ArrayBlock. Drop-in for the null-checkable
// parts of the shared_ptr API the cache handles used (get, reset, operator*
// / ->, bool conversion, == nullptr); copying is an atomic increment.
template <typename T>
class BlockRef {
 public:
  constexpr BlockRef() noexcept = default;
  constexpr BlockRef(std::nullptr_t) noexcept {}  // NOLINT(runtime/explicit)

  // The one way to make a non-null ref: copy `items` into a fresh
  // single-allocation block with refcount 1.
  static BlockRef Copy(std::span<const T> items) {
    const size_t offset = ArrayBlock<T>::kPayloadOffset;
    void* raw = ::operator new(offset + items.size() * sizeof(T));
    auto* block = new (raw) ArrayBlock<T>(static_cast<uint32_t>(items.size()));
    if (!items.empty()) {
      std::memcpy(static_cast<char*>(raw) + offset, items.data(),
                  items.size() * sizeof(T));
    }
    BlockRef ref;
    ref.block_ = block;
    return ref;
  }

  BlockRef(const BlockRef& other) noexcept : block_(other.block_) {
    if (block_ != nullptr) {
      block_->refs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  BlockRef(BlockRef&& other) noexcept : block_(other.block_) {
    other.block_ = nullptr;
  }
  BlockRef& operator=(const BlockRef& other) noexcept {
    BlockRef copy(other);
    std::swap(block_, copy.block_);
    return *this;
  }
  BlockRef& operator=(BlockRef&& other) noexcept {
    std::swap(block_, other.block_);
    return *this;
  }
  ~BlockRef() { Release(); }

  void reset() noexcept {
    Release();
    block_ = nullptr;
  }

  const ArrayBlock<T>* get() const noexcept { return block_; }
  const ArrayBlock<T>& operator*() const noexcept { return *block_; }
  const ArrayBlock<T>* operator->() const noexcept { return block_; }
  explicit operator bool() const noexcept { return block_ != nullptr; }

  friend bool operator==(const BlockRef& ref, std::nullptr_t) {
    return ref.block_ == nullptr;
  }
  friend bool operator==(const BlockRef& a, const BlockRef& b) {
    return a.block_ == b.block_;
  }

 private:
  void Release() noexcept {
    if (block_ == nullptr) return;
    // acq_rel on the decrement: the release half publishes this holder's
    // last reads; the acquire half orders every prior decrement before the
    // final holder's deallocation. (release + a standalone acquire fence on
    // the final path is equivalent, but TSan does not model fences — the
    // acq_rel form keeps the concurrency suites TSan-clean at the cost of
    // an acquire on non-final decrements.)
    if (block_->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      block_->~ArrayBlock<T>();
      ::operator delete(const_cast<void*>(static_cast<const void*>(block_)));
    }
  }

  const ArrayBlock<T>* block_ = nullptr;
};

}  // namespace histwalk::util

#endif  // HISTWALK_UTIL_ARENA_H_
