#ifndef CATMARK_COMMON_DEFAULT_INIT_H_
#define CATMARK_COMMON_DEFAULT_INIT_H_

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace catmark {

/// Size of a transparent huge page, and the request size from which
/// DefaultInitAllocator places a buffer on huge-page boundaries.
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// Allocates `bytes` (>= kHugePageBytes) from malloc at a kHugePageBytes
/// boundary and asks the kernel to back every whole huge page inside it
/// with transparent huge pages; the tail past the last whole huge page
/// stays on base pages, so the buffer is never rounded up. Throws
/// std::bad_alloc when malloc fails. A refused or unsupported advice
/// (THP off, no madvise) is ignored: the buffer is then an ordinary one.
void* AllocateHugePageAligned(std::size_t bytes);

/// Releases a buffer from AllocateHugePageAligned.
void FreeHugePageAligned(void* p) noexcept;

/// std::allocator, except that a value-less construct() default-initializes
/// and large requests go on huge pages.
///
/// A DefaultInitVector of a trivial type therefore grows through
/// resize(n) without writing its new slots: no zero-fill pass, and no page
/// is touched until the slot's owner writes it. A bulk producer sizes the
/// vector once and lets each worker write (and so first-touch) its own
/// rows.
///
/// The rule that comes with it: every slot a value-less resize(n) adds is
/// written by its owner before anything reads it. Any other resize of such
/// a vector passes an explicit value, as in resize(n, 0). push_back,
/// insert and assign construct from their arguments as usual.
///
/// The allocation rule: a request of kHugePageBytes or more goes through
/// AllocateHugePageAligned, so a 2M-row column or a .catm image faults in
/// one huge page per 2 MB instead of 512 base pages; anything smaller is
/// std::allocator's. Both come from malloc, so the sanitizers track them,
/// and deallocate() pairs by the same size test.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (!IsLarge(n)) return std::allocator<T>::allocate(n);
    if (n > static_cast<std::size_t>(-1) / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(AllocateHugePageAligned(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    if (IsLarge(n)) {
      FreeHugePageAligned(p);
    } else {
      std::allocator<T>::deallocate(p, n);
    }
  }

  template <typename U>
  void construct(U* p) noexcept(noexcept(::new(static_cast<void*>(p)) U)) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

 private:
  // n * sizeof(T) >= kHugePageBytes, without the overflow.
  static bool IsLarge(std::size_t n) {
    return n >= (kHugePageBytes + sizeof(T) - 1) / sizeof(T);
  }
};

template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace catmark

#endif  // CATMARK_COMMON_DEFAULT_INIT_H_
