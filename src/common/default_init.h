#ifndef CATMARK_COMMON_DEFAULT_INIT_H_
#define CATMARK_COMMON_DEFAULT_INIT_H_

#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace catmark {

/// std::allocator, except that a value-less construct() default-initializes.
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
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(noexcept(::new(static_cast<void*>(p)) U)) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
using DefaultInitVector = std::vector<T, DefaultInitAllocator<T>>;

}  // namespace catmark

#endif  // CATMARK_COMMON_DEFAULT_INIT_H_
