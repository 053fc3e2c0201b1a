#include "common/default_init.h"

#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

namespace catmark {

void* AllocateHugePageAligned(std::size_t bytes) {
  void* p = nullptr;
#if defined(__unix__) || defined(__APPLE__)
  if (::posix_memalign(&p, kHugePageBytes, bytes) != 0) {
    throw std::bad_alloc();
  }
#if defined(MADV_HUGEPAGE)
  // Whole huge pages only: advising the tail would let the kernel round
  // the buffer's resident size up to the next 2 MB.
  ::madvise(p, bytes / kHugePageBytes * kHugePageBytes, MADV_HUGEPAGE);
#endif
#else
  p = std::malloc(bytes);
  if (p == nullptr) throw std::bad_alloc();
#endif
  return p;
}

void FreeHugePageAligned(void* p) noexcept { std::free(p); }

}  // namespace catmark
