#include "core/codec.h"

#include "common/bits.h"
#include "common/check.h"

namespace catmark {

std::size_t PayloadIndexFromHash(std::uint64_t h, std::size_t payload_len,
                                 BitIndexMode mode) {
  CATMARK_CHECK_GE(payload_len, 1u);
  switch (mode) {
    case BitIndexMode::kModulo:
      return static_cast<std::size_t>(h % payload_len);
    case BitIndexMode::kMsbModL: {
      // Paper-literal msb(H, b(L)); the % L guard only fires when L is not
      // a power of two.
      const int b = BitWidth(payload_len);
      return static_cast<std::size_t>(Msb(h, b) % payload_len);
    }
  }
  return 0;
}

std::size_t SelectValueIndex(std::uint64_t h1, std::size_t domain_size,
                             int bit) {
  CATMARK_CHECK_GE(domain_size, 2u)
      << "a 1-value categorical attribute has no embedding channel";
  CATMARK_CHECK(bit == 0 || bit == 1);
  std::uint64_t t = h1 % domain_size;
  t = SetBit(t, 0, bit);
  if (t >= domain_size) {
    // Only reachable when t was domain_size - 1 (odd nA) and bit forced it
    // to domain_size; stepping back 2 keeps the LSB intact.
    t -= 2;
  }
  return static_cast<std::size_t>(t);
}

}  // namespace catmark
