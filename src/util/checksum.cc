#include "util/checksum.h"

namespace tendax {

uint32_t Fnv1a32(const char* data, size_t n) {
  uint32_t h = 2166136261u;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 16777619u;
  }
  return h;
}

}  // namespace tendax
