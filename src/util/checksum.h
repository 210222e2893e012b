#ifndef TENDAX_UTIL_CHECKSUM_H_
#define TENDAX_UTIL_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace tendax {

/// 32-bit FNV-1a over a byte range: the checksum of every persisted format
/// (page payloads, WAL records, encoded metrics snapshots). The recipe is
/// part of those formats: a different one would fail every stored page's
/// verification and read every WAL record as a corrupt tail, which recovery
/// truncates. Golden values in util_test pin it.
uint32_t Fnv1a32(const char* data, size_t n);

}  // namespace tendax

#endif  // TENDAX_UTIL_CHECKSUM_H_
