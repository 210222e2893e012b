#ifndef TENDAX_UTIL_CODING_H_
#define TENDAX_UTIL_CODING_H_

#include <cstdint>
#include <string>

#include "util/slice.h"

namespace tendax {

// Little-endian fixed-width and varint encoding primitives used by the
// storage engine, the WAL, and record serialization. Decode functions
// return false (or nullptr for the pointer-based forms) on truncated input.

void PutFixed16(std::string* dst, uint16_t value);
void PutFixed32(std::string* dst, uint32_t value);
void PutFixed64(std::string* dst, uint64_t value);
void PutVarint32(std::string* dst, uint32_t value);
void PutVarint64(std::string* dst, uint64_t value);
/// Appends varint32 length followed by the bytes of `value`.
void PutLengthPrefixed(std::string* dst, const Slice& value);

void EncodeFixed16(char* dst, uint16_t value);
void EncodeFixed32(char* dst, uint32_t value);
void EncodeFixed64(char* dst, uint64_t value);

uint16_t DecodeFixed16(const char* ptr);
uint32_t DecodeFixed32(const char* ptr);
uint64_t DecodeFixed64(const char* ptr);

bool GetFixed16(Slice* input, uint16_t* value);
bool GetFixed32(Slice* input, uint32_t* value);
bool GetFixed64(Slice* input, uint64_t* value);
bool GetVarint32(Slice* input, uint32_t* value);
/// Inline: record and log decoding call it once per value.
inline bool GetVarint64(Slice* input, uint64_t* value) {
  const char* p = input->data();
  const char* const end = p + input->size();
  uint64_t result = 0;
  for (uint32_t shift = 0; shift <= 63 && p < end; shift += 7) {
    const uint64_t byte = static_cast<unsigned char>(*p++);
    result |= (byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *value = result;
      input->remove_prefix(static_cast<size_t>(p - input->data()));
      return true;
    }
  }
  return false;
}
/// Parses a varint32 length prefix and the following bytes into `result`
/// (which aliases `input`'s storage).
bool GetLengthPrefixed(Slice* input, Slice* result);

/// Number of bytes PutVarint64 would emit for `value`.
int VarintLength(uint64_t value);

}  // namespace tendax

#endif  // TENDAX_UTIL_CODING_H_
