#include "util/coding.h"

#include <cstring>

namespace tendax {

void EncodeFixed16(char* dst, uint16_t value) {
  memcpy(dst, &value, sizeof(value));  // little-endian hosts only
}

void EncodeFixed32(char* dst, uint32_t value) {
  memcpy(dst, &value, sizeof(value));
}

void EncodeFixed64(char* dst, uint64_t value) {
  memcpy(dst, &value, sizeof(value));
}

uint16_t DecodeFixed16(const char* ptr) {
  uint16_t v;
  memcpy(&v, ptr, sizeof(v));
  return v;
}

uint32_t DecodeFixed32(const char* ptr) {
  uint32_t v;
  memcpy(&v, ptr, sizeof(v));
  return v;
}

uint64_t DecodeFixed64(const char* ptr) {
  uint64_t v;
  memcpy(&v, ptr, sizeof(v));
  return v;
}

void PutFixed16(std::string* dst, uint16_t value) {
  char buf[sizeof(value)];
  EncodeFixed16(buf, value);
  dst->append(buf, sizeof(buf));
}

void PutFixed32(std::string* dst, uint32_t value) {
  char buf[sizeof(value)];
  EncodeFixed32(buf, value);
  dst->append(buf, sizeof(buf));
}

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[sizeof(value)];
  EncodeFixed64(buf, value);
  dst->append(buf, sizeof(buf));
}

void PutVarint32(std::string* dst, uint32_t value) {
  PutVarint64(dst, value);
}

void PutVarint64(std::string* dst, uint64_t value) {
  unsigned char buf[10];
  int i = 0;
  while (value >= 0x80) {
    buf[i++] = static_cast<unsigned char>(value) | 0x80;
    value >>= 7;
  }
  buf[i++] = static_cast<unsigned char>(value);
  dst->append(reinterpret_cast<char*>(buf), i);
}

void PutLengthPrefixed(std::string* dst, const Slice& value) {
  PutVarint32(dst, static_cast<uint32_t>(value.size()));
  dst->append(value.data(), value.size());
}

bool GetFixed16(Slice* input, uint16_t* value) {
  if (input->size() < sizeof(*value)) return false;
  *value = DecodeFixed16(input->data());
  input->remove_prefix(sizeof(*value));
  return true;
}

bool GetFixed32(Slice* input, uint32_t* value) {
  if (input->size() < sizeof(*value)) return false;
  *value = DecodeFixed32(input->data());
  input->remove_prefix(sizeof(*value));
  return true;
}

bool GetFixed64(Slice* input, uint64_t* value) {
  if (input->size() < sizeof(*value)) return false;
  *value = DecodeFixed64(input->data());
  input->remove_prefix(sizeof(*value));
  return true;
}

bool GetVarint32(Slice* input, uint32_t* value) {
  uint64_t v;
  if (!GetVarint64(input, &v) || v > UINT32_MAX) return false;
  *value = static_cast<uint32_t>(v);
  return true;
}

bool GetLengthPrefixed(Slice* input, Slice* result) {
  uint32_t len;
  if (!GetVarint32(input, &len)) return false;
  if (input->size() < len) return false;
  *result = Slice(input->data(), len);
  input->remove_prefix(len);
  return true;
}

int VarintLength(uint64_t value) {
  int len = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++len;
  }
  return len;
}

}  // namespace tendax
