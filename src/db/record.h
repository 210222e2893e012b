#ifndef TENDAX_DB_RECORD_H_
#define TENDAX_DB_RECORD_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "db/schema.h"
#include "util/coding.h"
#include "util/result.h"
#include "util/slice.h"

namespace tendax {

/// A single column value. `std::monostate` encodes SQL NULL.
using Value = std::variant<std::monostate, uint64_t, int64_t, bool, double,
                           std::string>;

bool ValueIsNull(const Value& v);
std::string ValueToString(const Value& v);

/// A typed tuple. Values are positional; the schema gives them names and
/// types. Encoding is self-delimiting so records can live in slotted pages.
class Record {
 public:
  Record() = default;
  explicit Record(std::vector<Value> values) : values_(std::move(values)) {}

  size_t size() const { return values_.size(); }
  const Value& value(size_t i) const { return values_[i]; }
  Value& value(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  uint64_t GetUint(size_t i) const { return std::get<uint64_t>(values_[i]); }
  int64_t GetInt(size_t i) const { return std::get<int64_t>(values_[i]); }
  bool GetBool(size_t i) const { return std::get<bool>(values_[i]); }
  double GetDouble(size_t i) const { return std::get<double>(values_[i]); }
  const std::string& GetString(size_t i) const {
    return std::get<std::string>(values_[i]);
  }

  /// Serializes to a self-delimiting byte string.
  void EncodeTo(std::string* dst) const;
  std::string Encode() const;

  /// Parses bytes produced by EncodeTo.
  static Result<Record> Decode(Slice input);

  /// Checks the record's arity and value types against `schema` (NULLs pass).
  Status ConformsTo(const Schema& schema) const;

  std::string ToString() const;

  bool operator==(const Record& other) const { return values_ == other.values_; }

 private:
  std::vector<Value> values_;
};

/// The type tag written before each value of an encoded record.
enum RecordTag : uint8_t {
  kTagNull = 0,
  kTagUint64 = 1,
  kTagInt64 = 2,
  kTagBool = 3,
  kTagDouble = 4,
  kTagString = 5,
};

/// Reads an encoded record's values in column order without building a
/// `Record`: a projection reads the columns it needs, typed, and skips the
/// rest. Each call consumes one value. The first failure sticks, and every
/// later call fails too, so a caller can read a row of columns and then
/// check `status()` once.
class RecordReader {
 public:
  /// Reads the leading arity; a bad one fails the reader.
  explicit RecordReader(Slice input);

  /// Number of values the record declares.
  uint32_t arity() const { return arity_; }

  /// Consumes the next value, whatever its type.
  bool Next(Value* value);
  /// Consumes the next value, which must be a uint64. Inline: a projection
  /// calls it for most columns of every row it reads.
  bool NextUint(uint64_t* value) {
    uint8_t tag = 0;
    if (!NextTag(&tag)) return false;
    if (tag != kTagUint64) return WrongType(tag, "uint64");
    return GetVarint64(&input_, value) || Fail("record: bad uint64");
  }
  /// Consumes the next value, which must be a string. The slice points into
  /// the input.
  bool NextString(Slice* value);
  /// Consumes the next value without keeping it.
  bool Skip();

  /// OK, or the Corruption that stopped the reader.
  const Status& status() const { return status_; }

 private:
  bool Fail(const std::string& why);
  bool WrongType(uint8_t tag, const char* want);
  /// Consumes the next value's type tag.
  bool NextTag(uint8_t* tag) {
    if (read_ >= arity_ || input_.empty()) return PastTheEnd();
    *tag = static_cast<uint8_t>(input_[0]);
    input_.remove_prefix(1);
    ++read_;
    return true;
  }
  /// Why NextTag found no value: truncated, or read past the last value.
  bool PastTheEnd();
  /// Consumes the payload of a value tagged `tag`; stores it when `value`
  /// is non-null.
  bool Payload(uint8_t tag, Value* value);

  Slice input_;
  uint32_t arity_ = 0;
  uint32_t read_ = 0;  // values consumed so far
  Status status_;
};

}  // namespace tendax

#endif  // TENDAX_DB_RECORD_H_
