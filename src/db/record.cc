#include "db/record.h"

#include <algorithm>
#include <cstring>

#include "util/coding.h"

namespace tendax {

namespace {

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace

bool ValueIsNull(const Value& v) {
  return std::holds_alternative<std::monostate>(v);
}

std::string ValueToString(const Value& v) {
  struct Visitor {
    std::string operator()(std::monostate) const { return "NULL"; }
    std::string operator()(uint64_t x) const { return std::to_string(x); }
    std::string operator()(int64_t x) const { return std::to_string(x); }
    std::string operator()(bool x) const { return x ? "true" : "false"; }
    std::string operator()(double x) const { return std::to_string(x); }
    std::string operator()(const std::string& x) const { return "'" + x + "'"; }
  };
  return std::visit(Visitor{}, v);
}

void Record::EncodeTo(std::string* dst) const {
  PutVarint32(dst, static_cast<uint32_t>(values_.size()));
  for (const Value& v : values_) {
    if (std::holds_alternative<std::monostate>(v)) {
      dst->push_back(static_cast<char>(kTagNull));
    } else if (const auto* u = std::get_if<uint64_t>(&v)) {
      dst->push_back(static_cast<char>(kTagUint64));
      PutVarint64(dst, *u);
    } else if (const auto* i = std::get_if<int64_t>(&v)) {
      dst->push_back(static_cast<char>(kTagInt64));
      PutVarint64(dst, ZigZagEncode(*i));
    } else if (const auto* b = std::get_if<bool>(&v)) {
      dst->push_back(static_cast<char>(kTagBool));
      dst->push_back(*b ? 1 : 0);
    } else if (const auto* d = std::get_if<double>(&v)) {
      dst->push_back(static_cast<char>(kTagDouble));
      uint64_t bits;
      memcpy(&bits, d, sizeof(bits));
      PutFixed64(dst, bits);
    } else if (const auto* s = std::get_if<std::string>(&v)) {
      dst->push_back(static_cast<char>(kTagString));
      PutLengthPrefixed(dst, *s);
    }
  }
}

std::string Record::Encode() const {
  std::string out;
  EncodeTo(&out);
  return out;
}

Result<Record> Record::Decode(Slice input) {
  RecordReader reader(input);
  if (!reader.status().ok()) return reader.status();
  std::vector<Value> values;
  // Every value takes at least one byte, so a corrupt arity cannot make
  // the reservation outgrow the input.
  values.reserve(std::min<size_t>(reader.arity(), input.size()));
  for (uint32_t i = 0; i < reader.arity(); ++i) {
    if (!reader.Next(&values.emplace_back())) return reader.status();
  }
  return Record(std::move(values));
}

RecordReader::RecordReader(Slice input) : input_(input) {
  if (!GetVarint32(&input_, &arity_)) {
    arity_ = 0;
    Fail("record: bad arity");
  }
}

bool RecordReader::Fail(const std::string& why) {
  if (status_.ok()) status_ = Status::Corruption(why);
  read_ = arity_;  // every later call fails too
  return false;
}

bool RecordReader::PastTheEnd() {
  if (!status_.ok()) return false;
  return Fail(read_ >= arity_ ? "record: read past the last value"
                              : "record: truncated");
}

bool RecordReader::WrongType(uint8_t tag, const char* want) {
  return Fail("record: value " + std::to_string(read_ - 1) + " is not a " +
              want + " (tag " + std::to_string(tag) + ")");
}

bool RecordReader::Next(Value* value) {
  uint8_t tag = 0;
  return NextTag(&tag) && Payload(tag, value);
}

bool RecordReader::Skip() {
  uint8_t tag = 0;
  return NextTag(&tag) && Payload(tag, nullptr);
}

bool RecordReader::NextString(Slice* value) {
  uint8_t tag = 0;
  if (!NextTag(&tag)) return false;
  if (tag != kTagString) return WrongType(tag, "string");
  return GetLengthPrefixed(&input_, value) || Fail("record: bad string");
}

bool RecordReader::Payload(uint8_t tag, Value* value) {
  switch (tag) {
    case kTagNull:
      if (value != nullptr) *value = std::monostate{};
      return true;
    case kTagUint64:
    case kTagInt64: {
      uint64_t u;
      if (!GetVarint64(&input_, &u)) {
        return Fail(tag == kTagUint64 ? "record: bad uint64"
                                      : "record: bad int64");
      }
      if (value != nullptr) {
        if (tag == kTagUint64) {
          *value = u;
        } else {
          *value = ZigZagDecode(u);
        }
      }
      return true;
    }
    case kTagBool:
      if (input_.empty()) return Fail("record: bad bool");
      if (value != nullptr) *value = input_[0] != 0;
      input_.remove_prefix(1);
      return true;
    case kTagDouble: {
      uint64_t bits;
      if (!GetFixed64(&input_, &bits)) return Fail("record: bad double");
      if (value != nullptr) {
        double d;
        memcpy(&d, &bits, sizeof(d));
        *value = d;
      }
      return true;
    }
    case kTagString: {
      Slice s;
      if (!GetLengthPrefixed(&input_, &s)) return Fail("record: bad string");
      if (value != nullptr) *value = s.ToString();
      return true;
    }
    default:
      return Fail("record: unknown value tag " + std::to_string(tag));
  }
}

Status Record::ConformsTo(const Schema& schema) const {
  if (values_.size() != schema.num_columns()) {
    return Status::InvalidArgument(
        "record arity " + std::to_string(values_.size()) +
        " does not match schema arity " +
        std::to_string(schema.num_columns()));
  }
  for (size_t i = 0; i < values_.size(); ++i) {
    if (ValueIsNull(values_[i])) continue;
    bool ok = false;
    switch (schema.column(i).type) {
      case ColumnType::kUint64:
        ok = std::holds_alternative<uint64_t>(values_[i]);
        break;
      case ColumnType::kInt64:
        ok = std::holds_alternative<int64_t>(values_[i]);
        break;
      case ColumnType::kBool:
        ok = std::holds_alternative<bool>(values_[i]);
        break;
      case ColumnType::kDouble:
        ok = std::holds_alternative<double>(values_[i]);
        break;
      case ColumnType::kString:
        ok = std::holds_alternative<std::string>(values_[i]);
        break;
    }
    if (!ok) {
      return Status::InvalidArgument("column '" + schema.column(i).name +
                                     "' type mismatch");
    }
  }
  return Status::OK();
}

std::string Record::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += ValueToString(values_[i]);
  }
  out += "]";
  return out;
}

}  // namespace tendax
