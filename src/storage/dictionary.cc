#include "storage/dictionary.h"

#include <cstring>

namespace eid {
namespace storage {

namespace {

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

double BitsToDouble(uint64_t bits) {
  double d = 0;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

}  // namespace

void AppendDictionary(const ValueDictionary& dict, ByteWriter* out) {
  out->PutU32(static_cast<uint32_t>(dict.size()));
  for (uint32_t id = 0; id < dict.size(); ++id) {
    const Value& v = dict.value(id);
    out->PutU8(static_cast<uint8_t>(v.type()));
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kBool:
        out->PutU8(v.AsBool() ? 1 : 0);
        break;
      case ValueType::kInt:
        out->PutU64(static_cast<uint64_t>(v.AsInt()));
        break;
      case ValueType::kDouble:
        out->PutU64(DoubleBits(v.AsDouble()));
        break;
      case ValueType::kString:
        out->PutString(v.AsString());
        break;
    }
  }
}

Status ParseDictionary(ByteReader* in, std::vector<Value>* out) {
  uint32_t count = 0;
  if (!in->GetU32(&count)) return CorruptError("dictionary count truncated");
  // A value costs at least one tag byte; an impossible count fails here
  // instead of attempting a multi-gigabyte reserve.
  if (count > in->remaining()) {
    return CorruptError("dictionary count exceeds section size");
  }
  out->clear();
  out->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t tag = 0;
    if (!in->GetU8(&tag)) return CorruptError("dictionary value truncated");
    switch (static_cast<ValueType>(tag)) {
      case ValueType::kNull:
        out->push_back(Value::Null());
        break;
      case ValueType::kBool: {
        uint8_t b = 0;
        if (!in->GetU8(&b)) return CorruptError("dictionary bool truncated");
        out->push_back(Value::Bool(b != 0));
        break;
      }
      case ValueType::kInt: {
        uint64_t v = 0;
        if (!in->GetU64(&v)) return CorruptError("dictionary int truncated");
        out->push_back(Value::Int(static_cast<int64_t>(v)));
        break;
      }
      case ValueType::kDouble: {
        uint64_t bits = 0;
        if (!in->GetU64(&bits)) {
          return CorruptError("dictionary double truncated");
        }
        out->push_back(Value::Double(BitsToDouble(bits)));
        break;
      }
      case ValueType::kString: {
        std::string s;
        if (!in->GetString(&s)) {
          return CorruptError("dictionary string truncated");
        }
        out->push_back(Value::String(std::move(s)));
        break;
      }
      default:
        return CorruptError("dictionary value has unknown type tag " +
                            std::to_string(tag));
    }
  }
  return Status::Ok();
}

}  // namespace storage
}  // namespace eid
