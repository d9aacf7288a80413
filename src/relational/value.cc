#include "relational/value.h"

#include <cctype>
#include <charconv>
#include <cstring>

namespace eid {
namespace {

constexpr size_t kFnvOffset = 1469598103934665603ull;
constexpr size_t kFnvPrime = 1099511628211ull;

size_t FnvBytes(const void* data, size_t n, size_t seed) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  size_t h = seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

/// Rank used by the cross-type total order.
int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kNull: return 0;
    case ValueType::kBool: return 1;
    case ValueType::kInt: return 2;     // ints and doubles compare
    case ValueType::kDouble: return 2;  // numerically in the same rank
    case ValueType::kString: return 3;
  }
  return 4;
}

}  // namespace

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull: return "null";
    case ValueType::kBool: return "bool";
    case ValueType::kInt: return "int";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
  }
  return "unknown";
}

double Value::AsNumeric() const {
  if (type() == ValueType::kInt) return static_cast<double>(AsInt());
  return AsDouble();
}

bool Value::operator<(const Value& other) const {
  int ra = TypeRank(type()), rb = TypeRank(other.type());
  if (ra != rb) return ra < rb;
  switch (type()) {
    case ValueType::kNull:
      return false;  // NULL == NULL in storage order
    case ValueType::kBool:
      return !AsBool() && other.AsBool();
    case ValueType::kInt:
    case ValueType::kDouble: {
      double a = AsNumeric(), b = other.AsNumeric();
      if (a != b) return a < b;
      // Tie-break int < double so the order is total w.r.t. operator==.
      return type() == ValueType::kInt &&
             other.type() == ValueType::kDouble;
    }
    case ValueType::kString:
      return AsString() < other.AsString();
  }
  return false;
}

size_t Value::Hash() const {
  size_t h = FnvBytes(&data_, 0, kFnvOffset);  // seed only
  uint8_t tag = static_cast<uint8_t>(type());
  h = FnvBytes(&tag, 1, h);
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool: {
      uint8_t b = AsBool() ? 1 : 0;
      h = FnvBytes(&b, 1, h);
      break;
    }
    case ValueType::kInt: {
      int64_t i = AsInt();
      h = FnvBytes(&i, sizeof(i), h);
      break;
    }
    case ValueType::kDouble: {
      double d = AsDouble();
      h = FnvBytes(&d, sizeof(d), h);
      break;
    }
    case ValueType::kString: {
      const std::string& s = AsString();
      h = FnvBytes(s.data(), s.size(), h);
      break;
    }
  }
  return h;
}

std::string Value::ToString() const {
  if (type() == ValueType::kString) return AsString();
  std::string out;
  AppendTo(&out);
  return out;
}

void Value::AppendTo(std::string* out) const {
  switch (type()) {
    case ValueType::kNull:
      out->append("null");
      return;
    case ValueType::kBool:
      out->append(AsBool() ? "true" : "false");
      return;
    case ValueType::kInt: {
      char buf[24];
      auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), AsInt());
      out->append(buf, static_cast<size_t>(ptr - buf));
      return;
    }
    case ValueType::kDouble: {
      char buf[64];
      int n = std::snprintf(buf, sizeof(buf), "%g", AsDouble());
      out->append(buf, static_cast<size_t>(n));
      return;
    }
    case ValueType::kString:
      out->append(AsString());
      return;
  }
  out->append("?");
}

void Value::AppendFingerprint(std::string* out) const {
  auto append = [&](const char* payload, size_t size) {
    out->append(std::to_string(size));
    out->push_back(':');
    out->append(payload, size);
    out->push_back('|');
    out->push_back(static_cast<char>('0' + static_cast<int>(type())));
  };
  if (type() == ValueType::kString) {
    const std::string& text = AsString();
    append(text.data(), text.size());
  } else if (type() == ValueType::kDouble) {
    const double d = AsDouble();
    char bits[sizeof(d)];
    std::memcpy(bits, &d, sizeof(d));
    append(bits, sizeof(bits));
  } else {
    std::string text;
    AppendTo(&text);
    append(text.data(), text.size());
  }
}

Result<Value> Value::Parse(const std::string& text, ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool:
      if (text == "true" || text == "1") return Value::Bool(true);
      if (text == "false" || text == "0") return Value::Bool(false);
      return Status::InvalidArgument("cannot parse bool from '" + text + "'");
    case ValueType::kInt: {
      int64_t v = 0;
      auto [ptr, ec] =
          std::from_chars(text.data(), text.data() + text.size(), v);
      if (ec != std::errc() || ptr != text.data() + text.size()) {
        return Status::InvalidArgument("cannot parse int from '" + text + "'");
      }
      return Value::Int(v);
    }
    case ValueType::kDouble: {
      if (text.empty()) {
        return Status::InvalidArgument("cannot parse double from ''");
      }
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (end != text.c_str() + text.size()) {
        return Status::InvalidArgument("cannot parse double from '" + text +
                                       "'");
      }
      return Value::Double(v);
    }
    case ValueType::kString:
      if (text == "null") return Value::Null();
      return Value::String(text);
  }
  return Status::InvalidArgument("unknown value type");
}

}  // namespace eid
