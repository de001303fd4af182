#include "wire/json.hpp"

#include "wire/fields.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <cstring>

namespace qvg::wire {

namespace {

Status json_error(std::string detail) {
  return Status::failure(ErrorCode::kParseError, "json", std::move(detail));
}

// ------------------------------------------------------------- writer -----

void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
}

void append_value(std::string& out, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull: out += "null"; break;
    case JsonValue::Kind::kBool: out += v.as_bool() ? "true" : "false"; break;
    case JsonValue::Kind::kNumber: {
      if (v.exact_u64() && !v.exact_i64()) {
        out += std::to_string(v.as_u64());
      } else if (v.exact_i64()) {
        out += std::to_string(v.as_i64());
      } else {
        char buf[32];
        // %.17g: every finite double round-trips exactly through the text.
        std::snprintf(buf, sizeof buf, "%.17g", v.as_double());
        out += buf;
      }
      break;
    }
    case JsonValue::Kind::kString: append_escaped(out, v.as_string()); break;
    case JsonValue::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out.push_back(',');
        first = false;
        append_value(out, item);
      }
      out.push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, member] : v.members()) {
        if (!first) out.push_back(',');
        first = false;
        append_escaped(out, key);
        out.push_back(':');
        append_value(out, member);
      }
      out.push_back('}');
      break;
    }
  }
}

// ------------------------------------------------------------- parser -----

/// Recursive-descent parser over a borrowed string_view. Depth-limited so a
/// deep-nesting bomb cannot blow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> parse() {
    Result<JsonValue> value = parse_value(0);
    if (!value.ok()) return value;
    skip_ws();
    if (pos_ != text_.size())
      return json_error("trailing content at offset " + std::to_string(pos_));
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool consume_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> parse_value(int depth) {
    if (depth > kMaxDepth) return json_error("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return json_error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') {
      Result<std::string> s = parse_string();
      if (!s.ok()) return s.status();
      return JsonValue::string(std::move(s).value());
    }
    if (consume_word("null")) return JsonValue::null();
    if (consume_word("true")) return JsonValue::boolean(true);
    if (consume_word("false")) return JsonValue::boolean(false);
    return parse_number();
  }

  Result<JsonValue> parse_object(int depth) {
    ++pos_;  // '{'
    JsonValue obj = JsonValue::object();
    skip_ws();
    if (consume('}')) return obj;
    for (;;) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return json_error("expected object key at offset " +
                          std::to_string(pos_));
      Result<std::string> key = parse_string();
      if (!key.ok()) return key.status();
      skip_ws();
      if (!consume(':'))
        return json_error("expected ':' at offset " + std::to_string(pos_));
      Result<JsonValue> value = parse_value(depth + 1);
      if (!value.ok()) return value;
      obj.set(std::move(key).value(), std::move(value).value());
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return obj;
      return json_error("expected ',' or '}' at offset " +
                        std::to_string(pos_));
    }
  }

  Result<JsonValue> parse_array(int depth) {
    ++pos_;  // '['
    JsonValue arr = JsonValue::array();
    skip_ws();
    if (consume(']')) return arr;
    for (;;) {
      Result<JsonValue> value = parse_value(depth + 1);
      if (!value.ok()) return value;
      arr.push_back(std::move(value).value());
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return arr;
      return json_error("expected ',' or ']' at offset " +
                        std::to_string(pos_));
    }
  }

  Result<std::string> parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) break;
        const char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size())
              return json_error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_ + static_cast<std::size_t>(i)];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
              else
                return json_error("bad \\u escape digit");
            }
            pos_ += 4;
            // UTF-8 encode the code point (BMP only; surrogate pairs are
            // passed through as-is — the wire strings are ASCII in practice).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xc0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            } else {
              out.push_back(static_cast<char>(0xe0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
            }
            break;
          }
          default: return json_error("unknown escape character");
        }
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return json_error("raw control character in string");
      out.push_back(c);
      ++pos_;
    }
    return json_error("unterminated string");
  }

  Result<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool integral = true;
    bool any_digit = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        any_digit = true;
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        integral = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (!any_digit)
      return json_error("expected a value at offset " + std::to_string(start));
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    errno = 0;
    const double d = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size())
      return json_error("malformed number '" + token + "'");
    if (!integral) return JsonValue::number(d);
    // Integral text: keep the exact 64-bit reading(s) alongside the double.
    if (token[0] == '-') {
      errno = 0;
      const long long v = std::strtoll(token.c_str(), &end, 10);
      if (errno == ERANGE) return JsonValue::number(d);
      return JsonValue::integer(v);
    }
    errno = 0;
    const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
    if (errno == ERANGE) return JsonValue::number(d);
    return JsonValue::unsigned_integer(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// ------------------------------------------------------------ walkers -----

// The JSON walkers over the field lists in wire/fields.hpp.

Status not_a(std::string_view key, const char* what) {
  return json_error("key '" + std::string(key) + "' is not " + what);
}

/// Doubles as JSON: finite values as numbers, non-finite as marker strings
/// (JSON has no Inf/NaN literals).
JsonValue json_f64(double v) {
  if (std::isnan(v)) return JsonValue::string("nan");
  if (std::isinf(v)) return JsonValue::string(v > 0 ? "inf" : "-inf");
  return JsonValue::number(v);
}

Status f64_from_json(const JsonValue& v, std::string_view key, double& out) {
  if (v.kind() == JsonValue::Kind::kNumber) {
    out = v.as_double();
    return Status();
  }
  if (v.kind() != JsonValue::Kind::kString) return not_a(key, "a number");
  const std::string& s = v.as_string();
  if (s == "nan") out = std::nan("");
  else if (s == "inf") out = HUGE_VAL;
  else if (s == "-inf") out = -HUGE_VAL;
  else return not_a(key, "a number");
  return Status();
}

template <typename T>
void fields_to_json(JsonValue& out, const T& message);
template <typename T>
Status fields_from_json(const JsonValue& obj, std::string_view key, T& out);

template <typename F, typename V>
JsonValue value_to_json(const F& f, const V& value) {
  if constexpr (std::is_same_v<V, double>) {
    return json_f64(value);
  } else if constexpr (std::is_same_v<V, bool>) {
    return JsonValue::boolean(value);
  } else if constexpr (std::is_same_v<V, std::string>) {
    return JsonValue::string(value);
  } else if constexpr (std::is_same_v<V, std::vector<double>>) {
    JsonValue array = JsonValue::array();
    for (double v : value) array.push_back(json_f64(v));
    return array;
  } else if constexpr (std::is_enum_v<V>) {
    return JsonValue::string(std::string(
        name_of(f.names, static_cast<std::uint64_t>(value))));
  } else if constexpr (std::is_integral_v<V>) {
    if (!f.names.empty())
      return JsonValue::string(std::string(name_of(f.names, value)));
    if constexpr (std::is_signed_v<V>) return JsonValue::integer(value);
    else return JsonValue::unsigned_integer(value);
  } else {
    JsonValue obj = JsonValue::object();
    fields_to_json(obj, value);
    return obj;
  }
}

template <typename F, typename V>
Status value_from_json(const JsonValue& v, const F& f, V& value) {
  if constexpr (kIsOptional<V>) {
    value.emplace();
    return value_from_json(v, f, *value);
  } else if constexpr (std::is_same_v<V, double>) {
    return f64_from_json(v, f.key, value);
  } else if constexpr (std::is_same_v<V, bool>) {
    if (v.kind() != JsonValue::Kind::kBool) return not_a(f.key, "a boolean");
    value = v.as_bool();
  } else if constexpr (std::is_same_v<V, std::string>) {
    if (v.kind() != JsonValue::Kind::kString) return not_a(f.key, "a string");
    value = v.as_string();
  } else if constexpr (std::is_same_v<V, std::vector<double>>) {
    if (v.kind() != JsonValue::Kind::kArray) return not_a(f.key, "an array");
    value.resize(v.items().size());
    for (std::size_t i = 0; i < value.size(); ++i) {
      Status s = f64_from_json(v.items()[i], f.key, value[i]);
      if (!s.ok()) return s;
    }
  } else if constexpr (std::is_enum_v<V> || std::is_integral_v<V>) {
    if (std::is_enum_v<V> || !f.names.empty()) {
      if (v.kind() != JsonValue::Kind::kString) return not_a(f.key, "a string");
      const auto named = std::find(f.names.begin(), f.names.end(),
                                   v.as_string());
      if (named == f.names.end())
        return json_error("unknown " + std::string(f.key) + " '" +
                          v.as_string() + "'");
      value = static_cast<V>(named - f.names.begin());
    } else if constexpr (std::is_integral_v<V>) {
      const bool exact = std::is_signed_v<V> ? v.exact_i64() : v.exact_u64();
      if (v.kind() != JsonValue::Kind::kNumber || !exact)
        return not_a(f.key, "an integer");
      const std::optional<V> narrowed = narrow<V>(
          std::is_signed_v<V> ? static_cast<std::uint64_t>(v.as_i64())
                              : v.as_u64());
      if (!narrowed.has_value()) return not_a(f.key, "in range");
      value = *narrowed;
    }
  } else {
    return fields_from_json(v, f.key, value);
  }
  return Status();
}

template <typename T>
void fields_to_json(JsonValue& out, const T& message) {
  if constexpr (HasForm<T>) {
    fields_to_json(out, Schema<T>::to_form(message));
  } else {
    auto put = [&](const auto& f) {
      if (f.when != nullptr && !f.when(message)) return;
      const auto& value = f.of(message);
      if constexpr (kIsOptional<std::remove_cvref_t<decltype(value)>>) {
        if (value.has_value())
          out.set(std::string(f.key), value_to_json(f, *value));
      } else {
        out.set(std::string(f.key), value_to_json(f, value));
      }
    };
    std::apply([&](const auto&... f) { (put(f), ...); }, Schema<T>::fields);
  }
}

/// Absent keys keep their defaults (old writers); a `required` key may not
/// be absent.
template <typename T>
Status fields_from_json(const JsonValue& obj, std::string_view key, T& out) {
  if constexpr (HasForm<T>) {
    typename Schema<T>::Form form;
    Status s = fields_from_json(obj, key, form);
    if (!s.ok()) return s;
    std::string why = Schema<T>::from_form(std::move(form), out);
    return why.empty() ? Status() : json_error(std::move(why));
  } else {
    if (obj.kind() != JsonValue::Kind::kObject) return not_a(key, "an object");
    auto get = [&](const auto& f) {
      if (f.when != nullptr && !f.when(out)) return Status();
      const JsonValue* v = obj.find(f.key);
      if (v == nullptr)
        return f.required_in_json
                   ? json_error("missing key '" + std::string(f.key) + "'")
                   : Status();
      return value_from_json(*v, f, f.of(out));
    };
    Status s;
    std::apply([&](const auto&... f) { (void)((s = get(f)).ok() && ...); },
               Schema<T>::fields);
    return s;
  }
}

/// Every top-level document carries {"v": kWireVersion}; a reader rejects a
/// version it does not speak (same contract as the binary envelope).
Status check_version(const JsonValue& obj) {
  if (obj.kind() != JsonValue::Kind::kObject)
    return json_error("document is not an object");
  const JsonValue* v = obj.find("v");
  if (v == nullptr) return json_error("document has no version key 'v'");
  if (v->kind() != JsonValue::Kind::kNumber || !v->exact_u64() ||
      v->as_u64() != kWireVersion)
    return json_error("unsupported document version (this build speaks " +
                      std::to_string(kWireVersion) + ")");
  return Status();
}

template <typename T>
std::string message_to_json(const T& message) {
  JsonValue doc = JsonValue::object();
  doc.set("v", JsonValue::unsigned_integer(kWireVersion));
  fields_to_json(doc, message);
  return doc.dump();
}

template <typename T>
Status read_document(std::string_view text, T& out) {
  Result<JsonValue> doc = parse_json(text);
  if (!doc.ok()) return doc.status();
  Status s = check_version(doc.value());
  if (!s.ok()) return s;
  return fields_from_json(doc.value(), "document", out);
}

template <typename T>
Result<T> message_from_json(std::string_view text) {
  T out;
  Status s = read_document(text, out);
  if (!s.ok()) return s;
  return out;
}

}  // namespace

// --------------------------------------------------------- JsonValue ------

JsonValue JsonValue::boolean(bool v) {
  JsonValue out;
  out.kind_ = Kind::kBool;
  out.bool_ = v;
  return out;
}

JsonValue JsonValue::number(double v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = v;
  return out;
}

JsonValue JsonValue::integer(std::int64_t v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = static_cast<double>(v);
  out.has_i64_ = true;
  out.i64_ = v;
  if (v >= 0) {
    out.has_u64_ = true;
    out.u64_ = static_cast<std::uint64_t>(v);
  }
  return out;
}

JsonValue JsonValue::unsigned_integer(std::uint64_t v) {
  JsonValue out;
  out.kind_ = Kind::kNumber;
  out.number_ = static_cast<double>(v);
  out.has_u64_ = true;
  out.u64_ = v;
  if (v <= static_cast<std::uint64_t>(INT64_MAX)) {
    out.has_i64_ = true;
    out.i64_ = static_cast<std::int64_t>(v);
  }
  return out;
}

JsonValue JsonValue::string(std::string v) {
  JsonValue out;
  out.kind_ = Kind::kString;
  out.str_ = std::move(v);
  return out;
}

JsonValue JsonValue::array() {
  JsonValue out;
  out.kind_ = Kind::kArray;
  return out;
}

JsonValue JsonValue::object() {
  JsonValue out;
  out.kind_ = Kind::kObject;
  return out;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

std::string JsonValue::dump() const {
  std::string out;
  append_value(out, *this);
  return out;
}

Result<JsonValue> parse_json(std::string_view text) {
  return JsonParser(text).parse();
}

// ----------------------------------------------------------- messages -----

std::string to_json(const WireRequest& request) {
  return message_to_json(request);
}

Result<WireRequest> request_from_json(std::string_view text) {
  return message_from_json<WireRequest>(text);
}

std::string to_json(const WireReport& report) {
  return message_to_json(report);
}

Result<WireReport> report_from_json(std::string_view text) {
  return message_from_json<WireReport>(text);
}

std::string to_json(const ProgressEvent& event) {
  return message_to_json(event);
}

Result<ProgressEvent> progress_from_json(std::string_view text) {
  return message_from_json<ProgressEvent>(text);
}

std::string status_to_json(const Status& status) {
  return message_to_json(status);
}

Status status_from_json(std::string_view text, Status& out) {
  return read_document(text, out);
}

}  // namespace qvg::wire
