#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "util/assert.hpp"

namespace zmail::json {

namespace {

void escape_into(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 passes through byte-for-byte
        }
    }
  }
  out += '"';
}

void number_into(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; null is the least-surprising encoding.
    out += "null";
    return;
  }
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);  // shortest form
  out.append(buf, r.ptr);
  // Ensure a double stays a double on re-parse.
  if (out.find_first_of(".eE", out.size() - static_cast<std::size_t>(
                                                r.ptr - buf)) ==
      std::string::npos)
    out += ".0";
}

}  // namespace

bool Value::as_bool() const {
  ZMAIL_ASSERT(kind_ == Kind::kBool);
  return bool_;
}

std::int64_t Value::as_int64() const {
  if (kind_ == Kind::kUint) return static_cast<std::int64_t>(uint_);
  if (kind_ == Kind::kDouble) return static_cast<std::int64_t>(double_);
  ZMAIL_ASSERT(kind_ == Kind::kInt);
  return int_;
}

std::uint64_t Value::as_uint64() const {
  if (kind_ == Kind::kInt) return static_cast<std::uint64_t>(int_);
  if (kind_ == Kind::kDouble) return static_cast<std::uint64_t>(double_);
  ZMAIL_ASSERT(kind_ == Kind::kUint);
  return uint_;
}

double Value::as_double() const {
  switch (kind_) {
    case Kind::kInt: return static_cast<double>(int_);
    case Kind::kUint: return static_cast<double>(uint_);
    case Kind::kDouble: return double_;
    default: ZMAIL_ASSERT_MSG(false, "not a number"); return 0.0;
  }
}

const std::string& Value::as_string() const {
  ZMAIL_ASSERT(kind_ == Kind::kString);
  return string_;
}

void Value::push_back(Value v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  ZMAIL_ASSERT(kind_ == Kind::kArray);
  array_.push_back(std::move(v));
}

std::size_t Value::size() const noexcept {
  return kind_ == Kind::kObject ? object_.size() : array_.size();
}

const Value& Value::at(std::size_t i) const {
  ZMAIL_ASSERT(kind_ == Kind::kArray);
  return array_.at(i);
}

Value& Value::operator[](const std::string& key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  ZMAIL_ASSERT(kind_ == Kind::kObject);
  for (auto& [k, v] : object_)
    if (k == key) return v;
  object_.emplace_back(key, Value());
  return object_.back().second;
}

const Value* Value::find(const std::string& key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_)
    if (k == key) return &v;
  return nullptr;
}

const std::vector<std::pair<std::string, Value>>& Value::items() const {
  ZMAIL_ASSERT(kind_ == Kind::kObject);
  return object_;
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent > 0;
  const auto newline_pad = [&](int d) {
    if (!pretty) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (kind_) {
    case Kind::kNull: out += "null"; break;
    case Kind::kBool: out += bool_ ? "true" : "false"; break;
    case Kind::kInt: {
      char buf[24];
      const auto r = std::to_chars(buf, buf + sizeof buf, int_);
      out.append(buf, r.ptr);
      break;
    }
    case Kind::kUint: {
      char buf[24];
      const auto r = std::to_chars(buf, buf + sizeof buf, uint_);
      out.append(buf, r.ptr);
      break;
    }
    case Kind::kDouble: number_into(out, double_); break;
    case Kind::kString: escape_into(out, string_); break;
    case Kind::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        escape_into(out, object_[i].first);
        out += pretty ? ": " : ":";
        object_[i].second.dump_to(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

// --- Parser ----------------------------------------------------------------

namespace {

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;
  static constexpr int kMaxDepth = 128;

  bool fail(const std::string& msg) {
    if (error.empty())
      error = "offset " + std::to_string(pos) + ": " + msg;
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r'))
      ++pos;
  }

  bool consume(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return fail(std::string("expected '") + c + "'");
  }

  bool parse_value(Value& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    switch (c) {
      case '{': return parse_object(out, depth);
      case '[': return parse_array(out, depth);
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Value(std::move(s));
        return true;
      }
      case 't':
        if (text.compare(pos, 4, "true") == 0) {
          pos += 4;
          out = Value(true);
          return true;
        }
        return fail("bad literal");
      case 'f':
        if (text.compare(pos, 5, "false") == 0) {
          pos += 5;
          out = Value(false);
          return true;
        }
        return fail("bad literal");
      case 'n':
        if (text.compare(pos, 4, "null") == 0) {
          pos += 4;
          out = Value();
          return true;
        }
        return fail("bad literal");
      default: return parse_number(out);
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (pos < text.size()) {
      const char c = text[pos];
      if (c == '"') {
        ++pos;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c != '\\') {
        out += c;
        ++pos;
        continue;
      }
      if (++pos >= text.size()) return fail("dangling escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos + static_cast<std::size_t>(i)];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("bad \\u escape");
          }
          pos += 4;
          // Encode the code point as UTF-8 (surrogate pairs not combined —
          // the writer never emits them for this codebase's ASCII keys).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    bool is_double = false;
    if (pos < text.size() && text[pos] == '.') {
      is_double = true;
      ++pos;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      is_double = true;
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
    }
    if (pos == start || (text[start] == '-' && pos == start + 1))
      return fail("bad number");
    const char* b = text.data() + start;
    const char* e = text.data() + pos;
    if (!is_double) {
      if (text[start] == '-') {
        std::int64_t v = 0;
        if (std::from_chars(b, e, v).ec == std::errc()) {
          out = Value(static_cast<long long>(v));
          return true;
        }
      } else {
        std::uint64_t v = 0;
        if (std::from_chars(b, e, v).ec == std::errc()) {
          out = Value(static_cast<unsigned long long>(v));
          return true;
        }
      }
      // Integer overflow: fall through to double.
    }
    double d = 0.0;
    const auto r = std::from_chars(b, e, d);
    if (r.ec != std::errc() && r.ec != std::errc::result_out_of_range)
      return fail("bad number");
    out = Value(d);
    return true;
  }

  bool parse_array(Value& out, int depth) {
    ++pos;  // '['
    out = Value::array();
    skip_ws();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      Value v;
      if (!parse_value(v, depth + 1)) return false;
      out.push_back(std::move(v));
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return consume(']');
    }
  }

  bool parse_object(Value& out, int depth) {
    ++pos;  // '{'
    out = Value::object();
    skip_ws();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      Value v;
      if (!parse_value(v, depth + 1)) return false;
      out[key] = std::move(v);
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      return consume('}');
    }
  }
};

}  // namespace

std::optional<Value> parse(const std::string& text, std::string* error) {
  Parser p{text, 0, {}};
  Value v;
  if (!p.parse_value(v, 0)) {
    if (error) *error = p.error;
    return std::nullopt;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    p.fail("trailing characters after document");
    if (error) *error = p.error;
    return std::nullopt;
  }
  return v;
}

bool write_file(const std::string& path, const Value& v, std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    if (error) *error = "cannot open " + path + ": " + std::strerror(errno);
    return false;
  }
  const std::string text = v.dump(0);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  const bool closed = std::fclose(f) == 0;
  if (!(ok && closed)) {
    if (error) *error = "short write to " + path;
    return false;
  }
  return true;
}

}  // namespace zmail::json
