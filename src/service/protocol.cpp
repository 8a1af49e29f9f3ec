#include "service/protocol.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace cl::service {

Json& Json::set(const std::string& key, Json value) {
  for (auto& [k, v] : object_) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(key, std::move(value));
  return *this;
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string Json::str_or(const std::string& key,
                         const std::string& fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->type_ == Type::String) ? v->string_ : fallback;
}

double Json::num_or(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->type_ == Type::Number) ? v->number_ : fallback;
}

std::uint64_t Json::u64_or(const std::string& key,
                           std::uint64_t fallback) const {
  const Json* v = find(key);
  // 2^64 and beyond do not fit (the cast would be undefined behaviour).
  if (v == nullptr || v->type_ != Type::Number || v->number_ < 0 ||
      !(v->number_ < 18446744073709551616.0)) {
    return fallback;
  }
  return static_cast<std::uint64_t>(v->number_);
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  const Json* v = find(key);
  return (v != nullptr && v->type_ == Type::Bool) ? v->bool_ : fallback;
}

namespace {

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";  // JSON has no inf/nan; 0 is the least-surprising stand-in
    return;
  }
  if (v == std::floor(v) && std::fabs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string* error;

  bool fail(const std::string& message) {
    if (error != nullptr) {
      *error = message + " at byte " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t' ||
                                 text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  bool parse_value(Json* out, int depth) {
    if (depth > 64) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') return parse_object(out, depth);
    if (c == '[') return parse_array(out, depth);
    if (c == '"') {
      std::string s;
      if (!parse_string(&s)) return false;
      *out = Json::string(std::move(s));
      return true;
    }
    if (text.compare(pos, 4, "true") == 0) {
      pos += 4;
      *out = Json::boolean(true);
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      pos += 5;
      *out = Json::boolean(false);
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      pos += 4;
      *out = Json::null();
      return true;
    }
    return parse_number(out);
  }

  bool parse_object(Json* out, int depth) {
    ++pos;  // '{'
    *out = Json::object();
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      if (!consume(':')) return fail("expected ':'");
      Json value;
      if (!parse_value(&value, depth + 1)) return false;
      out->set(key, std::move(value));
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(Json* out, int depth) {
    ++pos;  // '['
    *out = Json::array();
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      Json value;
      if (!parse_value(&value, depth + 1)) return false;
      out->push_back(std::move(value));
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string* out) {
    skip_ws();
    if (pos >= text.size() || text[pos] != '"') return fail("expected string");
    ++pos;
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos >= text.size()) break;
      const char esc = text[pos++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'n': *out += '\n'; break;
        case 't': *out += '\t'; break;
        case 'r': *out += '\r'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'u': {
          if (pos + 4 > text.size()) return fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return fail("bad \\u escape");
          }
          // The wire carries ASCII plus escaped control characters; encode
          // the BMP code point as UTF-8 for completeness.
          if (code < 0x80) {
            *out += static_cast<char>(code);
          } else if (code < 0x800) {
            *out += static_cast<char>(0xC0 | (code >> 6));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (code >> 12));
            *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Json* out) {
    const std::size_t start = pos;
    if (pos < text.size() && (text[pos] == '-' || text[pos] == '+')) ++pos;
    bool digits = false;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '-' || text[pos] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(text[pos]))) digits = true;
      ++pos;
    }
    if (!digits) {
      pos = start;
      return fail("expected a value");
    }
    const std::string token = text.substr(start, pos - start);
    // JSON forbids leading zeros ("01"); strtod would quietly accept them.
    std::size_t first = token[0] == '-' || token[0] == '+' ? 1 : 0;
    if (token.size() > first + 1 && token[first] == '0' &&
        std::isdigit(static_cast<unsigned char>(token[first + 1]))) {
      pos = start;
      return fail("malformed number");
    }
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      pos = start;
      return fail("malformed number");
    }
    *out = Json::number(v);
    return true;
  }
};

void dump_value(std::string& out, const Json& j) {
  switch (j.type()) {
    case Json::Type::Null:
      out += "null";
      break;
    case Json::Type::Bool:
      out += j.as_bool() ? "true" : "false";
      break;
    case Json::Type::Number:
      dump_number(out, j.as_number());
      break;
    case Json::Type::String:
      dump_string(out, j.as_string());
      break;
    case Json::Type::Object: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : j.items()) {
        if (!first) out += ", ";
        first = false;
        dump_string(out, k);
        out += ": ";
        dump_value(out, v);
      }
      out += '}';
      break;
    }
    case Json::Type::Array: {
      out += '[';
      bool first = true;
      for (const Json& v : j.elements()) {
        if (!first) out += ", ";
        first = false;
        dump_value(out, v);
      }
      out += ']';
      break;
    }
  }
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(out, *this);
  return out;
}

bool Json::parse(const std::string& text, Json* out, std::string* error) {
  Parser p{text, 0, error};
  if (!p.parse_value(out, 0)) return false;
  p.skip_ws();
  if (p.pos != text.size()) return p.fail("trailing characters");
  return true;
}

}  // namespace cl::service
