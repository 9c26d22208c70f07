#include "server/protocol.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "core/json_export.h"

namespace bionav {

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

JsonValue JsonValue::MakeBool(bool b) {
  JsonValue v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::MakeNumber(double n) {
  JsonValue v;
  v.type_ = Type::kNumber;
  v.number_ = n;
  return v;
}

JsonValue JsonValue::MakeUInt(uint64_t n) {
  JsonValue v = MakeNumber(static_cast<double>(n));
  v.exact_uint_ = n;
  return v;
}

JsonValue JsonValue::MakeString(std::string s) {
  JsonValue v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::MakeArray(Array a) {
  JsonValue v;
  v.type_ = Type::kArray;
  v.array_ = std::move(a);
  return v;
}

JsonValue JsonValue::MakeObject(Object o) {
  JsonValue v;
  v.type_ = Type::kObject;
  v.object_ = std::move(o);
  return v;
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

int64_t JsonValue::IntOr(std::string_view key, int64_t def) const {
  const JsonValue* v = Find(key);
  // The range test keeps the cast defined (1e300 has no int64 value).
  return v != nullptr && v->is_number() && v->number_ >= -0x1p63 &&
                 v->number_ < 0x1p63
             ? static_cast<int64_t>(v->number_)
             : def;
}

double JsonValue::NumberOr(std::string_view key, double def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->number_ : def;
}

bool JsonValue::BoolOr(std::string_view key, bool def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->bool_ : def;
}

std::string JsonValue::StringOr(std::string_view key,
                                std::string_view def) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->string_ : std::string(def);
}

// ---------------------------------------------------------------------------
// JSON parser (recursive descent, depth-capped)
// ---------------------------------------------------------------------------

namespace {

constexpr int kMaxJsonDepth = 64;

// Local analogue of BIONAV_RETURN_IF_ERROR for functions returning
// Result<JsonValue> (the Status error converts implicitly).
#define BIONAV_RETURN_IF_ERROR_RESULT(expr)  \
  do {                                       \
    ::bionav::Status _st = (expr);           \
    if (!_st.ok()) return _st;               \
  } while (0)

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    BIONAV_RETURN_IF_ERROR_RESULT(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Fail(std::string_view message) {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " +
                                   std::string(message));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\r' ||
            text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxJsonDepth) return Fail("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        BIONAV_RETURN_IF_ERROR_RESULT(ParseString(&s));
        *out = JsonValue::MakeString(std::move(s));
        return Status::OK();
      }
      case 't':
        if (text_.substr(pos_, 4) == "true") {
          pos_ += 4;
          *out = JsonValue::MakeBool(true);
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'f':
        if (text_.substr(pos_, 5) == "false") {
          pos_ += 5;
          *out = JsonValue::MakeBool(false);
          return Status::OK();
        }
        return Fail("invalid literal");
      case 'n':
        if (text_.substr(pos_, 4) == "null") {
          pos_ += 4;
          *out = JsonValue();
          return Status::OK();
        }
        return Fail("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    JsonValue::Object members;
    SkipWhitespace();
    if (Consume('}')) {
      *out = JsonValue::MakeObject(std::move(members));
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      BIONAV_RETURN_IF_ERROR_RESULT(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Fail("expected ':' in object");
      JsonValue value;
      BIONAV_RETURN_IF_ERROR_RESULT(ParseValue(&value, depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Fail("expected ',' or '}' in object");
    }
    *out = JsonValue::MakeObject(std::move(members));
    return Status::OK();
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    JsonValue::Array items;
    SkipWhitespace();
    if (Consume(']')) {
      *out = JsonValue::MakeArray(std::move(items));
      return Status::OK();
    }
    while (true) {
      JsonValue value;
      BIONAV_RETURN_IF_ERROR_RESULT(ParseValue(&value, depth + 1));
      items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Fail("expected ',' or ']' in array");
    }
    *out = JsonValue::MakeArray(std::move(items));
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Fail("expected string");
    out->clear();
    while (true) {
      if (pos_ >= text_.size()) return Fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("invalid hex digit in \\u escape");
            }
          }
          // Encode the code point as UTF-8 (surrogate pairs are passed
          // through as two 3-byte sequences — the protocol's own payloads
          // are ASCII, this path only affects user-supplied queries).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
  }

  bool ConsumeDigits() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  /// Strict JSON number grammar: -? (0 | [1-9][0-9]*) frac? exp? — rejects
  /// the strtod extensions ("+1", "01", "1.", ".5", hex, inf/nan).
  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    Consume('-');
    if (pos_ < text_.size() && text_[pos_] == '0') {
      ++pos_;
    } else if (!ConsumeDigits()) {
      return Fail("malformed number");
    }
    if (Consume('.') && !ConsumeDigits()) return Fail("malformed number");
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!ConsumeDigits()) return Fail("malformed number");
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      return Fail("malformed number");
    }
    // A plain non-negative integer literal also keeps its exact value.
    uint64_t exact = 0;
    if (token.find_first_not_of("0123456789") == std::string::npos &&
        std::from_chars(token.data(), token.data() + token.size(), exact)
                .ec == std::errc()) {
      *out = JsonValue::MakeUInt(exact);
    } else {
      *out = JsonValue::MakeNumber(value);
    }
    return Status::OK();
  }

  std::string_view text_;
  size_t pos_ = 0;
};

#undef BIONAV_RETURN_IF_ERROR_RESULT

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

namespace {

void WriteJsonTo(const JsonValue& value, std::string* out) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out->append("null");
      return;
    case JsonValue::Type::kBool:
      out->append(value.bool_value() ? "true" : "false");
      return;
    case JsonValue::Type::kNumber: {
      double n = value.number_value();
      if (n >= -0x1p63 && n < 0x1p63 &&
          n == static_cast<double>(static_cast<int64_t>(n))) {
        out->append(std::to_string(static_cast<int64_t>(n)));
      } else {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.17g", n);
        out->append(buffer);
      }
      return;
    }
    case JsonValue::Type::kString:
      out->push_back('"');
      out->append(JsonEscape(value.string_value()));
      out->push_back('"');
      return;
    case JsonValue::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : value.array_items()) {
        if (!first) out->push_back(',');
        first = false;
        WriteJsonTo(item, out);
      }
      out->push_back(']');
      return;
    }
    case JsonValue::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.object_items()) {
        if (!first) out->push_back(',');
        first = false;
        out->push_back('"');
        out->append(JsonEscape(key));
        out->append("\":");
        WriteJsonTo(member, out);
      }
      out->push_back('}');
      return;
    }
  }
}

}  // namespace

std::string WriteJson(const JsonValue& value) {
  std::string out;
  WriteJsonTo(value, &out);
  return out;
}

// ---------------------------------------------------------------------------
// Frame assembly
// ---------------------------------------------------------------------------

bool LineFrameDecoder::Feed(std::string_view data) {
  if (overflowed_) return false;
  // Compact lazily: only when the consumed prefix dominates, so a steady
  // stream of small frames does not memmove per frame.
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data);
  // Overflow only counts an *unterminated* tail: a Feed carrying several
  // complete pipelined frames may legitimately exceed one frame's budget.
  size_t last_newline = buffer_.find_last_of('\n');
  size_t tail_start = last_newline == std::string::npos ? consumed_
                                                        : last_newline + 1;
  if (tail_start < consumed_) tail_start = consumed_;
  if (buffer_.size() - tail_start > max_frame_bytes_) {
    overflowed_ = true;
    return false;
  }
  return true;
}

bool LineFrameDecoder::Next(std::string* line) {
  size_t newline = buffer_.find('\n', consumed_);
  if (newline == std::string::npos) return false;
  // A complete line is held to the same budget as an unterminated tail;
  // the frames before it have already been handed out.
  if (newline - consumed_ > max_frame_bytes_) {
    overflowed_ = true;
    return false;
  }
  line->assign(buffer_, consumed_, newline - consumed_);
  if (!line->empty() && line->back() == '\r') line->pop_back();
  consumed_ = newline + 1;
  return true;
}

bool LineFrameDecoder::has_frame() const {
  size_t newline = buffer_.find('\n', consumed_);
  return newline != std::string::npos &&
         newline - consumed_ <= max_frame_bytes_;
}

namespace {

void AppendKey(std::string* out, std::string_view key) {
  out->push_back(',');
  out->push_back('"');
  out->append(key);
  out->append("\":");
}

}  // namespace

// ---------------------------------------------------------------------------
// Responses and errors
// ---------------------------------------------------------------------------

const char* WireErrorName(WireError error) {
  switch (error) {
    case WireError::kNone: return "NONE";
    case WireError::kBadRequest: return "BAD_REQUEST";
    case WireError::kUnsupportedVersion: return "UNSUPPORTED_VERSION";
    case WireError::kUnknownSession: return "UNKNOWN_SESSION";
    case WireError::kRetryLater: return "RETRY_LATER";
    case WireError::kShuttingDown: return "SHUTTING_DOWN";
    case WireError::kInvalidArgument: return "INVALID_ARGUMENT";
    case WireError::kNotFound: return "NOT_FOUND";
    case WireError::kFailedPrecondition: return "FAILED_PRECONDITION";
    case WireError::kInternal: return "INTERNAL";
  }
  return "INTERNAL";
}

std::string ErrorReply(WireError error, std::string_view message) {
  BIONAV_CHECK(error != WireError::kNone) << "ErrorReply on success";
  return "{\"v\":" + std::to_string(kProtocolVersion) +
         ",\"ok\":false,\"error\":\"" + WireErrorName(error) +
         "\",\"message\":\"" + JsonEscape(std::string(message)) + "\"}";
}

WireError WireErrorFromStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      BIONAV_CHECK(false) << "WireErrorFromStatus on OK";
      return WireError::kInternal;
    case StatusCode::kInvalidArgument: return WireError::kInvalidArgument;
    case StatusCode::kNotFound: return WireError::kNotFound;
    case StatusCode::kOutOfRange: return WireError::kInvalidArgument;
    case StatusCode::kFailedPrecondition: return WireError::kFailedPrecondition;
    case StatusCode::kInternal: return WireError::kInternal;
    case StatusCode::kIOError: return WireError::kInternal;
    // Client-side deadline; a server never produces it on the wire.
    case StatusCode::kDeadlineExceeded: return WireError::kInternal;
    // Corrupt persisted state; the session layer translates it to
    // NotFound before the wire, so this is a defensive mapping.
    case StatusCode::kDataLoss: return WireError::kInternal;
  }
  return WireError::kInternal;
}

Status StatusFromWireError(std::string_view error_name,
                           std::string_view message) {
  std::string msg(message);
  if (error_name == WireErrorName(WireError::kInvalidArgument) ||
      error_name == WireErrorName(WireError::kBadRequest) ||
      error_name == WireErrorName(WireError::kUnsupportedVersion)) {
    return Status::InvalidArgument(msg);
  }
  if (error_name == WireErrorName(WireError::kNotFound) ||
      error_name == WireErrorName(WireError::kUnknownSession)) {
    return Status::NotFound(msg);
  }
  if (error_name == WireErrorName(WireError::kRetryLater) ||
      error_name == WireErrorName(WireError::kShuttingDown) ||
      error_name == WireErrorName(WireError::kFailedPrecondition)) {
    // Shed / drain replies keep their code name so callers can detect
    // backpressure without string-matching free-form messages.
    if (error_name != WireErrorName(WireError::kFailedPrecondition)) {
      return Status::FailedPrecondition(std::string(error_name) + ": " + msg);
    }
    return Status::FailedPrecondition(msg);
  }
  return Status::Internal(std::string(error_name) + ": " + msg);
}

ResponseBuilder::ResponseBuilder(RequestOp op) {
  out_ = "{\"v\":" + std::to_string(kProtocolVersion) +
         ",\"ok\":true,\"op\":\"" + RequestOpName(op) + "\"";
}

ResponseBuilder& ResponseBuilder::Add(std::string_view key, int64_t value) {
  AppendKey(&out_, key);
  out_ += std::to_string(value);
  return *this;
}

ResponseBuilder& ResponseBuilder::Add(std::string_view key, uint64_t value) {
  AppendKey(&out_, key);
  out_ += std::to_string(value);
  return *this;
}

ResponseBuilder& ResponseBuilder::Add(std::string_view key, int value) {
  return Add(key, static_cast<int64_t>(value));
}

ResponseBuilder& ResponseBuilder::Add(std::string_view key, bool value) {
  AppendKey(&out_, key);
  out_ += value ? "true" : "false";
  return *this;
}

ResponseBuilder& ResponseBuilder::Add(std::string_view key,
                                      std::string_view value) {
  AppendKey(&out_, key);
  out_ += '"' + JsonEscape(std::string(value)) + '"';
  return *this;
}

ResponseBuilder& ResponseBuilder::AddRaw(std::string_view key,
                                         std::string_view raw_json) {
  AppendKey(&out_, key);
  out_.append(raw_json);
  return *this;
}

std::string ResponseBuilder::Finish() {
  out_.push_back('}');
  return std::move(out_);
}

// ---------------------------------------------------------------------------
// Binary protocol v2
// ---------------------------------------------------------------------------

const char* WireProtoName(WireProto proto) {
  switch (proto) {
    case WireProto::kJson: return "json";
    case WireProto::kBinary: return "binary";
  }
  return "json";
}

void AppendVarint(std::string* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<char>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out->push_back(static_cast<char>(value));
}

bool ReadVarint(std::string_view data, size_t* pos, uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= data.size()) return false;
    uint8_t byte = static_cast<uint8_t>(data[(*pos)++]);
    result |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // Canonical only: a zero final group is an overlong encoding, and a
      // tenth byte may carry nothing but bit 63.
      if ((byte == 0 && shift > 0) || (shift == 63 && byte > 1)) {
        return false;
      }
      *value = result;
      return true;
    }
  }
  return false;  // More than 10 continuation bytes: not a valid varint.
}

void AppendU32LE(std::string* out, uint32_t value) {
  out->push_back(static_cast<char>(value & 0xFF));
  out->push_back(static_cast<char>((value >> 8) & 0xFF));
  out->push_back(static_cast<char>((value >> 16) & 0xFF));
  out->push_back(static_cast<char>((value >> 24) & 0xFF));
}

uint32_t ReadU32LE(const char* p) {
  return static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
         static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
         static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
}

namespace {

/// Self-describing value encodings of a binary field. Unknown field *ids*
/// are skippable by type; an unknown *type* makes the frame undecodable.
enum FieldType : uint8_t {
  kFieldUVarint = 0,
  kFieldSVarint = 1,
  kFieldBool = 2,
  kFieldString = 3,   // varint length + bytes
  kFieldJson = 4,     // varint length + serialized JSON text
  kFieldIntList = 5,  // varint count + zigzag varints
};

void AppendFieldUInt(std::string* out, uint8_t id, uint64_t value) {
  out->push_back(static_cast<char>(id));
  out->push_back(static_cast<char>(kFieldUVarint));
  AppendVarint(out, value);
}

void AppendFieldInt(std::string* out, uint8_t id, int64_t value) {
  out->push_back(static_cast<char>(id));
  out->push_back(static_cast<char>(kFieldSVarint));
  AppendVarint(out, ZigzagEncode(value));
}

void AppendFieldBool(std::string* out, uint8_t id, bool value) {
  out->push_back(static_cast<char>(id));
  out->push_back(static_cast<char>(kFieldBool));
  out->push_back(value ? '\1' : '\0');
}

void AppendFieldBytes(std::string* out, uint8_t id, uint8_t type,
                      std::string_view bytes) {
  out->push_back(static_cast<char>(id));
  out->push_back(static_cast<char>(type));
  AppendVarint(out, bytes.size());
  out->append(bytes);
}

void AppendFieldIntList(std::string* out, uint8_t id,
                        const std::vector<NavNodeId>& ids) {
  out->push_back(static_cast<char>(id));
  out->push_back(static_cast<char>(kFieldIntList));
  AppendVarint(out, ids.size());
  for (NavNodeId node : ids) {
    AppendVarint(out, ZigzagEncode(static_cast<int64_t>(node)));
  }
}

/// One decoded field value; which member is live depends on `type`.
struct FieldValue {
  uint64_t uval = 0;       // kFieldUVarint; the entry count of kFieldIntList
  int64_t ival = 0;        // kFieldSVarint
  bool bval = false;       // kFieldBool
  std::string_view bytes;  // kFieldString / kFieldJson; kFieldIntList's
                           // run of zigzag varints (read with NextListEntry)
};

/// Decodes (and thereby skips) one field value of the given type at `*pos`.
/// False on truncation, overlong lengths, or an unknown type.
bool ReadFieldValue(std::string_view body, size_t* pos, uint8_t type,
                    FieldValue* out) {
  switch (type) {
    case kFieldUVarint:
      return ReadVarint(body, pos, &out->uval);
    case kFieldSVarint: {
      uint64_t raw = 0;
      if (!ReadVarint(body, pos, &raw)) return false;
      out->ival = ZigzagDecode(raw);
      return true;
    }
    case kFieldBool:
      if (*pos >= body.size()) return false;
      out->bval = body[(*pos)++] != '\0';
      return true;
    case kFieldString:
    case kFieldJson: {
      uint64_t length = 0;
      if (!ReadVarint(body, pos, &length)) return false;
      if (length > body.size() - *pos) return false;
      out->bytes = body.substr(*pos, length);
      *pos += length;
      return true;
    }
    case kFieldIntList: {
      if (!ReadVarint(body, pos, &out->uval)) return false;
      if (out->uval > body.size() - *pos) return false;  // >= 1 byte each
      const size_t start = *pos;
      uint64_t raw = 0;
      for (uint64_t i = 0; i < out->uval; ++i) {
        if (!ReadVarint(body, pos, &raw)) return false;
      }
      out->bytes = body.substr(start, *pos - start);
      return true;
    }
    default:
      return false;
  }
}

/// The next entry of a kFieldIntList run that ReadFieldValue validated.
int64_t NextListEntry(std::string_view run, size_t* at) {
  uint64_t raw = 0;
  ReadVarint(run, at, &raw);
  return ZigzagDecode(raw);
}

/// Error responses carry this op byte (JSON errors carry no "op" member).
constexpr uint8_t kBinaryOpError = 0xFF;
/// Whole-JSON passthrough frames (STATS/METRICS) carry this op byte; the
/// decoder returns the embedded document, so the byte never surfaces.
constexpr uint8_t kBinaryOpWhole = 0xFE;

std::string FinishBinaryFrame(std::string body) {
  std::string frame;
  frame.reserve(kBinaryFrameHeaderBytes + body.size());
  frame.push_back(static_cast<char>(kBinaryFrameMagic));
  AppendU32LE(&frame, static_cast<uint32_t>(body.size()));
  frame.append(body);
  return frame;
}

}  // namespace

// ---------------------------------------------------------------------------
// BinaryFrameDecoder
// ---------------------------------------------------------------------------

bool BinaryFrameDecoder::Feed(std::string_view data) {
  if (broken()) return false;
  // Same lazy compaction policy as LineFrameDecoder.
  if (consumed_ > 4096 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data);
  ScanHead();
  return !broken();
}

void BinaryFrameDecoder::ScanHead() {
  if (broken()) return;
  size_t avail = buffer_.size() - consumed_;
  if (avail == 0) return;
  if (static_cast<uint8_t>(buffer_[consumed_]) != kBinaryFrameMagic) {
    corrupted_ = true;
    return;
  }
  if (avail < kBinaryFrameHeaderBytes) return;
  if (ReadU32LE(buffer_.data() + consumed_ + 1) > max_frame_bytes_) {
    overflowed_ = true;
  }
}

bool BinaryFrameDecoder::has_frame() const {
  if (broken()) return false;
  size_t avail = buffer_.size() - consumed_;
  if (avail < kBinaryFrameHeaderBytes) return false;
  return avail - kBinaryFrameHeaderBytes >=
         ReadU32LE(buffer_.data() + consumed_ + 1);
}

bool BinaryFrameDecoder::Next(std::string* body) {
  if (!has_frame()) return false;
  uint32_t length = ReadU32LE(buffer_.data() + consumed_ + 1);
  body->assign(buffer_, consumed_ + kBinaryFrameHeaderBytes, length);
  consumed_ += kBinaryFrameHeaderBytes + length;
  // Validate the next frame's head right away so broken() trips as soon as
  // the stream goes bad, not one Feed later.
  ScanHead();
  return true;
}

// ---------------------------------------------------------------------------
// Requests: one schema, two encodings
// ---------------------------------------------------------------------------

namespace {

/// Request fields in schema order, the order both encoders write them.
enum FieldSlot : int {
  kSlotQuery,
  kSlotToken,
  kSlotNode,
  kSlotRetstart,
  kSlotRetmax,
  kSlotNodes,
  kSlotConcept,
  kSlotDepth,
  kNumFieldSlots,
};

using FieldSet = uint16_t;
constexpr FieldSet Bit(int slot) { return static_cast<FieldSet>(1u << slot); }

struct FieldSpec {
  uint8_t id;         // binary field id
  const char* key;    // JSON member name
  uint8_t type;       // binary value type; kFieldSVarint fields are int32,
                      // kFieldUVarint uint64, kFieldIntList int32 entries
  const char* shape;  // "<OP> requires a <shape> field" when missing
};

constexpr FieldSpec kFieldSpecs[kNumFieldSlots] = {
    {2, "query", kFieldString, "non-empty string"},
    {1, "token", kFieldString, "string"},
    {3, "node", kFieldSVarint, "numeric"},
    {5, "retstart", kFieldUVarint, "numeric"},
    {6, "retmax", kFieldUVarint, "numeric"},
    {8, "nodes", kFieldIntList, "non-empty array"},
    {4, "concept", kFieldSVarint, "numeric"},
    {7, "depth", kFieldSVarint, "numeric"},
};

/// Schema slot of a binary field id; -1 for ids this build ignores.
int SlotOfId(uint8_t id) {
  static constexpr auto kSlots = [] {
    std::array<int8_t, 256> slots{};
    for (int8_t& slot : slots) slot = -1;
    for (int slot = 0; slot < kNumFieldSlots; ++slot) {
      slots[kFieldSpecs[slot].id] = static_cast<int8_t>(slot);
    }
    return slots;
  }();
  return kSlots[id];
}

struct OpSpec {
  const char* name;   // wire name
  FieldSet required;  // must be present; a string or list also non-empty
  FieldSet optional;  // when absent the member keeps its default
  FieldSet carries() const { return required | optional; }
};

constexpr FieldSet kQueryField = Bit(kSlotQuery);
constexpr FieldSet kTokenField = Bit(kSlotToken);

/// Indexed by RequestOp. Fields an op does not carry are ignored on decode
/// and never written on encode.
constexpr OpSpec kOpSpecs[] = {
    {"QUERY", kQueryField, 0},
    {"EXPAND", kTokenField | Bit(kSlotNode), 0},
    {"SHOWRESULTS", kTokenField | Bit(kSlotNode),
     Bit(kSlotRetstart) | Bit(kSlotRetmax)},
    {"BACKTRACK", kTokenField, 0},
    {"FIND", kTokenField | Bit(kSlotConcept), 0},
    {"VIEW", kTokenField, Bit(kSlotDepth)},
    {"CLOSE", kTokenField, 0},
    {"STATS", 0, 0},
    {"METRICS", 0, 0},
    {"BATCH_EXPAND", kTokenField | Bit(kSlotNodes), 0},
    {"FETCH_ARTIFACT", kQueryField, 0},
    {"TOPOLOGY", 0, 0},
};
static_assert(static_cast<int>(std::size(kOpSpecs)) == kNumRequestOps,
              "one OpSpec per RequestOp");

const OpSpec& OpSpecOf(RequestOp op) {
  static constexpr OpSpec kUnknown = {"UNKNOWN", 0, 0};
  const int index = static_cast<int>(op);
  return index >= 0 && index < kNumRequestOps ? kOpSpecs[index] : kUnknown;
}

// One request field in either encoding; the member's C++ type picks the
// value encoding (and matches the field's binary type).
void AppendField(WireProto proto, const FieldSpec& field,
                 const std::string& text, std::string* out) {
  if (proto == WireProto::kBinary) {
    return AppendFieldBytes(out, field.id, kFieldString, text);
  }
  AppendKey(out, field.key);
  out->append('"' + JsonEscape(text) + '"');
}

void AppendField(WireProto proto, const FieldSpec& field, int32_t value,
                 std::string* out) {
  if (proto == WireProto::kBinary) return AppendFieldInt(out, field.id, value);
  AppendKey(out, field.key);
  out->append(std::to_string(value));
}

void AppendField(WireProto proto, const FieldSpec& field, uint64_t value,
                 std::string* out) {
  if (proto == WireProto::kBinary) return AppendFieldUInt(out, field.id, value);
  AppendKey(out, field.key);
  out->append(std::to_string(value));
}

void AppendField(WireProto proto, const FieldSpec& field,
                 const std::vector<NavNodeId>& list, std::string* out) {
  if (proto == WireProto::kBinary) {
    return AppendFieldIntList(out, field.id, list);
  }
  AppendKey(out, field.key);
  out->push_back('[');
  for (size_t i = 0; i < list.size(); ++i) {
    if (i != 0) out->push_back(',');
    out->append(std::to_string(list[i]));
  }
  out->push_back(']');
}

/// Appends the fields `request.op` carries, in schema order.
void AppendRequestFields(WireProto proto, const Request& request,
                         std::string* out) {
  const FieldSet carried = OpSpecOf(request.op).carries();
  auto field = [&](FieldSlot slot, const auto& member) {
    if ((carried & Bit(slot)) != 0) {
      AppendField(proto, kFieldSpecs[slot], member, out);
    }
  };
  field(kSlotQuery, request.query);
  field(kSlotToken, request.token);
  field(kSlotNode, request.node);
  field(kSlotRetstart, request.retstart);
  field(kSlotRetmax, request.retmax);
  field(kSlotNodes, request.nodes);
  field(kSlotConcept, request.concept_id);
  field(kSlotDepth, request.depth);
}

/// An integer as either decoder read it, before the store step checks it
/// against its member's C++ type. Binary varints are exact; so is a JSON
/// number that is integral and below 2^64 in magnitude (an integer literal
/// past 2^53 through JsonValue::exact_uint).
struct WireInt {
  bool integral = false;  // False for fractions, huge values, non-numbers.
  bool negative = false;
  uint64_t magnitude = 0;

  static WireInt Signed(int64_t v) {
    const uint64_t bits = static_cast<uint64_t>(v);
    return {true, v < 0, v < 0 ? 0 - bits : bits};
  }
  static WireInt FromJson(const JsonValue& v) {
    if (!v.is_number()) return {};
    if (v.exact_uint()) return {true, false, *v.exact_uint()};
    const double d = v.number_value();
    if (d != std::trunc(d) || !(std::fabs(d) < 0x1p64)) return {};
    return {true, d < 0, static_cast<uint64_t>(std::fabs(d))};
  }
  bool FitsInt32() const {
    return integral && magnitude <= (negative ? 1u << 31 : INT32_MAX);
  }
  int32_t AsInt32() const {
    return static_cast<int32_t>(negative ? -static_cast<int64_t>(magnitude)
                                         : static_cast<int64_t>(magnitude));
  }
};

// The store and validation steps both decoders share. `R` is Request (the
// JSON decoder owns its strings) or RequestView (binary strings view the
// frame); the two have the same members.
template <typename R>
void StoreText(int slot, std::string_view text, R* r) {
  (slot == kSlotQuery ? r->query : r->token) = text;
}

/// Starts a `nodes` list of `count` entries (a repeated field replaces the
/// earlier list); more than kMaxBatchExpandNodes is BAD_REQUEST.
template <typename R>
WireError BeginList(uint64_t count, R* r, std::string* error_message) {
  if (count > kMaxBatchExpandNodes) {
    *error_message = std::string(RequestOpName(r->op)) + " accepts at most " +
                     std::to_string(kMaxBatchExpandNodes) + " nodes";
    return WireError::kBadRequest;
  }
  r->nodes.clear();
  r->nodes.reserve(count);
  return WireError::kNone;
}

/// BAD_REQUEST naming the field of a rejected integer; out of line so the
/// store step's accepting path stays small.
[[gnu::noinline]] WireError IntegerError(RequestOp op, int slot,
                                         std::string* error_message) {
  const FieldSpec& field = kFieldSpecs[slot];
  *error_message = std::string(RequestOpName(op)) + " field \"" + field.key +
                   "\" takes integers that fit " +
                   (field.type == kFieldUVarint ? "uint64" : "int32");
  return WireError::kBadRequest;
}

/// Stores an integer field, or appends one `nodes` entry. The value must be
/// integral and fit the member's C++ type (int32; uint64 for retstart and
/// retmax), otherwise the request is BAD_REQUEST naming the field.
template <typename R>
WireError StoreInt(int slot, WireInt value, R* r, std::string* error_message) {
  const bool fits = kFieldSpecs[slot].type == kFieldUVarint
                        ? value.integral && !value.negative
                        : value.FitsInt32();
  if (!fits) return IntegerError(r->op, slot, error_message);
  switch (slot) {
    case kSlotNode: r->node = value.AsInt32(); break;
    case kSlotConcept: r->concept_id = value.AsInt32(); break;
    case kSlotDepth: r->depth = value.AsInt32(); break;
    case kSlotRetstart: r->retstart = value.magnitude; break;
    case kSlotRetmax: r->retmax = value.magnitude; break;
    case kSlotNodes: r->nodes.push_back(value.AsInt32()); break;
  }
  return WireError::kNone;
}

/// Every field the op requires was stored, and a required string or list
/// is non-empty.
template <typename R>
WireError ValidateRequest(const R& r, FieldSet present,
                          std::string* error_message) {
  if (r.query.empty()) present &= ~Bit(kSlotQuery);
  if (r.token.empty()) present &= ~Bit(kSlotToken);
  if (r.nodes.empty()) present &= ~Bit(kSlotNodes);
  const OpSpec& op = OpSpecOf(r.op);
  const FieldSet missing = op.required & ~present;
  if (missing == 0) {
    error_message->clear();
    return WireError::kNone;
  }
  int slot = 0;  // The first missing field in schema order.
  while ((missing & Bit(slot)) == 0) ++slot;
  *error_message = std::string(op.name) + " requires a " +
                   kFieldSpecs[slot].shape + " field \"" +
                   kFieldSpecs[slot].key + "\"";
  return WireError::kBadRequest;
}

}  // namespace

RequestView MakeRequestView(const Request& request) {
  RequestView view;
  view.version = request.version;
  view.op = request.op;
  view.token = request.token;
  view.query = request.query;
  view.node = request.node;
  view.nodes = request.nodes;
  view.concept_id = request.concept_id;
  view.retstart = request.retstart;
  view.retmax = request.retmax;
  view.depth = request.depth;
  return view;
}

Request ToOwnedRequest(RequestView view) {
  Request request;
  request.version = view.version;
  request.op = view.op;
  request.token = std::string(view.token);
  request.query = std::string(view.query);
  request.node = view.node;
  request.nodes = std::move(view.nodes);
  request.concept_id = view.concept_id;
  request.retstart = view.retstart;
  request.retmax = view.retmax;
  request.depth = view.depth;
  return request;
}

const char* RequestOpName(RequestOp op) { return OpSpecOf(op).name; }

std::string SerializeRequest(const Request& request) {
  std::string out = "{\"v\":" + std::to_string(request.version) +
                    ",\"op\":\"" + RequestOpName(request.op) + "\"";
  AppendRequestFields(WireProto::kJson, request, &out);
  out.push_back('}');
  return out;
}

std::string SerializeRequestBinary(const Request& request) {
  std::string body;
  body.push_back(static_cast<char>(kBinaryProtocolVersion));
  body.push_back(static_cast<char>(request.op));
  AppendRequestFields(WireProto::kBinary, request, &body);
  return FinishBinaryFrame(std::move(body));
}

std::string EncodeRequestFrame(WireProto proto, const Request& request) {
  if (proto == WireProto::kBinary) return SerializeRequestBinary(request);
  return SerializeRequest(request) + '\n';
}

WireError ParseRequest(std::string_view line, Request* out,
                       std::string* error_message) {
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    *error_message = parsed.status().message();
    return WireError::kBadRequest;
  }
  const JsonValue& doc = parsed.ValueOrDie();
  if (!doc.is_object()) {
    *error_message = "request must be a JSON object";
    return WireError::kBadRequest;
  }
  const JsonValue* version = doc.Find("v");
  if (version == nullptr || !version->is_number()) {
    // Absent or ill-typed "v" is a version we do not speak, not a malformed
    // request — the reply tells the peer which version this server wants.
    *error_message = "missing protocol version field \"v\"; server speaks " +
                     std::to_string(kProtocolVersion);
    return WireError::kUnsupportedVersion;
  }
  if (version->number_value() != kProtocolVersion) {
    *error_message = "server speaks protocol version " +
                     std::to_string(kProtocolVersion);
    return WireError::kUnsupportedVersion;
  }
  const JsonValue* op = doc.Find("op");
  if (op == nullptr || !op->is_string()) {
    *error_message = "missing request field \"op\"";
    return WireError::kBadRequest;
  }
  int op_index = 0;
  while (op_index < kNumRequestOps &&
         op->string_value() != kOpSpecs[op_index].name) {
    ++op_index;
  }
  if (op_index == kNumRequestOps) {
    *error_message = "unknown op '" + op->string_value() + "'";
    return WireError::kBadRequest;
  }
  Request request;
  request.op = static_cast<RequestOp>(op_index);
  const FieldSet carried = kOpSpecs[op_index].carries();
  FieldSet present = 0;
  for (int slot = 0; slot < kNumFieldSlots; ++slot) {
    const FieldSpec& field = kFieldSpecs[slot];
    const JsonValue* member =
        (carried & Bit(slot)) != 0 ? doc.Find(field.key) : nullptr;
    if (member == nullptr) continue;
    // A member of the wrong JSON type counts as absent.
    WireError stored = WireError::kNone;
    switch (field.type) {
      case kFieldString:
        if (!member->is_string()) continue;
        StoreText(slot, member->string_value(), &request);
        break;
      case kFieldIntList:
        if (!member->is_array()) continue;
        stored = BeginList(member->array_items().size(), &request,
                           error_message);
        for (const JsonValue& item : member->array_items()) {
          if (stored != WireError::kNone) break;
          stored = StoreInt(slot, WireInt::FromJson(item), &request,
                            error_message);
        }
        break;
      default:  // kFieldSVarint / kFieldUVarint
        if (!member->is_number()) continue;
        stored = StoreInt(slot, WireInt::FromJson(*member), &request,
                          error_message);
        break;
    }
    if (stored != WireError::kNone) return stored;
    present |= Bit(slot);
  }
  WireError invalid = ValidateRequest(request, present, error_message);
  if (invalid != WireError::kNone) return invalid;
  *out = std::move(request);
  return WireError::kNone;
}

WireError ParseRequestBinary(std::string_view body, RequestView* out,
                             std::string* error_message) {
  if (body.size() < 2) {
    *error_message = "binary request body too short";
    return WireError::kBadRequest;
  }
  int version = static_cast<uint8_t>(body[0]);
  if (version != kBinaryProtocolVersion) {
    *error_message = "server speaks binary protocol version " +
                     std::to_string(kBinaryProtocolVersion);
    return WireError::kUnsupportedVersion;
  }
  uint8_t op_byte = static_cast<uint8_t>(body[1]);
  if (op_byte >= kNumRequestOps) {
    *error_message = "unknown op byte " + std::to_string(op_byte);
    return WireError::kBadRequest;
  }
  RequestView view;
  view.version = version;
  view.op = static_cast<RequestOp>(op_byte);
  const FieldSet carried = kOpSpecs[op_byte].carries();
  FieldSet present = 0;
  size_t pos = 2;
  while (pos < body.size()) {
    if (pos + 2 > body.size()) {
      *error_message = "truncated field header";
      return WireError::kBadRequest;
    }
    uint8_t id = static_cast<uint8_t>(body[pos]);
    uint8_t type = static_cast<uint8_t>(body[pos + 1]);
    pos += 2;
    FieldValue value;
    if (!ReadFieldValue(body, &pos, type, &value)) {
      *error_message = "malformed field " + std::to_string(id);
      return WireError::kBadRequest;
    }
    // Unknown ids, fields the op does not carry and known ids of another
    // type count as absent: skipped by their self-describing type.
    const int slot = SlotOfId(id);
    if (slot < 0 || (carried & Bit(slot)) == 0 ||
        type != kFieldSpecs[slot].type) {
      continue;
    }
    WireError stored = WireError::kNone;
    switch (type) {
      case kFieldString:
        StoreText(slot, value.bytes, &view);
        break;
      case kFieldSVarint:
        stored = StoreInt(slot, WireInt::Signed(value.ival), &view,
                          error_message);
        break;
      case kFieldUVarint:
        stored = StoreInt(slot, WireInt{true, false, value.uval}, &view,
                          error_message);
        break;
      case kFieldIntList: {
        stored = BeginList(value.uval, &view, error_message);
        size_t at = 0;
        for (uint64_t i = 0; i < value.uval && stored == WireError::kNone;
             ++i) {
          stored = StoreInt(slot,
                            WireInt::Signed(NextListEntry(value.bytes, &at)),
                            &view, error_message);
        }
        break;
      }
    }
    if (stored != WireError::kNone) return stored;
    present |= Bit(slot);
  }
  WireError invalid = ValidateRequest(view, present, error_message);
  if (invalid != WireError::kNone) return invalid;
  *out = std::move(view);
  return WireError::kNone;
}

WireError DecodeRequest(WireProto proto, std::string_view payload,
                        Request* storage, RequestView* out,
                        std::string* error_message) {
  if (proto == WireProto::kBinary) {
    return ParseRequestBinary(payload, out, error_message);
  }
  WireError error = ParseRequest(payload, storage, error_message);
  if (error == WireError::kNone) *out = MakeRequestView(*storage);
  return error;
}

// ---------------------------------------------------------------------------
// Proto-generic responses
// ---------------------------------------------------------------------------

const char* WireFieldName(WireField field) {
  switch (field) {
    case WireField::kToken: return "token";
    case WireField::kResultSize: return "result_size";
    case WireField::kCached: return "cached";
    case WireField::kRevealed: return "revealed";
    case WireField::kTotal: return "total";
    case WireField::kSummaries: return "summaries";
    case WireField::kUndone: return "undone";
    case WireField::kFound: return "found";
    case WireField::kNode: return "node";
    case WireField::kVisible: return "visible";
    case WireField::kComponentRoot: return "component_root";
    case WireField::kDistinct: return "distinct";
    case WireField::kTree: return "tree";
    case WireField::kClosed: return "closed";
    case WireField::kError: return "error";
    case WireField::kMessage: return "message";
    case WireField::kWhole: return "whole";
    case WireField::kResults: return "results";
    case WireField::kExpanded: return "expanded";
    case WireField::kArtifact: return "artifact";
  }
  return nullptr;
}

namespace {

/// WireFieldName over a raw id byte; nullptr for ids this build ignores.
const char* WireFieldNameOrNull(uint8_t id) {
  if (id < static_cast<uint8_t>(WireField::kToken) ||
      id > static_cast<uint8_t>(WireField::kArtifact)) {
    return nullptr;
  }
  return WireFieldName(static_cast<WireField>(id));
}

}  // namespace

WirePayload& WirePayload::AddUInt(WireField field, uint64_t value) {
  if (proto_ == WireProto::kJson) {
    AppendKey(&out_, WireFieldName(field));
    out_ += std::to_string(value);
  } else {
    AppendFieldUInt(&out_, static_cast<uint8_t>(field), value);
  }
  return *this;
}

WirePayload& WirePayload::AddInt(WireField field, int64_t value) {
  if (proto_ == WireProto::kJson) {
    AppendKey(&out_, WireFieldName(field));
    out_ += std::to_string(value);
  } else {
    AppendFieldInt(&out_, static_cast<uint8_t>(field), value);
  }
  return *this;
}

WirePayload& WirePayload::AddBool(WireField field, bool value) {
  if (proto_ == WireProto::kJson) {
    AppendKey(&out_, WireFieldName(field));
    out_ += value ? "true" : "false";
  } else {
    AppendFieldBool(&out_, static_cast<uint8_t>(field), value);
  }
  return *this;
}

WirePayload& WirePayload::AddString(WireField field, std::string_view value) {
  if (proto_ == WireProto::kJson) {
    AppendKey(&out_, WireFieldName(field));
    out_ += '"' + JsonEscape(std::string(value)) + '"';
  } else {
    AppendFieldBytes(&out_, static_cast<uint8_t>(field), kFieldString, value);
  }
  return *this;
}

WirePayload& WirePayload::AddRawJson(WireField field,
                                     std::string_view raw_json) {
  if (proto_ == WireProto::kJson) {
    AppendKey(&out_, WireFieldName(field));
    out_.append(raw_json);
  } else {
    AppendFieldBytes(&out_, static_cast<uint8_t>(field), kFieldJson, raw_json);
  }
  return *this;
}

WirePayload& WirePayload::AddIntList(WireField field,
                                     const std::vector<NavNodeId>& ids) {
  if (proto_ == WireProto::kJson) {
    AppendKey(&out_, WireFieldName(field));
    out_.push_back('[');
    bool first = true;
    for (NavNodeId node : ids) {
      if (!first) out_.push_back(',');
      first = false;
      out_ += std::to_string(node);
    }
    out_.push_back(']');
  } else {
    AppendFieldIntList(&out_, static_cast<uint8_t>(field), ids);
  }
  return *this;
}

std::string WirePayload::Finish() {
  if (proto_ == WireProto::kJson) out_.append("}\n");
  return std::move(out_);
}

namespace {

/// The per-request binary response prefix: [version][flags][op].
std::string BinaryResponseHead(bool ok, uint8_t op_byte) {
  std::string head;
  head.push_back(static_cast<char>(kBinaryProtocolVersion));
  head.push_back(ok ? '\1' : '\0');
  head.push_back(static_cast<char>(op_byte));
  return head;
}

}  // namespace

WireResponse::WireResponse(WireProto proto, RequestOp op)
    : proto_(proto), op_(op), fields_(proto) {}

WireResponse& WireResponse::AddUInt(WireField field, uint64_t value) {
  fields_.AddUInt(field, value);
  return *this;
}

WireResponse& WireResponse::AddInt(WireField field, int64_t value) {
  fields_.AddInt(field, value);
  return *this;
}

WireResponse& WireResponse::AddBool(WireField field, bool value) {
  fields_.AddBool(field, value);
  return *this;
}

WireResponse& WireResponse::AddString(WireField field, std::string_view value) {
  fields_.AddString(field, value);
  return *this;
}

WireResponse& WireResponse::AddRawJson(WireField field,
                                       std::string_view raw_json) {
  fields_.AddRawJson(field, raw_json);
  return *this;
}

WireResponse& WireResponse::AddIntList(WireField field,
                                       const std::vector<NavNodeId>& ids) {
  fields_.AddIntList(field, ids);
  return *this;
}

WireFrame WireResponse::Finish() {
  WireFrame frame;
  if (proto_ == WireProto::kJson) {
    frame.head = "{\"v\":" + std::to_string(kProtocolVersion) +
                 ",\"ok\":true,\"op\":\"" + RequestOpName(op_) + "\"" +
                 fields_.Finish();
  } else {
    frame.head = FinishBinaryFrame(
        BinaryResponseHead(true, static_cast<uint8_t>(op_)) +
        fields_.Finish());
  }
  return frame;
}

WireFrame WireResponse::FinishWithPayload(
    std::shared_ptr<const std::string> payload) {
  BIONAV_CHECK(payload != nullptr) << "FinishWithPayload on null payload";
  WireFrame frame;
  if (proto_ == WireProto::kJson) {
    // The shared payload closes the object and carries the '\n'.
    frame.head = "{\"v\":" + std::to_string(kProtocolVersion) +
                 ",\"ok\":true,\"op\":\"" + RequestOpName(op_) + "\"" +
                 std::move(fields_.out_);
  } else {
    std::string inner =
        BinaryResponseHead(true, static_cast<uint8_t>(op_)) +
        std::move(fields_.out_);
    frame.head.reserve(kBinaryFrameHeaderBytes + inner.size());
    frame.head.push_back(static_cast<char>(kBinaryFrameMagic));
    AppendU32LE(&frame.head,
                static_cast<uint32_t>(inner.size() + payload->size()));
    frame.head.append(inner);
  }
  frame.body = std::move(payload);
  return frame;
}

WireFrame WireResponse::Error(WireProto proto, WireError error,
                              std::string_view message) {
  WireFrame frame;
  if (proto == WireProto::kJson) {
    frame.head = ErrorReply(error, message) + "\n";
    return frame;
  }
  BIONAV_CHECK(error != WireError::kNone) << "Error frame on success";
  std::string body = BinaryResponseHead(false, kBinaryOpError);
  AppendFieldBytes(&body, static_cast<uint8_t>(WireField::kError),
                   kFieldString, WireErrorName(error));
  AppendFieldBytes(&body, static_cast<uint8_t>(WireField::kMessage),
                   kFieldString, message);
  frame.head = FinishBinaryFrame(std::move(body));
  return frame;
}

WireFrame WrapWholeJson(WireProto proto, std::string json_line) {
  WireFrame frame;
  if (proto == WireProto::kJson) {
    frame.head = std::move(json_line) + "\n";
    return frame;
  }
  std::string body = BinaryResponseHead(true, kBinaryOpWhole);
  AppendFieldBytes(&body, static_cast<uint8_t>(WireField::kWhole), kFieldJson,
                   json_line);
  frame.head = FinishBinaryFrame(std::move(body));
  return frame;
}

Result<JsonValue> DecodeBinaryResponse(std::string_view body) {
  if (body.size() < 3) {
    return Status::InvalidArgument("binary response body too short");
  }
  if (static_cast<uint8_t>(body[0]) != kBinaryProtocolVersion) {
    return Status::InvalidArgument("unexpected binary response version byte");
  }
  bool ok = (static_cast<uint8_t>(body[1]) & 1) != 0;
  uint8_t op_byte = static_cast<uint8_t>(body[2]);
  JsonValue::Object members;
  members.emplace_back("v", JsonValue::MakeNumber(kBinaryProtocolVersion));
  members.emplace_back("ok", JsonValue::MakeBool(ok));
  // Error frames carry no "op" member, matching the JSON error shape.
  if (op_byte < kNumRequestOps) {
    members.emplace_back(
        "op", JsonValue::MakeString(
                  RequestOpName(static_cast<RequestOp>(op_byte))));
  }
  size_t pos = 3;
  while (pos < body.size()) {
    if (pos + 2 > body.size()) {
      return Status::InvalidArgument("truncated response field header");
    }
    uint8_t id = static_cast<uint8_t>(body[pos]);
    uint8_t type = static_cast<uint8_t>(body[pos + 1]);
    pos += 2;
    FieldValue value;
    if (!ReadFieldValue(body, &pos, type, &value)) {
      return Status::InvalidArgument("malformed response field " +
                                     std::to_string(id));
    }
    if (id == static_cast<uint8_t>(WireField::kWhole)) {
      // Whole-JSON passthrough: the embedded document IS the response.
      return ParseJson(value.bytes);
    }
    const char* name = WireFieldNameOrNull(id);
    if (name == nullptr) continue;  // Forward compatibility: skip unknown.
    switch (type) {
      case kFieldUVarint:
        members.emplace_back(
            name, JsonValue::MakeNumber(static_cast<double>(value.uval)));
        break;
      case kFieldSVarint:
        members.emplace_back(
            name, JsonValue::MakeNumber(static_cast<double>(value.ival)));
        break;
      case kFieldBool:
        members.emplace_back(name, JsonValue::MakeBool(value.bval));
        break;
      case kFieldString:
        members.emplace_back(name,
                             JsonValue::MakeString(std::string(value.bytes)));
        break;
      case kFieldJson: {
        Result<JsonValue> parsed = ParseJson(value.bytes);
        if (!parsed.ok()) return parsed.status();
        members.emplace_back(name, std::move(parsed.ValueOrDie()));
        break;
      }
      case kFieldIntList: {
        JsonValue::Array items;
        items.reserve(value.uval);
        size_t at = 0;
        for (uint64_t i = 0; i < value.uval; ++i) {
          items.push_back(JsonValue::MakeNumber(
              static_cast<double>(NextListEntry(value.bytes, &at))));
        }
        members.emplace_back(name, JsonValue::MakeArray(std::move(items)));
        break;
      }
    }
  }
  return JsonValue::MakeObject(std::move(members));
}

}  // namespace bionav
