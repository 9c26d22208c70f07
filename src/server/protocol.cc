#include "server/protocol.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "core/json_export.h"
#include "router/hash_ring.h"

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
      // Integer literals print exactly, past 2^53 too.
      if (value.exact_uint()) {
        out->append(std::to_string(*value.exact_uint()));
        return;
      }
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

/// Magic and length prefix before `body`; the length also counts a
/// `suffix_bytes` shared suffix sent after it.
std::string FinishBinaryFrame(std::string body, size_t suffix_bytes = 0) {
  std::string frame;
  frame.reserve(kBinaryFrameHeaderBytes + body.size());
  frame.push_back(static_cast<char>(kBinaryFrameMagic));
  AppendU32LE(&frame, static_cast<uint32_t>(body.size() + suffix_bytes));
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

/// The binary field header [id][type].
void AppendHeader(const FieldSpec& field, std::string* out) {
  out->push_back(static_cast<char>(field.id));
  out->push_back(static_cast<char>(field.type));
}

// One request or response field in either encoding; the value's C++ type
// picks the value encoding (and matches the field's binary type). A JSON
// text value is the base case the others render into for JSON.
void AppendField(WireProto proto, const FieldSpec& field, RawJson json,
                 std::string* out) {
  if (proto == WireProto::kJson) {
    AppendKey(out, field.key);
    out->append(json.text);
    return;
  }
  AppendHeader(field, out);  // Length-prefixed, like a string.
  AppendVarint(out, json.text.size());
  out->append(json.text);
}

void AppendField(WireProto proto, const FieldSpec& field,
                 std::string_view text, std::string* out) {
  if (proto == WireProto::kBinary) {
    return AppendField(proto, field, RawJson{text}, out);
  }
  AppendField(proto, field, RawJson{'"' + JsonEscape(std::string(text)) + '"'},
              out);
}

void AppendField(WireProto proto, const FieldSpec& field, bool value,
                 std::string* out) {
  if (proto == WireProto::kJson) {
    return AppendField(proto, field, RawJson{value ? "true" : "false"}, out);
  }
  AppendHeader(field, out);
  out->push_back(value ? '\1' : '\0');
}

void AppendField(WireProto proto, const FieldSpec& field, int32_t value,
                 std::string* out) {
  if (proto == WireProto::kJson) {
    return AppendField(proto, field, RawJson{std::to_string(value)}, out);
  }
  AppendHeader(field, out);
  AppendVarint(out, ZigzagEncode(value));
}

void AppendField(WireProto proto, const FieldSpec& field, uint64_t value,
                 std::string* out) {
  if (proto == WireProto::kJson) {
    return AppendField(proto, field, RawJson{std::to_string(value)}, out);
  }
  AppendHeader(field, out);
  AppendVarint(out, value);
}

void AppendField(WireProto proto, const FieldSpec& field,
                 const std::vector<NavNodeId>& list, std::string* out) {
  if (proto == WireProto::kJson) {
    std::string text = "[";
    for (NavNodeId node : list) text += std::to_string(node) + ',';
    if (!list.empty()) text.pop_back();
    return AppendField(proto, field, RawJson{text + ']'}, out);
  }
  AppendHeader(field, out);
  AppendVarint(out, list.size());
  for (NavNodeId node : list) AppendVarint(out, ZigzagEncode(node));
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
// Responses: one schema, two encodings
// ---------------------------------------------------------------------------

namespace {

/// Response fields by id - 1. The key names the JSON member; the type is
/// the binary encoding, which the builder's C++ value type must match.
constexpr FieldSpec kResponseFields[] = {
    {1, "token", kFieldString, nullptr},
    {2, "result_size", kFieldUVarint, nullptr},
    {3, "cached", kFieldBool, nullptr},
    {4, "revealed", kFieldIntList, nullptr},
    {5, "total", kFieldUVarint, nullptr},
    {6, "summaries", kFieldJson, nullptr},
    {7, "undone", kFieldBool, nullptr},
    {8, "found", kFieldBool, nullptr},
    {9, "node", kFieldSVarint, nullptr},
    {10, "visible", kFieldBool, nullptr},
    {11, "component_root", kFieldSVarint, nullptr},
    {12, "distinct", kFieldSVarint, nullptr},
    {13, "tree", kFieldJson, nullptr},
    {14, "closed", kFieldBool, nullptr},
    {15, "error", kFieldString, nullptr},
    {16, "message", kFieldString, nullptr},
    {17, "whole", kFieldJson, nullptr},
    {18, "results", kFieldJson, nullptr},
    {19, "expanded", kFieldUVarint, nullptr},
    {20, "artifact", kFieldString, nullptr},
};

const FieldSpec& SpecOf(WireField field) {
  return kResponseFields[static_cast<uint8_t>(field) - 1];
}

constexpr uint32_t Bit(WireField field) {
  return uint32_t{1} << static_cast<uint8_t>(field);
}

/// The fields one op's reply carries, in wire order. An op with none is a
/// whole-document reply (binary frames wrap it as kWhole).
struct ReplySpec {
  std::array<WireField, 5> fields;
  uint8_t count;
  uint32_t required;  // absent (or an empty string) is a malformed reply

  bool whole() const { return count == 0; }
  bool carries(WireField field) const {
    return std::find(fields.begin(), fields.begin() + count, field) !=
           fields.begin() + count;
  }
};

using F = WireField;
/// Indexed by RequestOp.
constexpr ReplySpec kReplySpecs[] = {
    {{F::kToken, F::kResultSize, F::kCached}, 3, Bit(F::kToken)},
    {{F::kRevealed}, 1, Bit(F::kRevealed)},
    {{F::kTotal, F::kSummaries}, 2, Bit(F::kSummaries)},
    {{F::kUndone}, 1, 0},
    {{F::kFound, F::kNode, F::kVisible, F::kComponentRoot, F::kDistinct}, 5,
     0},
    {{F::kTree}, 1, Bit(F::kTree)},
    {{F::kClosed}, 1, 0},
    {{}, 0, 0},  // STATS
    {{}, 0, 0},  // METRICS
    {{F::kExpanded, F::kRevealed, F::kResults}, 3,
     Bit(F::kRevealed) | Bit(F::kResults)},
    {{F::kArtifact}, 1, Bit(F::kArtifact)},
    {{}, 0, 0},  // TOPOLOGY
};
static_assert(static_cast<int>(std::size(kReplySpecs)) == kNumRequestOps,
              "one ReplySpec per RequestOp");

const ReplySpec& ReplySpecOf(RequestOp op) {
  return kReplySpecs[static_cast<int>(op)];
}

/// The Response member a reply field decodes into and encodes from.
template <typename R, typename Fn>
void VisitMember(R& r, WireField field, Fn&& fn) {
  switch (field) {
    case F::kToken: return fn(r.token);
    case F::kResultSize: return fn(r.result_size);
    case F::kCached: return fn(r.cached);
    case F::kRevealed: return fn(r.revealed);
    case F::kTotal: return fn(r.total);
    case F::kSummaries: return fn(r.summaries);
    case F::kUndone: return fn(r.undone);
    case F::kFound: return fn(r.found);
    case F::kNode: return fn(r.node);
    case F::kVisible: return fn(r.visible);
    case F::kComponentRoot: return fn(r.component_root);
    case F::kDistinct: return fn(r.distinct);
    case F::kTree: return fn(r.tree);
    case F::kClosed: return fn(r.closed);
    case F::kResults: return fn(r.outcomes);
    case F::kExpanded: return fn(r.expanded);
    case F::kArtifact: return fn(r.artifact);
    default: return;  // Error and framing fields: in no op's table.
  }
}

/// Error responses carry this op byte (JSON errors carry no "op" member).
constexpr uint8_t kBinaryOpError = 0xFF;
/// Whole-document frames carry this op byte and one kWhole field.
constexpr uint8_t kBinaryOpWhole = 0xFE;

/// The reply prefix: {"v":1,"ok":...[,"op":"<OP>"] for JSON (error and
/// whole-document op bytes name no op), [version][flags][op] for binary.
std::string ReplyHead(WireProto proto, bool ok, uint8_t op_byte) {
  if (proto == WireProto::kBinary) {
    return {static_cast<char>(kBinaryProtocolVersion), ok ? '\1' : '\0',
            static_cast<char>(op_byte)};
  }
  std::string head = "{\"v\":" + std::to_string(kProtocolVersion) +
                     ",\"ok\":" + (ok ? "true" : "false");
  if (op_byte < kNumRequestOps) {
    head += ",\"op\":\"" +
            std::string(RequestOpName(static_cast<RequestOp>(op_byte))) + "\"";
  }
  return head;
}

/// A complete frame from a reply head and its fields.
WireFrame FinishFrame(WireProto proto, std::string reply) {
  return {proto == WireProto::kJson ? std::move(reply) + "}\n"
                                    : FinishBinaryFrame(std::move(reply)),
          nullptr};
}

/// A whole-document frame: the JSON line, or a 0xFE frame whose sole field
/// is that line.
WireFrame WholeFrame(WireProto proto, bool ok, std::string json) {
  if (proto == WireProto::kJson) return {std::move(json) + "\n", nullptr};
  std::string body = ReplyHead(proto, ok, kBinaryOpWhole);
  AppendField(proto, SpecOf(F::kWhole), RawJson{json}, &body);
  return {FinishBinaryFrame(std::move(body)), nullptr};
}

WireFrame ErrorFrame(WireProto proto, std::string_view error,
                     std::string_view message) {
  std::string reply = ReplyHead(proto, false, kBinaryOpError);
  AppendField(proto, SpecOf(F::kError), error, &reply);
  AppendField(proto, SpecOf(F::kMessage), message, &reply);
  return FinishFrame(proto, std::move(reply));
}

std::string BatchOutcomesToJson(const std::vector<BatchOutcome>& results) {
  std::string out = "[";
  for (const BatchOutcome& outcome : results) {
    if (out.size() > 1) out.push_back(',');
    out += "{\"node\":" + std::to_string(outcome.node);
    if (outcome.ok) {
      out += ",\"ok\":true,\"revealed\":[";
      for (size_t k = 0; k < outcome.revealed.size(); ++k) {
        if (k != 0) out.push_back(',');
        out += std::to_string(outcome.revealed[k]);
      }
      out += "]}";
    } else {
      out += ",\"ok\":false,\"error\":\"" + JsonEscape(outcome.error) +
             "\",\"message\":\"" + JsonEscape(outcome.message) + "\"}";
    }
  }
  return out + "]";
}

// The typed decode step. A member of another JSON type, or an empty
// string, reads as absent; an integer outside its member's C++ type, or a
// malformed entry, is invalid.
enum class ReadOutcome { kAbsent, kStored, kInvalid };

ReadOutcome ReadValue(const JsonValue& v, std::string* out) {
  if (!v.is_string() || v.string_value().empty()) return ReadOutcome::kAbsent;
  *out = v.string_value();
  return ReadOutcome::kStored;
}

ReadOutcome ReadValue(const JsonValue& v, bool* out) {
  if (!v.is_bool()) return ReadOutcome::kAbsent;
  *out = v.bool_value();
  return ReadOutcome::kStored;
}

/// uint64_t or int32_t, through the request decoders' WireInt rule.
template <typename T, std::enable_if_t<std::is_same_v<T, uint64_t> ||
                                           std::is_same_v<T, int32_t>,
                                       int> = 0>
ReadOutcome ReadValue(const JsonValue& v, T* out) {
  if (!v.is_number()) return ReadOutcome::kAbsent;
  const WireInt value = WireInt::FromJson(v);
  if (std::is_signed_v<T> ? !value.FitsInt32()
                          : !value.integral || value.negative) {
    return ReadOutcome::kInvalid;
  }
  *out = std::is_signed_v<T> ? value.AsInt32() : value.magnitude;
  return ReadOutcome::kStored;
}

ReadOutcome ReadValue(const JsonValue& v, JsonValue* out) {
  *out = v;
  return ReadOutcome::kStored;
}

ReadOutcome ReadValue(const JsonValue& v, CitationSummary* out);
ReadOutcome ReadValue(const JsonValue& v, BatchOutcome* out);
ReadOutcome ReadValue(const JsonValue& v, TopologyBackend* out);

/// An array whose every entry must read.
template <typename T>
ReadOutcome ReadValue(const JsonValue& v, std::vector<T>* out) {
  if (!v.is_array()) return ReadOutcome::kAbsent;
  out->assign(v.array_items().size(), T());
  for (size_t i = 0; i < out->size(); ++i) {
    if (ReadValue(v.array_items()[i], &(*out)[i]) != ReadOutcome::kStored) {
      return ReadOutcome::kInvalid;
    }
  }
  return ReadOutcome::kStored;
}

/// Reads member `key` of `object` into `*out` (an absent one leaves it);
/// false when it is invalid.
template <typename T>
bool ReadKey(const JsonValue& object, std::string_view key, T* out) {
  const JsonValue* v = object.Find(key);
  return v == nullptr || ReadValue(*v, out) != ReadOutcome::kInvalid;
}

/// An object entry reads when every member it has reads.
ReadOutcome Entry(const JsonValue& v, bool members_read) {
  if (!v.is_object()) return ReadOutcome::kAbsent;
  return members_read ? ReadOutcome::kStored : ReadOutcome::kInvalid;
}

ReadOutcome ReadValue(const JsonValue& v, CitationSummary* out) {
  return Entry(v, ReadKey(v, "pmid", &out->pmid) &&
                      ReadKey(v, "year", &out->year) &&
                      ReadKey(v, "title", &out->title));
}

ReadOutcome ReadValue(const JsonValue& v, BatchOutcome* out) {
  const bool read = ReadKey(v, "node", &out->node) &&
                    ReadKey(v, "ok", &out->ok) &&
                    (out->ok ? ReadKey(v, "revealed", &out->revealed)
                             : ReadKey(v, "error", &out->error) &&
                                   ReadKey(v, "message", &out->message));
  return Entry(v, read);
}

/// A backend needs an id, a host and a port in 1-65535.
ReadOutcome ReadValue(const JsonValue& v, TopologyBackend* out) {
  int32_t port = 0;
  const bool read = ReadKey(v, "id", &out->id) &&
                    ReadKey(v, "host", &out->host) &&
                    ReadKey(v, "port", &port) &&
                    ReadKey(v, "state", &out->state) &&
                    ReadKey(v, "draining", &out->draining);
  out->port = port;
  return Entry(v, read && port >= 1 && port <= 65535 && !out->id.empty() &&
                      !out->host.empty());
}

Status FieldError(RequestOp op, std::string_view key, const char* problem) {
  return Status::Internal(std::string(RequestOpName(op)) + " response field \"" +
                          std::string(key) + "\" is " + problem);
}
constexpr const char* kMalformed = "malformed or out of range";
constexpr const char* kMissing = "missing";

/// TOPOLOGY's members: a ring geometry within the ring-size cap
/// (CheckRingSize: 1-kMaxRingVnodes vnodes, vnodes x backends within
/// kMaxRingPoints), the seed a whole decimal uint64 (a JSON number would
/// lose ring seeds past 2^53 in double-precision parsers), and well-formed
/// backends.
Status ReadTopology(const JsonValue& doc, FleetTopology* out) {
  constexpr RequestOp kOp = RequestOp::kTopology;
  if (!ReadKey(doc, "generation", &out->generation)) {
    return FieldError(kOp, "generation", kMalformed);
  }
  int32_t vnodes = out->vnodes;
  if (!ReadKey(doc, "vnodes", &vnodes) || vnodes < 1) {
    return FieldError(kOp, "vnodes", kMalformed);
  }
  out->vnodes = vnodes;
  std::string seed;
  if (!ReadKey(doc, "seed", &seed) || seed.empty()) {
    return FieldError(kOp, "seed", kMissing);
  }
  const char* end = seed.data() + seed.size();
  const auto [parsed, error] = std::from_chars(seed.data(), end, out->seed);
  if (error != std::errc() || parsed != end) {
    return FieldError(kOp, "seed", kMalformed);
  }
  const JsonValue* backends = doc.Find("backends");
  if (backends == nullptr) return FieldError(kOp, "backends", kMissing);
  if (ReadValue(*backends, &out->backends) != ReadOutcome::kStored) {
    return FieldError(kOp, "backends", kMalformed);
  }
  if (!CheckRingSize(out->vnodes, out->backends.size()).ok()) {
    return FieldError(kOp, "vnodes", "past the ring-size cap");
  }
  return Status::OK();
}

}  // namespace

WireResponse::WireResponse(WireProto proto, RequestOp op)
    : proto_(proto), op_(op) {}

template <typename T>
WireResponse& WireResponse::Put(WireField field, uint8_t type,
                                const T& value) {
  const FieldSpec& spec = SpecOf(field);
  BIONAV_CHECK(spec.type == type && ReplySpecOf(op_).carries(field))
      << RequestOpName(op_) << " reply does not carry \"" << spec.key
      << "\" as type " << static_cast<int>(type);
  AppendField(proto_, spec, value, &fields_);
  return *this;
}

WireResponse& WireResponse::Add(WireField field, uint64_t value) {
  return Put(field, kFieldUVarint, value);
}
WireResponse& WireResponse::Add(WireField field, int32_t value) {
  return Put(field, kFieldSVarint, value);
}
WireResponse& WireResponse::AddBool(WireField field, bool value) {
  return Put(field, kFieldBool, value);
}
WireResponse& WireResponse::Add(WireField field, std::string_view value) {
  return Put(field, kFieldString, value);
}
WireResponse& WireResponse::Add(WireField field,
                                const std::vector<NavNodeId>& ids) {
  return Put(field, kFieldIntList, ids);
}
WireResponse& WireResponse::Add(WireField field, RawJson json) {
  return Put(field, kFieldJson, json);
}
WireResponse& WireResponse::Add(WireField field, const JsonValue& json) {
  return Add(field, RawJson{WriteJson(json)});
}
WireResponse& WireResponse::Add(
    WireField field, const std::vector<CitationSummary>& summaries) {
  return Add(field, RawJson{SummariesToJson(summaries)});
}
WireResponse& WireResponse::Add(WireField field,
                                const std::vector<BatchOutcome>& results) {
  return Add(field, RawJson{BatchOutcomesToJson(results)});
}

WireResponse& WireResponse::Add(std::string_view key, int64_t value) {
  return Add(key, RawJson{std::to_string(value)});
}
WireResponse& WireResponse::Add(std::string_view key, std::string_view value) {
  return Add(key, RawJson{'"' + JsonEscape(std::string(value)) + '"'});
}
WireResponse& WireResponse::Add(std::string_view key, RawJson json) {
  BIONAV_CHECK(ReplySpecOf(op_).whole())
      << RequestOpName(op_) << " reply has no free member \"" << key << "\"";
  AppendKey(&fields_, key);
  fields_.append(json.text);
  return *this;
}

WireFrame WireResponse::Finish() {
  const uint8_t op_byte = static_cast<uint8_t>(op_);
  if (ReplySpecOf(op_).whole()) {
    return WholeFrame(proto_, true, ReplyHead(WireProto::kJson, true, op_byte) +
                                        std::move(fields_) + "}");
  }
  return FinishFrame(proto_,
                     ReplyHead(proto_, true, op_byte) + std::move(fields_));
}

std::string WireResponse::FinishPayload() {
  if (proto_ == WireProto::kJson) fields_.append("}\n");
  return std::move(fields_);
}

WireFrame WireResponse::FinishWithPayload(
    std::shared_ptr<const std::string> payload) {
  BIONAV_CHECK(payload != nullptr) << "FinishWithPayload on null payload";
  std::string reply =
      ReplyHead(proto_, true, static_cast<uint8_t>(op_)) + std::move(fields_);
  // A JSON payload closes the object and carries the '\n'.
  std::string head = proto_ == WireProto::kJson
                         ? std::move(reply)
                         : FinishBinaryFrame(std::move(reply), payload->size());
  return {std::move(head), std::move(payload)};
}

WireFrame WireResponse::Error(WireProto proto, WireError error,
                              std::string_view message) {
  BIONAV_CHECK(error != WireError::kNone) << "Error frame on success";
  return ErrorFrame(proto, WireErrorName(error), message);
}

WireFrame MetricsReply(WireProto proto, std::string_view exposition) {
  return WireResponse(proto, RequestOp::kMetrics)
      .Add("text", exposition)
      .Finish();
}

WireFrame EncodeResponse(WireProto proto, const Response& response) {
  if (!response.ok) return ErrorFrame(proto, response.error, response.message);
  const ReplySpec& spec = ReplySpecOf(response.op);
  if (spec.whole()) return WholeFrame(proto, true, WriteJson(response.document));
  WireResponse reply(proto, response.op);
  for (uint8_t i = 0; i < spec.count; ++i) {
    VisitMember(response, spec.fields[i],
                [&](const auto& member) { reply.Add(spec.fields[i], member); });
  }
  return reply.Finish();
}

Result<JsonValue> DecodeBinaryResponse(std::string_view body) {
  if (body.size() < 3) {
    return Status::InvalidArgument("binary response body too short");
  }
  if (static_cast<uint8_t>(body[0]) != kBinaryProtocolVersion) {
    return Status::InvalidArgument("unexpected binary response version byte");
  }
  const bool ok = (static_cast<uint8_t>(body[1]) & 1) != 0;
  const uint8_t op_byte = static_cast<uint8_t>(body[2]);
  const bool whole = op_byte == kBinaryOpWhole;
  if (!whole && (ok ? op_byte >= kNumRequestOps : op_byte != kBinaryOpError)) {
    return Status::InvalidArgument("unexpected binary response op byte " +
                                   std::to_string(op_byte));
  }
  JsonValue::Object members;
  members.emplace_back("v", JsonValue::MakeNumber(kBinaryProtocolVersion));
  members.emplace_back("ok", JsonValue::MakeBool(ok));
  // Error frames carry no "op" member, matching the JSON error shape.
  if (ok && !whole) {
    members.emplace_back(
        "op", JsonValue::MakeString(
                  RequestOpName(static_cast<RequestOp>(op_byte))));
  }
  size_t pos = 3;
  while (pos < body.size()) {
    if (pos + 2 > body.size()) {
      return Status::InvalidArgument("truncated response field header");
    }
    const uint8_t id = static_cast<uint8_t>(body[pos]);
    const uint8_t type = static_cast<uint8_t>(body[pos + 1]);
    pos += 2;
    FieldValue value;
    if (!ReadFieldValue(body, &pos, type, &value)) {
      return Status::InvalidArgument("malformed response field " +
                                     std::to_string(id));
    }
    if (whole || id == static_cast<uint8_t>(F::kWhole)) {
      // The embedded document IS the response: the frame's only field.
      if (!whole || id != static_cast<uint8_t>(F::kWhole) ||
          type != kFieldJson || pos != body.size()) {
        return Status::InvalidArgument(
            "a whole-document field must be the only field of a 0xFE frame");
      }
      Result<JsonValue> doc = ParseJson(value.bytes);
      if (doc.ok() && (!doc.ValueOrDie().is_object() ||
                       doc.ValueOrDie().BoolOr("ok", false) != ok)) {
        return Status::InvalidArgument(
            "whole-document field is not an object agreeing with the ok flag");
      }
      return doc;
    }
    // Unknown ids and known ids of another type count as absent.
    if (id == 0 || id > std::size(kResponseFields) ||
        type != kResponseFields[id - 1].type) {
      continue;
    }
    JsonValue member;
    switch (type) {
      case kFieldUVarint:
        member = JsonValue::MakeUInt(value.uval);
        break;
      case kFieldSVarint:
        member = JsonValue::MakeNumber(static_cast<double>(value.ival));
        break;
      case kFieldBool:
        member = JsonValue::MakeBool(value.bval);
        break;
      case kFieldString:
        member = JsonValue::MakeString(std::string(value.bytes));
        break;
      case kFieldJson: {
        Result<JsonValue> parsed = ParseJson(value.bytes);
        if (!parsed.ok()) return parsed.status();
        member = parsed.TakeValue();
        break;
      }
      case kFieldIntList: {
        JsonValue::Array items(value.uval);
        size_t at = 0;
        for (JsonValue& item : items) {
          item = JsonValue::MakeNumber(
              static_cast<double>(NextListEntry(value.bytes, &at)));
        }
        member = JsonValue::MakeArray(std::move(items));
        break;
      }
    }
    members.emplace_back(kResponseFields[id - 1].key, std::move(member));
  }
  if (whole) {
    return Status::InvalidArgument("whole-document frame without a document");
  }
  return JsonValue::MakeObject(std::move(members));
}

Result<JsonValue> DecodeResponse(WireProto proto, std::string_view payload) {
  Result<JsonValue> doc = proto == WireProto::kBinary
                              ? DecodeBinaryResponse(payload)
                              : ParseJson(payload);
  if (!doc.ok()) {
    return Status::Internal("malformed response: " + doc.status().message());
  }
  if (!doc.ValueOrDie().is_object()) {
    return Status::Internal("response is not a JSON object");
  }
  return doc;
}

Result<Response> ReadResponse(RequestOp op, const JsonValue& doc) {
  if (!doc.is_object()) return Status::Internal("response is not a JSON object");
  Response response;
  response.op = op;
  ReadKey(doc, "ok", &response.ok);
  if (!response.ok) {
    response.error = WireErrorName(WireError::kInternal);
    ReadKey(doc, "error", &response.error);
    ReadKey(doc, "message", &response.message);
    return response;
  }
  std::string named;
  if (ReadKey(doc, "op", &named) && !named.empty() &&
      named != RequestOpName(op)) {
    return Status::Internal(std::string("reply to ") + RequestOpName(op) +
                            " answers op " + named);
  }
  const ReplySpec& spec = ReplySpecOf(op);
  for (uint8_t i = 0; i < spec.count; ++i) {
    const WireField field = spec.fields[i];
    const JsonValue* member = doc.Find(SpecOf(field).key);
    ReadOutcome read = ReadOutcome::kAbsent;
    VisitMember(response, field, [&](auto& slot) {
      if (member != nullptr) read = ReadValue(*member, &slot);
    });
    if (read == ReadOutcome::kInvalid) {
      return FieldError(op, SpecOf(field).key, kMalformed);
    }
    if (read == ReadOutcome::kAbsent && (spec.required & Bit(field)) != 0) {
      return FieldError(op, SpecOf(field).key, kMissing);
    }
  }
  if (spec.whole()) response.document = doc;
  if (op == RequestOp::kMetrics) {
    const JsonValue* text = doc.Find("text");
    if (text == nullptr ||
        ReadValue(*text, &response.text) != ReadOutcome::kStored) {
      return FieldError(op, "text", kMissing);
    }
  }
  if (op == RequestOp::kTopology) {
    Status read = ReadTopology(doc, &response.topology);
    if (!read.ok()) return read;
  }
  return response;
}

}  // namespace bionav
