//===- serve/Json.cpp -----------------------------------------------------===//

#include "serve/Json.h"

#include "support/StringUtils.h"

#include <cmath>
#include <cstdlib>
#include <sstream>

using namespace lcdfg;
using namespace lcdfg::serve;
using support::ErrorCode;

const JsonValue *JsonValue::find(std::string_view Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &M : Members)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

std::string JsonValue::asString(std::string_view Def) const {
  return K == Kind::String ? Str : std::string(Def);
}

std::int64_t JsonValue::asInt(std::int64_t Def) const {
  if (K != Kind::Number)
    return Def;
  if (Num > 9.2e18 || Num < -9.2e18 || std::isnan(Num))
    return Def;
  return static_cast<std::int64_t>(Num);
}

double JsonValue::asDouble(double Def) const {
  return K == Kind::Number ? Num : Def;
}

bool JsonValue::asBool(bool Def) const { return K == Kind::Bool ? B : Def; }

namespace {

/// Recursive-descent parser over a bounded view. Depth-capped so an
/// "[[[[[..." bomb is an error, not a stack overflow.
class Parser {
public:
  explicit Parser(std::string_view Text) : Text(Text) {}

  support::Expected<JsonValue> run() {
    JsonValue V;
    support::Status S = value(V, 0);
    if (!S)
      return S;
    skipWs();
    if (Pos != Text.size())
      return err("trailing bytes after the top-level value");
    return V;
  }

private:
  static constexpr int MaxDepth = 64;

  std::string_view Text;
  std::size_t Pos = 0;

  support::Status err(std::string Why) const {
    return support::Status::error(ErrorCode::Protocol,
                                  "json: " + std::move(Why) + " at byte " +
                                      std::to_string(Pos));
  }

  void skipWs() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                                 Text[Pos] == '\n' || Text[Pos] == '\r'))
      ++Pos;
  }

  bool eat(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  support::Status value(JsonValue &Out, int Depth) {
    if (Depth > MaxDepth)
      return err("nesting deeper than " + std::to_string(MaxDepth));
    skipWs();
    if (Pos >= Text.size())
      return err("unexpected end of input");
    switch (Text[Pos]) {
    case '{':
      return object(Out, Depth);
    case '[':
      return array(Out, Depth);
    case '"':
      Out.K = JsonValue::Kind::String;
      return string(Out.Str);
    case 't':
      if (Text.substr(Pos, 4) == "true") {
        Pos += 4;
        Out.K = JsonValue::Kind::Bool;
        Out.B = true;
        return support::Status::ok();
      }
      return err("bad literal");
    case 'f':
      if (Text.substr(Pos, 5) == "false") {
        Pos += 5;
        Out.K = JsonValue::Kind::Bool;
        Out.B = false;
        return support::Status::ok();
      }
      return err("bad literal");
    case 'n':
      if (Text.substr(Pos, 4) == "null") {
        Pos += 4;
        Out.K = JsonValue::Kind::Null;
        return support::Status::ok();
      }
      return err("bad literal");
    default:
      return number(Out);
    }
  }

  support::Status object(JsonValue &Out, int Depth) {
    ++Pos; // '{'
    Out.K = JsonValue::Kind::Object;
    skipWs();
    if (eat('}'))
      return support::Status::ok();
    while (true) {
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return err("expected a string key");
      std::string Key;
      if (support::Status S = string(Key); !S)
        return S;
      skipWs();
      if (!eat(':'))
        return err("expected ':' after key");
      JsonValue V;
      if (support::Status S = value(V, Depth + 1); !S)
        return S;
      Out.Members.emplace_back(std::move(Key), std::move(V));
      skipWs();
      if (eat(','))
        continue;
      if (eat('}'))
        return support::Status::ok();
      return err("expected ',' or '}' in object");
    }
  }

  support::Status array(JsonValue &Out, int Depth) {
    ++Pos; // '['
    Out.K = JsonValue::Kind::Array;
    skipWs();
    if (eat(']'))
      return support::Status::ok();
    while (true) {
      JsonValue V;
      if (support::Status S = value(V, Depth + 1); !S)
        return S;
      Out.Items.push_back(std::move(V));
      skipWs();
      if (eat(','))
        continue;
      if (eat(']'))
        return support::Status::ok();
      return err("expected ',' or ']' in array");
    }
  }

  support::Status string(std::string &Out) {
    ++Pos; // '"'
    Out.clear();
    while (true) {
      if (Pos >= Text.size())
        return err("unterminated string");
      char C = Text[Pos++];
      if (C == '"')
        return support::Status::ok();
      if (static_cast<unsigned char>(C) < 0x20)
        return err("raw control byte in string");
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (Pos >= Text.size())
        return err("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out.push_back(E);
        break;
      case 'b':
        Out.push_back('\b');
        break;
      case 'f':
        Out.push_back('\f');
        break;
      case 'n':
        Out.push_back('\n');
        break;
      case 'r':
        Out.push_back('\r');
        break;
      case 't':
        Out.push_back('\t');
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return err("truncated \\u escape");
        unsigned CP = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          unsigned D;
          if (H >= '0' && H <= '9')
            D = static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            D = static_cast<unsigned>(H - 'a') + 10;
          else if (H >= 'A' && H <= 'F')
            D = static_cast<unsigned>(H - 'A') + 10;
          else
            return err("bad hex digit in \\u escape");
          CP = CP * 16 + D;
        }
        // Encode as UTF-8; surrogates pass through as replacement chars
        // (the protocol never legitimately carries them).
        if (CP < 0x80) {
          Out.push_back(static_cast<char>(CP));
        } else if (CP < 0x800) {
          Out.push_back(static_cast<char>(0xC0 | (CP >> 6)));
          Out.push_back(static_cast<char>(0x80 | (CP & 0x3F)));
        } else {
          Out.push_back(static_cast<char>(0xE0 | (CP >> 12)));
          Out.push_back(static_cast<char>(0x80 | ((CP >> 6) & 0x3F)));
          Out.push_back(static_cast<char>(0x80 | (CP & 0x3F)));
        }
        break;
      }
      default:
        return err("unknown escape");
      }
    }
  }

  support::Status number(JsonValue &Out) {
    std::size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    auto Digits = [&] {
      std::size_t N = 0;
      while (Pos < Text.size() && Text[Pos] >= '0' && Text[Pos] <= '9') {
        ++Pos;
        ++N;
      }
      return N;
    };
    if (Digits() == 0)
      return err("expected a value");
    if (Pos < Text.size() && Text[Pos] == '.') {
      ++Pos;
      if (Digits() == 0)
        return err("digits required after '.'");
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      if (Digits() == 0)
        return err("digits required in exponent");
    }
    Out.K = JsonValue::Kind::Number;
    Out.Num = std::strtod(std::string(Text.substr(Start, Pos - Start)).c_str(),
                          nullptr);
    return support::Status::ok();
  }
};

} // namespace

support::Expected<JsonValue> serve::parseJson(std::string_view Text) {
  return Parser(Text).run();
}

namespace {

/// `"Key":` with \p Key escaped.
std::string jsonKey(std::string_view Key) {
  std::string Out = "\"";
  support::appendJsonEscaped(Out, Key);
  Out += "\":";
  return Out;
}

} // namespace

std::string serve::jsonField(std::string_view Key, std::string_view Value) {
  std::string Out = jsonKey(Key) + "\"";
  support::appendJsonEscaped(Out, Value);
  Out += "\"";
  return Out;
}

std::string serve::jsonField(std::string_view Key, std::int64_t Value) {
  return jsonKey(Key) + std::to_string(Value);
}

std::string serve::jsonField(std::string_view Key, double Value) {
  std::ostringstream OS;
  OS << Value;
  return jsonKey(Key) + OS.str();
}

std::string serve::jsonField(std::string_view Key, bool Value) {
  return jsonKey(Key) + (Value ? "true" : "false");
}
