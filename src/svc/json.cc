#include "svc/json.h"

#include <array>
#include <charconv>
#include <cstdio>
#include <set>

namespace ct::svc {

namespace {

/** The decoded text of a string body whose escapes the parser
 *  already checked. */
std::string
decodeString(std::string_view raw)
{
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
        char c = raw[i];
        if (c != '\\' || i + 1 == raw.size()) {
            out += c;
            continue;
        }
        switch (raw[++i]) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        default: out += raw[i]; break; // '"', '\\', '/'
        }
    }
    return out;
}

/** isspace() and isdigit() of the "C" locale, inline. */
bool
isJsonSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** Cursor over one request line, with position-stamped errors. */
struct Cursor
{
    std::string_view s;
    std::size_t i = 0;
    std::string *error;

    bool fail(const std::string &msg)
    {
        if (error)
            *error = msg + " at offset " + std::to_string(i);
        return false;
    }

    void skipWs()
    {
        while (i < s.size() && isJsonSpace(s[i]))
            ++i;
    }

    bool eat(char c)
    {
        skipWs();
        if (i >= s.size() || s[i] != c)
            return false;
        ++i;
        return true;
    }

    /** View a string's body in place; escapes are checked, not
     *  decoded. */
    bool parseString(std::string_view &out, bool &escaped)
    {
        skipWs();
        if (i >= s.size() || s[i] != '"')
            return fail("expected '\"'");
        std::size_t start = ++i;
        escaped = false;
        while (i < s.size() && s[i] != '"') {
            char c = s[i];
            if (c == '\\') {
                if (i + 1 >= s.size())
                    return fail("dangling escape");
                char e = s[i + 1];
                switch (e) {
                case '"':
                case '\\':
                case '/':
                case 'n':
                case 't':
                case 'r': break;
                default:
                    return fail(std::string("unsupported escape \\") +
                                e);
                }
                escaped = true;
                i += 2;
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            ++i;
        }
        if (i >= s.size())
            return fail("unterminated string");
        out = s.substr(start, i - start);
        ++i; // closing quote
        return true;
    }

    bool parseValue(JsonField &out)
    {
        skipWs();
        if (i >= s.size())
            return fail("expected a value");
        char c = s[i];
        if (c == '"') {
            out.kind = JsonKind::String;
            return parseString(out.text, out.textEscaped);
        }
        if (c == '{' || c == '[')
            return fail("nested objects/arrays are not part of the "
                        "request grammar");
        std::string_view rest = s.substr(i);
        if (rest.starts_with("true")) {
            out.kind = JsonKind::Bool;
            out.boolean = true;
            i += 4;
            return true;
        }
        if (rest.starts_with("false")) {
            out.kind = JsonKind::Bool;
            out.boolean = false;
            i += 5;
            return true;
        }
        if (rest.starts_with("null")) {
            out.kind = JsonKind::Null;
            i += 4;
            return true;
        }
        // Number, kept as its source text: JSON's
        // -?digits[.digits][(e|E)[+-]digits], read by the field.
        std::size_t start = i;
        auto digits = [&] {
            std::size_t from = i;
            while (i < s.size() && isDigit(s[i]))
                ++i;
            return i > from;
        };
        if (s[i] == '-')
            ++i;
        bool ok = digits();
        if (ok && i < s.size() && s[i] == '.') {
            ++i;
            ok = digits();
        }
        if (ok && i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
            if (++i < s.size() && (s[i] == '+' || s[i] == '-'))
                ++i;
            ok = digits();
        }
        if (!ok) {
            i = start;
            return fail("malformed value");
        }
        out.kind = JsonKind::Number;
        out.text = s.substr(start, i - start);
        return true;
    }
};

/** Whether two keys are equal once decoded. */
bool
sameKey(const JsonField &a, const JsonField &b)
{
    if (!a.keyEscaped && !b.keyEscaped)
        return a.key == b.key;
    return a.keyString() == b.keyString();
}

} // namespace

std::string
JsonField::keyString() const
{
    return keyEscaped ? decodeString(key) : std::string(key);
}

std::string
JsonField::str() const
{
    return textEscaped ? decodeString(text) : std::string(text);
}

const JsonField *
JsonObject::find(std::string_view name) const
{
    for (const JsonField &f : *this)
        if (f.keyEscaped ? f.keyString() == name : f.key == name)
            return &f;
    return nullptr;
}

void
JsonObject::push(const JsonField &field)
{
    if (count < kInline) {
        inlineFields[count++] = field;
        return;
    }
    if (count == kInline)
        spilled.assign(inlineFields.begin(), inlineFields.end());
    spilled.push_back(field);
    ++count;
}

std::optional<JsonObject>
parseFlatJson(const std::string &line, std::string *error)
{
    Cursor cur{line, 0, error};
    std::optional<JsonObject> parsed(std::in_place);
    JsonObject &obj = *parsed;
    if (!cur.eat('{')) {
        cur.fail("expected '{'");
        return std::nullopt;
    }
    cur.skipWs();
    if (cur.eat('}')) {
        cur.skipWs();
        if (cur.i != line.size()) {
            cur.fail("trailing garbage after object");
            return std::nullopt;
        }
        return parsed;
    }
    // Decoded keys of an object past its inline fields, which keeps
    // the duplicate check O(n log n) on a line of many fields.
    std::set<std::string, std::less<>> many;
    for (;;) {
        JsonField field;
        if (!cur.parseString(field.key, field.keyEscaped))
            return std::nullopt;
        if (!cur.eat(':')) {
            cur.fail("expected ':'");
            return std::nullopt;
        }
        if (!cur.parseValue(field))
            return std::nullopt;
        bool duplicate = false;
        if (obj.size() < JsonObject::kInline) {
            for (const JsonField &f : obj)
                duplicate = duplicate || sameKey(f, field);
        } else {
            if (many.empty())
                for (const JsonField &f : obj)
                    many.insert(f.keyString());
            duplicate = !many.insert(field.keyString()).second;
        }
        if (duplicate) {
            cur.fail("duplicate key \"" + field.keyString() + "\"");
            return std::nullopt;
        }
        obj.push(field);
        if (cur.eat(','))
            continue;
        if (cur.eat('}'))
            break;
        cur.fail("expected ',' or '}'");
        return std::nullopt;
    }
    cur.skipWs();
    if (cur.i != line.size()) {
        cur.fail("trailing garbage after object");
        return std::nullopt;
    }
    return parsed;
}

namespace {

/** Bytes a JSON string carries unescaped. */
constexpr std::array<bool, 256> kClean = [] {
    std::array<bool, 256> clean{};
    for (int c = 0x20; c < 256; ++c)
        clean[c] = c != '"' && c != '\\';
    return clean;
}();

/** Append @p s to @p out with JSON string escaping (quotes,
 *  backslashes, control chars), runs that need none in one piece. */
void
appendEscaped(std::string &out, std::string_view s)
{
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (kClean[static_cast<unsigned char>(c)])
            continue;
        out.append(s.data() + run, i - run);
        run = i + 1;
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default: {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x",
                          static_cast<unsigned>(
                              static_cast<unsigned char>(c)));
            out += buf;
        }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

/** Append the decimal digits of @p v. */
template <typename Int>
void
appendInt(std::string &out, Int v)
{
    char digits[24];
    out.append(digits,
               std::to_chars(digits, digits + sizeof digits, v).ptr);
}

} // namespace

void
appendFixed(std::string &out, double v)
{
    // Room for any double: 309 integer digits, a sign, the point and
    // three decimals.
    char digits[320];
    out.append(digits, std::to_chars(digits, digits + sizeof digits, v,
                                     std::chars_format::fixed, 3)
                           .ptr);
}

JsonWriter::JsonWriter(std::size_t capacity)
{
    body.reserve(capacity);
    body += '{';
}

void
JsonWriter::key(std::string_view name)
{
    if (body.size() > 1)
        body += ',';
    body += '"';
    appendEscaped(body, name);
    body += "\":";
}

JsonWriter &
JsonWriter::field(std::string_view name, std::string_view v)
{
    return openString(name).stringPiece(v).closeString();
}

JsonWriter &
JsonWriter::field(std::string_view name, std::uint64_t v)
{
    key(name);
    appendInt(body, v);
    return *this;
}

JsonWriter &
JsonWriter::field(std::string_view name, std::int64_t v)
{
    key(name);
    appendInt(body, v);
    return *this;
}

JsonWriter &
JsonWriter::field(std::string_view name, bool v)
{
    key(name);
    body += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::fixed(std::string_view name, double v)
{
    key(name);
    appendFixed(body, v);
    return *this;
}

JsonWriter &
JsonWriter::splice(std::string_view fields)
{
    if (fields.empty())
        return *this;
    if (body.size() > 1)
        body += ',';
    body += fields;
    return *this;
}

JsonWriter &
JsonWriter::openString(std::string_view name)
{
    key(name);
    body += '"';
    return *this;
}

JsonWriter &
JsonWriter::stringPiece(std::string_view piece)
{
    appendEscaped(body, piece);
    return *this;
}

JsonWriter &
JsonWriter::fixedPiece(double v)
{
    appendFixed(body, v);
    return *this;
}

JsonWriter &
JsonWriter::closeString()
{
    body += '"';
    return *this;
}

std::string
JsonWriter::str() const
{
    std::string out;
    out.reserve(body.size() + 1);
    out += body;
    out += '}';
    return out;
}

std::string
JsonWriter::take() &&
{
    body += '}';
    return std::move(body);
}

} // namespace ct::svc
