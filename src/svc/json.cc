#include "svc/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace ct::svc {

namespace {

/** Cursor over one request line, with position-stamped errors. */
struct Cursor
{
    const std::string &s;
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
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
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

    bool parseString(std::string &out)
    {
        skipWs();
        if (i >= s.size() || s[i] != '"')
            return fail("expected '\"'");
        ++i;
        out.clear();
        while (i < s.size() && s[i] != '"') {
            char c = s[i];
            if (c == '\\') {
                if (i + 1 >= s.size())
                    return fail("dangling escape");
                char e = s[i + 1];
                switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 't': out += '\t'; break;
                case 'r': out += '\r'; break;
                default:
                    return fail(std::string("unsupported escape \\") +
                                e);
                }
                i += 2;
                continue;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            out += c;
            ++i;
        }
        if (i >= s.size())
            return fail("unterminated string");
        ++i; // closing quote
        return true;
    }

    bool parseValue(JsonValue &out)
    {
        skipWs();
        if (i >= s.size())
            return fail("expected a value");
        char c = s[i];
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
        }
        if (c == '{' || c == '[')
            return fail("nested objects/arrays are not part of the "
                        "request grammar");
        if (s.compare(i, 4, "true") == 0) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            i += 4;
            return true;
        }
        if (s.compare(i, 5, "false") == 0) {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            i += 5;
            return true;
        }
        if (s.compare(i, 4, "null") == 0) {
            out.kind = JsonValue::Kind::Null;
            i += 4;
            return true;
        }
        // Number, kept as its source text: JSON's
        // -?digits[.digits][(e|E)[+-]digits], read by the field.
        std::size_t start = i;
        auto digits = [&] {
            std::size_t from = i;
            while (i < s.size() &&
                   std::isdigit(static_cast<unsigned char>(s[i])))
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
        out.kind = JsonValue::Kind::Number;
        out.str = s.substr(start, i - start);
        return true;
    }
};

} // namespace

std::optional<JsonObject>
parseFlatJson(const std::string &line, std::string *error)
{
    Cursor cur{line, 0, error};
    JsonObject obj;
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
        return obj;
    }
    for (;;) {
        std::string key;
        if (!cur.parseString(key))
            return std::nullopt;
        if (!cur.eat(':')) {
            cur.fail("expected ':'");
            return std::nullopt;
        }
        JsonValue value;
        if (!cur.parseValue(value))
            return std::nullopt;
        if (!obj.emplace(key, std::move(value)).second) {
            cur.fail("duplicate key \"" + key + "\"");
            return std::nullopt;
        }
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
    return obj;
}

namespace {

/** Append @p s to @p out with JSON string escaping (quotes,
 *  backslashes, control chars). */
void
appendEscaped(std::string &out, std::string_view s)
{
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else
                out += c;
        }
    }
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

void
JsonWriter::key(std::string_view name)
{
    if (!body.empty())
        body += ',';
    body += '"';
    appendEscaped(body, name);
    body += "\":";
}

JsonWriter &
JsonWriter::field(std::string_view name, std::string_view v)
{
    key(name);
    body += '"';
    appendEscaped(body, v);
    body += '"';
    return *this;
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
JsonWriter::raw(std::string_view name, std::string_view json)
{
    key(name);
    body += json;
    return *this;
}

std::string
JsonWriter::str() const
{
    return "{" + body + "}";
}

} // namespace ct::svc
