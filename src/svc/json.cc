#include "svc/json.h"

#include <cctype>
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

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
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
    return out;
}

JsonWriter &
JsonWriter::append(const std::string &key, const std::string &rendered)
{
    if (!body.empty())
        body += ',';
    body += '"';
    body += jsonEscape(key);
    body += "\":";
    body += rendered;
    return *this;
}

JsonWriter &
JsonWriter::field(const std::string &key, const std::string &v)
{
    std::string rendered;
    rendered.reserve(v.size() + 2);
    rendered += '"';
    rendered += jsonEscape(v);
    rendered += '"';
    return append(key, rendered);
}

JsonWriter &
JsonWriter::field(const std::string &key, const char *v)
{
    return field(key, std::string(v));
}

JsonWriter &
JsonWriter::field(const std::string &key, std::uint64_t v)
{
    return append(key, std::to_string(v));
}

JsonWriter &
JsonWriter::field(const std::string &key, std::int64_t v)
{
    return append(key, std::to_string(v));
}

JsonWriter &
JsonWriter::field(const std::string &key, int v)
{
    return append(key, std::to_string(v));
}

JsonWriter &
JsonWriter::field(const std::string &key, bool v)
{
    return append(key, v ? "true" : "false");
}

JsonWriter &
JsonWriter::fixed(const std::string &key, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return append(key, buf);
}

JsonWriter &
JsonWriter::raw(const std::string &key, const std::string &json)
{
    return append(key, json);
}

std::string
JsonWriter::str() const
{
    return "{" + body + "}";
}

} // namespace ct::svc
