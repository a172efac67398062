/**
 * @file
 * Minimal flat-JSON support for the planning service's NDJSON
 * protocol. Requests are single-line JSON objects whose values are
 * strings, numbers or booleans -- no nesting, no arrays -- which is
 * all the request grammar needs (docs/SERVICE.md) and small enough
 * to parse deterministically without an external dependency.
 *
 * The parser makes one pass over the line and copies nothing out of
 * it: a parsed object is a list of fields that view their keys and
 * values in place, and a request-sized object keeps that list
 * inline, so parsing a request does not allocate.
 *
 * Responses are rendered with JsonWriter, which emits fields in
 * insertion order with fixed formatting, so the same response object
 * always serializes to the same bytes -- the foundation of the
 * service's replay-exactness contract.
 */

#ifndef CT_SVC_JSON_H
#define CT_SVC_JSON_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ct::svc {

/** The kind of one scalar value of a flat JSON object. */
enum class JsonKind { String, Number, Bool, Null };

/** One field of a flat object, viewed in the line it was parsed
 *  from. */
struct JsonField
{
    /** The key between its quotes, escapes not decoded. */
    std::string_view key;
    JsonKind kind = JsonKind::Null;
    /**
     * A String's text between its quotes (escapes not decoded), or a
     * Number's source text ("4096", "-2.5e3"): the reader picks the
     * grammar, e.g. util::parseCount. Empty for Bool and Null.
     */
    std::string_view text;
    bool boolean = false; ///< Bool
    /** The key / a String's text holds a backslash escape. */
    bool keyEscaped = false;
    bool textEscaped = false;

    /** The decoded key. */
    std::string keyString() const;
    /** A String's decoded text (a Number's source text). */
    std::string str() const;
};

/**
 * A parsed flat object: its fields in line order, viewing the line
 * they were parsed from (which must outlive the object). The first
 * kInline fields are stored inline.
 */
class JsonObject
{
  public:
    std::size_t size() const { return count; }
    const JsonField *begin() const { return fields(); }
    const JsonField *end() const { return fields() + count; }
    /** The field whose decoded key is @p key, or nullptr. */
    const JsonField *find(std::string_view key) const;

  private:
    friend std::optional<JsonObject>
    parseFlatJson(const std::string &line, std::string *error);

    static constexpr std::size_t kInline = 12;

    const JsonField *fields() const
    {
        return count > kInline ? spilled.data() : inlineFields.data();
    }
    void push(const JsonField &field);

    std::array<JsonField, kInline> inlineFields{};
    /** All fields, once there are more than kInline. */
    std::vector<JsonField> spilled;
    std::size_t count = 0;
};

/**
 * Parse one flat JSON object. Rejects nesting, arrays, duplicate
 * keys (compared decoded), trailing garbage and malformed literals
 * with a diagnostic in @p error (when non-null) naming the offending
 * position. The result views @p line, so a temporary cannot be
 * passed.
 */
std::optional<JsonObject> parseFlatJson(const std::string &line,
                                        std::string *error);
std::optional<JsonObject> parseFlatJson(std::string &&line,
                                        std::string *error) = delete;

/** Append @p v with three decimals, as printf's %.3f renders it. */
void appendFixed(std::string &out, double v);

/**
 * Deterministic single-line JSON object writer: fields appear in the
 * order they were added, numbers print through fixed formats. Keys
 * and string values are escaped straight into the object's buffer,
 * runs that need no escaping appended whole.
 */
class JsonWriter
{
  public:
    /** @p capacity: bytes reserved up front, so a writer that knows
     *  its object's size allocates once. */
    explicit JsonWriter(std::size_t capacity = 0);

    JsonWriter &field(std::string_view key, std::string_view v);
    /** Keeps a string literal off the bool overload. */
    JsonWriter &field(std::string_view key, const char *v)
    {
        return field(key, std::string_view(v));
    }
    JsonWriter &field(std::string_view key, std::uint64_t v);
    JsonWriter &field(std::string_view key, std::int64_t v);
    JsonWriter &field(std::string_view key, int v)
    {
        return field(key, std::int64_t{v});
    }
    JsonWriter &field(std::string_view key, bool v);
    /** Fixed %.3f rendering -- stable across hosts for the
     *  deterministic quantities the service reports. */
    JsonWriter &fixed(std::string_view key, double v);
    /** Append another writer's fragment() verbatim: its fields
     *  follow this one's (the response envelope's payload). */
    JsonWriter &splice(std::string_view fields);

    /**
     * A string field rendered piecewise, with no temporary:
     * openString(key), then stringPiece() (escaped like any string
     * value) and fixedPiece() (%.3f) in order, then closeString().
     */
    JsonWriter &openString(std::string_view key);
    JsonWriter &stringPiece(std::string_view piece);
    JsonWriter &fixedPiece(double v);
    JsonWriter &closeString();

    /** The finished single-line object, e.g. {"a":1,"b":"x"}. */
    std::string str() const;
    /** str() without a copy: the writer's buffer, closed. */
    std::string take() &&;

    /** The comma-joined fields without the surrounding braces, for
     *  splicing into another object (the response envelope). */
    std::string_view fragment() const
    {
        return std::string_view(body).substr(1);
    }

  private:
    /** Start a field: separator and escaped key; the caller appends
     *  the rendered value to body. */
    void key(std::string_view name);
    /** "{" and the fields so far. */
    std::string body;
};

} // namespace ct::svc

#endif // CT_SVC_JSON_H
