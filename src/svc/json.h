/**
 * @file
 * Minimal flat-JSON support for the planning service's NDJSON
 * protocol. Requests are single-line JSON objects whose values are
 * strings, numbers or booleans -- no nesting, no arrays -- which is
 * all the request grammar needs (docs/SERVICE.md) and small enough
 * to parse deterministically without an external dependency.
 *
 * Responses are rendered with JsonWriter, which emits fields in
 * insertion order with fixed formatting, so the same response object
 * always serializes to the same bytes -- the foundation of the
 * service's replay-exactness contract.
 */

#ifndef CT_SVC_JSON_H
#define CT_SVC_JSON_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

namespace ct::svc {

/** One scalar value of a flat JSON object. */
struct JsonValue
{
    enum class Kind { String, Number, Bool, Null };
    Kind kind = Kind::Null;
    /** String, or a Number's source text ("4096", "-2.5e3"): the
     *  reader picks the grammar, e.g. util::parseCount. */
    std::string str;
    bool boolean = false; ///< Bool
};

/** A parsed flat object, keys sorted (std::map; looked up by any
 *  string type without a temporary key). */
using JsonObject = std::map<std::string, JsonValue, std::less<>>;

/**
 * Parse one flat JSON object. Rejects nesting, arrays, duplicate
 * keys, trailing garbage and malformed literals with a diagnostic in
 * @p error (when non-null) naming the offending position.
 */
std::optional<JsonObject> parseFlatJson(const std::string &line,
                                        std::string *error);

/** Append @p v with three decimals, as printf's %.3f renders it. */
void appendFixed(std::string &out, double v);

/**
 * Deterministic single-line JSON object writer: fields appear in the
 * order they were added, numbers print through fixed formats. Keys
 * and string values are escaped straight into the object's body.
 */
class JsonWriter
{
  public:
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
    /** Verbatim raw JSON fragment (pre-rendered nested value). */
    JsonWriter &raw(std::string_view key, std::string_view json);

    /** The finished single-line object, e.g. {"a":1,"b":"x"}. */
    std::string str() const;

    /** The comma-joined fields without the surrounding braces, for
     *  splicing into another object (the response envelope). */
    const std::string &fragment() const { return body; }

  private:
    /** Start a field: separator and escaped key; the caller appends
     *  the rendered value to body. */
    void key(std::string_view name);
    std::string body;
};

} // namespace ct::svc

#endif // CT_SVC_JSON_H
