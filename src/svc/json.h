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

/** A parsed flat object, keys sorted (std::map). */
using JsonObject = std::map<std::string, JsonValue>;

/**
 * Parse one flat JSON object. Rejects nesting, arrays, duplicate
 * keys, trailing garbage and malformed literals with a diagnostic in
 * @p error (when non-null) naming the offending position.
 */
std::optional<JsonObject> parseFlatJson(const std::string &line,
                                        std::string *error);

/** JSON string escaping (quotes, backslashes, control chars). */
std::string jsonEscape(const std::string &s);

/**
 * Deterministic single-line JSON object writer: fields appear in the
 * order they were added, numbers print through fixed formats.
 */
class JsonWriter
{
  public:
    JsonWriter &field(const std::string &key, const std::string &v);
    JsonWriter &field(const std::string &key, const char *v);
    JsonWriter &field(const std::string &key, std::uint64_t v);
    JsonWriter &field(const std::string &key, std::int64_t v);
    JsonWriter &field(const std::string &key, int v);
    JsonWriter &field(const std::string &key, bool v);
    /** Fixed %.3f rendering -- stable across hosts for the
     *  deterministic quantities the service reports. */
    JsonWriter &fixed(const std::string &key, double v);
    /** Verbatim raw JSON fragment (pre-rendered nested value). */
    JsonWriter &raw(const std::string &key, const std::string &json);

    /** The finished single-line object, e.g. {"a":1,"b":"x"}. */
    std::string str() const;

    /** The comma-joined fields without the surrounding braces, for
     *  splicing into another object (the response envelope). */
    const std::string &fragment() const { return body; }

  private:
    JsonWriter &append(const std::string &key,
                       const std::string &rendered);
    std::string body;
};

} // namespace ct::svc

#endif // CT_SVC_JSON_H
