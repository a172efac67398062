#include "svc/request.h"

#include "svc/json.h"
#include "util/string_util.h"

namespace ct::svc {

const char *
opName(Op op)
{
    switch (op) {
    case Op::Plan: return "plan";
    case Op::Validate: return "validate";
    case Op::Sim: return "sim";
    case Op::Health: return "health";
    }
    return "?";
}

const char *
statusName(Status s)
{
    switch (s) {
    case Status::Ok: return "ok";
    case Status::Degraded: return "degraded";
    case Status::Rejected: return "rejected";
    case Status::Error: return "error";
    }
    return "?";
}

const char *
fidelityName(Fidelity f)
{
    switch (f) {
    case Fidelity::Exact: return "exact";
    case Fidelity::Truncated: return "truncated";
    case Fidelity::Analytic: return "analytic";
    case Fidelity::None: return "none";
    }
    return "?";
}

namespace {

bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

/** Read a non-negative integer field; false + diagnostic otherwise. */
bool
readUint(const JsonObject &obj, const char *key, std::uint64_t &out,
         std::string *error)
{
    auto it = obj.find(key);
    if (it == obj.end())
        return true; // optional; caller checks presence separately
    const JsonValue &v = it->second;
    if (v.kind != JsonValue::Kind::Number ||
        !util::parseCount(v.str, 0, UINT64_MAX, out).empty())
        return fail(error, std::string("field '") + key +
                               "' must be a non-negative integer");
    return true;
}

/** Point @p out at a string field's text; false when present but
 *  not a string. */
bool
readString(const JsonObject &obj, const char *key, std::string_view &out,
           std::string *error)
{
    auto it = obj.find(key);
    if (it == obj.end())
        return true;
    if (it->second.kind != JsonValue::Kind::String)
        return fail(error, std::string("field '") + key +
                               "' must be a string");
    out = it->second.str;
    return true;
}

} // namespace

std::optional<Request>
Request::tryParse(const std::string &line, std::string *error,
                  std::uint64_t *id_out)
{
    if (id_out)
        *id_out = 0;
    auto parsed = parseFlatJson(line, error);
    if (!parsed)
        return std::nullopt;
    const JsonObject &obj = *parsed;

    Request req;
    if (obj.find("id") == obj.end()) {
        fail(error, "missing required field 'id'");
        return std::nullopt;
    }
    if (!readUint(obj, "id", req.id, error))
        return std::nullopt;
    if (id_out)
        *id_out = req.id;

    std::string_view op;
    if (!readString(obj, "op", op, error))
        return std::nullopt;
    if (op.empty()) {
        fail(error, "missing required field 'op'");
        return std::nullopt;
    }
    if (op == "plan")
        req.op = Op::Plan;
    else if (op == "validate")
        req.op = Op::Validate;
    else if (op == "sim")
        req.op = Op::Sim;
    else if (op == "health")
        req.op = Op::Health;
    else {
        fail(error, "unknown op '" + std::string(op) +
                        "' (expected plan|validate|sim|health)");
        return std::nullopt;
    }

    // Reject unknown keys loudly before interpreting anything else:
    // a typo like "budgte" must not silently run without a deadline.
    static const char *const known[] = {"id",    "op",     "machine",
                                        "xqy",   "words",  "bytes",
                                        "budget", "faults", "chaos"};
    for (const auto &[key, value] : obj) {
        (void)value;
        bool ok = false;
        for (const char *k : known)
            if (key == k)
                ok = true;
        if (!ok) {
            fail(error, "unknown field '" + key + "'");
            return std::nullopt;
        }
    }

    std::string_view machine, xqy, faults, chaos;
    if (!readString(obj, "machine", machine, error) ||
        !readString(obj, "xqy", xqy, error) ||
        !readString(obj, "faults", faults, error) ||
        !readString(obj, "chaos", chaos, error) ||
        !readUint(obj, "words", req.words, error) ||
        !readUint(obj, "bytes", req.bytes, error) ||
        !readUint(obj, "budget", req.budget, error))
        return std::nullopt;

    // Fields that only make sense for some ops are rejected on the
    // others instead of being ignored. The diagnostic is built only
    // when a field is rejected.
    auto rejectField = [&](const char *key, const char *why) {
        if (obj.find(key) == obj.end())
            return false;
        fail(error, std::string("field '") + key +
                        "' does not apply to op '" + opName(req.op) +
                        "'" + why);
        return true;
    };
    if (req.op == Op::Health || req.op == Op::Validate) {
        for (const char *key :
             {"machine", "xqy", "words", "bytes", "budget", "faults",
              "chaos"})
            if (rejectField(key, ""))
                return std::nullopt;
        return req;
    }
    if (req.op == Op::Plan) {
        for (const char *key : {"words", "budget", "faults", "chaos"})
            if (rejectField(key, " (planning is analytic)"))
                return std::nullopt;
    }
    if (req.op == Op::Sim && rejectField("bytes", " (use words)"))
        return std::nullopt;

    // machine + xqy are required for plan and sim.
    if (machine == "t3d")
        req.machine = core::MachineId::T3d;
    else if (machine == "paragon")
        req.machine = core::MachineId::Paragon;
    else if (machine.empty()) {
        fail(error, std::string("op '") + opName(req.op) +
                        "' requires field 'machine'");
        return std::nullopt;
    } else {
        fail(error, "unknown machine '" + std::string(machine) +
                        "' (expected t3d|paragon)");
        return std::nullopt;
    }
    if (xqy.empty()) {
        fail(error, std::string("op '") + opName(req.op) +
                        "' requires field 'xqy'");
        return std::nullopt;
    }
    auto q = xqy.find('Q');
    if (q == std::string_view::npos) {
        fail(error, "bad xqy '" + std::string(xqy) +
                        "' (expected e.g. 1Q64)");
        return std::nullopt;
    }
    auto x = core::AccessPattern::parse(xqy.substr(0, q));
    auto y = core::AccessPattern::parse(xqy.substr(q + 1));
    if (!x || !y || x->isFixed() || y->isFixed()) {
        fail(error, "bad xqy '" + std::string(xqy) +
                        "' (expected e.g. 1Q64)");
        return std::nullopt;
    }
    req.x = *x;
    req.y = *y;

    if (req.op == Op::Sim && req.words == 0) {
        fail(error, "field 'words' must be positive");
        return std::nullopt;
    }

    if (!faults.empty()) {
        std::string spec_error;
        auto parsed_faults =
            sim::FaultSpec::tryParse(std::string(faults), &spec_error);
        if (!parsed_faults) {
            fail(error, "bad faults spec: " + spec_error);
            return std::nullopt;
        }
        req.faults = *parsed_faults;
        req.faultsSummary = req.faults.summary();
    }
    if (!chaos.empty()) {
        std::string spec_error;
        auto parsed_chaos =
            sim::ChaosSchedule::tryParse(std::string(chaos), &spec_error);
        if (!parsed_chaos) {
            fail(error, "bad chaos spec: " + spec_error);
            return std::nullopt;
        }
        req.chaos = *parsed_chaos;
        req.chaosSummary = req.chaos.summary();
    }
    return req;
}

std::uint64_t
peekRequestId(const std::string &line)
{
    std::uint64_t id = 0;
    if (auto parsed = parseFlatJson(line, nullptr))
        readUint(*parsed, "id", id, nullptr);
    return id;
}

} // namespace ct::svc
