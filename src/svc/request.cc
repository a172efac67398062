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

/** The request grammar's keys; a request field's slot is its index. */
enum Key { Id, OpKey, Machine, Xqy, Words, Bytes, Budget, Faults,
           Chaos, kKeys };
constexpr std::string_view kKeyNames[kKeys] = {
    "id", "op", "machine", "xqy", "words", "bytes", "budget", "faults",
    "chaos"};

/** Read integer field @p key when present; false + diagnostic when
 *  it is not a non-negative integer. */
bool
readUint(const JsonField *field, Key key, std::uint64_t &out,
         std::string *error)
{
    if (!field)
        return true; // optional; caller checks presence separately
    if (field->kind != JsonKind::Number ||
        !util::parseCount(field->text, 0, UINT64_MAX, out).empty())
        return fail(error, "field '" + std::string(kKeyNames[key]) +
                               "' must be a non-negative integer");
    return true;
}

/**
 * Point @p out at string field @p key's text when present: in place,
 * or decoded into @p decoded when it holds an escape. False when
 * present but not a string.
 */
bool
readString(const JsonField *field, Key key, std::string_view &out,
           std::string &decoded, std::string *error)
{
    if (!field)
        return true;
    if (field->kind != JsonKind::String)
        return fail(error, "field '" + std::string(kKeyNames[key]) +
                               "' must be a string");
    if (field->textEscaped) {
        decoded = field->str();
        out = decoded;
    } else {
        out = field->text;
    }
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

    // One pass over the fields: each known key to its slot (the
    // parser already refused duplicates), and of the unknown keys the
    // first in sorted order, the one a rejection names.
    const JsonField *slot[kKeys] = {};
    std::optional<std::string> unknown;
    for (const JsonField &f : *parsed) {
        std::size_t k = 0;
        while (k < kKeys && (f.keyEscaped || f.key != kKeyNames[k]))
            ++k;
        if (k < kKeys) {
            slot[k] = &f;
            continue;
        }
        std::string name = f.keyString();
        if (!unknown || name < *unknown)
            unknown = std::move(name);
    }

    Request req;
    if (!slot[Id]) {
        fail(error, "missing required field 'id'");
        return std::nullopt;
    }
    if (!readUint(slot[Id], Id, req.id, error))
        return std::nullopt;
    if (id_out)
        *id_out = req.id;

    std::string decoded_op, decoded_machine, decoded_xqy,
        decoded_faults, decoded_chaos;
    std::string_view op;
    if (!readString(slot[OpKey], OpKey, op, decoded_op, error))
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
    if (unknown) {
        fail(error, "unknown field '" + *unknown + "'");
        return std::nullopt;
    }

    std::string_view machine, xqy, faults, chaos;
    if (!readString(slot[Machine], Machine, machine, decoded_machine,
                    error) ||
        !readString(slot[Xqy], Xqy, xqy, decoded_xqy, error) ||
        !readString(slot[Faults], Faults, faults, decoded_faults,
                    error) ||
        !readString(slot[Chaos], Chaos, chaos, decoded_chaos, error) ||
        !readUint(slot[Words], Words, req.words, error) ||
        !readUint(slot[Bytes], Bytes, req.bytes, error) ||
        !readUint(slot[Budget], Budget, req.budget, error))
        return std::nullopt;

    // Fields that only make sense for some ops are rejected on the
    // others instead of being ignored. The diagnostic is built only
    // when a field is rejected.
    auto rejectField = [&](Key key, const char *why) {
        if (!slot[key])
            return false;
        fail(error, "field '" + std::string(kKeyNames[key]) +
                        "' does not apply to op '" + opName(req.op) +
                        "'" + why);
        return true;
    };
    if (req.op == Op::Health || req.op == Op::Validate) {
        for (Key key :
             {Machine, Xqy, Words, Bytes, Budget, Faults, Chaos})
            if (rejectField(key, ""))
                return std::nullopt;
        return req;
    }
    if (req.op == Op::Plan) {
        for (Key key : {Words, Budget, Faults, Chaos})
            if (rejectField(key, " (planning is analytic)"))
                return std::nullopt;
    }
    if (req.op == Op::Sim && rejectField(Bytes, " (use words)"))
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
        readUint(parsed->find(kKeyNames[Id]), Id, id, nullptr);
    return id;
}

} // namespace ct::svc
