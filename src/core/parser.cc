#include "parser.h"

#include <cctype>
#include <cfloat>
#include <optional>
#include <vector>

#include "util/logging.h"
#include "util/string_util.h"

namespace ct::core {

namespace {

enum class TokKind { LParen, RParen, SeqOp, ParOp, Leaf, End };

struct Token
{
    TokKind kind;
    std::string text;
    std::size_t pos;
};

/** Lexer: parens, `o`, `||`, and leaf words like `64C1` or `Nd@2`. */
class Lexer
{
  public:
    explicit Lexer(std::string_view text) : src(text) {}

    std::optional<Token>
    next(ParseError &err)
    {
        while (pos < src.size() &&
               std::isspace(static_cast<unsigned char>(src[pos])))
            ++pos;
        if (pos >= src.size())
            return Token{TokKind::End, "", pos};
        std::size_t start = pos;
        char c = src[pos];
        if (c == '(') {
            ++pos;
            return Token{TokKind::LParen, "(", start};
        }
        if (c == ')') {
            ++pos;
            return Token{TokKind::RParen, ")", start};
        }
        if (c == '|') {
            if (pos + 1 < src.size() && src[pos + 1] == '|') {
                pos += 2;
                return Token{TokKind::ParOp, "||", start};
            }
            err = {"single '|'; parallel operator is '||'", start};
            return std::nullopt;
        }
        if (std::isalnum(static_cast<unsigned char>(c))) {
            std::size_t end = pos;
            while (end < src.size() &&
                   (std::isalnum(
                        static_cast<unsigned char>(src[end])) ||
                    src[end] == '@' || src[end] == '.'))
                ++end;
            std::string word(src.substr(pos, end - pos));
            pos = end;
            if (word == "o")
                return Token{TokKind::SeqOp, word, start};
            return Token{TokKind::Leaf, word, start};
        }
        err = {std::string("unexpected character '") + c + "'", start};
        return std::nullopt;
    }

  private:
    std::string_view src;
    std::size_t pos = 0;
};

/** Build a BasicTransfer leaf expression from a leaf word. */
std::optional<ExprPtr>
makeLeaf(const std::string &word, std::size_t pos, ParseError &err)
{
    // Network transfers, with optional @congestion suffix.
    auto net = [&](std::string_view name,
                   BasicTransfer t) -> std::optional<ExprPtr> {
        std::string_view w = word;
        if (w.substr(0, name.size()) != name)
            return std::nullopt;
        std::string_view rest = w.substr(name.size());
        if (rest.empty())
            return TransferExpr::leaf(t);
        if (rest.front() != '@')
            return std::nullopt;
        rest.remove_prefix(1);
        double congestion = 0.0;
        if (!util::parseDecimal(rest, 1.0, DBL_MAX, congestion)
                 .empty()) {
            err = {"bad congestion annotation in '" + word + "'", pos};
            return std::nullopt;
        }
        return TransferExpr::leaf(t, congestion);
    };

    // Try the longer name first so "Nadp" is not lexed as "Nd"+junk.
    if (word.size() >= 4 && word.substr(0, 4) == "Nadp") {
        if (auto e = net("Nadp", netAddrData()))
            return e;
        if (!err.message.empty())
            return std::nullopt;
    }
    if (word.size() >= 2 && word.substr(0, 2) == "Nd") {
        if (auto e = net("Nd", netData()))
            return e;
        if (!err.message.empty())
            return std::nullopt;
    }

    // Intra-node transfer: pattern OP pattern.
    std::size_t op_idx = std::string::npos;
    for (std::size_t i = 0; i < word.size(); ++i) {
        char c = word[i];
        if (c == 'C' || c == 'S' || c == 'F' || c == 'R' || c == 'D') {
            op_idx = i;
            break;
        }
    }
    if (op_idx == std::string::npos) {
        err = {"no transfer letter (C/S/F/R/D) in '" + word + "'", pos};
        return std::nullopt;
    }
    auto read = AccessPattern::parse(word.substr(0, op_idx));
    auto write = AccessPattern::parse(word.substr(op_idx + 1));
    if (!read || !write) {
        err = {"bad access pattern in '" + word + "'", pos};
        return std::nullopt;
    }

    char op = word[op_idx];
    auto check = [&](bool ok, const char *what) {
        if (!ok)
            err = {std::string(what) + " in '" + word + "'", pos};
        return ok;
    };
    switch (op) {
      case 'C':
        if (!check(!read->isFixed() && !write->isFixed(),
                   "xCy cannot use pattern 0"))
            return std::nullopt;
        return TransferExpr::leaf(localCopy(*read, *write));
      case 'S':
        if (!check(!read->isFixed() && write->isFixed(),
                   "load-send must be xS0"))
            return std::nullopt;
        return TransferExpr::leaf(loadSend(*read));
      case 'F':
        if (!check(!read->isFixed() && write->isFixed(),
                   "fetch-send must be xF0"))
            return std::nullopt;
        return TransferExpr::leaf(fetchSend(*read));
      case 'R':
        if (!check(read->isFixed() && !write->isFixed(),
                   "receive-store must be 0Ry"))
            return std::nullopt;
        return TransferExpr::leaf(receiveStore(*write));
      case 'D':
        if (!check(read->isFixed() && !write->isFixed(),
                   "receive-deposit must be 0Dy"))
            return std::nullopt;
        return TransferExpr::leaf(receiveDeposit(*write));
      default:
        break;
    }
    err = {"unknown transfer letter in '" + word + "'", pos};
    return std::nullopt;
}

/** Recursive-descent parser over the token stream. */
class Parser
{
  public:
    explicit Parser(std::string_view text) : lexer(text) {}

    ParseResult
    run()
    {
        if (!advance())
            return error;
        auto expr = parseExpr();
        if (!expr)
            return error;
        if (current.kind != TokKind::End) {
            return ParseError{"trailing input starting at '" +
                                  current.text + "'",
                              current.pos};
        }
        return *expr;
    }

  private:
    bool
    advance()
    {
        auto tok = lexer.next(error);
        if (!tok)
            return false;
        current = *tok;
        return true;
    }

    std::optional<ExprPtr>
    parseExpr()
    {
        auto first = parseTerm();
        if (!first)
            return std::nullopt;
        std::vector<ExprPtr> parts{*first};
        while (current.kind == TokKind::SeqOp) {
            if (!advance())
                return std::nullopt;
            auto next = parseTerm();
            if (!next)
                return std::nullopt;
            parts.push_back(*next);
        }
        if (parts.size() == 1)
            return parts.front();
        return TransferExpr::seq(std::move(parts));
    }

    std::optional<ExprPtr>
    parseTerm()
    {
        auto first = parseFactor();
        if (!first)
            return std::nullopt;
        std::vector<ExprPtr> parts{*first};
        while (current.kind == TokKind::ParOp) {
            if (!advance())
                return std::nullopt;
            auto next = parseFactor();
            if (!next)
                return std::nullopt;
            parts.push_back(*next);
        }
        if (parts.size() == 1)
            return parts.front();
        return TransferExpr::par(std::move(parts));
    }

    std::optional<ExprPtr>
    parseFactor()
    {
        if (current.kind == TokKind::LParen) {
            if (!advance())
                return std::nullopt;
            auto inner = parseExpr();
            if (!inner)
                return std::nullopt;
            if (current.kind != TokKind::RParen) {
                error = {"expected ')'", current.pos};
                return std::nullopt;
            }
            if (!advance())
                return std::nullopt;
            return inner;
        }
        if (current.kind == TokKind::Leaf) {
            auto leaf = makeLeaf(current.text, current.pos, error);
            if (!leaf)
                return std::nullopt;
            if (!advance())
                return std::nullopt;
            return leaf;
        }
        error = {"expected a basic transfer or '('", current.pos};
        return std::nullopt;
    }

    Lexer lexer;
    Token current{TokKind::End, "", 0};
    ParseError error;
};

} // namespace

ParseResult
parse(std::string_view text)
{
    return Parser(text).run();
}

ExprPtr
parseOrDie(std::string_view text)
{
    auto result = parse(text);
    if (auto *err = std::get_if<ParseError>(&result)) {
        util::fatal("parse error in '", std::string(text), "' at ",
                    err->position, ": ", err->message);
    }
    return std::get<ExprPtr>(result);
}

} // namespace ct::core
