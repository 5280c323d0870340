#include "constraints/parser.h"

#include <cctype>
#include <charconv>
#include <set>

#include "util/strings.h"

namespace dart::cons {

namespace {

enum class TokKind { kName, kNumber, kString, kPunct, kEnd };

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;   ///< identifier, punctuation, or string payload.
  double number = 0;  ///< kNumber payload.
  bool number_is_int = false;
  int line = 0;
  int64_t integer = 0;  ///< kNumber payload when number_is_int.
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '\n') { ++line_; ++pos_; continue; }
      if (std::isspace(static_cast<unsigned char>(c))) { ++pos_; continue; }
      if (c == '#') {  // line comment
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      if (c == '\'') {
        DART_ASSIGN_OR_RETURN(Token tok, LexString());
        out.push_back(std::move(tok));
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && pos_ + 1 < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
        DART_ASSIGN_OR_RETURN(Token tok, LexNumber());
        out.push_back(std::move(tok));
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out.push_back(LexName());
        continue;
      }
      DART_ASSIGN_OR_RETURN(Token tok, LexPunct());
      out.push_back(std::move(tok));
    }
    out.push_back(Token{TokKind::kEnd, "", 0, false, line_});
    return out;
  }

 private:
  Result<Token> LexString() {
    int line = line_;
    ++pos_;  // opening quote
    std::string payload;
    while (pos_ < text_.size() && text_[pos_] != '\'') {
      if (text_[pos_] == '\n') ++line_;
      payload += text_[pos_++];
    }
    if (pos_ == text_.size()) {
      return Status::ParseError("unterminated string literal at line " +
                                std::to_string(line));
    }
    ++pos_;  // closing quote
    return Token{TokKind::kString, std::move(payload), 0, false, line};
  }

  /// A run of digits and dots, which must read in full as one double (so
  /// `1.2.3` and out-of-range literals are errors). A dot-free literal that
  /// fits int64 is an integer; a longer one is a real.
  Result<Token> LexNumber() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.')) {
      ++pos_;
    }
    Token tok{TokKind::kNumber, text_.substr(start, pos_ - start), 0, false,
              line_};
    const char* begin = tok.text.data();
    const char* end = begin + tok.text.size();
    const auto [real_end, real_error] = std::from_chars(begin, end, tok.number);
    if (real_error != std::errc() || real_end != end) {
      return Status::ParseError("malformed or out-of-range number '" +
                                tok.text + "' at line " +
                                std::to_string(line_));
    }
    const auto [int_end, int_error] = std::from_chars(begin, end, tok.integer);
    tok.number_is_int = int_error == std::errc() && int_end == end;
    return tok;
  }

  Token LexName() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    return Token{TokKind::kName, text_.substr(start, pos_ - start), 0, false,
                 line_};
  }

  Result<Token> LexPunct() {
    static const char* kTwoChar[] = {":=", "=>", "<=", ">=", "!="};
    for (const char* p : kTwoChar) {
      if (text_.compare(pos_, 2, p) == 0) {
        pos_ += 2;
        return Token{TokKind::kPunct, p, 0, false, line_};
      }
    }
    char c = text_[pos_];
    static const std::string kOneChar = "(),;:=<>+-*";
    if (kOneChar.find(c) == std::string::npos) {
      return Status::ParseError(std::string("unexpected character '") + c +
                                "' at line " + std::to_string(line_));
    }
    ++pos_;
    return Token{TokKind::kPunct, std::string(1, c), 0, false, line_};
  }

  const std::string& text_;
  size_t pos_ = 0;
  int line_ = 1;
};

class Parser {
 public:
  Parser(const rel::DatabaseSchema& schema, std::vector<Token> tokens,
         ConstraintSet* out)
      : schema_(schema), tokens_(std::move(tokens)), out_(out) {}

  Status Run() {
    while (!AtEnd()) {
      const Token& tok = Peek();
      if (tok.kind == TokKind::kName && EqualsIgnoreCase(tok.text, "agg")) {
        DART_RETURN_IF_ERROR(ParseAgg());
      } else if (tok.kind == TokKind::kName &&
                 EqualsIgnoreCase(tok.text, "constraint")) {
        DART_RETURN_IF_ERROR(ParseConstraint());
      } else {
        return Error("expected 'agg' or 'constraint'");
      }
    }
    return Status::Ok();
  }

 private:
  bool AtEnd() const { return tokens_[index_].kind == TokKind::kEnd; }
  const Token& Peek() const { return tokens_[index_]; }
  const Token& Advance() { return tokens_[index_++]; }

  bool MatchPunct(const std::string& text) {
    if (Peek().kind == TokKind::kPunct && Peek().text == text) {
      ++index_;
      return true;
    }
    return false;
  }

  bool MatchKeyword(const std::string& word) {
    if (Peek().kind == TokKind::kName && EqualsIgnoreCase(Peek().text, word)) {
      ++index_;
      return true;
    }
    return false;
  }

  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at line " +
                              std::to_string(Peek().line) + " (near '" +
                              Peek().text + "')");
  }

  Status ExpectPunct(const std::string& text) {
    if (!MatchPunct(text)) return Error("expected '" + text + "'");
    return Status::Ok();
  }

  Result<std::string> ExpectName(const std::string& what) {
    if (Peek().kind != TokKind::kName) return Error("expected " + what);
    return Advance().text;
  }

  // agg NAME '(' params ')' ':=' sum '(' expr ')' from NAME [where ...] ';'
  Status ParseAgg() {
    ++index_;  // 'agg'
    AggregationFunction fn;
    DART_ASSIGN_OR_RETURN(fn.name, ExpectName("aggregation function name"));
    DART_RETURN_IF_ERROR(ExpectPunct("("));
    if (!MatchPunct(")")) {
      do {
        DART_ASSIGN_OR_RETURN(std::string param, ExpectName("parameter name"));
        fn.parameters.push_back(std::move(param));
      } while (MatchPunct(","));
      DART_RETURN_IF_ERROR(ExpectPunct(")"));
    }
    DART_RETURN_IF_ERROR(ExpectPunct(":="));
    if (!MatchKeyword("sum")) return Error("expected 'sum'");
    DART_RETURN_IF_ERROR(ExpectPunct("("));
    expr_operators_ = 0;
    DART_ASSIGN_OR_RETURN(fn.expr, ParseAttrExpr());
    DART_RETURN_IF_ERROR(ExpectPunct(")"));
    if (!MatchKeyword("from")) return Error("expected 'from'");
    DART_ASSIGN_OR_RETURN(fn.relation, ExpectName("relation name"));
    if (MatchKeyword("where")) {
      do {
        DART_ASSIGN_OR_RETURN(Comparison cmp, ParseComparison(fn));
        fn.where.push_back(std::move(cmp));
      } while (MatchKeyword("and"));
    }
    DART_RETURN_IF_ERROR(ExpectPunct(";"));
    return out_->AddFunction(schema_, std::move(fn));
  }

  // expr := term (('+'|'-') term)*
  Result<AttributeExprPtr> ParseAttrExpr() {
    DART_ASSIGN_OR_RETURN(AttributeExprPtr lhs, ParseAttrTerm());
    while (Peek().kind == TokKind::kPunct &&
           (Peek().text == "+" || Peek().text == "-")) {
      DART_RETURN_IF_ERROR(CountOperator());
      char op = Advance().text[0];
      DART_ASSIGN_OR_RETURN(AttributeExprPtr rhs, ParseAttrTerm());
      lhs = MakeBinaryExpr(std::move(lhs), op, std::move(rhs));
    }
    return lhs;
  }

  // term := NUMBER '*' factor | factor
  Result<AttributeExprPtr> ParseAttrTerm() {
    if (Peek().kind == TokKind::kNumber) {
      double value = Advance().number;
      if (MatchPunct("*")) {
        DART_RETURN_IF_ERROR(CountOperator());
        DART_ASSIGN_OR_RETURN(AttributeExprPtr child, ParseAttrFactor());
        return MakeScaleExpr(value, std::move(child));
      }
      return MakeConstExpr(value);
    }
    return ParseAttrFactor();
  }

  // Every operator deepens the expression tree, which evaluation and
  // destruction walk recursively; capping them per expression keeps a
  // hostile chain like V+V+...+V from exhausting the stack there.
  Status CountOperator() {
    if (++expr_operators_ > kMaxExprOperators) {
      return Error("expression has more than " +
                   std::to_string(kMaxExprOperators) + " operators");
    }
    return Status::Ok();
  }

  // factor := NAME | '(' expr ')'
  // Parentheses nest at most kMaxExprDepth deep, so a hostile program
  // cannot exhaust the stack through this recursion.
  Result<AttributeExprPtr> ParseAttrFactor() {
    if (MatchPunct("(")) {
      if (expr_depth_ == kMaxExprDepth) {
        return Result<AttributeExprPtr>(
            Error("expression nested deeper than " +
                  std::to_string(kMaxExprDepth) + " parentheses"));
      }
      ++expr_depth_;
      Result<AttributeExprPtr> inner = ParseAttrExpr();
      --expr_depth_;
      if (!inner.ok()) return inner;
      DART_RETURN_IF_ERROR(ExpectPunct(")"));
      return inner;
    }
    if (Peek().kind == TokKind::kName) return MakeAttrExpr(Advance().text);
    return Result<AttributeExprPtr>(
        Error("expected attribute name or parenthesized expression"));
  }

  Result<CompareOp> ParseCompareOp() {
    if (Peek().kind != TokKind::kPunct) return Error("expected comparison");
    const std::string& text = Advance().text;
    if (text == "=") return CompareOp::kEq;
    if (text == "!=") return CompareOp::kNe;
    if (text == "<") return CompareOp::kLt;
    if (text == "<=") return CompareOp::kLe;
    if (text == ">") return CompareOp::kGt;
    if (text == ">=") return CompareOp::kGe;
    return Error("expected comparison operator, got '" + text + "'");
  }

  Result<Operand> ParseOperand(const AggregationFunction& fn) {
    const Token& tok = Peek();
    if (tok.kind == TokKind::kString) {
      return Operand::Const(rel::Value(Advance().text));
    }
    if (tok.kind == TokKind::kNumber) {
      const Token& num = Advance();
      return Operand::Const(num.number_is_int ? rel::Value(num.integer)
                                              : rel::Value(num.number));
    }
    if (tok.kind == TokKind::kName) {
      std::string name = Advance().text;
      // Declared parameters shadow attributes.
      for (const std::string& param : fn.parameters) {
        if (param == name) return Operand::Param(name);
      }
      return Operand::Attr(name);
    }
    return Result<Operand>(Error("expected operand"));
  }

  Result<Comparison> ParseComparison(const AggregationFunction& fn) {
    Comparison cmp;
    DART_ASSIGN_OR_RETURN(cmp.lhs, ParseOperand(fn));
    DART_ASSIGN_OR_RETURN(cmp.op, ParseCompareOp());
    DART_ASSIGN_OR_RETURN(cmp.rhs, ParseOperand(fn));
    return cmp;
  }

  Result<TermArg> ParseAtomArg() {
    const Token& tok = Peek();
    if (tok.kind == TokKind::kString) {
      return TermArg::Const(rel::Value(Advance().text));
    }
    if (tok.kind == TokKind::kNumber) {
      const Token& num = Advance();
      return TermArg::Const(num.number_is_int ? rel::Value(num.integer)
                                              : rel::Value(num.number));
    }
    if (tok.kind == TokKind::kName) {
      std::string name = Advance().text;
      if (name == "_") {
        return TermArg::Var("_w" + std::to_string(wildcard_counter_++));
      }
      return TermArg::Var(name);
    }
    return Result<TermArg>(Error("expected atom argument"));
  }

  Result<Atom> ParseAtom() {
    Atom atom;
    DART_ASSIGN_OR_RETURN(atom.relation, ExpectName("relation name"));
    DART_RETURN_IF_ERROR(ExpectPunct("("));
    if (!MatchPunct(")")) {
      do {
        DART_ASSIGN_OR_RETURN(TermArg arg, ParseAtomArg());
        atom.args.push_back(std::move(arg));
      } while (MatchPunct(","));
      DART_RETURN_IF_ERROR(ExpectPunct(")"));
    }
    return atom;
  }

  // constraint NAME ':' atom (',' atom)* '=>' body ';'
  Status ParseConstraint() {
    ++index_;  // 'constraint'
    AggregateConstraint constraint;
    DART_ASSIGN_OR_RETURN(constraint.name, ExpectName("constraint name"));
    DART_RETURN_IF_ERROR(ExpectPunct(":"));
    do {
      DART_ASSIGN_OR_RETURN(Atom atom, ParseAtom());
      constraint.premise.push_back(std::move(atom));
    } while (MatchPunct(",") || MatchKeyword("and"));
    DART_RETURN_IF_ERROR(ExpectPunct("=>"));
    DART_RETURN_IF_ERROR(ParseBody(&constraint));
    DART_RETURN_IF_ERROR(ExpectPunct(";"));
    return out_->AddConstraint(schema_, std::move(constraint));
  }

  // body := signed summand list, comparison, constant RHS.
  Status ParseBody(AggregateConstraint* constraint) {
    double lhs_constant = 0;
    double sign = 1;
    if (MatchPunct("-")) sign = -1;
    else MatchPunct("+");
    while (true) {
      DART_RETURN_IF_ERROR(ParseSummand(sign, constraint, &lhs_constant));
      if (MatchPunct("+")) { sign = 1; continue; }
      if (MatchPunct("-")) { sign = -1; continue; }
      break;
    }
    DART_ASSIGN_OR_RETURN(constraint->op, ParseCompareOp());
    double rhs_sign = 1;
    if (MatchPunct("-")) rhs_sign = -1;
    if (Peek().kind != TokKind::kNumber) {
      return Error("expected numeric right-hand side K");
    }
    constraint->rhs = rhs_sign * Advance().number - lhs_constant;
    return Status::Ok();
  }

  // summand := NUMBER ['*' call] | call
  Status ParseSummand(double sign, AggregateConstraint* constraint,
                      double* lhs_constant) {
    double coefficient = sign;
    if (Peek().kind == TokKind::kNumber) {
      coefficient = sign * Advance().number;
      if (!MatchPunct("*")) {
        *lhs_constant += coefficient;  // bare constant summand
        return Status::Ok();
      }
    }
    AggregateTerm term;
    term.coefficient = coefficient;
    DART_ASSIGN_OR_RETURN(term.function, ExpectName("aggregation call"));
    DART_RETURN_IF_ERROR(ExpectPunct("("));
    if (!MatchPunct(")")) {
      do {
        DART_ASSIGN_OR_RETURN(TermArg arg, ParseAtomArg());
        if (arg.kind == TermArg::Kind::kVariable &&
            StartsWith(arg.variable, "_w")) {
          return Error("'_' wildcard is not allowed in aggregation calls");
        }
        term.args.push_back(std::move(arg));
      } while (MatchPunct(","));
      DART_RETURN_IF_ERROR(ExpectPunct(")"));
    }
    constraint->terms.push_back(std::move(term));
    return Status::Ok();
  }

  static constexpr int kMaxExprDepth = 256;
  static constexpr int kMaxExprOperators = 4096;

  const rel::DatabaseSchema& schema_;
  std::vector<Token> tokens_;
  ConstraintSet* out_;
  size_t index_ = 0;
  int expr_depth_ = 0;
  int expr_operators_ = 0;
  int wildcard_counter_ = 0;
};

}  // namespace

Status ParseConstraintProgram(const rel::DatabaseSchema& schema,
                              const std::string& text, ConstraintSet* out) {
  Lexer lexer(text);
  DART_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(schema, std::move(tokens), out);
  return parser.Run();
}

}  // namespace dart::cons
