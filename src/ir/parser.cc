#include "src/ir/parser.h"

#include <cctype>
#include <map>
#include <stdexcept>

#include "src/support/diagnostics.h"

namespace hida {

namespace {

/** Token kinds produced by the lexer. */
enum class Tok {
    kEof,
    kIdent,     ///< bare identifier (op names, attr keys, keywords)
    kValueId,   ///< %name
    kCaret,     ///< ^bb
    kNumber,    ///< integer or float literal (with optional leading -)
    kString,    ///< "..."
    kLParen,
    kRParen,
    kLBrace,
    kRBrace,
    kLBracket,
    kRBracket,
    kLess,
    kGreater,
    kComma,
    kColon,
    kEqual,
    kArrow,
    kStar,
    kUnderscore,
};

struct Token {
    Tok kind = Tok::kEof;
    std::string text;
    size_t pos = 0;
};

class Lexer {
  public:
    explicit Lexer(const std::string& text) : text_(text) { advance(); }

    const Token& current() const { return current_; }

    void
    advance()
    {
        while (pos_ < text_.size() && std::isspace(
                   static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        current_ = Token{Tok::kEof, "", pos_};
        if (pos_ >= text_.size())
            return;
        char c = text_[pos_];
        auto single = [&](Tok kind) {
            current_ = {kind, std::string(1, c), pos_};
            ++pos_;
        };
        switch (c) {
          case '(': single(Tok::kLParen); return;
          case ')': single(Tok::kRParen); return;
          case '{': single(Tok::kLBrace); return;
          case '}': single(Tok::kRBrace); return;
          case '[': single(Tok::kLBracket); return;
          case ']': single(Tok::kRBracket); return;
          case '<': single(Tok::kLess); return;
          case '>': single(Tok::kGreater); return;
          case ',': single(Tok::kComma); return;
          case ':': single(Tok::kColon); return;
          case '=': single(Tok::kEqual); return;
          case '*': single(Tok::kStar); return;
          default: break;
        }
        if (c == '-' && pos_ + 1 < text_.size() && text_[pos_ + 1] == '>') {
            current_ = {Tok::kArrow, "->", pos_};
            pos_ += 2;
            return;
        }
        if (c == '"') {
            size_t end = text_.find('"', pos_ + 1);
            if (end == std::string::npos)
                throw std::runtime_error("unterminated string literal");
            current_ = {Tok::kString,
                        text_.substr(pos_ + 1, end - pos_ - 1), pos_};
            pos_ = end + 1;
            return;
        }
        if (c == '%') {
            size_t start = ++pos_;
            while (pos_ < text_.size() &&
                   (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                    text_[pos_] == '_'))
                ++pos_;
            current_ = {Tok::kValueId, text_.substr(start, pos_ - start),
                        start - 1};
            return;
        }
        if (c == '^') {
            size_t start = pos_;
            while (pos_ < text_.size() &&
                   (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                    text_[pos_] == '^' || text_[pos_] == '_'))
                ++pos_;
            current_ = {Tok::kCaret, text_.substr(start, pos_ - start), start};
            return;
        }
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
            size_t start = pos_;
            ++pos_;
            while (pos_ < text_.size() &&
                   (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                    text_[pos_] == '.' || text_[pos_] == 'e' ||
                    text_[pos_] == '+' ||
                    (text_[pos_] == '-' && text_[pos_ - 1] == 'e')))
                ++pos_;
            current_ = {Tok::kNumber, text_.substr(start, pos_ - start),
                        start};
            return;
        }
        if (c == '_' && (pos_ + 1 >= text_.size() ||
                         !std::isalnum(static_cast<unsigned char>(
                             text_[pos_ + 1])))) {
            single(Tok::kUnderscore);
            return;
        }
        // Identifier: letters, digits, dots, underscores.
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == '_'))
            ++pos_;
        if (pos_ <= start)
            throw std::runtime_error(strCat("unexpected character '", c, "'"));
        current_ = {Tok::kIdent, text_.substr(start, pos_ - start), start};
    }

    /** Peek at the token after the current one. */
    Token
    peekNext()
    {
        Lexer copy = *this;
        copy.advance();
        return copy.current();
    }

  private:
    const std::string& text_;
    size_t pos_ = 0;
    Token current_;
};

class Parser {
  public:
    explicit Parser(const std::string& text) : lexer_(text) {}

    /** Parse the whole text; the lexer and parser throw on the first
     * error, which becomes the returned Diagnostic. */
    Result<OwnedModule>
    run()
    {
        try {
            Operation* op = parseOperation();
            if (op == nullptr || op->nameId() != opNameId<ModuleOp>()) {
                if (op != nullptr)
                    Operation::destroyDetached(op);
                throw std::runtime_error(
                    "expected a builtin.module at top level");
            }
            // Transfer into the OwnedModule: move the parsed module's
            // content into the owned one.
            OwnedModule module;
            ModuleOp parsed(op);
            for (Operation* child : parsed.body()->ops())
                child->moveToEnd(module.get().body());
            Operation::destroyDetached(op);
            return module;
        } catch (const std::runtime_error& error) {
            return Diagnostic(ErrorCode::kParseFailed, error.what(),
                              "textual IR");
        }
    }

  private:
    [[noreturn]] void
    fail(const std::string& message)
    {
        throw std::runtime_error(
            strCat(message, " at offset ", lexer_.current().pos, " near '",
                   lexer_.current().text, "'"));
    }

    bool
    accept(Tok kind)
    {
        if (lexer_.current().kind != kind)
            return false;
        lexer_.advance();
        return true;
    }

    Token
    expect(Tok kind, const char* what)
    {
        if (lexer_.current().kind != kind)
            fail(strCat("expected ", what));
        Token token = lexer_.current();
        lexer_.advance();
        return token;
    }

    Value*
    lookup(const std::string& name)
    {
        auto it = values_.find(name);
        if (it == values_.end())
            fail(strCat("use of undefined value %", name));
        return it->second;
    }

    Type
    parseType()
    {
        Token token = expect(Tok::kIdent, "a type");
        const std::string& text = token.text;
        if (text == "index")
            return Type::index();
        if (text == "none")
            return Type::none();
        if (text == "token")
            return Type::token();
        if ((text[0] == 'i' || text[0] == 'u' || text[0] == 'f') &&
            text.size() > 1 &&
            std::isdigit(static_cast<unsigned char>(text[1]))) {
            unsigned width = static_cast<unsigned>(std::stoul(text.substr(1)));
            if (text[0] == 'f')
                return Type::floating(width);
            return Type::integer(width, text[0] == 'i');
        }
        if (text == "memref" || text == "tensor") {
            expect(Tok::kLess, "'<'");
            // Shape: "4x8xi8" lexes as idents/numbers; the printer always
            // writes dims followed by 'x'. Collect numbers until the
            // element type.
            std::vector<int64_t> shape;
            Type element;
            while (true) {
                Token part = lexer_.current();
                if (part.kind == Tok::kNumber) {
                    lexer_.advance();
                    // The 'x' separator lexes into the next ident or is
                    // glued: printer writes e.g. "4x8xi8" -> number 4,
                    // ident "x8xi8". Handle both.
                    shape.push_back(std::stoll(part.text));
                    continue;
                }
                if (part.kind == Tok::kIdent) {
                    // May be "x8xi8" / "xi8" / plain element type.
                    std::string rest = part.text;
                    lexer_.advance();
                    size_t i = 0;
                    while (i < rest.size() && rest[i] == 'x') {
                        ++i;
                        size_t start = i;
                        while (i < rest.size() &&
                               std::isdigit(
                                   static_cast<unsigned char>(rest[i])))
                            ++i;
                        if (start == i) {
                            // 'x' was the element prefix separator only.
                            break;
                        }
                        // A dim followed by more text or end.
                        if (i < rest.size() && rest[i] != 'x') {
                            // Digits belong to the element type (e.g. i8).
                            i = start;
                            break;
                        }
                        shape.push_back(
                            std::stoll(rest.substr(start, i - start)));
                    }
                    std::string elem_text = rest.substr(i);
                    if (elem_text.empty())
                        fail("missing element type");
                    element = parseElementType(elem_text);
                    break;
                }
                fail("expected a shape or element type");
            }
            MemorySpace space = MemorySpace::kDefault;
            if (accept(Tok::kComma)) {
                Token where = expect(Tok::kIdent, "a memory space");
                if (where.text == "on_chip")
                    space = MemorySpace::kOnChip;
                else if (where.text == "external")
                    space = MemorySpace::kExternal;
                else
                    fail("unknown memory space");
            }
            expect(Tok::kGreater, "'>'");
            if (text == "memref")
                return Type::memref(shape, element, space);
            return Type::tensor(shape, element);
        }
        if (text == "stream") {
            expect(Tok::kLess, "'<'");
            Type element = parseType();
            expect(Tok::kComma, "','");
            Token depth = expect(Tok::kNumber, "a stream depth");
            expect(Tok::kGreater, "'>'");
            return Type::stream(element, std::stoll(depth.text));
        }
        fail(strCat("unknown type '", text, "'"));
    }

    Type
    parseElementType(const std::string& text)
    {
        if (text == "index")
            return Type::index();
        if (text == "token")
            return Type::token();
        if (text.size() <= 1 ||
            (text[0] != 'i' && text[0] != 'u' && text[0] != 'f'))
            fail(strCat("bad element type '", text, "'"));
        unsigned width = static_cast<unsigned>(std::stoul(text.substr(1)));
        if (text[0] == 'f')
            return Type::floating(width);
        return Type::integer(width, text[0] == 'i');
    }

    Attribute
    parseAttribute()
    {
        const Token& token = lexer_.current();
        if (token.kind == Tok::kNumber) {
            std::string text = token.text;
            lexer_.advance();
            if (text.find('.') != std::string::npos ||
                text.find('e') != std::string::npos)
                return Attribute::real(std::stod(text));
            return Attribute::integer(std::stoll(text));
        }
        if (token.kind == Tok::kString) {
            std::string text = token.text;
            lexer_.advance();
            return Attribute::string(text);
        }
        if (token.kind == Tok::kIdent && token.text == "unit") {
            lexer_.advance();
            return Attribute::unit();
        }
        if (token.kind == Tok::kLBracket) {
            lexer_.advance();
            // Array of attributes, or a semi-affine map when '_' or '*'
            // entries appear.
            std::vector<Attribute> items;
            SemiAffineMap map;
            bool is_map = false;
            if (!accept(Tok::kRBracket)) {
                do {
                    if (lexer_.current().kind == Tok::kUnderscore) {
                        lexer_.advance();
                        is_map = true;
                        map.permutation.push_back(SemiAffineMap::kEmpty);
                        map.scaling.push_back(1.0);
                        items.push_back(Attribute::integer(
                            SemiAffineMap::kEmpty));
                        continue;
                    }
                    Attribute item = parseAttribute();
                    double scale = 1.0;
                    if (accept(Tok::kStar)) {
                        is_map = true;
                        Token factor = expect(Tok::kNumber, "a scale factor");
                        scale = std::stod(factor.text);
                    }
                    map.permutation.push_back(
                        item.kind() == AttrKind::kInt ? item.asInt() : 0);
                    map.scaling.push_back(scale);
                    items.push_back(item);
                } while (accept(Tok::kComma));
                expect(Tok::kRBracket, "']'");
            }
            if (is_map)
                return Attribute::affineMap(map);
            return Attribute::array(items);
        }
        fail("expected an attribute value");
    }

    /** Parse an attribute dictionary body after '{' (keys already known
     * to follow); consumes the closing '}'. */
    void
    parseAttrDict(Operation* op)
    {
        if (accept(Tok::kRBrace))
            return;
        do {
            Token key = expect(Tok::kIdent, "an attribute name");
            expect(Tok::kEqual, "'='");
            op->setAttr(Identifier::get(key.text), parseAttribute());
        } while (accept(Tok::kComma));
        expect(Tok::kRBrace, "'}'");
    }

    /** Is the upcoming '{' an attribute dictionary (vs a region)? */
    bool
    braceStartsAttrDict()
    {
        // After '{': an attr dict starts with `ident =` or is empty `}`;
        // a region starts with an op (%x / ident followed by '('), or ^bb.
        Token next = lexer_.peekNext();
        if (next.kind == Tok::kRBrace)
            return false;  // `{}`: treat as an empty region
        if (next.kind != Tok::kIdent)
            return false;
        Lexer copy = lexer_;
        copy.advance();  // onto ident
        copy.advance();  // after ident
        return copy.current().kind == Tok::kEqual;
    }

    Operation*
    parseOperation()
    {
        // Optional result list: %a, %b = ...
        std::vector<std::string> result_names;
        if (lexer_.current().kind == Tok::kValueId) {
            result_names.push_back(lexer_.current().text);
            lexer_.advance();
            while (accept(Tok::kComma)) {
                result_names.push_back(
                    expect(Tok::kValueId, "a result name").text);
            }
            expect(Tok::kEqual, "'='");
        }
        Token name = expect(Tok::kIdent, "an operation name");

        // Operands.
        expect(Tok::kLParen, "'('");
        std::vector<Value*> operands;
        if (!accept(Tok::kRParen)) {
            do {
                Token id = expect(Tok::kValueId, "an operand");
                expect(Tok::kColon, "':'");
                parseType();  // operand type is derived from the def
                operands.push_back(lookup(id.text));
            } while (accept(Tok::kComma));
            expect(Tok::kRParen, "')'");
        }

        // Attribute dictionary.
        Operation* op =
            Operation::create(Identifier::get(name.text), operands, {}, 0);
        bool pending_destroy = true;
        struct Cleanup {
            Operation** op;
            bool* pending;
            ~Cleanup()
            {
                if (*pending && *op != nullptr)
                    Operation::destroyDetached(*op);
            }
        } cleanup{&op, &pending_destroy};

        if (lexer_.current().kind == Tok::kLBrace && braceStartsAttrDict()) {
            lexer_.advance();
            parseAttrDict(op);
        }

        // Result types.
        std::vector<Type> result_types;
        if (!result_names.empty()) {
            expect(Tok::kColon, "':' before result types");
            do {
                result_types.push_back(parseType());
            } while (accept(Tok::kComma));
        }
        // Rebuild the op with results (results are fixed at creation).
        if (!result_types.empty()) {
            Operation* with_results = Operation::create(
                op->nameId(), op->operands(), result_types, 0);
            for (const auto& [key, value] : op->attrs())
                with_results->setAttr(key, value);
            Operation::destroyDetached(op);
            op = with_results;
            for (size_t i = 0; i < result_names.size(); ++i) {
                op->result(i)->setNameHint(stripSuffix(result_names[i]));
                values_[result_names[i]] = op->result(i);
            }
        }

        // Regions.
        while (lexer_.current().kind == Tok::kLBrace) {
            lexer_.advance();
            parseRegionInto(op);
        }
        pending_destroy = false;
        return op;
    }

    /** Strip the printer's uniquing suffix ("_1") from a name hint. */
    static std::string
    stripSuffix(const std::string& name)
    {
        size_t underscore = name.rfind('_');
        if (underscore == std::string::npos || underscore + 1 >= name.size())
            return name;
        for (size_t i = underscore + 1; i < name.size(); ++i)
            if (!std::isdigit(static_cast<unsigned char>(name[i])))
                return name;
        return name.substr(0, underscore);
    }

    void
    parseRegionInto(Operation* op)
    {
        Region* fresh = op->addRegion();
        Block* block = fresh->addBlock();
        // Optional block-argument header: ^bb(%a : t, %b : t):
        if (lexer_.current().kind == Tok::kCaret) {
            lexer_.advance();
            expect(Tok::kLParen, "'('");
            if (!accept(Tok::kRParen)) {
                do {
                    Token id = expect(Tok::kValueId, "a block argument");
                    expect(Tok::kColon, "':'");
                    Type type = parseType();
                    Value* arg =
                        block->addArgument(type, stripSuffix(id.text));
                    values_[id.text] = arg;
                } while (accept(Tok::kComma));
                expect(Tok::kRParen, "')'");
            }
            expect(Tok::kColon, "':'");
        }
        OpBuilder builder(block);
        while (lexer_.current().kind != Tok::kRBrace) {
            Operation* nested = parseOperation();
            builder.insert(nested);
        }
        expect(Tok::kRBrace, "'}'");
    }

    Lexer lexer_;
    std::map<std::string, Value*> values_;
};

} // namespace

Result<OwnedModule>
parseModule(const std::string& text)
{
    return Parser(text).run();
}

} // namespace hida
