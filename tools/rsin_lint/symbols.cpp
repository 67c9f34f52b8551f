#include "symbols.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <sstream>

namespace rsin {
namespace lint {

namespace {

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool
isControlKeyword(const std::string &name)
{
    static const std::set<std::string> kw{
        "if",       "for",      "while",    "switch",  "catch",
        "return",   "sizeof",   "alignof",  "decltype", "new",
        "delete",   "throw",    "co_await", "co_return", "assert",
        "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
        "alignas",  "noexcept", "defined",
    };
    return kw.count(name) > 0;
}

} // namespace

Lexed
tokenizeFull(const std::string &src)
{
    Lexed out;
    // Where tokens go: out.pp from a line-leading '#' up to the next
    // unspliced newline, out.code otherwise.
    std::vector<FullTok> *toks = &out.code;
    std::size_t line = 1;
    std::size_t lineStart = 0; // byte offset of the current line start
    std::size_t i = 0;
    const std::size_t n = src.size();
    const auto colOf = [&](std::size_t at) { return at - lineStart + 1; };
    const auto bumpLine = [&](std::size_t at) {
        ++line;
        lineStart = at + 1;
    };
    while (i < n) {
        const char c = src[i];
        if (c == '\n') {
            bumpLine(i);
            ++i;
            toks = &out.code;
            continue;
        }
        if (toks == &out.pp && c == '\\' && i + 1 < n &&
            src[i + 1] == '\n') {
            // Backslash continuation: the directive goes on.
            bumpLine(i + 1);
            i += 2;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (c == '#' && toks == &out.code) {
            bool firstOnLine = true;
            for (std::size_t k = lineStart; k < i; ++k)
                if (!std::isspace(static_cast<unsigned char>(src[k]))) {
                    firstOnLine = false;
                    break;
                }
            if (firstOnLine)
                toks = &out.pp;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            const std::size_t start = i;
            while (i < n && src[i] != '\n')
                ++i;
            out.comments.push_back({line, src.substr(start, i - start)});
            continue;
        }
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            i += 2;
            while (i + 1 < n && !(src[i] == '*' && src[i + 1] == '/')) {
                if (src[i] == '\n')
                    bumpLine(i);
                ++i;
            }
            i = i + 1 < n ? i + 2 : n;
            continue;
        }
        if (c == '"' && i >= 1 && src[i - 1] == 'R') {
            // Raw string literal R"delim( ... )delim".
            const std::size_t open = i;
            std::size_t d = i + 1;
            while (d < n && src[d] != '(')
                ++d;
            std::string delim(1, ')');
            delim.append(src, i + 1, d - i - 1);
            delim.push_back('"');
            std::size_t end = src.find(delim, d);
            const std::size_t stop =
                end == std::string::npos ? n : end;
            FullTok t;
            t.kind = 's';
            t.text = src.substr(d + 1, stop - d - 1);
            t.line = line;
            t.col = colOf(open);
            toks->push_back(std::move(t));
            end = end == std::string::npos ? n : end + delim.size();
            for (; i < end; ++i)
                if (src[i] == '\n')
                    bumpLine(i);
            continue;
        }
        if (c == '\'' && i > 0 &&
            std::isalnum(static_cast<unsigned char>(src[i - 1])) &&
            i + 1 < n &&
            std::isalnum(static_cast<unsigned char>(src[i + 1]))) {
            // Digit separator (16'384), not a char literal.
            ++i;
            continue;
        }
        if (c == '"' || c == '\'') {
            const char quote = c;
            const std::size_t open = i;
            ++i;
            const std::size_t start = i;
            while (i < n && src[i] != quote) {
                if (src[i] == '\\')
                    ++i;
                if (i < n && src[i] == '\n')
                    bumpLine(i);
                ++i;
            }
            if (quote == '"') {
                FullTok t;
                t.kind = 's';
                t.text = src.substr(start, i - start);
                t.line = line;
                t.col = colOf(open);
                toks->push_back(std::move(t));
            }
            i = i < n ? i + 1 : n;
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            const std::size_t start = i;
            while (i < n && identChar(src[i]))
                ++i;
            toks->push_back({'i', src.substr(start, i - start), line,
                            colOf(start)});
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            const std::size_t start = i;
            while (i < n &&
                   (identChar(src[i]) || src[i] == '.' ||
                    ((src[i] == '+' || src[i] == '-') && i > start &&
                     (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                      src[i - 1] == 'p' || src[i - 1] == 'P'))))
                ++i;
            toks->push_back({'n', src.substr(start, i - start), line,
                            colOf(start)});
            continue;
        }
        // '::' and '->' matter to name chains; everything else is
        // emitted one character at a time.
        if (c == ':' && i + 1 < n && src[i + 1] == ':') {
            toks->push_back({'p', "::", line, colOf(i)});
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && src[i + 1] == '>') {
            toks->push_back({'p', "->", line, colOf(i)});
            i += 2;
            continue;
        }
        toks->push_back({'p', std::string(1, c), line, colOf(i)});
        ++i;
    }
    return out;
}

namespace {

/** One entry of the parser's scope stack. */
struct ScopeEnt
{
    enum class Kind { Namespace, Class, Function, Lambda, Block, Misc };
    Kind kind;
    std::string name; ///< namespace/class name ("" for the rest)
    int symbol = -1;  ///< symbol id for Function/Lambda scopes
};

/** Per-file indexing state shared by the parsing helpers. */
struct FileParse
{
    const std::vector<FullTok> &t;
    const std::string &file;
    Program &prog;
    std::vector<ScopeEnt> scopes;
    /** token index of each lambda's '[' -> its symbol id. */
    std::map<std::size_t, int> lambdaAt;

    FileParse(const std::vector<FullTok> &toks, const std::string &path,
              Program &program)
        : t(toks), file(path), prog(program)
    {
    }

    bool
    isP(std::size_t i, const char *p) const
    {
        return i < t.size() && t[i].kind == 'p' && t[i].text == p;
    }

    bool
    isI(std::size_t i) const
    {
        return i < t.size() && t[i].kind == 'i';
    }

    bool
    isI(std::size_t i, const char *name) const
    {
        return isI(i) && t[i].text == name;
    }

    /** Innermost Function/Lambda symbol, or -1. */
    int
    currentSymbol() const
    {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it)
            if (it->kind == ScopeEnt::Kind::Function ||
                it->kind == ScopeEnt::Kind::Lambda)
                return it->symbol;
        return -1;
    }

    /** True when the innermost scope collects declarations. */
    bool
    declContext() const
    {
        if (scopes.empty())
            return true;
        const ScopeEnt::Kind k = scopes.back().kind;
        return k == ScopeEnt::Kind::Namespace ||
               k == ScopeEnt::Kind::Class;
    }

    /** namespace/class qualification of the current scope chain. */
    std::string
    scopePrefix() const
    {
        std::string out;
        for (const ScopeEnt &s : scopes)
            if ((s.kind == ScopeEnt::Kind::Namespace ||
                 s.kind == ScopeEnt::Kind::Class) &&
                !s.name.empty())
                out += s.name + "::";
        return out;
    }

    /** Index just past the token matching the opener at @p i. */
    std::size_t
    matchBalanced(std::size_t i) const
    {
        static const std::map<std::string, std::string> pairs{
            {"(", ")"}, {"[", "]"}, {"{", "}"}};
        const std::string open = t[i].text;
        const std::string close = pairs.at(open);
        std::size_t depth = 0;
        for (std::size_t j = i; j < t.size(); ++j) {
            if (t[j].kind != 'p')
                continue;
            if (t[j].text == open)
                ++depth;
            else if (t[j].text == close && --depth == 0)
                return j + 1;
        }
        return t.size();
    }

    int
    addSymbol(Symbol sym)
    {
        const int id = static_cast<int>(prog.symbols.size());
        prog.byName[sym.name].push_back(id);
        prog.symbols.push_back(std::move(sym));
        return id;
    }

    /**
     * Split the parameter list between the parens opening at @p open
     * into names.  Template commas are guarded by a conservative
     * angle-bracket depth (only '<' after an identifier or '>' opens).
     */
    std::vector<std::string>
    parseParams(std::size_t open) const
    {
        std::vector<std::string> params;
        const std::size_t end = matchBalanced(open) - 1;
        std::size_t depth = 0;  // (), [], {}
        std::size_t angles = 0; // <>
        std::size_t segStart = open + 1;
        const auto flush = [&](std::size_t segEnd) {
            // Name = last identifier before a default value.
            std::string name;
            for (std::size_t k = segStart; k < segEnd; ++k) {
                if (t[k].kind == 'p' && t[k].text == "=" && depth == 0)
                    break;
                if (t[k].kind == 'i' && !isControlKeyword(t[k].text))
                    name = t[k].text;
            }
            if (!name.empty() && name != "void")
                params.push_back(name);
            else if (segEnd > segStart)
                params.push_back(std::string()); // unnamed slot
        };
        for (std::size_t j = open + 1; j < end; ++j) {
            if (t[j].kind == 'p') {
                const std::string &p = t[j].text;
                if (p == "(" || p == "[" || p == "{")
                    ++depth;
                else if (p == ")" || p == "]" || p == "}")
                    --depth;
                else if (p == "<" && j > 0 &&
                         (t[j - 1].kind == 'i' ||
                          t[j - 1].text == ">"))
                    ++angles;
                else if (p == ">" && angles > 0)
                    --angles;
                else if (p == "," && depth == 0 && angles == 0) {
                    flush(j);
                    segStart = j + 1;
                }
            }
        }
        if (end > segStart)
            flush(end);
        return params;
    }

    /**
     * Try to read a lambda starting at the '[' at @p i.  On success
     * the Lambda scope is pushed and the return value is the index
     * just after the body's '{'; otherwise returns @p i unchanged.
     */
    std::size_t
    tryLambda(std::size_t i)
    {
        if (i > 0 && (t[i - 1].kind == 'i' || t[i - 1].kind == 'n' ||
                      t[i - 1].kind == 's' || isP(i - 1, ")") ||
                      isP(i - 1, "]")))
            return i; // subscript
        if (isP(i + 1, "["))
            return i; // [[attribute]]
        const std::size_t closeB = matchBalanced(i);
        if (closeB >= t.size())
            return i;
        std::size_t j = closeB;
        std::vector<std::string> params;
        if (isP(j, "(")) {
            params = parseParams(j);
            j = matchBalanced(j);
        }
        // Trailing specifiers / return type up to the body brace.
        std::size_t guard = 0;
        while (j < t.size() && !isP(j, "{")) {
            if (isP(j, ";") || isP(j, ")") || isP(j, ",") ||
                isP(j, "]") || isP(j, "=") || ++guard > 64)
                return i; // not a lambda after all
            if (isP(j, "(") || isP(j, "<"))
                ++j; // balanced groups inside a return type are rare
            ++j;
        }
        if (j >= t.size())
            return i;

        const int parent = currentSymbol();
        Symbol sym;
        sym.name = "(lambda@" + std::to_string(t[i].line) + ")";
        sym.qualified =
            (parent >= 0 ? prog.symbols[parent].qualified + "::"
                         : scopePrefix()) +
            sym.name;
        sym.file = file;
        sym.line = t[i].line;
        sym.isLambda = true;
        sym.parent = parent;
        sym.params = std::move(params);
        sym.bodyBegin = j + 1;
        const int id = addSymbol(std::move(sym));
        lambdaAt[i] = id;
        // `auto name = [..]` binds the lambda to a local variable.
        if (i >= 2 && isP(i - 1, "=") && isI(i - 2) && parent >= 0)
            prog.lambdaVars[{parent, t[i - 2].text}] = id;
        scopes.push_back({ScopeEnt::Kind::Lambda, "", id});
        return j + 1;
    }

    /** Record one namespace-scope / class-static / local-static var. */
    void
    recordVar(std::size_t stmtBegin, std::size_t stmtEnd,
              bool staticLocal)
    {
        bool isConst = false;
        bool sync = false;
        for (std::size_t k = stmtBegin; k < stmtEnd; ++k) {
            if (t[k].kind != 'i')
                continue;
            const std::string &w = t[k].text;
            if (w == "const" || w == "constexpr" || w == "constinit" ||
                w == "thread_local" || w == "using" ||
                w == "typedef" || w == "extern" || w == "friend")
                isConst = true;
            if (w == "atomic" || w == "mutex" || w == "shared_mutex" ||
                w == "once_flag" || w == "condition_variable" ||
                w == "atomic_flag")
                sync = true;
        }
        if (isConst)
            return;
        // Name: last identifier before the initializer or terminator.
        std::string name;
        std::size_t nameLine = 0;
        std::size_t nameCol = 0;
        std::size_t depth = 0;
        std::size_t angles = 0;
        for (std::size_t k = stmtBegin; k < stmtEnd; ++k) {
            if (t[k].kind == 'p') {
                const std::string &p = t[k].text;
                if (p == "(")
                    return; // function declaration / ctor-style init
                if (p == "[" || p == "{") {
                    ++depth;
                    if (depth == 1 && !name.empty())
                        break; // initializer or array extent reached
                } else if (p == "]" || p == "}") {
                    --depth;
                } else if (p == "<" && k > 0 && t[k - 1].kind == 'i') {
                    ++angles;
                } else if (p == ">" && angles > 0) {
                    --angles;
                } else if (p == "=" && depth == 0 && angles == 0) {
                    break;
                }
                continue;
            }
            if (t[k].kind == 'i' && depth == 0 && angles == 0 &&
                !isControlKeyword(t[k].text)) {
                name = t[k].text;
                nameLine = t[k].line;
                nameCol = t[k].col;
            }
        }
        if (name.empty())
            return;
        GlobalVar var;
        var.name = name;
        var.file = file;
        var.line = nameLine == 0 ? t[stmtBegin].line : nameLine;
        (void)nameCol;
        var.synchronized = sync;
        var.staticLocal = staticLocal;
        var.owner = staticLocal ? currentSymbol() : -1;
        prog.globals.push_back(std::move(var));
    }

    /** Record a call expression whose name token is at @p i. */
    void
    recordCall(std::size_t i)
    {
        const int caller = currentSymbol();
        if (caller < 0)
            return;
        if (isControlKeyword(t[i].text))
            return;
        CallSite call;
        call.caller = caller;
        call.name = t[i].text;
        call.file = file;
        call.line = t[i].line;
        call.col = t[i].col;
        call.tok = i;
        // Walk the qualifier chain backwards: (ident ::)* name.
        std::size_t head = i;
        std::vector<std::string> quals;
        while (head >= 2 && isP(head - 1, "::") && isI(head - 2)) {
            quals.push_back(t[head - 2].text);
            head -= 2;
        }
        std::reverse(quals.begin(), quals.end());
        for (std::size_t q = 0; q < quals.size(); ++q)
            call.qualifier += (q ? "::" : "") + quals[q];
        call.memberCall =
            head >= 1 && (isP(head - 1, ".") || isP(head - 1, "->"));
        if (call.memberCall && head >= 2 && isI(head - 2))
            call.receiver = t[head - 2].text;
        // Arguments: top-level comma split between the parens.
        const std::size_t open = i + 1;
        const std::size_t close = matchBalanced(open) - 1;
        std::size_t depth = 0;
        std::size_t segStart = open + 1;
        const auto classify = [&](std::size_t b, std::size_t e) {
            CallArg arg;
            if (b >= e)
                return arg;
            if (isP(b, "&") && e == b + 2 && isI(b + 1)) {
                arg.kind = CallArg::Kind::Ident;
                arg.ident = t[b + 1].text;
                return arg;
            }
            if (e == b + 1 && isI(b)) {
                arg.kind = CallArg::Kind::Ident;
                arg.ident = t[b].text;
                return arg;
            }
            if (isP(b, "[")) {
                // Resolved to the lambda symbol after the file walk
                // (the lambda is indexed when the walk reaches it).
                arg.kind = CallArg::Kind::Lambda;
                arg.lambda = -static_cast<int>(b) - 2; // token marker
            }
            return arg;
        };
        for (std::size_t j = open + 1; j < close; ++j) {
            if (t[j].kind != 'p')
                continue;
            const std::string &p = t[j].text;
            if (p == "(" || p == "[" || p == "{")
                ++depth;
            else if (p == ")" || p == "]" || p == "}")
                --depth;
            else if (p == "," && depth == 0) {
                call.args.push_back(classify(segStart, j));
                segStart = j + 1;
            }
        }
        if (close > segStart)
            call.args.push_back(classify(segStart, close));
        prog.calls.push_back(std::move(call));
    }

    /**
     * In declaration context: classify the construct starting at @p i
     * and return the index to continue from.
     */
    std::size_t
    declaration(std::size_t i)
    {
        if (isI(i, "namespace")) {
            std::size_t j = i + 1;
            std::string name;
            while (isI(j) || isP(j, "::")) {
                name += t[j].text;
                ++j;
            }
            if (isP(j, "{")) {
                scopes.push_back(
                    {ScopeEnt::Kind::Namespace, name, -1});
                return j + 1;
            }
            while (j < t.size() && !isP(j, ";"))
                ++j; // namespace alias
            return j + 1;
        }
        if (isI(i, "template")) {
            // Skip the parameter list; the declaration follows.
            std::size_t j = i + 1;
            if (isP(j, "<")) {
                std::size_t angles = 0;
                for (; j < t.size(); ++j) {
                    if (isP(j, "<"))
                        ++angles;
                    else if (isP(j, ">") && --angles == 0) {
                        ++j;
                        break;
                    }
                }
            }
            return j;
        }
        if (isI(i, "class") || isI(i, "struct") || isI(i, "union") ||
            isI(i, "enum")) {
            const bool isEnum = t[i].text == "enum";
            std::size_t j = i + 1;
            if (isEnum && (isI(j, "class") || isI(j, "struct")))
                ++j;
            std::string name;
            if (isI(j)) {
                name = t[j].text;
                ++j;
            }
            // Base clause / enum underlying type up to '{' or ';'.
            while (j < t.size() && !isP(j, "{") && !isP(j, ";") &&
                   !isP(j, "("))
                ++j;
            if (isP(j, "{")) {
                scopes.push_back({isEnum ? ScopeEnt::Kind::Misc
                                         : ScopeEnt::Kind::Class,
                                  name, -1});
                return j + 1;
            }
            if (isP(j, "("))
                return i + 1; // `struct X f();` -- let the scan go on
            return j + 1;     // forward declaration
        }
        if (isI(i, "using") || isI(i, "typedef") ||
            isI(i, "static_assert") || isI(i, "friend")) {
            std::size_t j = i;
            while (j < t.size() && !isP(j, ";"))
                j = isP(j, "{") || isP(j, "(") ? matchBalanced(j) : j + 1;
            return j + 1;
        }
        if (isP(i, "[")) {
            const std::size_t after = tryLambda(i);
            if (after != i)
                return after;
        }

        // Statement scan: find a function-definition pattern or a
        // variable declaration before the closing ';'.
        std::size_t j = i;
        while (j < t.size()) {
            if (isP(j, ";"))
                return declVariable(i, j);
            if (isP(j, "=")) {
                // Initializer: scan to the ';' skipping groups.
                std::size_t k = j;
                while (k < t.size() && !isP(k, ";"))
                    k = isP(k, "{") || isP(k, "(") || isP(k, "[")
                            ? matchBalanced(k)
                            : k + 1;
                return declVariable(i, k);
            }
            if (isI(j) && isP(j + 1, "(") &&
                !isControlKeyword(t[j].text))
                return declFunction(i, j);
            if (isI(j, "operator")) {
                // Operator functions: skip to the body or ';' without
                // indexing (operators are never worker roots).
                while (j < t.size() && !isP(j, "{") && !isP(j, ";"))
                    j = isP(j, "(") ? matchBalanced(j) : j + 1;
                if (isP(j, "{")) {
                    Symbol sym;
                    sym.name = "(operator@" +
                               std::to_string(t[i].line) + ")";
                    sym.qualified = scopePrefix() + sym.name;
                    sym.file = file;
                    sym.line = t[i].line;
                    sym.bodyBegin = j + 1;
                    const int id = addSymbol(std::move(sym));
                    scopes.push_back(
                        {ScopeEnt::Kind::Function, "", id});
                }
                return j + 1;
            }
            if (isP(j, "{") || isP(j, "(") || isP(j, "["))
                j = matchBalanced(j);
            else
                ++j;
        }
        return j;
    }

    /** Declaration statement [begin, semi) that is not a function. */
    std::size_t
    declVariable(std::size_t begin, std::size_t semi)
    {
        // Class members are per-object state, not shared globals --
        // except explicit `static` members.
        const bool inClass =
            !scopes.empty() &&
            scopes.back().kind == ScopeEnt::Kind::Class;
        bool isStatic = false;
        for (std::size_t k = begin; k < semi && k < begin + 4; ++k)
            if (isI(k, "static"))
                isStatic = true;
        if (!inClass || isStatic)
            recordVar(begin, semi, false);
        return semi + 1;
    }

    /**
     * Possible function whose name token is at @p name (followed by
     * '(').  Returns the continuation index; pushes a Function scope
     * when a body follows.
     */
    std::size_t
    declFunction(std::size_t begin, std::size_t name)
    {
        const std::size_t open = name + 1;
        std::size_t j = matchBalanced(open);
        // Trailer: const/noexcept/override/->ret/ctor-init list, then
        // '{' for a definition or ';'/','/'=' for a declaration.
        while (j < t.size()) {
            if (isP(j, "{"))
                break;
            if (isP(j, ";") || isP(j, ",") || isP(j, ")"))
                return j + 1; // declaration (or a nested false match)
            if (isP(j, "=")) {
                // `= default` / `= delete` / `= 0`.
                while (j < t.size() && !isP(j, ";"))
                    ++j;
                return j + 1;
            }
            if (isP(j, ":")) {
                // Ctor init list: members with (..) or {..} groups.
                ++j;
                while (j < t.size() && !isP(j, "{")) {
                    if (isP(j, "(") )
                        j = matchBalanced(j);
                    else if (isP(j, ";"))
                        return j + 1;
                    else if (isI(j) && isP(j + 1, "{"))
                        j = matchBalanced(j + 1);
                    else
                        ++j;
                }
                break;
            }
            if (isP(j, "(") || isP(j, "<") || isP(j, "["))
                j = isP(j, "<") ? j + 1 : matchBalanced(j);
            else
                ++j;
        }
        if (!isP(j, "{"))
            return j + 1;

        // Qualifier chain written at the definition (Out::name).
        std::string qual;
        std::size_t head = name;
        std::vector<std::string> quals;
        while (head >= 2 && isP(head - 1, "::") && isI(head - 2)) {
            quals.push_back(t[head - 2].text);
            head -= 2;
        }
        std::reverse(quals.begin(), quals.end());
        for (const std::string &q : quals)
            qual += q + "::";

        Symbol sym;
        sym.name = t[name].text;
        sym.qualified = scopePrefix() + qual + sym.name;
        sym.file = file;
        sym.line = t[name].line;
        sym.params = parseParams(open);
        sym.bodyBegin = j + 1;
        const int id = addSymbol(std::move(sym));
        scopes.push_back({ScopeEnt::Kind::Function, "", id});
        (void)begin;
        return j + 1;
    }

    /** Statement context: record calls, lambdas, static locals. */
    std::size_t
    statement(std::size_t i)
    {
        if (isP(i, "[")) {
            const std::size_t after = tryLambda(i);
            if (after != i)
                return after;
            return i + 1;
        }
        if (isI(i, "static") && currentSymbol() >= 0) {
            // Local static declaration: up to the ';'.
            std::size_t j = i + 1;
            while (j < t.size() && !isP(j, ";") && !isP(j, "{") &&
                   !isP(j, "("))
                ++j;
            std::size_t semi = i + 1;
            while (semi < t.size() && !isP(semi, ";"))
                semi = isP(semi, "{") || isP(semi, "(")
                           ? matchBalanced(semi)
                           : semi + 1;
            recordVar(i, semi, true);
            // Do NOT skip the statement: initializer expressions may
            // contain calls/lambdas the walk must still visit.
            return i + 1;
        }
        if (isI(i) && isP(i + 1, "(")) {
            recordCall(i);
            return i + 1;
        }
        return i + 1;
    }

    void
    run()
    {
        std::size_t i = 0;
        while (i < t.size()) {
            if (isP(i, "}")) {
                if (!scopes.empty()) {
                    const ScopeEnt top = scopes.back();
                    if ((top.kind == ScopeEnt::Kind::Function ||
                         top.kind == ScopeEnt::Kind::Lambda) &&
                        top.symbol >= 0)
                        prog.symbols[static_cast<std::size_t>(
                                         top.symbol)]
                            .bodyEnd = i;
                    scopes.pop_back();
                }
                ++i;
                continue;
            }
            if (declContext()) {
                if (isP(i, "{")) {
                    scopes.push_back({ScopeEnt::Kind::Misc, "", -1});
                    ++i;
                    continue;
                }
                if (isP(i, ";") || isP(i, ":") || isI(i, "public") ||
                    isI(i, "private") || isI(i, "protected")) {
                    ++i;
                    continue;
                }
                i = declaration(i);
                continue;
            }
            if (isP(i, "{")) {
                scopes.push_back({ScopeEnt::Kind::Block, "", -1});
                ++i;
                continue;
            }
            i = statement(i);
        }
        // Unterminated scopes (unbalanced files): close the symbols.
        for (const ScopeEnt &s : scopes)
            if (s.symbol >= 0 &&
                prog.symbols[static_cast<std::size_t>(s.symbol)]
                        .bodyEnd == 0)
                prog.symbols[static_cast<std::size_t>(s.symbol)]
                    .bodyEnd = t.size();
    }
};

} // namespace

Program
indexProgram(const std::vector<SourceFile> &files)
{
    std::map<std::string, std::vector<FullTok>> tokens;
    for (const SourceFile &file : files)
        tokens[file.path] = tokenizeFull(file.content).code;
    return indexProgram(files, std::move(tokens));
}

Program
indexProgram(const std::vector<SourceFile> &files,
             std::map<std::string, std::vector<FullTok>> tokens)
{
    Program prog;
    prog.tokens = std::move(tokens);
    for (const SourceFile &file : files) {
        FileParse parse(prog.tokens[file.path], file.path, prog);
        parse.run();
        // Resolve inline-lambda call arguments recorded as token
        // markers while the lambda symbols did not exist yet.
        for (CallSite &call : prog.calls) {
            if (call.file != file.path)
                continue;
            for (CallArg &arg : call.args) {
                if (arg.kind != CallArg::Kind::Lambda ||
                    arg.lambda >= 0)
                    continue;
                const std::size_t tokAt =
                    static_cast<std::size_t>(-arg.lambda - 2);
                const auto it = parse.lambdaAt.find(tokAt);
                if (it != parse.lambdaAt.end())
                    arg.lambda = it->second;
                else
                    arg.kind = CallArg::Kind::Other;
            }
        }
    }
    return prog;
}

std::vector<int>
resolveCall(const Program &prog, const CallSite &call)
{
    // A local variable bound to a lambda, visible from the caller or
    // any lexically enclosing function.
    for (int s = call.caller; s >= 0;
         s = prog.symbols[static_cast<std::size_t>(s)].parent) {
        const auto it = prog.lambdaVars.find({s, call.name});
        if (it != prog.lambdaVars.end())
            return {it->second};
    }
    const auto it = prog.byName.find(call.name);
    if (it == prog.byName.end())
        return {};
    std::vector<int> candidates = it->second;
    if (!call.qualifier.empty()) {
        // Qualified: the written chain must be a suffix of the
        // symbol's qualification ("obs::LedgerWriter::append" matches
        // "rsin::obs::LedgerWriter::append").
        std::vector<int> out;
        const std::string want = call.qualifier + "::" + call.name;
        for (const int id : candidates) {
            const std::string &q =
                prog.symbols[static_cast<std::size_t>(id)].qualified;
            if (q.size() >= want.size() &&
                q.compare(q.size() - want.size(), want.size(), want) ==
                    0)
                out.push_back(id);
        }
        return out;
    }
    // Member syntax on an explicit receiver other than `this` cannot
    // be a self-call: `out_.close()` inside LedgerWriter targets the
    // ofstream, not LedgerWriter::close.  Drop candidates scoped to
    // the caller's own class so shared method names on std members do
    // not fabricate call edges (which would poison worker
    // reachability and the lock-order graph with false self-cycles).
    if (call.memberCall && !call.receiver.empty() &&
        call.receiver != "this") {
        int outer = call.caller;
        while (outer >= 0 &&
               prog.symbols[static_cast<std::size_t>(outer)].isLambda)
            outer = prog.symbols[static_cast<std::size_t>(outer)].parent;
        std::string scope;
        if (outer >= 0) {
            const std::string &q =
                prog.symbols[static_cast<std::size_t>(outer)].qualified;
            const std::size_t cut = q.rfind("::");
            if (cut != std::string::npos)
                scope = q.substr(0, cut);
        }
        if (!scope.empty()) {
            std::vector<int> kept;
            for (const int id : candidates) {
                const Symbol &cand =
                    prog.symbols[static_cast<std::size_t>(id)];
                if (cand.qualified != scope + "::" + cand.name)
                    kept.push_back(id);
            }
            candidates = std::move(kept);
            if (candidates.empty())
                return {};
        }
    }
    // Unqualified: prefer candidates in the same file (headers define
    // inline methods next to their callers), else take the whole
    // overload set -- conservative, but names in this tree are
    // specific enough that the graph stays tight.
    std::vector<int> sameFile;
    for (const int id : candidates)
        if (prog.symbols[static_cast<std::size_t>(id)].file ==
            call.file)
            sameFile.push_back(id);
    if (!sameFile.empty() && !call.memberCall)
        return sameFile;
    return candidates;
}

namespace {

/** Parameter indices of @p call that run on a worker thread. */
std::set<std::size_t>
spawnIndices(const Program &prog, const CallSite &call,
             const std::map<int, std::set<std::size_t>> &forwarders)
{
    std::set<std::size_t> idx;
    if (call.name == "submit")
        idx.insert(0);
    else if (call.name == "parallelFor")
        idx.insert(1);
    else if (call.name == "async")
        for (std::size_t k = 0; k < call.args.size(); ++k)
            idx.insert(k);
    else if (call.name == "thread" || call.name == "jthread")
        idx.insert(0);
    for (const int id : resolveCall(prog, call)) {
        const auto it = forwarders.find(id);
        if (it != forwarders.end())
            idx.insert(it->second.begin(), it->second.end());
    }
    return idx;
}

} // namespace

WorkerAnalysis
analyzeWorkers(const Program &prog)
{
    WorkerAnalysis wa;
    std::set<int> roots;
    std::map<int, std::set<std::size_t>> forwarders;

    for (int pass = 0; pass < 8; ++pass) {
        // Forwarders: a parameter of F that F invokes at a reachable
        // point (step 3), or hands on as a bare identifier at a spawn
        // index of a call -- to a spawn site or another forwarder --
        // which runs on a worker wherever F runs (step 1).  Either
        // way every callable passed to F becomes a root next pass.
        std::map<int, std::set<std::size_t>> newForwarders =
            forwarders;
        const auto markParam = [&](int from, const std::string &name) {
            for (int s = from; s >= 0;
                 s = prog.symbols[static_cast<std::size_t>(s)]
                         .parent) {
                const Symbol &sym =
                    prog.symbols[static_cast<std::size_t>(s)];
                for (std::size_t k = 0; k < sym.params.size(); ++k)
                    if (sym.params[k] == name)
                        newForwarders[s].insert(k);
            }
        };

        // 1. Roots: callables handed to spawn sites.
        std::set<int> newRoots = roots;
        for (const CallSite &call : prog.calls) {
            const std::set<std::size_t> idx =
                spawnIndices(prog, call, forwarders);
            for (const std::size_t k : idx) {
                if (k >= call.args.size())
                    continue;
                const CallArg &arg = call.args[k];
                if (arg.kind == CallArg::Kind::Lambda &&
                    arg.lambda >= 0) {
                    newRoots.insert(arg.lambda);
                } else if (arg.kind == CallArg::Kind::Ident) {
                    markParam(call.caller, arg.ident);
                    bool bound = false;
                    for (int s = call.caller; s >= 0;
                         s = prog.symbols[static_cast<std::size_t>(s)]
                                 .parent) {
                        const auto it =
                            prog.lambdaVars.find({s, arg.ident});
                        if (it != prog.lambdaVars.end()) {
                            newRoots.insert(it->second);
                            bound = true;
                            break;
                        }
                    }
                    if (!bound) {
                        const auto it = prog.byName.find(arg.ident);
                        if (it != prog.byName.end())
                            for (const int id : it->second)
                                newRoots.insert(id);
                    }
                }
            }
        }

        // 2. Reachability from the roots over call + nesting edges.
        std::set<int> reachable;
        std::map<int, int> parentOf;
        std::deque<int> queue;
        for (const int r : newRoots) {
            if (reachable.insert(r).second) {
                parentOf[r] = -1;
                queue.push_back(r);
            }
        }
        // Adjacency: calls per caller, lambdas per parent.
        std::map<int, std::vector<int>> edges;
        for (const CallSite &call : prog.calls)
            for (const int id : resolveCall(prog, call))
                edges[call.caller].push_back(id);
        for (std::size_t s = 0; s < prog.symbols.size(); ++s)
            if (prog.symbols[s].isLambda &&
                prog.symbols[s].parent >= 0)
                edges[prog.symbols[s].parent].push_back(
                    static_cast<int>(s));
        while (!queue.empty()) {
            const int at = queue.front();
            queue.pop_front();
            const auto it = edges.find(at);
            if (it == edges.end())
                continue;
            for (const int next : it->second)
                if (reachable.insert(next).second) {
                    parentOf[next] = at;
                    queue.push_back(next);
                }
        }

        // 3. Forwarders invoked at a reachable point.
        for (const CallSite &call : prog.calls)
            if (reachable.count(call.caller))
                markParam(call.caller, call.name);

        const bool stable =
            newRoots == roots && newForwarders == forwarders;
        roots = std::move(newRoots);
        forwarders = std::move(newForwarders);
        wa.reachable = std::move(reachable);
        wa.parentOf = std::move(parentOf);
        if (stable)
            break;
    }
    wa.roots.assign(roots.begin(), roots.end());
    wa.forwarderParams = std::move(forwarders);
    return wa;
}

std::string
workerChain(const Program &prog, const WorkerAnalysis &wa, int sym)
{
    std::vector<int> chain;
    for (int at = sym; at >= 0;) {
        chain.push_back(at);
        const auto it = wa.parentOf.find(at);
        at = it == wa.parentOf.end() ? -1 : it->second;
    }
    std::reverse(chain.begin(), chain.end());
    std::string out;
    for (std::size_t i = 0; i < chain.size(); ++i) {
        if (i)
            out += " -> ";
        out += prog.symbols[static_cast<std::size_t>(chain[i])]
                   .qualified;
    }
    return out;
}

std::string
dumpSymbols(const Program &prog)
{
    std::ostringstream out;
    out << "symbols: " << prog.symbols.size() << " functions, "
        << prog.globals.size() << " mutable globals/statics\n";
    for (const Symbol &sym : prog.symbols) {
        out << "  " << sym.qualified << "  (" << sym.file << ":"
            << sym.line;
        if (!sym.params.empty()) {
            out << "; params:";
            for (const std::string &p : sym.params)
                out << " " << (p.empty() ? "?" : p);
        }
        out << ")\n";
    }
    for (const GlobalVar &g : prog.globals) {
        out << "  [state] " << g.name << "  (" << g.file << ":"
            << g.line << (g.staticLocal ? "; static local" : "")
            << (g.synchronized ? "; synchronized" : "") << ")\n";
    }
    return out.str();
}

std::string
dumpCallGraph(const Program &prog, const WorkerAnalysis &wa)
{
    std::ostringstream out;
    std::size_t edgeCount = 0;
    std::ostringstream edges;
    for (const CallSite &call : prog.calls) {
        for (const int id : resolveCall(prog, call)) {
            edges << "  "
                  << prog.symbols[static_cast<std::size_t>(
                                      call.caller)]
                         .qualified
                  << " -> "
                  << prog.symbols[static_cast<std::size_t>(id)]
                         .qualified
                  << "  (" << call.file << ":" << call.line << ")\n";
            ++edgeCount;
        }
    }
    out << "callgraph: " << prog.symbols.size() << " nodes, "
        << edgeCount << " resolved edges, " << wa.roots.size()
        << " worker roots, " << wa.reachable.size()
        << " worker-reachable\n";
    for (const int r : wa.roots)
        out << "  worker root: "
            << prog.symbols[static_cast<std::size_t>(r)].qualified
            << "  ("
            << prog.symbols[static_cast<std::size_t>(r)].file << ":"
            << prog.symbols[static_cast<std::size_t>(r)].line << ")\n";
    out << edges.str();
    return out.str();
}

} // namespace lint
} // namespace rsin
