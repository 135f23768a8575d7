"""Pure-Python structural frontend for bcanalyze.

Builds the ir.py program IR from C++ sources without libclang: a
recursive scan over the token stream tracking namespaces, classes,
typedef/using aliases, function definitions, and — inside function
bodies — declarations, call sites (with receivers), comparison
operators, and a statement tree for dominance reasoning.

It is a *structural* parser, not a conforming one: it understands the
shapes this codebase actually uses (see tests under
tools/bcanalyze/fixtures/, which pin its behaviour).  On CI the libclang
frontend (frontend_clang.py) produces the same IR from the real AST; the
checker layer cannot tell the two apart.
"""

import os

from lexer import tokenize, match_brace, text_of
import ir

_STMT_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "default",
    "return", "break", "continue", "goto", "try", "catch", "throw",
    "new", "delete", "using", "typedef", "template", "friend", "public",
    "private", "protected", "operator", "sizeof", "alignof", "decltype",
    "static_assert", "co_return", "co_await", "co_yield", "namespace",
    "struct", "class", "enum", "union", "this",
}
_CAST_KEYWORDS = {"static_cast", "dynamic_cast", "const_cast",
                  "reinterpret_cast"}
_TYPE_QUALIFIERS = {"const", "constexpr", "consteval", "constinit",
                    "volatile", "static", "inline", "mutable", "extern",
                    "thread_local", "register", "typename", "unsigned",
                    "signed", "long", "short", "explicit", "virtual"}
_RELOPS = {"<", "<=", ">", ">=", "==", "!="}


def _skip_template_args(tokens, i):
    """tokens[i] == '<'; returns index just past the matching '>'.
    Returns i (unchanged) if this does not look like template args."""
    depth = 0
    j = i
    while j < len(tokens):
        t = tokens[j].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return j + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return j + 1
        elif t in (";", "{", "}") or tokens[j].kind == "str":
            return i  # not a template argument list
        j += 1
    return i


def _parse_type(tokens, i):
    """Try to read a type at tokens[i].  Returns (type_text, next_index)
    or (None, i).  A type is qualifier* id(::id)*(<args>)? [*&]*."""
    j = i
    words = []
    while j < len(tokens) and tokens[j].text in _TYPE_QUALIFIERS:
        if tokens[j].text not in ("inline", "extern", "explicit", "virtual",
                                  "typename"):
            words.append(tokens[j].text)
        j += 1
    if j >= len(tokens) or tokens[j].kind != "id" or \
            tokens[j].text in _STMT_KEYWORDS or \
            tokens[j].text in _CAST_KEYWORDS:
        # allow builtin combos like "unsigned" alone
        if words and any(w in ("unsigned", "signed", "long", "short")
                         for w in words):
            return " ".join(words), j
        return None, i
    chain = [tokens[j].text]
    j += 1
    while j + 1 < len(tokens) and tokens[j].text == "::" and \
            tokens[j + 1].kind == "id":
        chain.append("::")
        chain.append(tokens[j + 1].text)
        j += 2
    if j < len(tokens) and tokens[j].text == "<":
        end = _skip_template_args(tokens, j)
        if end != j:
            chain.append(text_of(tokens[j:end]))
            j = end
            # templated qualified: std::vector<T>::size_type
            while j + 1 < len(tokens) and tokens[j].text == "::" and \
                    tokens[j + 1].kind == "id":
                chain.append("::")
                chain.append(tokens[j + 1].text)
                j += 2
    while j < len(tokens) and tokens[j].text in ("*", "&", "&&", "const"):
        chain.append(tokens[j].text)
        j += 1
    words.append("".join(c if c in ("::",) else c + " " for c in chain).strip())
    return " ".join(words), j


def _try_parse_decl(tokens, aliases_hint=None):
    """Parse `TYPE NAME [= init | { init } | ( init )] [, ...] ;` from a
    plain-statement token slice.  Returns list[ir.Decl] (usually 0/1)."""
    if not tokens:
        return []
    i = 0
    is_static = False
    while i < len(tokens) and tokens[i].text in ("static", "inline",
                                                 "constexpr", "extern",
                                                 "thread_local", "friend"):
        if tokens[i].text == "static":
            is_static = True
        if tokens[i].text == "friend":
            return []
        i += 1
    if i < len(tokens) and tokens[i].text in _STMT_KEYWORDS and \
            tokens[i].text != "this":
        if tokens[i].text not in ("struct", "class"):  # elaborated type ok
            return []
        i += 1
    type_text, j = _parse_type(tokens, i)
    if type_text is None or j >= len(tokens):
        return []
    if tokens[j].kind != "id" or tokens[j].text in _STMT_KEYWORDS:
        return []
    name = tokens[j].text
    line = tokens[j].line
    k = j + 1
    if k >= len(tokens):
        init = ""
    elif tokens[k].text in ("=", "{", "("):
        opener = tokens[k].text
        if opener == "=":
            init = text_of(tokens[k + 1:]).rstrip("; ")
        else:
            close = match_brace(tokens, k)
            init = text_of(tokens[k + 1:close])
            # `NAME ( ... )` with a type present is a constructor-style
            # init; without a clear type it was probably a call, but
            # _parse_type already required a type before NAME.
    elif tokens[k].text in (";", ","):
        init = ""
    elif tokens[k].text == "[":  # array declarator
        init = ""
    else:
        return []
    return [ir.Decl(name=name, type_text=type_text, canon_type="",
                    line=line, is_static=is_static, init_text=init)]


def _split_top_commas(tokens):
    parts = []
    depth = 0
    cur = []
    for t in tokens:
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
        elif t.text == "<":
            depth += 1
        elif t.text == ">":
            depth = max(0, depth - 1)
        elif t.text == ">>":
            depth = max(0, depth - 2)
        if t.text == "," and depth == 0:
            parts.append(cur)
            cur = []
        else:
            cur.append(t)
    if cur:
        parts.append(cur)
    return parts


def _parse_params(tokens):
    """Parameter list tokens (without outer parens) -> list[ir.Decl]."""
    params = []
    if not tokens or (len(tokens) == 1 and tokens[0].text == "void"):
        return params
    for part in _split_top_commas(tokens):
        if not part or part[0].text == "...":
            continue
        # strip default argument
        for idx, t in enumerate(part):
            if t.text == "=":
                part = part[:idx]
                break
        type_text, j = _parse_type(part, 0)
        if type_text is None:
            continue
        if j < len(part) and part[j].kind == "id":
            params.append(ir.Decl(name=part[j].text, type_text=type_text,
                                  canon_type="", line=part[j].line))
        else:
            params.append(ir.Decl(name="", type_text=type_text,
                                  canon_type="", line=part[0].line))
    return params


def _receiver_of(tokens, i):
    """tokens[i] is the first token of the callee chain; if it is preceded
    by . or ->, walk the postfix expression backwards and return its loose
    text (root object first)."""
    j = i - 1
    if j < 0 or tokens[j].text not in (".", "->"):
        return ""
    parts = []
    while j >= 0 and tokens[j].text in (".", "->"):
        parts.append(tokens[j].text)
        j -= 1
        if j >= 0 and tokens[j].text in (")", "]"):
            # skip a balanced group backwards
            closer = tokens[j].text
            opener = "(" if closer == ")" else "["
            depth = 0
            while j >= 0:
                if tokens[j].text == closer:
                    depth += 1
                elif tokens[j].text == opener:
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            parts.append("()" if closer == ")" else "[]")
            j -= 1
        if j >= 0 and tokens[j].kind == "id":
            chain = [tokens[j].text]
            j -= 1
            while j >= 1 and tokens[j].text == "::" and \
                    tokens[j - 1].kind == "id":
                chain.append("::")
                chain.append(tokens[j - 1].text)
                j -= 2
            parts.append("".join(reversed(chain)))
        elif j >= 0 and tokens[j].text == "this":
            parts.append("this")
            j -= 1
        else:
            break
    text = "".join(reversed(parts))
    return text.rstrip(".").rstrip("->")


def _scan_expressions(tokens, fn):
    """Populate fn.calls, fn.compares, fn.news from a body token slice."""
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.text == "new" and t.kind == "id":
            fn.news.append(t.line)
            continue
        if t.text == "[" and i > 0 and tokens[i - 1].kind == "id" and \
                tokens[i - 1].text not in _STMT_KEYWORDS:
            # `id[...]` is a call to id's operator[]; on a node-based map
            # that inserts a missing key, so the checkers must see it.
            obj = _receiver_of(tokens, i - 1)
            name = tokens[i - 1].text
            close = match_brace(tokens, i)
            fn.calls.append(ir.Call(
                callee="operator[]",
                receiver=f"{obj}.{name}" if obj and obj != "this" else name,
                line=t.line, args_text=text_of(tokens[i + 1:close])))
            continue
        if t.text == "(" and i > 0:
            # callee chain ends at tokens[i-1]
            j = i - 1
            if tokens[j].text == ">":
                # skip template args backwards: find matching '<'
                depth = 0
                while j >= 0:
                    if tokens[j].text in (">", ">>"):
                        depth += 2 if tokens[j].text == ">>" else 1
                    elif tokens[j].text == "<":
                        depth -= 1
                        if depth <= 0:
                            break
                    j -= 1
                j -= 1
            if j < 0 or tokens[j].kind != "id":
                continue
            if tokens[j].text in _STMT_KEYWORDS or \
                    tokens[j].text in _CAST_KEYWORDS:
                continue
            chain = [tokens[j].text]
            start = j
            while start >= 2 and tokens[start - 1].text == "::" and \
                    tokens[start - 2].kind == "id":
                chain.append("::")
                chain.append(tokens[start - 2].text)
                start -= 2
            callee = "".join(reversed(chain))
            receiver = _receiver_of(tokens, start)
            close = match_brace(tokens, i)
            args = text_of(tokens[i + 1:close])
            fn.calls.append(ir.Call(callee=callee, receiver=receiver,
                                    line=t.line, args_text=args))
            continue
        if t.text in _RELOPS and t.kind == "punct":
            lhs = _operand_text(tokens, i, -1)
            rhs = _operand_text(tokens, i, +1)
            if lhs and rhs:
                fn.compares.append(ir.Compare(op=t.text, line=t.line,
                                              lhs_text=lhs, rhs_text=rhs))


def _operand_text(tokens, i, direction):
    """Loose text of the comparison operand next to tokens[i].  Collects a
    postfix chain of ids joined by ./->/:: (plus trailing calls/indexing
    collapsed); returns "" when the neighbour is not operand-ish."""
    if direction < 0:
        j = i - 1
        if j < 0:
            return ""
        if tokens[j].text in (")", "]"):
            return ""  # parenthesised / indexed lhs: give up, stay precise
        if tokens[j].kind not in ("id", "num"):
            return ""
        if tokens[j].kind == "num":
            return tokens[j].text
        chain = [tokens[j].text]
        j -= 1
        while j >= 1 and tokens[j].text in (".", "->", "::") and \
                tokens[j - 1].kind == "id":
            chain.append(tokens[j].text)
            chain.append(tokens[j - 1].text)
            j -= 2
        return "".join(reversed(chain))
    j = i + 1
    if j >= len(tokens):
        return ""
    if tokens[j].kind == "num":
        return tokens[j].text
    if tokens[j].kind != "id" or tokens[j].text in _STMT_KEYWORDS:
        return ""
    chain = [tokens[j].text]
    j += 1
    while j + 1 < len(tokens) and tokens[j].text in (".", "->", "::") and \
            tokens[j + 1].kind == "id":
        chain.append(tokens[j].text)
        chain.append(tokens[j + 1].text)
        j += 2
    if j < len(tokens) and tokens[j].text in ("(", "["):
        return ""  # call / index result: type unknowable here
    return "".join(chain)


_WIRE_READERS = {"get_u8", "get_u16", "get_u32", "get_u64"}


def _reads_in(tokens):
    """Offset-advancing wire reads in a token slice: util::get_uN(...)
    calls and `ident [ ... ]` subscripts followed by ++ inside (heuristic:
    any subscript whose index expression mentions an offset identifier)."""
    reads = []
    for i, t in enumerate(tokens):
        if t.kind == "id" and t.text in _WIRE_READERS and \
                i + 1 < len(tokens) and tokens[i + 1].text == "(":
            close = match_brace(tokens, i + 1)
            reads.append(ir.Call(callee=t.text, receiver="", line=t.line,
                                 args_text=text_of(tokens[i + 2:close])))
        elif t.text == "[" and i > 0 and tokens[i - 1].kind == "id":
            close = match_brace(tokens, i)
            idx = text_of(tokens[i + 1:close])
            if "off" in idx or "pos" in idx or "++" in idx:
                reads.append(ir.Call(callee="subscript",
                                     receiver=tokens[i - 1].text,
                                     line=t.line, args_text=idx))
    return reads


def _parse_stmt_tree(tokens):
    """Build the ir.Stmt tree for a function body token slice."""
    block = ir.Stmt(kind="block",
                    line=tokens[0].line if tokens else 0)
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.text == "{":
            close = match_brace(tokens, i)
            block.children.append(_parse_stmt_tree(tokens[i + 1:close]))
            i = close + 1
        elif t.text == "if":
            # optional: if constexpr
            j = i + 1
            if j < n and tokens[j].text == "constexpr":
                j += 1
            if j >= n or tokens[j].text != "(":
                i += 1
                continue
            cclose = match_brace(tokens, j)
            cond = tokens[j + 1:cclose]
            node = ir.Stmt(kind="if", line=t.line, cond_text=text_of(cond),
                           reads=_reads_in(cond))
            then_node, i2 = _parse_one_stmt(tokens, cclose + 1)
            node.children.append(then_node)
            if i2 < n and tokens[i2].text == "else":
                else_node, i2 = _parse_one_stmt(tokens, i2 + 1)
                node.children.append(else_node)
            block.children.append(node)
            i = i2
        elif t.text in ("for", "while", "switch"):
            j = i + 1
            if j >= n or tokens[j].text != "(":
                i += 1
                continue
            cclose = match_brace(tokens, j)
            hdr = tokens[j + 1:cclose]
            node = ir.Stmt(kind="loop", line=t.line, cond_text=text_of(hdr),
                           reads=_reads_in(hdr))
            body_node, i2 = _parse_one_stmt(tokens, cclose + 1)
            node.children.append(body_node)
            block.children.append(node)
            i = i2
        elif t.text == "do":
            body_node, i2 = _parse_one_stmt(tokens, i + 1)
            node = ir.Stmt(kind="loop", line=t.line)
            node.children.append(body_node)
            # skip `while ( ... ) ;`
            while i2 < n and tokens[i2].text != ";":
                i2 += 1
            block.children.append(node)
            i = i2 + 1
        elif t.text in ("return", "throw", "break", "continue", "goto"):
            j = i
            while j < n and tokens[j].text != ";":
                j += 1
            node = ir.Stmt(kind="return", line=t.line,
                           reads=_reads_in(tokens[i:j]), exits=True)
            block.children.append(node)
            i = j + 1
        elif t.text == "else":  # orphaned (shouldn't happen); skip
            i += 1
        else:
            j = i
            depth = 0
            while j < n:
                tj = tokens[j].text
                if tj in ("(", "[", "{"):
                    depth += 1
                elif tj in (")", "]", "}"):
                    depth -= 1
                elif tj == ";" and depth == 0:
                    break
                j += 1
            node = ir.Stmt(kind="stmt", line=t.line,
                           reads=_reads_in(tokens[i:j]))
            block.children.append(node)
            i = j + 1
    return block


def _parse_one_stmt(tokens, i):
    """Parse a single statement (the body of an if/loop) starting at i.
    Returns (Stmt, next_index)."""
    n = len(tokens)
    if i >= n:
        return ir.Stmt(kind="block", line=0), i
    t = tokens[i]
    if t.text == "{":
        close = match_brace(tokens, i)
        return _parse_stmt_tree(tokens[i + 1:close]), close + 1
    # single statement: delegate to the block parser over a bounded slice.
    if t.text in ("if", "for", "while", "switch", "do"):
        # find the end: parse greedily via the block parser on the rest,
        # then take its first child.  Cheap but correct for our shapes.
        sub = _parse_stmt_tree(tokens[i:])
        first = sub.children[0] if sub.children else ir.Stmt("block", t.line)
        end = _end_of_compound(tokens, i)
        return first, end
    j = i
    depth = 0
    while j < n:
        tj = tokens[j].text
        if tj in ("(", "[", "{"):
            depth += 1
        elif tj in (")", "]", "}"):
            depth -= 1
        elif tj == ";" and depth == 0:
            break
        j += 1
    kind = "return" if t.text in ("return", "throw", "break", "continue",
                                  "goto") else "stmt"
    return ir.Stmt(kind=kind, line=t.line, reads=_reads_in(tokens[i:j]),
                   exits=(kind == "return")), j + 1


def _end_of_compound(tokens, i):
    """Index just past the compound statement starting at tokens[i]
    (an if/for/while/switch/do with arbitrary nesting)."""
    n = len(tokens)
    t = tokens[i].text
    if t == "do":
        end = _end_of_compound(tokens, i + 1) if i + 1 < n else n
        while end < n and tokens[end].text != ";":
            end += 1
        return end + 1
    j = i + 1
    if j < n and tokens[j].text == "constexpr":
        j += 1
    if j < n and tokens[j].text == "(":
        j = match_brace(tokens, j) + 1
    if j < n and tokens[j].text == "{":
        j = match_brace(tokens, j) + 1
    elif j < n and tokens[j].text in ("if", "for", "while", "switch", "do"):
        j = _end_of_compound(tokens, j)
    else:
        while j < n and tokens[j].text != ";":
            j += 1
        j += 1
    if t == "if" and j < n and tokens[j].text == "else":
        j += 1
        if j < n and tokens[j].text == "{":
            j = match_brace(tokens, j) + 1
        elif j < n and tokens[j].text in ("if", "for", "while", "switch"):
            j = _end_of_compound(tokens, j)
        else:
            while j < n and tokens[j].text != ";":
                j += 1
            j += 1
    return j


_CONTROL_STARTS = {"if", "else", "for", "while", "do", "switch", "try",
                   "catch", "case", "default"}


def _collect_locals(tokens, fn):
    """Split a body into plain statements at every depth and try_parse_decl
    each; also harvest function-local using-aliases into fn_aliases.

    A `{` opens a nested *block* only at a statement boundary or after a
    control keyword; mid-statement braces (lambda bodies, braced
    initialisers) stay part of the statement so `auto have = [&](n)
    { ... };` parses as one declaration whose init_text carries the
    lambda body."""
    fn_aliases = {}
    i = 0
    n = len(tokens)
    start = 0
    depth = 0
    while i < n:
        t = tokens[i].text
        if t in ("(", "["):
            depth += 1
        elif t in (")", "]"):
            depth -= 1
        elif t == "{":
            stmt_so_far = tokens[start:i]
            is_block = (not stmt_so_far or
                        stmt_so_far[0].text in _CONTROL_STARTS)
            close = match_brace(tokens, i)
            sub_aliases = _collect_locals(tokens[i + 1:close], fn)
            fn_aliases.update(sub_aliases)
            if is_block:
                i = close
                start = i + 1
                depth = 0
            else:
                i = close  # braces belong to the pending statement
        elif t == ";" and depth == 0:
            stmt = tokens[start:i]
            if stmt and stmt[0].text == "using" and len(stmt) >= 4 and \
                    stmt[2].text == "=":
                fn_aliases[stmt[1].text] = text_of(stmt[3:])
            elif stmt and stmt[0].text == "for":
                pass  # range-for inits handled loosely below
            else:
                for d in _try_parse_decl(stmt):
                    fn.locals.append(d)
            start = i + 1
        i += 1
    return fn_aliases


class _Parser:
    def __init__(self, path, text):
        self.path = path
        self.tokens = tokenize(text)
        self.fir = ir.FileIR(path=path, raw_lines=text.splitlines())
        self._pending_tparams = []

    def parse(self):
        self._scope(0, len(self.tokens), [], "")
        return self.fir

    # -- top-level / namespace / class scope scanning -------------------

    def _scope(self, lo, hi, ns, cls):
        i = lo
        toks = self.tokens
        while i < hi:
            t = toks[i]
            tx = t.text
            if tx == "namespace":
                j = i + 1
                names = []
                while j < hi and toks[j].kind == "id":
                    names.append(toks[j].text)
                    j += 1
                    if j < hi and toks[j].text == "::":
                        j += 1
                if j < hi and toks[j].text == "{":
                    close = match_brace(toks, j)
                    self._scope(j + 1, close, ns + names, cls)
                    i = close + 1
                else:  # using-directive or alias; skip to ;
                    while i < hi and toks[i].text != ";":
                        i += 1
                    i += 1
                continue
            if tx == "template":
                j = i + 1
                if j < hi and toks[j].text == "<":
                    depth = 0
                    start = j
                    while j < hi:
                        if toks[j].text == "<":
                            depth += 1
                        elif toks[j].text == ">":
                            depth -= 1
                            if depth == 0:
                                break
                        elif toks[j].text == ">>":
                            depth -= 2
                            if depth <= 0:
                                break
                        j += 1
                    # remember `typename T` / `class T` names so the
                    # entity that follows can shield them from project
                    # alias resolution (a template param named like a
                    # using-alias elsewhere must not resolve to it)
                    self._pending_tparams = []
                    for m in range(start, min(j, hi) - 1):
                        if toks[m].text in ("typename", "class") and \
                                toks[m + 1].kind == "id":
                            self._pending_tparams.append(toks[m + 1].text)
                    i = j + 1
                else:
                    i += 1
                continue
            if tx == "using":
                if i + 2 < hi and toks[i + 2].text == "=":
                    j = i + 3
                    start = j
                    while j < hi and toks[j].text != ";":
                        j += 1
                    self.fir.aliases[toks[i + 1].text] = \
                        text_of(toks[start:j])
                    i = j + 1
                else:  # using-declaration
                    while i < hi and toks[i].text != ";":
                        i += 1
                    i += 1
                continue
            if tx == "typedef":
                j = i + 1
                while j < hi and toks[j].text != ";":
                    j += 1
                if j - 1 > i + 1 and toks[j - 1].kind == "id":
                    self.fir.aliases[toks[j - 1].text] = \
                        text_of(toks[i + 1:j - 1])
                i = j + 1
                continue
            if tx in ("struct", "class") and i + 1 < hi and \
                    toks[i + 1].kind == "id":
                name = toks[i + 1].text
                j = i + 2
                while j < hi and toks[j].text not in ("{", ";"):
                    j += 1
                if j < hi and toks[j].text == "{":
                    close = match_brace(toks, j)
                    self._pending_tparams = []
                    self._struct_body(j + 1, close, ns, cls, name,
                                      toks[i + 1].line)
                    i = close + 1
                    # skip trailing `;` / variable declarators
                    while i < hi and toks[i].text != ";":
                        i += 1
                    i += 1
                else:
                    i = j + 1
                continue
            if tx == "enum":
                j = i + 1
                while j < hi and toks[j].text not in ("{", ";"):
                    j += 1
                if j < hi and toks[j].text == "{":
                    j = match_brace(toks, j)
                while j < hi and toks[j].text != ";":
                    j += 1
                i = j + 1
                continue
            if tx == "(":
                fn_end = self._try_function(i, hi, ns, cls)
                if fn_end is not None:
                    i = fn_end
                    continue
                i = match_brace(toks, i) + 1
                continue
            if tx == "{":
                i = match_brace(toks, i) + 1
                continue
            i += 1

    def _struct_body(self, lo, hi, ns, outer_cls, name, line):
        qual = "::".join(ns + ([outer_cls] if outer_cls else []) + [name])
        st = ir.Struct(name=name, qualname=qual, path=self.path, line=line)
        self.fir.structs.append(st)
        # scan members: reuse _scope for methods/nested types, plus a
        # member-decl pass over depth-0 plain statements.
        cls_name = name
        self._scope(lo, hi, ns, cls_name)
        i = lo
        toks = self.tokens
        start = lo
        while i < hi:
            tx = toks[i].text
            if tx in ("{", "("):
                i = match_brace(toks, i)
                # a brace body ends a member-function definition: reset
                if toks[i].text == "}" if i < hi else False:
                    start = i + 1
            elif tx == ":" and i + 1 < hi and \
                    toks[i - 1].text in ("public", "private", "protected"):
                start = i + 1
            elif tx == ";":
                stmt = toks[start:i]
                # drop statements containing parens (methods, using, etc.)
                if stmt and not any(s.text in ("(", ")") for s in stmt) and \
                        stmt[0].text not in ("using", "typedef", "friend",
                                             "struct", "class", "enum",
                                             "public", "private",
                                             "protected", "static_assert"):
                    for d in _try_parse_decl(stmt):
                        st.members.append(d)
                start = i + 1
            i += 1

    # -- function definitions -------------------------------------------

    def _try_function(self, paren_i, hi, ns, cls):
        """toks[paren_i] == '('.  If this opens a function definition,
        build its IR and return the index just past the body; else None."""
        toks = self.tokens
        # name chain walking back from the paren
        j = paren_i - 1
        if j < 0:
            return None
        if toks[j].kind != "id" or toks[j].text in _STMT_KEYWORDS or \
                toks[j].text in _CAST_KEYWORDS:
            return None
        chain = [toks[j].text]
        start = j
        while start >= 2 and toks[start - 1].text == "::" and \
                toks[start - 2].kind == "id":
            chain.append(toks[start - 2].text)
            start -= 2
        chain.reverse()
        pclose = match_brace(toks, paren_i)
        if pclose >= hi:
            return None
        # qualifier run after the params
        k = pclose + 1
        saw_arrow = False
        while k < hi:
            tk = toks[k].text
            if tk in ("const", "noexcept", "override", "final", "mutable",
                      "&", "&&"):
                k += 1
            elif tk.startswith("BC_") and k + 1 < hi and \
                    toks[k + 1].text == "(":
                k = match_brace(toks, k + 1) + 1
            elif tk.startswith("BC_"):
                k += 1
            elif tk == "->":
                saw_arrow = True
                k += 1
            elif saw_arrow and (toks[k].kind == "id" or tk in ("::", "<",
                                                              ">", "*",
                                                              "&")):
                k += 1
            elif tk == "[" and k + 1 < hi and toks[k + 1].text == "[":
                k = match_brace(toks, k) + 1
            else:
                break
        body_open = None
        if k < hi and toks[k].text == "{":
            body_open = k
        elif k < hi and toks[k].text == ":":
            # Constructor init list: `: name_(args), name_{args}, ... {body}`.
            # Scan forward skipping balanced groups.  A `{...}` group
            # followed by `,` is an init item; followed by `{` it was the
            # last init item and the body comes next; followed by anything
            # else the group itself was the body.
            m = k + 1
            while m < hi and body_open is None:
                tm = toks[m].text
                if tm == "(":
                    m = match_brace(toks, m) + 1
                elif tm == "<":
                    m2 = _skip_template_args(toks, m)
                    m = m2 if m2 != m else m + 1
                elif tm == "{":
                    close = match_brace(toks, m)
                    nxt = close + 1
                    if nxt < hi and toks[nxt].text == ",":
                        m = nxt + 1
                    elif nxt < hi and toks[nxt].text == "{":
                        body_open = nxt
                    else:
                        body_open = m
                elif tm == ";":
                    break
                else:
                    m += 1
        elif k < hi and toks[k].text in (";", "=", ","):
            return None  # declaration / deleted / defaulted / init
        if body_open is None:
            return None
        body_close = match_brace(toks, body_open)
        # assemble
        name = chain[-1]
        if name in ("if", "for", "while", "switch", "return"):
            return None
        fn_cls = cls
        if len(chain) >= 2 and not cls:
            fn_cls = chain[-2]
        qual = "::".join(ns + ([fn_cls] if fn_cls else []) + [name])
        fn = ir.Function(name=name, qualname=qual, path=self.path,
                         line=toks[start].line,
                         end_line=toks[body_close].line
                         if body_close < len(toks) else toks[-1].line,
                         cls=fn_cls, tparams=self._pending_tparams)
        self._pending_tparams = []
        fn.params = _parse_params(toks[paren_i + 1:pclose])
        body = toks[body_open + 1:body_close]
        fn_aliases = _collect_locals(body, fn)
        _scan_expressions(body, fn)
        fn.body = _parse_stmt_tree(body)
        self.fir.functions.append(fn)
        # harvest a stats_fields field table
        if name == "stats_fields":
            self._field_table(fn, body, fn_aliases)
        # function-local aliases participate in file-level resolution too
        # (named uniquely enough in practice; S is filtered below)
        for k2, v in fn_aliases.items():
            if len(k2) > 1:
                self.fir.aliases.setdefault(k2, v)
        return body_close + 1

    def _field_table(self, fn, body, fn_aliases):
        if not fn.params:
            return
        ptype = fn.params[0].type_text
        struct_name = ptype.replace("*", " ").replace("const", " ")
        struct_name = struct_name.split("<")[0].split("::")[-1].strip()
        table = ir.FieldTable(struct_name=struct_name, path=self.path,
                              line=fn.line)
        i = 0
        n = len(body)
        while i < n:
            # pattern: { "name" , & S :: member }
            if body[i].text == "{" and i + 1 < n and \
                    body[i + 1].kind == "str":
                close = match_brace(body, i)
                inner = body[i + 1:close]
                if len(inner) >= 5 and inner[1].text == "," and \
                        inner[2].text == "&" and inner[3].kind == "id":
                    member = None
                    if len(inner) >= 6 and inner[4].text == "::" and \
                            inner[5].kind == "id":
                        member = inner[5].text
                    if member:
                        display = inner[0].text.strip('"')
                        table.entries.append(ir.FieldTableEntry(
                            display=display, member=member,
                            line=inner[0].line))
                i = close + 1
                continue
            i += 1
        if table.entries:
            self.fir.field_tables.append(table)


def load_file(path, repo_rel=None, text=None):
    if text is None:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    return _Parser(repo_rel or path, text).parse()


def load(paths, root):
    proj = ir.ProjectIR(frontend="fallback")
    for p in sorted(paths):
        rel = os.path.relpath(p, root) if os.path.isabs(p) else p
        proj.files.append(load_file(os.path.join(root, rel)
                                    if not os.path.isabs(p) else p,
                                    repo_rel=rel))
    return proj
