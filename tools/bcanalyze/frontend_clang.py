"""libclang (clang.cindex) frontend for bcanalyze.

Produces the same ir.py IR as frontend_fallback.py, but from the real
AST: canonical types come from the type system instead of alias-chasing,
call receivers from MEMBER_REF_EXPR bases (the subscripted object for an
operator[] call), and the statement tree from real
IfStmt/ForStmt/WhileStmt/ReturnStmt cursors.  Compilation flags are
taken from compile_commands.json (CMake exports it by default in this
repo — see CMAKE_EXPORT_COMPILE_COMMANDS in the top-level
CMakeLists.txt).

This frontend is optional by design: the container this repo grows in
has no libclang, so `available()` gates it and the CLI falls back to the
structural frontend.  CI installs a pinned libclang wheel (see
.github/workflows/ci.yml, job `analyze`) and runs both frontends; the
checker layer cannot tell them apart.
"""

import os

import ir


def available():
    try:
        import clang.cindex  # noqa: F401
    except ImportError:
        return False
    try:
        clang.cindex.Index.create()
    except Exception:
        return False
    return True


def _canon(cursor_type):
    try:
        return cursor_type.get_canonical().spelling.replace(" ", "")
    except Exception:
        return ""


def _tokens_text(cursor):
    try:
        return " ".join(t.spelling for t in cursor.get_tokens())
    except Exception:
        return ""


def _in_file(cursor, abspath):
    loc = cursor.location
    return loc.file is not None and \
        os.path.realpath(loc.file.name) == abspath


def load(paths, root, compile_commands=None):
    """paths: repo-relative files to analyze.  TUs are parsed from
    compile_commands entries; headers are covered by visiting every TU
    and attributing cursors to the header files they live in."""
    import clang.cindex as ci

    proj = ir.ProjectIR(frontend="clang")
    index = ci.Index.create()
    wanted = {os.path.realpath(os.path.join(root, p)): p for p in paths}
    fir_by_real = {}
    for real, rel in wanted.items():
        with open(real, encoding="utf-8", errors="replace") as f:
            raw = f.read().splitlines()
        fir = ir.FileIR(path=rel, raw_lines=raw)
        fir_by_real[real] = fir
        proj.files.append(fir)

    ccdb = None
    if compile_commands:
        ccdb = ci.CompilationDatabase.fromDirectory(
            os.path.dirname(os.path.abspath(compile_commands)))

    tus = []
    for real, rel in wanted.items():
        if not real.endswith(".cc"):
            continue
        args = ["-std=c++20", f"-I{os.path.join(root, 'src')}"]
        if ccdb is not None:
            cmds = ccdb.getCompileCommands(real)
            if cmds:
                raw_args = list(cmds[0].arguments)[1:]
                args = [a for a in raw_args
                        if a not in ("-c", "-o") and not a.endswith(".o")
                        and not a.endswith(".cc")]
        tus.append(index.parse(real, args=args))

    visited_functions = set()
    for tu in tus:
        _visit_tu(tu.cursor, fir_by_real, visited_functions)
    return proj


def _visit_tu(cursor, fir_by_real, visited):
    import clang.cindex as ci
    K = ci.CursorKind
    for c in cursor.walk_preorder():
        loc = c.location
        if loc.file is None:
            continue
        real = os.path.realpath(loc.file.name)
        fir = fir_by_real.get(real)
        if fir is None:
            continue
        if c.kind in (K.FUNCTION_DECL, K.CXX_METHOD, K.CONSTRUCTOR,
                      K.DESTRUCTOR) and c.is_definition():
            key = (fir.path, c.spelling, loc.line)
            if key in visited:
                continue
            visited.add(key)
            fir.functions.append(_function_ir(c, fir.path))
        elif c.kind in (K.STRUCT_DECL, K.CLASS_DECL) and c.is_definition():
            st = ir.Struct(name=c.spelling,
                           qualname=_qualname(c), path=fir.path,
                           line=loc.line)
            for ch in c.get_children():
                if ch.kind == K.FIELD_DECL:
                    st.members.append(ir.Decl(
                        name=ch.spelling,
                        type_text=ch.type.spelling,
                        canon_type=_canon(ch.type),
                        line=ch.location.line))
                elif ch.kind == K.VAR_DECL:  # static data member
                    st.members.append(ir.Decl(
                        name=ch.spelling, type_text=ch.type.spelling,
                        canon_type=_canon(ch.type),
                        line=ch.location.line, is_static=True))
            if not any(s.name == st.name and s.line == st.line
                       for s in fir.structs):
                fir.structs.append(st)
        elif c.kind in (K.TYPE_ALIAS_DECL, K.TYPEDEF_DECL):
            try:
                fir.aliases[c.spelling] = \
                    c.underlying_typedef_type.spelling
            except Exception:
                pass


def _qualname(cursor):
    parts = []
    c = cursor
    while c is not None and c.spelling:
        parts.append(c.spelling)
        c = c.semantic_parent
        if c is not None and c.kind.name == "TRANSLATION_UNIT":
            break
    return "::".join(reversed(parts))


def _function_ir(cursor, path):
    import clang.cindex as ci
    K = ci.CursorKind
    extent = cursor.extent
    fn = ir.Function(
        name=cursor.spelling, qualname=_qualname(cursor), path=path,
        line=extent.start.line, end_line=extent.end.line,
        cls=cursor.semantic_parent.spelling
        if cursor.semantic_parent is not None and
        cursor.semantic_parent.kind in (K.STRUCT_DECL, K.CLASS_DECL)
        else "")
    for arg in cursor.get_arguments():
        fn.params.append(ir.Decl(name=arg.spelling,
                                 type_text=arg.type.spelling,
                                 canon_type=_canon(arg.type),
                                 line=arg.location.line))
    body = None
    for ch in cursor.get_children():
        if ch.kind == K.COMPOUND_STMT:
            body = ch
    if body is None:
        return fn
    for c in body.walk_preorder():
        line = c.location.line
        if c.kind == K.VAR_DECL:
            init = ""
            for ch in c.get_children():
                init = _tokens_text(ch)
            fn.locals.append(ir.Decl(name=c.spelling,
                                     type_text=c.type.spelling,
                                     canon_type=_canon(c.type),
                                     line=line, init_text=init))
        elif c.kind == K.CXX_NEW_EXPR:
            fn.news.append(line)
        elif c.kind in (K.CALL_EXPR,):
            callee = c.spelling or ""
            receiver = ""
            kids = list(c.get_children())
            if callee == "operator[]" and kids:
                # m[k]: the object being subscripted is the first child.
                receiver = _tokens_text(kids[0]).replace(" ", "")
            elif kids and kids[0].kind == K.MEMBER_REF_EXPR:
                base = list(kids[0].get_children())
                if base:
                    receiver = _tokens_text(base[0]).replace(" ", "")
            if callee:
                fn.calls.append(ir.Call(callee=callee, receiver=receiver,
                                        line=line,
                                        args_text=_tokens_text(c)))
        elif c.kind == K.BINARY_OPERATOR:
            toks = [t.spelling for t in c.get_tokens()]
            op = next((t for t in toks
                       if t in ("<", "<=", ">", ">=", "==", "!=")), None)
            if op:
                kids = list(c.get_children())
                if len(kids) == 2:
                    fn.compares.append(ir.Compare(
                        op=op, line=line,
                        lhs_text=_tokens_text(kids[0]).replace(" ", ""),
                        rhs_text=_tokens_text(kids[1]).replace(" ", ""),
                        lhs_type=_canon(kids[0].type),
                        rhs_type=_canon(kids[1].type)))
    fn.body = _stmt_tree(body)
    return fn


def _stmt_tree(cursor):
    import clang.cindex as ci
    K = ci.CursorKind
    kind_map = {
        K.IF_STMT: "if",
        K.FOR_STMT: "loop", K.WHILE_STMT: "loop", K.DO_STMT: "loop",
        K.CXX_FOR_RANGE_STMT: "loop", K.SWITCH_STMT: "loop",
        K.RETURN_STMT: "return",
    }

    def reads_of(c):
        reads = []
        for ch in c.walk_preorder():
            if ch.kind == K.CALL_EXPR and \
                    ch.spelling in ("get_u8", "get_u16", "get_u32",
                                    "get_u64"):
                reads.append(ir.Call(callee=ch.spelling, receiver="",
                                     line=ch.location.line,
                                     args_text=_tokens_text(ch)))
        return reads

    def build(c):
        k = kind_map.get(c.kind)
        if c.kind == K.COMPOUND_STMT:
            node = ir.Stmt(kind="block", line=c.location.line)
            for ch in c.get_children():
                node.children.append(build(ch))
            return node
        if k == "if":
            kids = list(c.get_children())
            cond = kids[0] if kids else None
            node = ir.Stmt(kind="if", line=c.location.line,
                           cond_text=_tokens_text(cond) if cond else "",
                           reads=reads_of(cond) if cond else [])
            for branch in kids[1:3]:
                node.children.append(build(branch))
            return node
        if k == "loop":
            kids = list(c.get_children())
            body = kids[-1] if kids else None
            hdr_reads = []
            for h in kids[:-1]:
                hdr_reads.extend(reads_of(h))
            node = ir.Stmt(kind="loop", line=c.location.line,
                           cond_text=" ".join(_tokens_text(h)
                                              for h in kids[:-1]),
                           reads=hdr_reads)
            node.children.append(build(body) if body is not None
                                 else ir.Stmt("block", c.location.line))
            return node
        if k == "return":
            return ir.Stmt(kind="return", line=c.location.line,
                           reads=reads_of(c), exits=True)
        exits = c.kind in (K.BREAK_STMT, K.CONTINUE_STMT, K.GOTO_STMT,
                           K.CXX_THROW_EXPR)
        return ir.Stmt(kind="stmt", line=c.location.line,
                       reads=reads_of(c), exits=exits)

    return build(cursor)
