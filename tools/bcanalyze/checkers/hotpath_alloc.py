"""bc-hotpath-alloc: heap allocation reachable from per-packet functions.

The data plane (src/rabin/, src/cache/, the encode/decode paths of
src/core/, and the coded-repair emit/reconstruct paths of src/fec/)
runs once per packet and once per byte; PR 2 moved it to
preallocated scratch buffers and flat tables precisely so the steady
state allocates nothing.  This checker walks the call graph from every
hot root and reports, with the call chain:

  * operator new / make_unique / make_shared / malloc-family calls;
  * growth of *node-based* containers (map/set/list/deque families) —
    every insert is a heap node, and so is every subscript (`m[k]`
    inserts a missing key);
  * std::function locals/parameters — type-erased, possibly allocating.

Contiguous-container growth (vector/Bytes push_back, reserve, assign) is
deliberately allowed: the scratch-reuse design amortises it to zero in
steady state, and flagging it would bury the real signal.  A function is
a *hot root* unless its name marks it as setup/teardown/diagnostics
(constructors, audit, flush, factories, stats).
"""

from collections import deque

from checkers.common import path_in, container_base
import ir

RULE = "bc-hotpath-alloc"

ROOT_DIRS = ("src/rabin/", "src/cache/", "src/core/", "src/fec/")
SITE_DIRS = ("src/rabin/", "src/cache/", "src/core/", "src/gateway/",
             "src/net/", "src/fec/", "src/resilience/")

# Burst entry points are hot roots wherever they live: they are the
# batched per-packet path (PR 7), so a gateway or ring function with one
# of these names joins the walk even though its directory is not a
# blanket root dir.
EXTRA_ROOT_NAMES = frozenset({
    "probe_batch", "receive_burst", "push_burst", "pop_burst",
})

# Name fragments marking a function as off the per-packet path.
COLD_NAME_PARTS = (
    "audit", "snapshot", "stats", "reset", "flush", "to_string",
    "from_string", "make_", "merge", "configure", "set_params",
)

NODE_CONTAINERS = {
    "map", "multimap", "unordered_map", "unordered_multimap",
    "set", "multiset", "unordered_set", "unordered_multiset",
    "list", "forward_list", "deque", "priority_queue", "queue", "stack",
}
GROWTH_CALLS = {"insert", "emplace", "emplace_back", "emplace_front",
                "emplace_hint", "push_back", "push_front", "push",
                "try_emplace", "insert_or_assign", "operator[]"}
ALLOC_CALLS = {"malloc", "calloc", "realloc", "strdup", "make_unique",
               "make_shared", "new_handler"}


def _is_cold(fn):
    name = fn.name.lower()
    if fn.cls and fn.name == fn.cls:
        return True  # constructor (destructors parse to the same name)
    return any(part in name for part in COLD_NAME_PARTS)


def _receiver_type(project, fn, receiver, struct_index, aliases):
    from checkers.common import resolve_type
    if not receiver:
        return ""
    return resolve_type(project, fn, receiver, struct_index, aliases)


def _alloc_sites(project, fn, struct_index, aliases):
    """(line, description) pairs for direct allocations inside fn."""
    sites = []
    for line in fn.news:
        sites.append((line, "operator new"))
    for c in fn.calls:
        callee = c.callee.split("::")[-1]
        if callee in ALLOC_CALLS:
            sites.append((c.line, f"call to {c.callee}"))
        elif callee in GROWTH_CALLS and c.receiver:
            canon = _receiver_type(project, fn, c.receiver, struct_index,
                                   aliases)
            base = container_base(canon)
            if base in NODE_CONTAINERS:
                use = f"{c.receiver}[...]" if callee == "operator[]" \
                    else f"{c.receiver}.{callee}(...)"
                sites.append((c.line,
                              f"`{use}` grows node-based std::{base} "
                              f"(one heap node per insert)"))
    for d in list(fn.locals) + list(fn.params):
        declared_base = d.type_text.replace("&", " ").replace("*", " ") \
            .replace("const", " ").split("<")[0].split("::")[-1].strip()
        if declared_base in fn.tparams:
            continue  # template parameter, not a concrete type
        base = container_base(project.canon(d.type_text, aliases=aliases))
        if base == "function":
            sites.append((d.line,
                          f"std::function `{d.name}` (type-erased, may "
                          f"allocate per target)"))
    return sites


def check(project):
    findings = []
    struct_index = project.struct_index()
    aliases = project.aliases()

    # Index every function defined under src/ by unqualified name.
    by_name = {}
    for fn in project.all_functions():
        by_name.setdefault(fn.name, []).append(fn)

    roots = [fn for f in project.files if path_in(f.path, ROOT_DIRS)
             for fn in f.functions if not _is_cold(fn)]
    roots += [fn for f in project.files if not path_in(f.path, ROOT_DIRS)
              for fn in f.functions if fn.name in EXTRA_ROOT_NAMES]

    # BFS over the call graph from all roots at once, keeping one
    # (shortest) chain per reached function for the report.
    chain = {}  # id(fn) -> (fn, parent_key or None, label)
    work = deque()
    for fn in roots:
        key = (fn.path, fn.qualname, fn.line)
        if key not in chain:
            chain[key] = (fn, None)
            work.append(key)
    while work:
        key = work.popleft()
        fn = chain[key][0]
        for c in fn.calls:
            callee = c.callee.split("::")[-1]
            for target in by_name.get(callee, []):
                if target.name == fn.name and target.path == fn.path and \
                        target.line == fn.line:
                    continue
                tkey = (target.path, target.qualname, target.line)
                if tkey not in chain and not _is_cold(target):
                    chain[tkey] = (target, key)
                    work.append(tkey)

    def chain_text(key):
        parts = []
        while key is not None:
            fn, parent = chain[key]
            parts.append(fn.qualname.split("::")[-1] + "()")
            key = parent
        return " <- ".join(parts)

    seen = set()
    for key, (fn, _parent) in chain.items():
        if not path_in(fn.path, SITE_DIRS):
            continue
        for line, desc in _alloc_sites(project, fn, struct_index, aliases):
            dedup = (fn.path, line)
            if dedup in seen:
                continue
            seen.add(dedup)
            findings.append(ir.Finding(
                RULE, fn.path, line,
                f"{desc} on the per-packet path "
                f"(reached via {chain_text(key)}); preallocate or use a "
                f"flat container (see DESIGN.md §11)"))
    return findings
