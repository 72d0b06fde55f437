"""Reference answers written independently of the package under test.

Every workload op is checked against one of these, outside its timed
region. They work on plain Python strings, lists and dicts and never call
into ``advicebench``, so a defect in the package cannot hide in its own
reference.
"""
from __future__ import annotations


# ------------------------------------------------------------ words

def lasso_prefix(u: str, v: str, n: int) -> str:
    """First n letters of u·v^ω."""
    if n <= len(u):
        return u[:n]
    rest = n - len(u)
    return u + v * (rest // len(v)) + v[: rest % len(v)]


def mirror_prefix(u: str, v: str, n: int) -> str:
    """First n letters of u·v^ω with every '#'-free block reversed.

    Every block ends within |u|+|v| letters, because the period holds a '#'.
    """
    text = lasso_prefix(u, v, n + len(u) + len(v))
    blocks = text.split("#")[:-1]
    out = "".join(b[::-1] + "#" for b in blocks)
    if len(out) < n:
        raise ValueError("the period must contain the block mark '#'")
    return out[:n]


def pi_prefix(k: int, n: int) -> str:
    """First n letters of the block word with each block (0^b 1) written k times."""
    parts: list = []
    size = 0
    b = 0
    while size < n:
        block = "0" * b + "1"
        parts.append(block * k)
        size += len(block) * k
        b += 1
    return "".join(parts)[:n]


# -------------------------------------------------------------- LTL
# Formulas are nested tuples: ("atom", a), ("top",), ("not", f), ("and", f, g),
# ("or", f, g), ("next", f), ("until", f, g), ("globally", f).

def formula_text(f) -> str:
    """The formula in the package's concrete syntax, fully parenthesized."""
    tag = f[0]
    if tag == "atom":
        return f[1]
    if tag == "top":
        return "T"
    if tag == "not":
        return f"!({formula_text(f[1])})"
    if tag == "next":
        return f"X ({formula_text(f[1])})"
    if tag == "globally":
        return f"G ({formula_text(f[1])})"
    op = {"and": "&", "or": "|", "until": "U"}[tag]
    return f"({formula_text(f[1])}) {op} ({formula_text(f[2])})"


def ltl_table(f, u: str, v: str) -> list:
    """Truth of f at every node of the lasso graph of u·v^ω.

    Nodes are 0..|u|+|v|-1; the last node's successor is |u|. Until and
    Globally are solved by backward passes that go round the loop twice,
    then down the preperiod: a linear, unrolled evaluation.
    """
    word = u + v
    total = len(word)
    pre = len(u)

    def succ(i):
        return i + 1 if i + 1 < total else pre

    def backward(local, init):
        # x[i] = local(i, x[succ(i)]); two loop passes reach the fixpoint
        x = [init] * total
        for _ in range(2):
            for i in range(total - 1, pre - 1, -1):
                x[i] = local(i, x[succ(i)])
        for i in range(pre - 1, -1, -1):
            x[i] = local(i, x[i + 1])
        return x

    memo: dict = {}

    def table(g):
        if g in memo:
            return memo[g]
        tag = g[0]
        if tag == "atom":
            vals = [c == g[1] for c in word]
        elif tag == "top":
            vals = [True] * total
        elif tag == "not":
            vals = [not x for x in table(g[1])]
        elif tag == "and":
            vals = [x and y for x, y in zip(table(g[1]), table(g[2]))]
        elif tag == "or":
            vals = [x or y for x, y in zip(table(g[1]), table(g[2]))]
        elif tag == "next":
            c = table(g[1])
            vals = [c[succ(i)] for i in range(total)]
        elif tag == "until":
            left, right = table(g[1]), table(g[2])
            vals = backward(lambda i, nxt: right[i] or (left[i] and nxt), False)
        elif tag == "globally":
            c = table(g[1])
            vals = backward(lambda i, nxt: c[i] and nxt, True)
        else:
            raise ValueError(f"unknown formula tag {tag!r}")
        memo[g] = vals
        return vals

    return table(f)


def ltl_at(f, u: str, v: str, position: int) -> bool:
    pre, per = len(u), len(v)
    node = position if position < pre else pre + (position - pre) % per
    return ltl_table(f, u, v)[node]


def nnf(f):
    """Negation normal form with the same rewrite rules as the package
    documents: G, U, X, and, or over atoms and negated atoms."""
    tag = f[0]
    if tag in ("atom", "top"):
        return f
    if tag in ("and", "or", "until"):
        return (tag, nnf(f[1]), nnf(f[2]))
    if tag in ("next", "globally"):
        return (tag, nnf(f[1]))
    c = f[1]
    ctag = c[0]
    if ctag in ("atom", "top"):
        return f
    if ctag == "not":
        return nnf(c[1])
    if ctag == "and":
        return ("or", nnf(("not", c[1])), nnf(("not", c[2])))
    if ctag == "or":
        return ("and", nnf(("not", c[1])), nnf(("not", c[2])))
    if ctag == "next":
        return ("next", nnf(("not", c[1])))
    if ctag == "globally":
        return ("until", ("top",), nnf(("not", c[1])))
    nr = nnf(("not", c[2]))
    return ("or", ("globally", nr), ("until", nr, ("and", nr, nnf(("not", c[1])))))


def eliminate_globally(f, u: str, v: str):
    """(G-free formula, stabilization index): each maximal G-subformula of an
    NNF formula replaced by whether it holds somewhere on one lasso span."""
    total = len(u) + len(v)
    stab = 0

    def rewrite(g):
        nonlocal stab
        tag = g[0]
        if tag == "globally":
            table = ltl_table(g, u, v)
            hits = [i for i in range(total) if table[i]]
            if hits:
                stab = max(stab, hits[0])
                return ("top",)
            return ("not", ("top",))
        if tag in ("atom", "top", "not"):
            return g
        if tag == "next":
            return ("next", rewrite(g[1]))
        return (tag, rewrite(g[1]), rewrite(g[2]))

    return rewrite(f), stab


def least_witness(g_free, u: str, v: str, start: int, cap: int):
    """Least k <= cap such that the length-k prefix of the suffix at ``start``
    satisfies a G-free NNF formula under the strong finite semantics, or None.

    need[i] is the least prefix length on which a subformula holds at i;
    the semantics is monotone, so one backward pass per subformula finds it.
    """
    text = lasso_prefix(u, v, start + cap)[start:]
    n = len(text)
    inf = float("inf")

    def need(g):
        tag = g[0]
        if tag == "top":
            return [0] * (n + 2)
        if tag == "atom":
            return [i + 1 if i < n and text[i] == g[1] else inf for i in range(n + 2)]
        if tag == "not":
            inner = g[1]
            if inner[0] == "top":
                return [inf] * (n + 2)
            return [i + 1 if i < n and text[i] != inner[1] else inf for i in range(n + 2)]
        if tag == "and":
            return [max(x, y) for x, y in zip(need(g[1]), need(g[2]))]
        if tag == "or":
            return [min(x, y) for x, y in zip(need(g[1]), need(g[2]))]
        if tag == "next":
            c = need(g[1])
            return [max(i + 2, c[i + 1]) for i in range(n + 1)] + [inf]
        left, right = need(g[1]), need(g[2])
        x = [inf] * (n + 2)
        for i in range(n - 1, -1, -1):
            x[i] = min(max(i + 1, right[i]), max(left[i], x[i + 1]))
        return x

    k = need(g_free)[0]
    return k if k <= cap else None


def formula_size(f) -> int:
    return 1 + sum(formula_size(c) for c in f[1:] if isinstance(c, tuple))


# ------------------------------------------------------------ Büchi

def buchi_accepts(initial, accepting, post, u: list, v: list) -> bool:
    """Acceptance of u·v^ω by a Büchi automaton given as post(q, letter).

    One Tarjan pass over the reachable product of states and period
    positions: accepted iff a nontrivial strongly connected component
    contains an accepting state.
    """
    current = set(initial)
    for a in u:
        current = {q2 for q in current for q2 in post(q, a)}
    m = len(v)

    def succ(node):
        q, i = node
        return [(q2, (i + 1) % m) for q2 in post(q, v[i])]

    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    counter = 0
    for root in sorted(((q, 0) for q in current), key=repr):
        if root in index:
            continue
        work = [(root, iter(succ(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ(nxt))))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component = []
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    component.append(top)
                    if top == node:
                        break
                nontrivial = len(component) > 1 or node in succ(node)
                if nontrivial and any(q in accepting for q, _ in component):
                    return True
    return False


# ------------------------------------------------------------ one-way machines

def run_in_sequence(tables, u: str, v: str, n: int, budget: int) -> list:
    """First n output letters of one-way machines applied one after another
    to u·v^ω, each table mapping (state, letter) to (output tuple, state) with
    initial state 0. Stops early once ``budget`` input letters in a row give
    no output, as a run of the composed machine would.
    """
    states = [0] * len(tables)
    out: list = []
    idle = 0
    position = 0
    while len(out) < n and idle < budget:
        chunk = [u[position] if position < len(u) else v[(position - len(u)) % len(v)]]
        position += 1
        for k, table in enumerate(tables):
            produced = []
            for letter in chunk:
                emitted, states[k] = table[(states[k], letter)]
                produced.extend(emitted)
            chunk = produced
        out.extend(chunk)
        idle = 0 if chunk else idle + 1
    return out[:n]


# ------------------------------------------------------------ Mealy and factors

def mealy_image(transitions, initial, u: str, v: str):
    """(u', v') with u'·v'^ω the output of a Mealy machine on u·v^ω.

    Runs until a (state, period position) pair repeats.
    """
    out: list = []
    seen: dict = {}
    q = initial
    n = 0
    while True:
        if n >= len(u):
            key = (q, (n - len(u)) % len(v))
            if key in seen:
                cut = seen[key]
                return "".join(out[:cut]), "".join(out[cut:])
            seen[key] = n
        a = u[n] if n < len(u) else v[(n - len(u)) % len(v)]
        letter, q = transitions[(q, a)]
        out.append(letter)
        n += 1


def factor_counts(u: str, v: str, k_max: int) -> dict:
    """Distinct length-k factors of u·v^ω, counted over a sliding window."""
    span = len(u) + len(v)
    text = lasso_prefix(u, v, span + k_max)
    return {k: len({text[i: i + k] for i in range(span)}) for k in range(1, k_max + 1)}
