"""Linear temporal logic over ultimately periodic words.

Formulas are evaluated exactly on the finite lasso graph, one truth table
per subformula, kept as an int: bit |uv|-1-i holds node i, so u·v reads as
its binary digits. An atom's table is one translate of the lasso's text to
0s and 1s, and Until unrolls the loop once and takes one carry, so a
formula costs O(|f|) int operations on |uv|-bit ints. The main pipeline
rewrites a formula into negation normal form, replaces each maximal
Globally-subformula by its truth value on the fixed word (truth of such a
subformula on one suffix propagates to all later suffixes), and evaluates
the remaining formula under a strong, monotone semantics on finite
prefixes: beyond a computable index, the infinite and the finite-prefix
readings agree. The least witness prefix at every start position comes
from one backward pass per subformula over the positions up to the last
start plus the cap (``_least_witnesses``), not from rebuilding prefixes.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import AdviceNotLasso, AlphabetMismatch, NotGFree, NotInNnf, ParseError
from .words import _NEGATIVE, PAD, FiniteWord, LassoWord


class Formula:
    def __and__(self, other):
        return And(self, other)

    def __or__(self, other):
        return Or(self, other)

    def __invert__(self):
        return Not(self)


@dataclass(frozen=True)
class Atom(Formula):
    letter: str

    def __str__(self):
        return self.letter


@dataclass(frozen=True)
class Top(Formula):
    def __str__(self):
        return "T"


@dataclass(frozen=True)
class Not(Formula):
    child: Formula

    def __str__(self):
        return f"!{_wrap(self.child)}"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"{_wrap(self.left)} & {_wrap(self.right)}"


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"{_wrap(self.left)} | {_wrap(self.right)}"


@dataclass(frozen=True)
class Next(Formula):
    child: Formula

    def __str__(self):
        return f"X {_wrap(self.child)}"


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"{_wrap(self.left)} U {_wrap(self.right)}"


@dataclass(frozen=True)
class Globally(Formula):
    child: Formula

    def __str__(self):
        return f"G {_wrap(self.child)}"


def _wrap(f: Formula) -> str:
    if isinstance(f, (Atom, Top, Not, Next, Globally)):
        return str(f)
    return f"({f})"


def bot() -> Formula:
    return Not(Top())


def finally_(f: Formula) -> Formula:
    return Until(Top(), f)


def size(f: Formula) -> int:
    if isinstance(f, (Atom, Top)):
        return 1
    if isinstance(f, (Not, Next, Globally)):
        return 1 + size(f.child)
    return 1 + size(f.left) + size(f.right)


def atoms(f: Formula) -> set:
    if isinstance(f, Atom):
        return {f.letter}
    if isinstance(f, Top):
        return set()
    if isinstance(f, (Not, Next, Globally)):
        return atoms(f.child)
    return atoms(f.left) | atoms(f.right)


def nnf(f: Formula) -> Formula:
    """Push negations to the atoms; connectives become U, G, X, and, or."""
    match f:
        case Atom() | Top():
            return f
        case And(l, r):
            return And(nnf(l), nnf(r))
        case Or(l, r):
            return Or(nnf(l), nnf(r))
        case Next(c):
            return Next(nnf(c))
        case Until(l, r):
            return Until(nnf(l), nnf(r))
        case Globally(c):
            return Globally(nnf(c))
        case Not(Atom() | Top()):
            return f
        case Not(Not(c)):
            return nnf(c)
        case Not(And(l, r)):
            return Or(nnf(Not(l)), nnf(Not(r)))
        case Not(Or(l, r)):
            return And(nnf(Not(l)), nnf(Not(r)))
        case Not(Next(c)):
            return Next(nnf(Not(c)))
        case Not(Globally(c)):
            return Until(Top(), nnf(Not(c)))
        case Not(Until(l, r)):
            nr = nnf(Not(r))
            return Or(Globally(nr), Until(nr, And(nr, nnf(Not(l)))))
    raise TypeError(f"not a formula: {f!r}")


def is_nnf(f: Formula) -> bool:
    match f:
        case Atom() | Top() | Not(Atom()) | Not(Top()):
            return True
        case And(l, r) | Or(l, r) | Until(l, r):
            return is_nnf(l) and is_nnf(r)
        case Next(c) | Globally(c):
            return is_nnf(c)
    return False


def is_g_free(f: Formula) -> bool:
    match f:
        case Globally(_):
            return False
        case Atom() | Top():
            return True
        case Not(c) | Next(c):
            return is_g_free(c)
        case And(l, r) | Or(l, r) | Until(l, r):
            return is_g_free(l) and is_g_free(r)
    return False


def _lengths(w) -> tuple:
    """(|u|, |v|) of the lasso w; AdviceNotLasso on any other word."""
    if not isinstance(w, LassoWord):
        raise AdviceNotLasso("LTL on a word is decided on lasso words only")
    return len(w._pre), len(w._per)


def _bit(w: LassoWord, position: int) -> int:
    """The bit of a lasso table that holds ``position``."""
    pre, per = _lengths(w)
    if position < pre:
        if position < 0:
            raise IndexError(_NEGATIVE)
        return pre + per - 1 - position
    return per - 1 - (position - pre) % per


def _lasso_table(f: Formula, w: LassoWord) -> int:
    """Truth of f at every node of the lasso graph of w, as one int: nodes
    0..|uv|-1 are the positions of u·v, the last node steps back to node
    |u|, and bit |uv|-1-i holds node i. A lasso of letter tuples is coded
    to text once, a character per letter; an atom translates the text."""
    _, p = _lengths(w)
    foreign = {a for a in atoms(f) if a not in w.alphabet}
    if foreign:
        raise AlphabetMismatch(f"atoms {sorted(foreign)} not in the word alphabet")
    pre, per, alphabet = w._pre, w._per, w.alphabet
    if type(per) is str:  # a text lasso: a letter is its own code
        text, codes = pre + per, [ord(a) for a in alphabet.letters]
    else:  # letter k codes as chr(k), PAD as chr(len(alphabet))
        codes = range(len(alphabet) + 1)
        text = "".join(map(dict(zip(alphabet.letters + (PAD,), map(chr, codes))).__getitem__, pre + per))
    full, loop = (1 << len(text)) - 1, (1 << p) - 1
    memo: dict = {}

    def table(g: Formula) -> int:
        if id(g) in memo:
            return memo[id(g)]
        match g:
            case Atom(a):
                digits = dict.fromkeys(codes, "0") | {codes[alphabet.index(a)]: "1"}
                vals = int(text.translate(digits), 2)
            case Top():
                vals = full
            case Not(c):
                vals = table(c) ^ full
            case And(l, r):
                vals = table(l) & table(r)
            case Or(l, r):
                vals = table(l) | table(r)
            case Next(c):  # node i reads node i + 1; the last node reads node |u|
                x = table(c)
                vals = ((x << 1) & full) | ((x >> (p - 1)) & 1)
            case Globally(c):  # if the loop is all ones, true after the last false node
                miss = table(c) ^ full
                low = miss & -miss
                vals = 0 if low & loop else (low - 1) & full
            case Until(l, r):
                # the loop unrolled once is a line, on which a run of l-not-r
                # nodes holds iff an r lies just after it: one carry finds it
                x, y = table(l), table(r)
                y = (y << p) | (y & loop)
                a = ((x << p) | (x & loop)) & ~y
                vals = (y | (a & ~(a + (y << 1)))) >> p
            case _:
                raise TypeError(f"not a formula: {g!r}")
        memo[id(g)] = vals
        return vals

    return table(f)


def eval_lasso(f: Formula, w: LassoWord, position: int = 0) -> bool:
    """Exact satisfaction at a position of an ultimately periodic word."""
    return bool(_lasso_table(f, w) >> _bit(w, position) & 1)


@dataclass
class GEliminationReport:
    formula: Formula  # Globally-free formula in negation normal form
    stabilization: int  # all suffixes from this index satisfy it iff the original
    verdicts: dict  # maximal Globally-subformula -> (consistent, witness index or None)


def eliminate_g_subformulas(f: Formula, w: LassoWord) -> GEliminationReport:
    """Replace each maximal Globally-subformula of an NNF formula by its
    truth value on the fixed word."""
    total = sum(_lengths(w))
    if not is_nnf(f):
        raise NotInNnf(f"{f} is not in negation normal form")
    verdicts: dict = {}

    def rewrite(g: Formula) -> Formula:
        match g:
            case Globally(_):
                if g not in verdicts:
                    table = _lasso_table(g, w)  # its first true node is its highest bit
                    witness = total - table.bit_length() if table else None
                    verdicts[g] = (witness is not None, witness)
                return Top() if verdicts[g][0] else bot()
            case Atom() | Top() | Not(_):
                return g
            case And(l, r):
                return And(rewrite(l), rewrite(r))
            case Or(l, r):
                return Or(rewrite(l), rewrite(r))
            case Next(c):
                return Next(rewrite(c))
            case Until(l, r):
                return Until(rewrite(l), rewrite(r))
        raise TypeError(f"not a formula: {g!r}")

    rewritten = rewrite(f)
    stabilization = 0
    for _g, (consistent, witness) in verdicts.items():
        if consistent:
            stabilization = max(stabilization, witness)
    return GEliminationReport(rewritten, stabilization, verdicts)


def finite_prefix_eval(f: Formula, w: FiniteWord, position: int = 0) -> bool:
    """Strong semantics on a finite word: atoms and negated atoms need the
    position to exist, Next needs the successor, Until needs its witness
    inside the word. Truth is monotone in the prefix length."""
    if not is_g_free(f):
        raise NotGFree(f"{f} contains a Globally connective")
    n = len(w)

    def ev(g: Formula, i: int) -> bool:
        match g:
            case Top():
                return True
            case Not(Top()):
                return False
            case Atom(a):
                return i < n and w[i] == a
            case Not(Atom(a)):
                return i < n and w[i] != a
            case Not(c):
                raise NotInNnf(f"negation of {c} is not over an atom")
            case And(l, r):
                return ev(l, i) and ev(r, i)
            case Or(l, r):
                return ev(l, i) or ev(r, i)
            case Next(c):
                return i + 1 < n and ev(c, i + 1)
            case Until(l, r):
                for j in range(i, n):
                    if ev(r, j):
                        return True
                    if not ev(l, j):
                        return False
                return False
        raise TypeError(f"not a formula: {g!r}")

    return ev(f, position)


def _least_witnesses(f: Formula, w: LassoWord, first: int, last: int, cap: int) -> list:
    """For each start m = first..last, the least k <= cap such that the
    length-k prefix of w's suffix at m satisfies the G-free NNF formula f
    under the semantics of ``finite_prefix_eval``, or None.

    That semantics looks only forward and is monotone in the prefix, so a
    subformula holding at position i has a least prefix end E(i), and one
    backward pass per subformula computes it. The witness at m is
    max(E(m), m) - m. Positions past last + cap get E = ∞, which is exact
    for every E up to there: a subformula that reads such a position needs
    an end beyond it.
    """
    n = max(last + max(cap, 0) + 1 - first, 0)
    letters = w.take(first + n)[first:]
    inf = math.inf
    memo: dict = {}

    def ends(g: Formula) -> list:
        """E(first + j) at index j < n, and ∞ at index n."""
        if g in memo:
            return memo[g]
        match g:
            case Top():
                e = [0] * n + [inf]
            case Not(Top()):
                e = [inf] * (n + 1)
            case Atom(a):
                e = [first + j + 1 if x == a else inf for j, x in enumerate(letters)] + [inf]
            case Not(Atom(a)):
                e = [first + j + 1 if x != a else inf for j, x in enumerate(letters)] + [inf]
            case Not(c):
                raise NotInNnf(f"negation of {c} is not over an atom")
            case And(l, r):
                e = list(map(max, ends(l), ends(r)))
            case Or(l, r):
                e = list(map(min, ends(l), ends(r)))
            case Next(c):
                ec = ends(c)
                e = [max(first + j + 2, ec[j + 1]) for j in range(n)] + [inf]
            case Until(l, r):
                el, er = ends(l), ends(r)
                e = [inf] * (n + 1)
                for j in range(n - 1, -1, -1):  # the witness position must lie inside the prefix
                    e[j] = min(max(first + j + 1, er[j]), max(el[j], e[j + 1]))
            case _:
                raise TypeError(f"not a formula: {g!r}")
        memo[g] = e
        return e

    e = ends(f)
    lengths = (max(e[m - first], m) - m for m in range(first, last + 1))
    return [k if k <= cap else None for k in lengths]


@dataclass
class PrefixVerdict:
    position: int
    holds_on_word: bool
    witness: int | None  # least prefix length making the rewritten formula true
    agree: bool
    cap_too_small: bool = False


@dataclass
class FinitePrefixReport:
    formula: Formula
    rewritten: Formula
    stabilization: int
    cap: int
    verdicts: list

    @property
    def all_agree(self) -> bool:
        return all(v.agree for v in self.verdicts)


def check_finite_prefix_theorem(
    f: Formula, w: LassoWord, m_range: int = 50, n_cap: int | None = None
) -> FinitePrefixReport:
    """Check that from the stabilization index on, truth on a suffix equals
    having a finite prefix satisfying the rewritten formula."""
    report, n_cap, rows = _prefix_rows(f, w, m_range + 1, n_cap)
    verdicts = [PrefixVerdict(m, holds, witness, holds == (witness is not None), holds and witness is None)
                for m, holds, witness in rows]
    return FinitePrefixReport(f, report.formula, report.stabilization, n_cap, verdicts)


def _prefix_rows(f: Formula, w: LassoWord, count: int, n_cap: int | None, first: int | None = None):
    """(G-elimination report of f's NNF on w, witness cap, rows): the cap is
    3·|uv| + |f| unless given, and for ``count`` positions m from ``first``,
    the stabilization index unless given, a row (m, truth of f at m, least
    witness of the rewritten formula up to the cap or None)."""
    report = eliminate_g_subformulas(nnf(f), w)
    if n_cap is None:
        n_cap = 3 * sum(_lengths(w)) + size(f)
    if first is None:
        first = report.stabilization
    if count < 1:  # an empty range evaluates nothing, so foreign atoms raise nothing
        return report, n_cap, []
    table = _lasso_table(f, w)
    witnesses = _least_witnesses(report.formula, w, first, first + count - 1, n_cap)
    return report, n_cap, [(m, bool(table >> _bit(w, m) & 1), k) for m, k in enumerate(witnesses, first)]


OPERATOR_CHARS = set("!&|XUGFT()_ ")


def parse_formula(text: str) -> Formula:
    """Formula text: atoms are single characters; operators ! & | X U G F,
    constants T and _|_; unary binds tightest, then U (right associative),
    then &, then |."""
    tokens = _lex(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of formula")
        tok = tokens[pos]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}")
        pos += 1
        return tok

    def parse_or():
        left = parse_and()
        while peek() == "|":
            take()
            left = Or(left, parse_and())
        return left

    def parse_and():
        left = parse_until()
        while peek() == "&":
            take()
            left = And(left, parse_until())
        return left

    def parse_until():
        left = parse_unary()
        if peek() == "U":
            take()
            return Until(left, parse_until())
        return left

    def parse_unary():
        tok = peek()
        if tok == "!":
            take()
            return Not(parse_unary())
        if tok == "X":
            take()
            return Next(parse_unary())
        if tok == "G":
            take()
            return Globally(parse_unary())
        if tok == "F":
            take()
            return finally_(parse_unary())
        if tok == "(":
            take()
            inner = parse_or()
            take(")")
            return inner
        if tok == "T":
            take()
            return Top()
        if tok == "BOT":
            take()
            return bot()
        if tok is None:
            raise ParseError("unexpected end of formula")
        if len(tok) == 1 and tok not in OPERATOR_CHARS:
            take()
            return Atom(tok)
        raise ParseError(f"unexpected token {tok!r}")

    result = parse_or()
    if pos != len(tokens):
        raise ParseError(f"trailing input from token {tokens[pos]!r}")
    return result


def _lex(text: str):
    """Tokens: '_|_' as BOT, else every character but whitespace."""
    return ["BOT" if tok == "_|_" else tok for tok in re.findall(r"_\|_|\S", text)]
