"""Finite and infinite words.

Infinite words are immutable values evaluated on demand: ``letter(n)`` is
total and pure, so every downstream check can be phrased as a comparison
of finite prefixes. Most words compute a letter from its index; a block
mirror, whose letters come in order, caches them.
Letters are single-character strings; product letters are tuples; the
padding letter is the ``PAD`` sentinel and never belongs to an alphabet.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

from .errors import AlphabetMismatch, BlockBudgetExceeded, EmptyPeriod


class _Pad:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "□"


PAD = _Pad()

#: Reserved characters: '#' marks block ends, '_' renders PAD in documents.
RESERVED_RENDER = "_"
BLOCK_MARK = "#"


def render_letter(letter) -> str:
    """Printable form of a letter; PAD renders as '_'."""
    if letter is PAD:
        return RESERVED_RENDER
    if isinstance(letter, tuple):
        return "".join(render_letter(c) for c in letter)
    return str(letter)


class Alphabet:
    """Ordered set of letters. Tuple letters come from product constructions."""

    def __init__(self, letters, parts=None):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet must be nonempty")
        if len(set(letters)) != len(letters):
            raise ValueError("duplicate letters in alphabet")
        if PAD in letters:
            raise ValueError("the padding letter cannot belong to an alphabet")
        if RESERVED_RENDER in letters:
            raise ValueError("'_' is reserved for the padding letter")
        self.letters = letters
        self._index = {a: i for i, a in enumerate(letters)}
        self.parts = tuple(parts) if parts is not None else None

    @classmethod
    def of(cls, chars: str) -> "Alphabet":
        return cls(tuple(chars))

    @classmethod
    def product(cls, *parts: "Alphabet", pad: bool = True) -> "Alphabet":
        tracks = []
        for p in parts:
            track = list(p.letters)
            if pad:
                track.append(PAD)
            tracks.append(track)
        combos = [()]
        for track in tracks:
            combos = [c + (a,) for c in combos for a in track]
        letters = [c for c in combos if any(a is not PAD for a in c)]
        return cls(letters, parts=parts)

    def index(self, letter) -> int:
        return self._index[letter]

    def __contains__(self, letter) -> bool:
        return letter in self._index

    def __len__(self) -> int:
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __repr__(self):
        return f"Alphabet({''.join(render_letter(a) for a in self.letters)})"


def infer_alphabet(letters) -> Alphabet:
    seen = []
    for a in letters:
        if a is PAD or a in seen:
            continue
        seen.append(a)
    return Alphabet(sorted(seen, key=render_letter))


@dataclass(frozen=True)
class FiniteWord:
    """A finite word: a tuple of letters (each in the alphabet, or PAD)."""

    letters: tuple
    alphabet: Alphabet

    def __post_init__(self):
        for a in self.letters:
            if a is not PAD and a not in self.alphabet:
                raise AlphabetMismatch(f"letter {render_letter(a)} not in {self.alphabet}")

    @classmethod
    def from_str(cls, text: str, alphabet: Alphabet | None = None) -> "FiniteWord":
        letters = tuple(PAD if c == RESERVED_RENDER else c for c in text)
        if alphabet is None:
            alphabet = infer_alphabet(letters) if any(a is not PAD for a in letters) else Alphabet.of("a")
        return cls(letters, alphabet)

    def __len__(self):
        return len(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __iter__(self):
        return iter(self.letters)

    def to_str(self) -> str:
        return "".join(render_letter(a) for a in self.letters)


def word(text: str, alphabet: Alphabet | None = None) -> FiniteWord:
    return FiniteWord.from_str(text, alphabet)


class InfiniteWord:
    """Base class: a subclass computes ``letter(n)`` from its parts."""

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    def letter(self, n: int):
        raise NotImplementedError

    def prefix(self, n: int) -> FiniteWord:
        return FiniteWord(tuple(self.letter(i) for i in range(n)), self.alphabet)

    def prefix_str(self, n: int) -> str:
        return "".join(render_letter(self.letter(i)) for i in range(n))


def letter_at(w: InfiniteWord, n: int):
    """The n-th letter of w (0-based)."""
    return w.letter(n)


class LassoWord(InfiniteWord):
    """Ultimately periodic word u·v^ω given by preperiod u and period v."""

    def __init__(self, u: FiniteWord, v: FiniteWord):
        if len(v) == 0:
            raise EmptyPeriod("period must be nonempty")
        alphabet = u.alphabet if len(u.alphabet) >= len(v.alphabet) else v.alphabet
        super().__init__(alphabet)
        self.u = u
        self.v = v
        self._pre = u.letters
        self._per = v.letters

    def letter(self, n: int):
        pre = self._pre
        if n < len(pre):
            return pre[n]
        per = self._per
        return per[(n - len(pre)) % len(per)]

    def canonical(self) -> "LassoWord":
        return canonical_lasso(self.u, self.v)

    def __repr__(self):
        return f"{self.u.to_str()}({self.v.to_str()})^ω"


def lasso(u: str, v: str, alphabet: Alphabet | None = None) -> LassoWord:
    if alphabet is None:
        alphabet = infer_alphabet(tuple(u + v))
    return LassoWord(word(u, alphabet), word(v, alphabet))


def canonical_lasso(u: FiniteWord, v: FiniteWord) -> LassoWord:
    """Equivalent lasso with a primitive period and a minimal preperiod."""
    if len(v) == 0:
        raise EmptyPeriod("period must be nonempty")
    vl = list(v.letters)
    for p in range(1, len(vl) + 1):
        if len(vl) % p == 0 and vl == vl[:p] * (len(vl) // p):
            vl = vl[:p]
            break
    ul = list(u.letters)
    while ul and ul[-1] == vl[-1]:
        ul.pop()
        vl = [vl[-1]] + vl[:-1]
    merged = list(u.alphabet.letters)
    merged += [a for a in v.alphabet.letters if a not in merged]
    alphabet = Alphabet(merged)
    return LassoWord(FiniteWord(tuple(ul), alphabet), FiniteWord(tuple(vl), alphabet))


class ConstantWord(LassoWord):
    """c^ω, the lasso with an empty preperiod and the period c."""

    def __init__(self, letter, alphabet: Alphabet | None = None):
        alphabet = alphabet or infer_alphabet([letter])
        super().__init__(FiniteWord((), alphabet), FiniteWord((letter,), alphabet))


class ShiftWord(InfiniteWord):
    def __init__(self, base: InfiniteWord, n: int):
        super().__init__(base.alphabet)
        self.base = base
        self.n = n

    def letter(self, k: int):
        return self.base.letter(self.n + k)


def shift(w: InfiniteWord, n: int) -> InfiniteWord:
    if n < 0:
        raise IndexError("shift amount must be nonnegative")
    if n == 0:
        return w
    if isinstance(w, ShiftWord):
        return ShiftWord(w.base, w.n + n)
    return ShiftWord(w, n)


class DuplicateWord(InfiniteWord):
    """Each letter of the base repeated n times (letter-doubling morphism)."""

    def __init__(self, base: InfiniteWord, n: int):
        super().__init__(base.alphabet)
        self.base = base
        self.n = n

    def letter(self, k: int):
        return self.base.letter(k // self.n)


def duplicate(w: InfiniteWord, n: int) -> InfiniteWord:
    if n < 1:
        raise ValueError("duplication factor must be >= 1")
    if n == 1:
        return w
    return DuplicateWord(w, n)


class ConvolutionWord(InfiniteWord):
    def __init__(self, operands, alphabet: Alphabet):
        super().__init__(alphabet)
        self.operands = tuple(operands)

    def letter(self, n: int):
        out = []
        for op in self.operands:
            if isinstance(op, FiniteWord):
                out.append(op[n] if n < len(op) else PAD)
            else:
                out.append(op.letter(n))
        return tuple(out)


def convolve(ws):
    """Letterwise pairing; shorter operands are padded with PAD.

    Returns a FiniteWord over the product alphabet if all operands are
    finite, otherwise an infinite ConvolutionWord.
    """
    ws = list(ws)
    if len(ws) < 2:
        raise ValueError("convolution needs at least two operands")
    alphabet = Alphabet.product(*[w.alphabet for w in ws], pad=True)
    if all(isinstance(w, FiniteWord) for w in ws):
        n = max(len(w) for w in ws)
        letters = tuple(
            tuple(w[i] if i < len(w) else PAD for w in ws) for i in range(n)
        )
        return FiniteWord(letters, alphabet)
    return ConvolutionWord(ws, alphabet)


def convolve_lassos(*operands) -> LassoWord:
    """Exact convolution of lassos/finite words as a lasso.

    Finite operands behave as w·PAD^ω.
    """
    def parts(op):
        if isinstance(op, FiniteWord):
            return list(op.letters), [PAD], op.alphabet
        if isinstance(op, LassoWord):
            return list(op.u.letters), list(op.v.letters), op.alphabet
        raise AdviceTypeError(op)

    triples = [parts(op) for op in operands]
    pre = max(len(u) for u, _, _ in triples)
    per = 1
    for _, v, _ in triples:
        per = per * len(v) // math.gcd(per, len(v))
    alphabet = Alphabet.product(*[t[2] for t in triples], pad=True)

    def at(n):
        out = []
        for u, v, _ in triples:
            out.append(u[n] if n < len(u) else v[(n - len(u)) % len(v)])
        return tuple(out)

    u_letters = tuple(at(i) for i in range(pre))
    v_letters = tuple(at(pre + i) for i in range(per))
    return LassoWord(FiniteWord(u_letters, alphabet), FiniteWord(v_letters, alphabet))


class AdviceTypeError(TypeError):
    def __init__(self, op):
        super().__init__(f"expected FiniteWord or LassoWord, got {type(op).__name__}")


BINARY = Alphabet.of("01")


class PiWord(InfiniteWord):
    """The word formed by concatenating 0-blocks of growing length, each block
    written k times: block n contributes (0^n 1)^k."""

    def __init__(self, k: int = 1):
        super().__init__(BINARY)
        self.k = k

    def letter(self, n: int):
        k = self.k
        # block b starts at k*b*(b+1)/2 and has k copies of 0^b 1
        b = (math.isqrt(8 * (n // k) + 1) - 1) // 2
        while k * b * (b + 1) // 2 > n:
            b -= 1
        while k * (b + 1) * (b + 2) // 2 <= n:
            b += 1
        r = n - k * b * (b + 1) // 2
        return "1" if r % (b + 1) == b else "0"

    def __repr__(self):
        return "π" if self.k == 1 else f"π^{self.k}"


def pi_word(k: int = 1) -> PiWord:
    if k < 1:
        raise ValueError("k must be >= 1")
    return PiWord(k)


class BlockMirrorWord(InfiniteWord):
    """Each maximal '#'-free block of the base reversed; '#' positions kept.

    Lookahead to the next '#' is bounded by ``block_budget``. Its letters
    come in order, so it caches them, under a lock for concurrent readers.
    """

    def __init__(self, base: InfiniteWord, block_budget: int = 10 ** 6):
        super().__init__(base.alphabet)
        self.base = base
        self.block_budget = block_budget
        self._scan = 0
        self._pending: list = []
        self._cache: list = []
        self._lock = threading.Lock()

    def letter(self, n: int):
        if n < 0:
            raise IndexError("letter index must be nonnegative")
        cache = self._cache
        if n >= len(cache):
            with self._lock:
                while len(cache) <= n:
                    cache.append(self._next())
        return cache[n]

    def _next(self):
        # _pending holds the marker then the block in reading order, so
        # popping from the end yields the block reversed, then the marker
        if not self._pending:
            pending = [BLOCK_MARK]
            start = self._scan
            while True:
                a = self.base.letter(self._scan)
                self._scan += 1
                if a == BLOCK_MARK:
                    break
                pending.append(a)
                if len(pending) > self.block_budget + 1:
                    raise BlockBudgetExceeded(start, self.block_budget)
            self._pending = pending
        return self._pending.pop()


def block_mirror(w: InfiniteWord, block_budget: int = 10 ** 6) -> InfiniteWord:
    return BlockMirrorWord(w, block_budget)
