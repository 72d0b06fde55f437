"""Finite and infinite words.

Infinite words are immutable values evaluated on demand: ``letter(n)`` is
total and pure, so every downstream check can be phrased as a comparison
of finite prefixes. Most words compute a letter from its index; a block
mirror, whose letters come in order, caches them. Readers that go forward
take letters in bulk with ``letters_from(n)``, a run of letters from n on.
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

#: Reserved characters: '#' marks block ends, '_' renders PAD and '^' the
#: tape endmarker in documents.
RESERVED_RENDER = "_"
ENDMARKER_TEXT = "^"
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
        if ENDMARKER_TEXT in letters:
            raise ValueError("'^' is reserved for the tape endmarker")
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
    """The alphabet of ``letters`` but PAD, which belongs to none. PAD
    alone, or its text '_' alone, leaves nothing to infer from. A set of
    single characters will do, as they never tie in the sort."""
    seen = dict.fromkeys(letters)  # first-seen order, which the stable sort keeps on ties
    seen.pop(PAD, None)
    if seen.keys() <= {RESERVED_RENDER}:
        raise ValueError("a word of padding letters only needs an explicit alphabet")
    return Alphabet(sorted(seen, key=render_letter))


@dataclass(frozen=True)
class FiniteWord:
    """A finite word: a tuple of letters (each in the alphabet, or PAD)."""

    letters: tuple
    alphabet: Alphabet

    def __post_init__(self):
        stray = set(self.letters).difference(self.alphabet.letters)
        stray.discard(PAD)
        if stray:
            a = next(a for a in self.letters if a in stray)
            raise AlphabetMismatch(f"letter {render_letter(a)} not in {self.alphabet}")

    @classmethod
    def _known(cls, letters: tuple, alphabet: Alphabet) -> "FiniteWord":
        """The word of ``letters``, known to lie in ``alphabet``: unchecked."""
        w = object.__new__(cls)
        w.__dict__.update(letters=letters, alphabet=alphabet)  # frozen blocks only setattr
        return w

    @classmethod
    def from_str(cls, text: str, alphabet: Alphabet | None = None) -> "FiniteWord":
        letters = tuple(text)
        if RESERVED_RENDER in text:
            letters = tuple(PAD if c == RESERVED_RENDER else c for c in letters)
        if alphabet is None:  # the empty word has no letters to infer from, and needs none
            alphabet = infer_alphabet(letters) if letters else Alphabet.of("a")
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


#: Letters a periodic word hands out per ``letters_from`` call, about.
CHUNK = 512

#: What ``letter`` and ``letters_from`` raise, as an IndexError, for n < 0.
_NEGATIVE = "letter index must be nonnegative"


class InfiniteWord:
    """Base class: a subclass computes ``letter(n)`` from its parts.

    ``periodic``, the periodicity hook, is None on a word that never says
    it is periodic, or a method: ``periodic(n, least=1)`` is (k, x, end),
    x a tuple, when the letters from k up to ``end`` > k (None: forever)
    repeat x, for the stretch it names at n or the next one it names (it
    need not name all, and may pass over those of fewer than ``least``
    letters); None while it cannot say so yet. Only an answer without an
    end may change, to None."""

    periodic = None

    def __init__(self, alphabet: Alphabet):
        self.alphabet = alphabet

    def letter(self, n: int):
        """Letter n; raises IndexError("letter index must be nonnegative")
        for n < 0, as every word does."""
        raise NotImplementedError

    def letters_from(self, n: int) -> list:
        """Letters n, n + 1, ... as a nonempty list, as many as the word
        has at hand; raises exactly when ``letter(n)`` raises. A word whose
        letters come from a run hands out only letters the run has already
        produced, so it never makes the run step past what its reader asked
        for. This default hands out letter n alone."""
        return [self.letter(n)]

    def take(self, n: int) -> list:
        """The first n letters, gathered chunk by chunk; ValueError for
        n < 0, here and in ``prefix`` and ``prefix_str``."""
        if n < 0:
            raise ValueError("letter count must be nonnegative")
        out: list = []
        while len(out) < n:
            out += self.letters_from(len(out))
        del out[n:]
        return out

    def prefix(self, n: int) -> FiniteWord:
        return FiniteWord(tuple(self.take(n)), self.alphabet)

    def prefix_str(self, n: int) -> str:
        return "".join(map(render_letter, self.take(n)))


def letter_at(w: InfiniteWord, n: int):
    """The n-th letter of w (0-based)."""
    return w.letter(n)


def _union(a: Alphabet, b: Alphabet) -> Alphabet:
    """The letters of a and b; an alphabet that holds the other's letters is
    kept as it is, so a product alphabet keeps its parts."""
    if set(b.letters) <= set(a.letters):
        return a
    if set(a.letters) <= set(b.letters):
        return b
    return Alphabet(dict.fromkeys(a.letters + b.letters))


class LassoWord(InfiniteWord):
    """Ultimately periodic word u·v^ω given by preperiod u and period v."""

    def __init__(self, u: FiniteWord, v: FiniteWord):
        if len(v) == 0:
            raise EmptyPeriod("period must be nonempty")
        super().__init__(_union(u.alphabet, v.alphabet))
        self.u = u
        self.v = v
        self._pre = u.letters
        self._per = v.letters

    def letter(self, n: int):
        pre = self._pre
        if n < len(pre):
            if n < 0:
                raise IndexError(_NEGATIVE)
            return pre[n]
        per = self._per
        return per[(n - len(pre)) % len(per)]

    def letters_from(self, n: int) -> list:
        """Up to CHUNK letters of the rest of u, or a rotation of v repeated
        up to about CHUNK letters."""
        pre = self._pre
        if n < len(pre):
            if n < 0:
                raise IndexError(_NEGATIVE)
            return list(pre[n:n + CHUNK])
        per = self._per
        r = (n - len(pre)) % len(per)
        return list(per[r:] + per[:r]) * max(1, CHUNK // len(per))

    def periodic(self, n, least=1):
        return len(self._pre), self._per, None

    def canonical(self) -> "LassoWord":
        return canonical_lasso(self.u, self.v)

    def __repr__(self):
        return f"{self.u.to_str()}({self.v.to_str()})^ω"


def lasso(u: str, v: str, alphabet: Alphabet | None = None) -> LassoWord:
    """u·v^ω, a letter per character. An alphabet inferred from the set of
    u + v holds every letter, and refuses '_' (PAD), so the words go
    unchecked; a given one checks them, and '_' reads as PAD there."""
    if alphabet is not None:
        return LassoWord(word(u, alphabet), word(v, alphabet))
    alphabet = infer_alphabet(set(u + v))
    return LassoWord(FiniteWord._known(tuple(u), alphabet), FiniteWord._known(tuple(v), alphabet))


def _primitive_root_length(seq) -> int:
    """Length of the shortest r with seq = r^k, from the longest border."""
    border = [0] * len(seq)
    k = 0
    for i in range(1, len(seq)):
        while k and seq[i] != seq[k]:
            k = border[k - 1]
        if seq[i] == seq[k]:
            k += 1
        border[i] = k
    p = len(seq) - border[-1]
    return p if len(seq) % p == 0 else len(seq)


def canonical_lasso(u: FiniteWord, v: FiniteWord) -> LassoWord:
    """Equivalent lasso with a primitive period and a minimal preperiod.

    The preperiod loses every trailing letter that the period, read
    backwards from its end and around, repeats; the period turns right by
    as many letters."""
    if len(v) == 0:
        raise EmptyPeriod("period must be nonempty")
    vl = tuple(v.letters[:_primitive_root_length(v.letters)])
    ul = u.letters
    p, k = len(vl), 0
    while k < len(ul) and ul[-1 - k] == vl[-1 - k % p]:
        k += 1
    r = k % p
    alphabet = _union(u.alphabet, v.alphabet)
    return LassoWord(FiniteWord(tuple(ul[:len(ul) - k]), alphabet),
                     FiniteWord(vl[p - r:] + vl[:p - r], alphabet))


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
        if base.periodic is None:
            self.periodic = None

    def periodic(self, n, least=1):
        if (said := self.base.periodic(self.n + n, least)) is not None:
            k, x, end = said
            r = max(self.n - k, 0) % len(x)  # the letters of x the shift skips
            return max(k - self.n, 0), x[r:] + x[:r], None if end is None else end - self.n

    def letter(self, k: int):
        if k < 0:
            raise IndexError(_NEGATIVE)
        return self.base.letter(self.n + k)

    def letters_from(self, k: int) -> list:
        if k < 0:
            raise IndexError(_NEGATIVE)
        return self.base.letters_from(self.n + k)


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
        return self.base.letter(k // self.n)  # a negative k stays negative


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
        if n < 0:
            raise IndexError(_NEGATIVE)
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

    def _place(self, n: int):
        """(b, r): letter n is letter r of block b."""
        if n < 0:
            raise IndexError(_NEGATIVE)
        k = self.k
        # block b starts at k*b*(b+1)/2 and has k copies of 0^b 1; b is the
        # largest with b(b+1)/2 <= n // k, so block b + 1 starts past n
        b = (math.isqrt(8 * (n // k) + 1) - 1) // 2
        return b, n - k * b * (b + 1) // 2

    def letter(self, n: int):
        b, r = self._place(n)
        return "1" if r % (b + 1) == b else "0"

    def letters_from(self, n: int) -> list:
        """The rest of the current block, ((0^b 1)^k)[r:], but a 1 alone: a
        reader that crosses the run of 0s after it needs none of its letters."""
        b, r = self._place(n)
        if r % (b + 1) == b:
            return ["1"]
        return list((("0" * b + "1") * self.k)[r:])

    def periodic(self, n, least=1):
        """The run of 0s at n, or at a 1 the next one (after a block, the next
        block's), of ``least`` 0s or more: before block ``least``, its first."""
        b, r = self._place(n)
        if b < least:
            b, r, n = least, 0, self.k * least * (least + 1) // 2
        if (c := r % (b + 1)) < b:
            return n - c, ("0",), n - c + b
        return n + 1, ("0",), n + 2 + b - (r < self.k * (b + 1) - 1)

    def __repr__(self):
        return "π" if self.k == 1 else f"π^{self.k}"


def pi_word(k: int = 1) -> PiWord:
    if k < 1:
        raise ValueError("k must be >= 1")
    return PiWord(k)


class BlockMirrorWord(InfiniteWord):
    """Each maximal '#'-free block of the base reversed; '#' positions kept.

    Lookahead to the next '#' is bounded by ``block_budget``. Its letters
    come in order, so it caches them a block at a time, under a lock for
    concurrent readers.
    """

    def __init__(self, base: InfiniteWord, block_budget: int = 10 ** 6):
        super().__init__(base.alphabet)
        self.base = base
        self.block_budget = block_budget
        self._scan = 0  # base index of the next block
        self._ahead: list = []  # base letters read ahead; _ahead[_at] is letter _scan
        self._at = 0
        self._cache: list = []
        self._lock = threading.Lock()

    def letter(self, n: int):
        cache = self._cache
        if 0 <= n < len(cache):
            return cache[n]
        self._fill(n)
        return cache[n]

    def letters_from(self, n: int) -> list:
        if not 0 <= n < len(self._cache):
            self._fill(n)
        return self._cache[n:n + CHUNK]

    def _fill(self, n: int):
        """Mirror blocks into the cache until it holds letter n."""
        if n < 0:
            raise IndexError(_NEGATIVE)
        cache = self._cache
        with self._lock:
            while len(cache) <= n:
                self._mirror_block()

    def _mirror_block(self):
        # a block longer than the budget raises once budget + 1 of its
        # letters are in, before the base is asked for more, and leaves
        # the word as it was
        base, budget = self.base, self.block_budget
        start, ahead, at = self._scan, self._ahead, self._at
        block: list = []
        while True:
            if at == len(ahead):
                ahead, at = base.letters_from(start + len(block)), 0
            try:
                end = ahead.index(BLOCK_MARK, at)
            except ValueError:
                end = len(ahead)
            block += ahead[at:end]
            if len(block) > budget:
                raise BlockBudgetExceeded(start, budget)
            at = end
            if end < len(ahead):
                break
        block.reverse()
        block.append(BLOCK_MARK)
        self._ahead, self._at = ahead, at + 1
        self._scan = start + len(block)
        self._cache += block


def block_mirror(w: InfiniteWord, block_budget: int = 10 ** 6) -> InfiniteWord:
    return BlockMirrorWord(w, block_budget)
