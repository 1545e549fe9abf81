"""The term language of the free tangent category over one object.

Grammar (used verbatim by the CLI):

    term    := tensor ('.' tensor)*          composition, right acts first
    tensor  := atom ('*' atom)*
    atom    := generator | '<' term ',' term '>' | '(' term ')'
    gens    : p  0  +  l  c  !{V}  id{V}  proj{i,n}

The generators are those of `SYMBOLS` (`!` and `id` take an algebra `{V}`)
and `proj{i,n}`; their boundaries and denotations are `weil.generator`'s.
Objects are written `N`, `W`, `W2`, `W2*W`, ...  Every term is boundary
checked at construction: Compose needs matching middle objects, Pair a
common source and targets W_n, W_m, and lands in `weil.fibered_sum`, W_{n+m}.

Equality of terms is semantic: evaluate both into W1 and compare the
matrices of the denoted morphisms (`terms_equal`).  There is deliberately
no rewriting to normal forms.
"""

from __future__ import annotations

import random
from functools import cache

from . import weil
from .frozen import Frozen
from .weil import W, WW, WeilAlgebra, WeilMorphism, parse_algebra


class WTermError(ValueError):
    def __init__(self, message: str, pos: int | None = None):
        super().__init__(message if pos is None else f"{message} (at position {pos})")
        self.pos = pos


# The largest dimension of the source or target of a tensor term.  A term
# denotes a matrix with one column per source monomial: `id{W255} * id{W255}`
# (dimension 65536) evaluates in 0.1 s, and each further factor multiplies
# the cost.
MAX_TERM_DIM = 65536


class WTerm(Frozen):
    """A frozen term whose hash is computed once, as in hash-consing
    (Filliâtre & Conchon, "Type-safe modular hash-consing", ML Workshop 2006).

    A node keeps its fields as one tuple, `_key`, read through properties
    (`_field`), and sets it, its boundary and its hash once, in `_boundary`:
    five slots per node, however many fields.  The hash is taken from the
    children's cached hashes, so memo and cache lookups cost O(1) however
    deep the term.  Two nodes are equal when they are of one class and
    their hashes and keys are.  `_weil` holds the W1 denotation: a `Gen`'s
    from when it is built, any other node's once `eval_weil` has computed it.
    """

    __slots__ = ("source", "target", "_key", "_hash", "_weil")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __hash__(self):
        return self._hash

    def _boundary(self, source: WeilAlgebra, target: WeilAlgebra, *key) -> None:
        """Set the key, the boundary and the hash of a node."""
        init = object.__setattr__
        init(self, "source", source)
        init(self, "target", target)
        init(self, "_key", key)
        init(self, "_hash", hash((type(self).__name__, *key)))
        init(self, "_weil", None)


def _field(index: int) -> property:
    """The read-only field `index` of a node's key."""
    return property(lambda self: self._key[index])


class Gen(WTerm):
    __slots__ = ()
    _fields = ("kind", "algebra", "i", "n")
    kind, algebra, i, n = map(_field, range(4))

    def __init__(self, kind: str, algebra: WeilAlgebra | None = None,
                 i: int | None = None, n: int | None = None):
        try:
            value = weil.generator(kind, algebra=algebra, i=i, n=n)
        except weil.WeilError as exc:
            raise WTermError(str(exc)) from None
        self._boundary(value.source, value.target, kind, algebra, i, n)
        object.__setattr__(self, "_weil", value)


class Compose(WTerm):
    __slots__ = ()
    _fields = ("outer", "inner")
    outer, inner = _field(0), _field(1)

    def __init__(self, outer: WTerm, inner: WTerm):
        if inner.target != outer.source:
            raise WTermError(
                f"boundary mismatch in composition: inner target {inner.target} "
                f"vs outer source {outer.source}")
        self._boundary(inner.source, outer.target, outer, inner)


class Tensor(WTerm):
    __slots__ = ()
    _fields = ("left", "right")
    left, right = _field(0), _field(1)

    def __init__(self, left: WTerm, right: WTerm):
        source = left.source.tensor(right.source)
        target = left.target.tensor(right.target)
        for algebra in (source, target):
            if algebra.dim > MAX_TERM_DIM:
                raise WTermError(f"tensor boundary {algebra} has dimension above the "
                                 f"limit MAX_TERM_DIM = {MAX_TERM_DIM}")
        self._boundary(source, target, left, right)


class Pair(WTerm):
    """Induced map into the fibered sum W_{n+m} (a transverse pullback)."""

    __slots__ = ()
    _fields = ("left", "right")
    left, right = _field(0), _field(1)

    def __init__(self, left: WTerm, right: WTerm):
        if left.source != right.source:
            raise WTermError(
                f"pairing needs a common source: {left.source} vs {right.source}")
        try:
            total = weil.fibered_sum(left.target, right.target)
        except weil.WeilError as exc:
            raise WTermError(str(exc)) from None
        self._boundary(left.source, total, left, right)


# -- printing -----------------------------------------------------------------


# The generator symbols of the grammar and their `weil.generator` kinds;
# those in `ANNOTATED` are followed by an algebra `{V}`.
SYMBOLS = {"p": "p", "0": "zero", "+": "plus", "l": "ell", "c": "flip",
           "!": "bang", "id": "id"}
ANNOTATED = ("bang", "id")


def print_term(t: WTerm) -> str:
    """Render with the minimal parentheses that re-parse to the same tree."""
    def go(term: WTerm, level: int) -> str:
        # level 0: composition context, 1: tensor context, 2: atom context.
        if isinstance(term, Gen):
            if term.kind == "proj":
                return f"proj{{{term.i},{term.n}}}"
            symbol = next(s for s, kind in SYMBOLS.items() if kind == term.kind)
            return f"{symbol}{{{term.algebra}}}" if term.kind in ANNOTATED else symbol
        if isinstance(term, Pair):
            return f"<{go(term.left, 0)}, {go(term.right, 0)}>"
        if isinstance(term, Compose):
            body = f"{go(term.outer, 1)} . {go(term.inner, 0)}"
            return f"({body})" if level >= 1 else body
        if isinstance(term, Tensor):
            body = f"{go(term.left, 2)} * {go(term.right, 1)}"
            return f"({body})" if level >= 2 else body
        raise WTermError(f"unknown term node {term!r}")

    return go(t, 0)


# -- parsing ------------------------------------------------------------------


class _TermParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, msg: str):
        raise WTermError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def braced_algebra(self) -> WeilAlgebra:
        self.expect("{")
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != "}":
            self.pos += 1
        if self.pos >= len(self.text):
            self.error("unterminated '{'")
        body = self.text[start:self.pos]
        self.pos += 1
        try:
            return parse_algebra(body)
        except weil.WeilError as exc:
            raise WTermError(str(exc), start)

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            self.error("expected a number")
        return int(self.text[start:self.pos])

    def atom(self) -> WTerm:
        ch = self.peek()
        pos = self.pos
        try:
            if ch == "(":
                self.expect("(")
                t = self.term()
                self.expect(")")
                return t
            if ch == "<":
                self.expect("<")
                left = self.term()
                self.expect(",")
                right = self.term()
                self.expect(">")
                return Pair(left, right)
            if self.text.startswith("proj", self.pos):
                self.pos += 4
                self.expect("{")
                i = self.nat()
                self.expect(",")
                n = self.nat()
                self.expect("}")
                return Gen("proj", i=i, n=n)
            for symbol, kind in SYMBOLS.items():
                if self.text.startswith(symbol, self.pos):
                    self.pos += len(symbol)
                    if kind in ANNOTATED:
                        return Gen(kind, algebra=self.braced_algebra())
                    return Gen(kind)
        except WTermError:
            raise
        except ValueError as exc:
            raise WTermError(str(exc), pos)
        self.error("expected a term")

    def chain(self, sep: str, part, build) -> WTerm:
        """`part (sep part)*`, folded to the right by `build`; an error in
        `build` is placed at its right operand."""
        parts = [part()]
        positions = []
        while self.peek() == sep:
            self.expect(sep)
            positions.append(self.pos)
            parts.append(part())
        t = parts[-1]
        for left, pos in zip(reversed(parts[:-1]), reversed(positions)):
            try:
                t = build(left, t)
            except ValueError as exc:
                raise WTermError(str(exc), pos)
        return t

    def tensor(self) -> WTerm:
        return self.chain("*", self.atom, Tensor)

    def term(self) -> WTerm:
        return self.chain(".", self.tensor, Compose)


def parse_term(text: str) -> WTerm:
    parser = _TermParser(text)
    t = parser.term()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input")
    return t


# -- evaluation ---------------------------------------------------------------


def eval_weil(t: WTerm) -> WeilMorphism:
    """The denoted rig morphism in W1.

    It is computed once per term and kept on the term: terms are frozen, so
    the value is the term's for as long as the term lives.  A generator's is
    set when it is built.
    """
    value = t._weil
    if value is not None:
        return value
    if isinstance(t, Compose):
        value = weil.compose_morphisms(eval_weil(t.outer), eval_weil(t.inner))
    elif isinstance(t, Tensor):
        value = weil.tensor_morphisms(eval_weil(t.left), eval_weil(t.right))
    elif isinstance(t, Pair):
        value = weil.fibered_pair(eval_weil(t.left), eval_weil(t.right))
    else:
        raise WTermError(f"unknown term node {t!r}")
    object.__setattr__(t, "_weil", value)
    return value


def terms_equal(t1: WTerm, t2: WTerm) -> bool:
    """Equality of W1 denotations; boundaries must agree."""
    if t1.source != t2.source or t1.target != t2.target:
        raise WTermError(
            f"boundary mismatch: {t1.source}->{t1.target} vs {t2.source}->{t2.target}")
    return eval_weil(t1) == eval_weil(t2)


def eval_model(t: WTerm, model, memo: dict | None = None):
    """Evaluate a term in any model, structurally.

    A model supplies four methods.  `generator_map(term)` interprets a `Gen`
    (identities are the generator `id{V}`, so it interprets them too);
    `compose(outer, inner)` composes two values; `tensor(left_term,
    left_value, right_term, right_value)` and `pair(...)`, with the same
    arguments, receive the sub-terms as well as their values, because a
    strict model implements f ⊗ g by whiskering, which needs the W1
    boundaries (and possibly the W1 denotation) of the factors.

    `memo`, if given, maps terms already evaluated in `model` to their
    values; it is read before each subterm is evaluated and filled with every
    value computed.  Terms are frozen, so equal subterms share one entry.
    Scope a memo to one model and to one batch of related terms (say the two
    sides of a functoriality pair) and drop it afterwards: it holds every
    intermediate map it has seen.
    """
    if memo is not None:
        value = memo.get(t)
        if value is not None:
            return value
    if isinstance(t, Gen):
        value = model.generator_map(t)
    elif isinstance(t, Compose):
        value = model.compose(eval_model(t.outer, model, memo),
                              eval_model(t.inner, model, memo))
    elif isinstance(t, Tensor):
        value = model.tensor(t.left, eval_model(t.left, model, memo),
                             t.right, eval_model(t.right, model, memo))
    elif isinstance(t, Pair):
        value = model.pair(t.left, eval_model(t.left, model, memo),
                           t.right, eval_model(t.right, model, memo))
    else:
        raise WTermError(f"unknown term node {t!r}")
    if memo is not None:
        memo[t] = value
    return value


# -- random terms and sound rewriting ----------------------------------------


def identity_term(algebra: WeilAlgebra) -> WTerm:
    return Gen("id", algebra=algebra)


_ATOMS = (
    "p", "0", "+", "l", "c", "id{W}", "id{N}", "id{W*W}", "proj{1,2}",
    "proj{2,2}", "!{W}", "!{W2}", "<p, p>", "<0 . !{W}, id{W}>",
)


@cache
def _atom(text: str) -> WTerm:
    """The parsed atom; only the strings of `_ATOMS` are passed here."""
    return parse_term(text)


def random_term(rng: random.Random, depth: int = 3) -> WTerm:
    """A random boundary-correct term (grown by retrying compositions)."""
    if depth <= 0:
        return _atom(rng.choice(_ATOMS))
    for _ in range(30):
        shape = rng.randrange(3)
        try:
            if shape == 0:
                return Compose(random_term(rng, depth - 1), random_term(rng, depth - 1))
            if shape == 1:
                return Tensor(random_term(rng, depth - 1), random_term(rng, depth - 1))
            return Pair(random_term(rng, depth - 1), random_term(rng, depth - 1))
        except ValueError:
            continue
    return _atom(rng.choice(_ATOMS))


# Sound bidirectional rewrites: each pair denotes the same W1 morphism
# whenever the boundaries line up.  Used to manufacture syntactically
# different terms with equal denotations.
def _rewrite_once(t: WTerm, rng: random.Random) -> WTerm:
    choice = rng.randrange(8)
    if choice == 0:
        # f  ->  f . id
        return Compose(t, identity_term(t.source))
    if choice == 1:
        # f  ->  id . f
        return Compose(identity_term(t.target), t)
    if choice == 2 and isinstance(t, Compose):
        # associativity shuffle
        if isinstance(t.inner, Compose):
            return Compose(Compose(t.outer, t.inner.outer), t.inner.inner)
        if isinstance(t.outer, Compose):
            return Compose(t.outer.outer, Compose(t.outer.inner, t.inner))
    if choice == 3 and isinstance(t, Tensor):
        # interchange: (f.g) * (h.k) <-> (f*h) . (g*k)
        if isinstance(t.left, Compose) and isinstance(t.right, Compose):
            return Compose(Tensor(t.left.outer, t.right.outer),
                           Tensor(t.left.inner, t.right.inner))
    if choice == 4 and isinstance(t, Compose):
        if isinstance(t.outer, Tensor) and isinstance(t.inner, Tensor) and \
                t.outer.left.source == t.inner.left.target and \
                t.outer.right.source == t.inner.right.target:
            return Tensor(Compose(t.outer.left, t.inner.left),
                          Compose(t.outer.right, t.inner.right))
    if choice == 5 and t.source == W and t.target == W:
        # f = + . <0 . !, f>   (left unit law)
        bang = Gen("bang", algebra=W)
        return Compose(Gen("plus"), Pair(Compose(Gen("zero"), bang), t))
    if choice == 7:
        # f -> c . c . f when f targets W*W;  f -> f . (c . c) when it starts there
        if t.target == WW:
            return Compose(Gen("flip"), Compose(Gen("flip"), t))
        if t.source == WW:
            return Compose(t, Compose(Gen("flip"), Gen("flip")))
    # Recurse into one child when the top level offered nothing.
    if isinstance(t, Compose):
        if rng.random() < 0.5:
            return Compose(_rewrite_once(t.outer, rng), t.inner)
        return Compose(t.outer, _rewrite_once(t.inner, rng))
    if isinstance(t, Tensor):
        if rng.random() < 0.5:
            return Tensor(_rewrite_once(t.left, rng), t.right)
        return Tensor(t.left, _rewrite_once(t.right, rng))
    if isinstance(t, Pair):
        if rng.random() < 0.5:
            return Pair(_rewrite_once(t.left, rng), t.right)
        return Pair(t.left, _rewrite_once(t.right, rng))
    return t


def random_equal_pair(rng: random.Random, depth: int = 3,
                      rewrites: int = 3) -> tuple[WTerm, WTerm]:
    """Two syntactically different terms with the same W1 denotation."""
    base = random_term(rng, depth)
    other = base
    for _ in range(rewrites):
        other = _rewrite_once(other, rng)
    return base, other
