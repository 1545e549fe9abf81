"""Exact multivariate polynomials and polynomial maps over the rationals.

This is the concrete base category of the package: objects are affine spaces
Q^n, morphisms are PolyMaps (tuples of polynomials), and `differential`
implements the directional-derivative combinator D[f](x, v) = Jf(x)·v, the
point in the first n variables and the direction in the last n.

Polynomial text syntax (used in spec files and the CLI): `3/2*x1^2*x2 - x3`.

Representation (private to this module): a dict from a packed exponent key to
a nonzero coefficient.  Variable x_i owns bits 16(i-1) .. 16i-1 of the key,
so multiplying monomials is one integer add (Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  The top bit of each field is a guard bit: exponents are at most
MAX_EXPONENT, the sum of two valid fields cannot carry into the next one, and
a product whose keys set a guard bit raises PolyError instead of wrapping.
Coefficients are canonical: an int when the denominator is 1, a Fraction
otherwise.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, lru_cache, reduce
from operator import or_

from .report import CheckReport


class PolyError(ValueError):
    pass


_FIELD = 16
_FIELD_MASK = (1 << _FIELD) - 1
MAX_EXPONENT = (1 << (_FIELD - 1)) - 1


@cache
def _guard(n_vars: int) -> int:
    """The guard bit of every field of an n_vars key."""
    return int.from_bytes(b"\x80\x00" * n_vars, "big")


def _overflow() -> PolyError:
    return PolyError(f"exponent exceeds the limit of {MAX_EXPONENT} per variable")


def _pack(mono) -> int:
    key = 0
    for i, e in enumerate(mono):
        if not 0 <= e <= MAX_EXPONENT:
            raise _overflow() if e > 0 else PolyError(f"negative exponent {e}")
        key |= e << (_FIELD * i)
    return key


def _unpack(key: int, n_vars: int) -> tuple[int, ...]:
    return tuple((key >> (_FIELD * i)) & _FIELD_MASK for i in range(n_vars))


def _degree(key: int) -> int:
    total = 0
    while key:
        total += key & _FIELD_MASK
        key >>= _FIELD
    return total


def _canon(c):
    """A Fraction with denominator 1 becomes an int."""
    return c.numerator if c.denominator == 1 else c


def _settle(terms: dict) -> bool:
    """Make Fraction coefficients canonical in place; True if any remain."""
    frac = False
    for key, c in terms.items():
        if type(c) is not int:
            if c.denominator == 1:
                terms[key] = c.numerator
            else:
                frac = True
    return frac


# -- the kernel: raw dicts in, raw dicts out ---------------------------------


def _iadd(out: dict, b: dict) -> None:
    """out += b, in place."""
    get = out.get
    for key, c in b.items():
        s = get(key, 0) + c
        if s:
            out[key] = s
        else:
            del out[key]


def _mul(a: dict, b: dict, guard: int) -> dict:
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # A monomial times a polynomial: distinct keys stay distinct.
        ((ka, ca),) = a.items()
        if ca == 1:
            out = {ka + kb: cb for kb, cb in b.items()}
        else:
            out = {ka + kb: ca * cb for kb, cb in b.items()}
    else:
        out = {}
        get = out.get
        b_items = b.items()
        for ka, ca in a.items():
            for kb, cb in b_items:
                key = ka + kb
                out[key] = get(key, 0) + ca * cb
        if 0 in out.values():
            out = {key: c for key, c in out.items() if c}
    if reduce(or_, out, 0) & guard:
        raise _overflow()
    return out


def _pow(a: dict, k: int, guard: int) -> dict:
    """a ** k for k >= 1, by binary powering."""
    result = None
    while True:
        if k & 1:
            result = a if result is None else _mul(result, a, guard)
        k >>= 1
        if not k:
            return result
        a = _mul(a, a, guard)


def _make(n_vars: int, terms: dict, frac: bool) -> "Polynomial":
    p = object.__new__(Polynomial)
    p.n_vars = n_vars
    p._terms = terms
    p._frac = frac
    return p


class Polynomial:
    """Sparse polynomial in variables x1..xn with rational coefficients."""

    # _frac: some coefficient is a Fraction.  Results built only from int
    # coefficients are already canonical and skip the _settle pass.
    __slots__ = ("n_vars", "_terms", "_frac")

    def __init__(self, n_vars: int, terms: dict[tuple[int, ...], Fraction]):
        """Build from {exponent tuple: coefficient}; zero coefficients drop out."""
        packed = {}
        for mono, coeff in terms.items():
            if len(mono) != n_vars:
                raise PolyError(f"monomial {mono} in {n_vars} variables")
            c = Fraction(coeff)
            if c:
                packed[_pack(mono)] = c
        self.n_vars = n_vars
        self._terms = packed
        self._frac = _settle(packed)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n_vars: int) -> "Polynomial":
        return _make(n_vars, {}, False)

    @staticmethod
    def const(n_vars: int, value) -> "Polynomial":
        c = _canon(Fraction(value))
        return _make(n_vars, {0: c} if c else {}, type(c) is not int)

    @staticmethod
    def var(n_vars: int, index: int) -> "Polynomial":
        """The variable x_index, 1-based."""
        if not 1 <= index <= n_vars:
            raise PolyError(f"variable x{index} out of range for {n_vars} variables")
        return _make(n_vars, {1 << (_FIELD * (index - 1)): 1}, False)

    def monomials(self):
        """Yield (exponent tuple, coefficient) pairs."""
        n = self.n_vars
        for key, c in self._terms.items():
            yield _unpack(key, n), c

    # -- ring operations ---------------------------------------------------

    def _require_same(self, other: "Polynomial") -> None:
        if self.n_vars != other.n_vars:
            raise PolyError(f"variable-count mismatch: {self.n_vars} vs {other.n_vars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.const(self.n_vars, other)
        self._require_same(other)
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        _iadd(out, b)
        frac = (self._frac or other._frac) and _settle(out)
        return _make(self.n_vars, out, frac)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Polynomial.const(self.n_vars, other)
        self._require_same(other)
        out = dict(self._terms)
        get = out.get
        for key, c in other._terms.items():
            s = get(key, 0) - c
            if s:
                out[key] = s
            else:
                del out[key]
        frac = (self._frac or other._frac) and _settle(out)
        return _make(self.n_vars, out, frac)

    def __neg__(self):
        return _make(self.n_vars, {key: -c for key, c in self._terms.items()},
                     self._frac)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _canon(Fraction(other))
            if not c:
                return _make(self.n_vars, {}, False)
            out = {key: c * v for key, v in self._terms.items()}
            frac = (self._frac or type(c) is not int) and _settle(out)
            return _make(self.n_vars, out, frac)
        self._require_same(other)
        out = _mul(self._terms, other._terms, _guard(self.n_vars))
        frac = (self._frac or other._frac) and _settle(out)
        return _make(self.n_vars, out, frac)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise PolyError("negative powers are not polynomials")
        if k == 0:
            return Polynomial.const(self.n_vars, 1)
        terms = self._terms
        if not terms:
            return Polynomial.zero(self.n_vars)
        if k > MAX_EXPONENT and any(terms):
            raise _overflow()
        out = dict(terms) if k == 1 else _pow(terms, k, _guard(self.n_vars))
        return _make(self.n_vars, out, self._frac and _settle(out))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self._terms == other._terms

    def __hash__(self):
        return hash((self.n_vars, frozenset(self._terms.items())))

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Total degree; the zero polynomial gets -1."""
        return max(map(_degree, self._terms), default=-1)

    # -- calculus and substitution -----------------------------------------

    def partial(self, index: int) -> "Polynomial":
        """d/dx_index, 1-based."""
        if not 1 <= index <= self.n_vars:
            raise PolyError(f"variable x{index} out of range for {self.n_vars} variables")
        shift = _FIELD * (index - 1)
        one = 1 << shift
        out = {}
        for key, c in self._terms.items():
            e = (key >> shift) & _FIELD_MASK
            if e:
                out[key - one] = c * e
        return _make(self.n_vars, out, self._frac and _settle(out))

    def substitute(self, args: list["Polynomial"],
                   out_vars: int | None = None) -> "Polynomial":
        """Plug args[i] in for x_{i+1}; args live in a common variable count.

        For a polynomial in zero variables (a constant) pass `out_vars` to
        pick the ambient space.  When every argument is 0 or a bare variable
        the substitution only renames keys; see `_substitute`.
        """
        if len(args) != self.n_vars:
            raise PolyError(f"need {self.n_vars} substitutions, got {len(args)}")
        inferred = args[0].n_vars if args else (out_vars or 0)
        if out_vars is not None and args and inferred != out_vars:
            raise PolyError("out_vars disagrees with the substitution arguments")
        for a in args:
            if a.n_vars != inferred:
                raise PolyError("substitution arguments disagree on variable count")
        return _substitute((self,), args, inferred, _selection_images(args))[0]

    def shift_vars(self, offset: int, new_n: int) -> "Polynomial":
        """Reindex x_i -> x_{i+offset} inside a space of new_n variables."""
        if offset < 0 or offset + self.n_vars > new_n:
            raise PolyError(f"cannot shift {self.n_vars} variables by {offset} "
                            f"into {new_n}")
        shift = _FIELD * offset
        return _make(new_n, {key << shift: c for key, c in self._terms.items()},
                     self._frac)

    def eval(self, values) -> Fraction:
        """The value at `values`, exactly.

        Each term reads its variables off its packed key, and only a value
        a term uses is converted (an int or a Fraction is used as it is).
        """
        vals = values if isinstance(values, (list, tuple)) else list(values)
        if len(vals) != self.n_vars:
            raise PolyError(f"need {self.n_vars} values, got {len(vals)}")
        total = 0
        for key, coeff in self._terms.items():
            term = coeff
            while key:
                # The lowest nonzero field: variable i with exponent e.
                i = ((key & -key).bit_length() - 1) // _FIELD
                e = (key >> (_FIELD * i)) & _FIELD_MASK
                key ^= e << (_FIELD * i)
                v = vals[i]
                if type(v) is not int and type(v) is not Fraction:
                    v = Fraction(v)
                term *= v if e == 1 else v ** e
            total += term
        return Fraction(total)

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        # Graded-lex for printing: higher total degree first, then the larger
        # exponent of the first variable where two monomials differ.  A term
        # is read off its key as its nonzero fields ((-i, e), i ascending),
        # so the cost follows the variables a term uses, not n_vars; on
        # such sequences that order is plain descending tuple order.
        terms = []
        for key, coeff in self._terms.items():
            fields = []
            degree = 0
            while key:
                i = ((key & -key).bit_length() - 1) // _FIELD
                e = (key >> (_FIELD * i)) & _FIELD_MASK
                key ^= e << (_FIELD * i)
                fields.append((-i, e))
                degree += e
            terms.append(((degree, fields), coeff))
        terms.sort(key=lambda t: t[0], reverse=True)
        parts = []
        for (_, fields), coeff in terms:
            factors = [f"x{1 - i}" + (f"^{e}" if e > 1 else "") for i, e in fields]
            body = "*".join(factors)
            mag = abs(coeff)
            if not factors:
                chunk = str(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = f"{mag}*{body}"
            parts.append(("- " if coeff < 0 else "+ ") + chunk)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    __repr__ = __str__


# -- polynomial text parsing ------------------------------------------------


class _PolyParser:
    def __init__(self, text: str, max_degree: int | None = None):
        self.text = text
        self.pos = 0
        self.max_degree = max_degree

    def bound(self, degree: int) -> None:
        """Reject a product or power of this total degree before building it."""
        if self.max_degree is not None and degree > self.max_degree:
            self.error(f"total degree {degree} exceeds the limit of {self.max_degree}")

    def error(self, msg: str):
        raise PolyError(f"{msg} at position {self.pos} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def digits(self, what: str) -> int:
        """The run of digits at the cursor, read as an int."""
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if start == self.pos:
            self.error(f"expected {what}")
        return int(self.text[start:self.pos])

    def number(self) -> Fraction:
        self.skip_ws()
        num = self.digits("a number")
        if self.peek() == "/":
            self.pos += 1
            self.skip_ws()
            den = self.digits("a denominator")
            if not den:
                self.error("division by zero")
            return Fraction(num, den)
        return Fraction(num)

    def atom(self, n_vars: int) -> Polynomial:
        ch = self.peek()
        if ch == "(":
            self.take("(")
            p = self.expr(n_vars)
            self.take(")")
            return p
        if ch == "x":
            self.pos += 1
            return Polynomial.var(n_vars, self.digits("a variable index after 'x'"))
        if ch.isdecimal():
            return Polynomial.const(n_vars, self.number())
        self.error("expected a term")

    def factor(self, n_vars: int) -> Polynomial:
        p = self.atom(n_vars)
        if self.peek() == "^":
            self.take("^")
            self.skip_ws()
            k = self.digits("an exponent")
            if k > MAX_EXPONENT:
                self.error(f"exponent {k} exceeds the limit of {MAX_EXPONENT}")
            self.bound(p.degree() * k)
            p = p ** k
        return p

    def term(self, n_vars: int) -> Polynomial:
        p = self.factor(n_vars)
        while self.peek() == "*":
            self.take("*")
            q = self.factor(n_vars)
            self.bound(p.degree() + q.degree())
            p = p * q
        return p

    def expr(self, n_vars: int) -> Polynomial:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
        p = self.term(n_vars) * sign
        while self.peek() in ("+", "-"):
            sign = 1
            while self.peek() in ("+", "-"):
                if self.peek() == "-":
                    sign = -sign
                self.pos += 1
            p = p + self.term(n_vars) * sign
        return p


def max_var_index(text: str) -> int:
    """Largest variable index mentioned in a polynomial string (0 if none)."""
    best = 0
    i = 0
    while i < len(text):
        if text[i] == "x":
            j = i + 1
            while j < len(text) and text[j].isdecimal():
                j += 1
            if j > i + 1:
                best = max(best, int(text[i + 1:j]))
            i = j
        else:
            i += 1
    return best


def parse_poly(text: str, n_vars: int | None = None,
               max_degree: int | None = None) -> Polynomial:
    """Parse `3/2*x1^2*x2 - x3` style syntax.

    With `max_degree`, every power and product written in `text` must have
    total degree at most `max_degree` (checked before it is computed, so the
    cost of parsing stays bounded); otherwise PolyError.
    """
    if n_vars is None:
        n_vars = max_var_index(text)
    parser = _PolyParser(text, max_degree)
    p = parser.expr(n_vars)
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input")
    return p


# -- polynomial maps ---------------------------------------------------------


class PolyMap:
    """A polynomial map Q^src_dim -> Q^tgt_dim, stored componentwise."""

    # `_images` is filled by `selection` or by the first `selection_images` call.
    __slots__ = ("src_dim", "tgt_dim", "components", "_images")

    def __init__(self, src_dim: int, tgt_dim: int, components: list[Polynomial]):
        if len(components) != tgt_dim:
            raise PolyError(f"expected {tgt_dim} components, got {len(components)}")
        for c in components:
            if c.n_vars != src_dim:
                raise PolyError(
                    f"component in {c.n_vars} variables inside a map from Q^{src_dim}"
                )
        self.src_dim = src_dim
        self.tgt_dim = tgt_dim
        self.components = tuple(components)

    @staticmethod
    def selection(src_dim: int, sources) -> "PolyMap":
        """The map whose component k is x_{sources[k]+1}, or 0 where it is None.

        The coordinate selections of flat spaces are built this way: the
        map knows its `selection_images` from the start, so `compose_maps`
        renames keys through it without scanning its components.  The
        variables and their keys come from `_variables(src_dim)`, shared by
        every selection out of Q^src_dim, so a selection costs one reference
        per coordinate and the legs a flat space keeps stay small.
        """
        keys, xs = _variables(src_dim)
        zero = _make(src_dim, {}, False)
        images: list[int | None] = []
        comps = []
        for j in sources:
            if j is None:
                images.append(None)
                comps.append(zero)
                continue
            if not 0 <= j < src_dim:
                raise PolyError(f"variable x{j + 1} out of range for {src_dim} variables")
            images.append(keys[j])
            comps.append(xs[j])
        m = object.__new__(PolyMap)
        m.src_dim = src_dim
        m.tgt_dim = len(comps)
        m.components = tuple(comps)
        m._images = images
        return m

    @staticmethod
    def identity(n: int) -> "PolyMap":
        if n < 0:
            raise PolyError(f"no identity on Q^{n}")
        return PolyMap.selection(n, range(n))

    @staticmethod
    def zero(src_dim: int, tgt_dim: int) -> "PolyMap":
        return PolyMap(src_dim, tgt_dim, [Polynomial.zero(src_dim)] * tgt_dim)

    @staticmethod
    def constant(src_dim: int, values) -> "PolyMap":
        return PolyMap(src_dim, len(values), [Polynomial.const(src_dim, v) for v in values])

    @staticmethod
    def from_strings(src_dim: int, texts: list[str]) -> "PolyMap":
        return PolyMap(src_dim, len(texts), [parse_poly(t, src_dim) for t in texts])

    @staticmethod
    def projection(src_dim: int, start: int, count: int) -> "PolyMap":
        """Project onto variables start..start+count-1 (0-based start)."""
        if count < 0:
            raise PolyError(f"cannot project onto {count} variables")
        return PolyMap.selection(src_dim, range(start, start + count))

    @staticmethod
    def linear(src_dim: int, rows: list[dict[int, int | Fraction]]) -> "PolyMap":
        """The linear map whose component k is Σ_j rows[k][j]·x_{j+1} (j 0-based)."""
        comps = []
        for row in rows:
            terms = {}
            for j, c in row.items():
                if not 0 <= j < src_dim:
                    raise PolyError(f"variable x{j + 1} out of range for {src_dim} variables")
                if type(c) is not int:
                    c = _canon(Fraction(c))
                if c:
                    terms[1 << (_FIELD * j)] = c
            comps.append(_make(src_dim, terms,
                               any(type(c) is not int for c in terms.values())))
        return PolyMap(src_dim, len(rows), comps)

    @staticmethod
    def pairing(maps: list["PolyMap"]) -> "PolyMap":
        """Tuple maps with a common source into the product of their targets."""
        if not maps:
            raise PolyError("pairing needs at least one map")
        src = maps[0].src_dim
        comps: list[Polynomial] = []
        for m in maps:
            if m.src_dim != src:
                raise PolyError("pairing requires a common source dimension")
            comps.extend(m.components)
        return PolyMap(src, len(comps), comps)

    def selection_images(self) -> list[int | None] | None:
        """`_selection_images` of the components, worked out once per map.

        Maps such as the legs a prolongation caches are composed with again
        and again; the components are immutable, so the answer is too.
        """
        try:
            return self._images
        except AttributeError:
            self._images = _selection_images(self.components)
            return self._images

    def __add__(self, other: "PolyMap") -> "PolyMap":
        if (self.src_dim, self.tgt_dim) != (other.src_dim, other.tgt_dim):
            raise PolyError("pointwise + needs equal shapes")
        return PolyMap(self.src_dim, self.tgt_dim,
                       [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "PolyMap") -> "PolyMap":
        if (self.src_dim, self.tgt_dim) != (other.src_dim, other.tgt_dim):
            raise PolyError("pointwise - needs equal shapes")
        return PolyMap(self.src_dim, self.tgt_dim,
                       [a - b for a, b in zip(self.components, other.components)])

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (self.src_dim, self.tgt_dim, self.components) == \
               (other.src_dim, other.tgt_dim, other.components)

    def __hash__(self):
        return hash((self.src_dim, self.tgt_dim, self.components))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def eval(self, values) -> list[Fraction]:
        vals = list(values)
        return [c.eval(vals) for c in self.components]

    def max_degree(self) -> int:
        return max((c.degree() for c in self.components), default=-1)

    def cross(self, other: "PolyMap") -> "PolyMap":
        """Product map f x g : Q^(s1+s2) -> Q^(t1+t2)."""
        n = self.src_dim + other.src_dim
        comps = [c.shift_vars(0, n) for c in self.components]
        comps += [c.shift_vars(self.src_dim, n) for c in other.components]
        return PolyMap(n, self.tgt_dim + other.tgt_dim, comps)

    def linear_part(self):
        """(matrix, offset) for an affine map; raises if degree > 1."""
        if self.max_degree() > 1:
            raise PolyError("map is not affine-linear")
        matrix = []
        offset = []
        for c in self.components:
            offset.append(Fraction(c._terms.get(0, 0)))
            row = [Fraction(0)] * self.src_dim
            for key, coeff in c._terms.items():
                if key:
                    row[(key.bit_length() - 1) // _FIELD] = Fraction(coeff)
            matrix.append(row)
        return matrix, offset

    def __str__(self) -> str:
        body = ", ".join(str(c) for c in self.components)
        return f"({body}): Q^{self.src_dim} -> Q^{self.tgt_dim}"

    __repr__ = __str__


VARIABLE_CACHE_SIZE = 64

# The term dict {key of x_{j+1}: 1} of each variable j, shared by the
# variables of every dimension; `_variables` extends it as far as it needs.
_VARIABLE_TERMS: list[dict] = []


@lru_cache(maxsize=VARIABLE_CACHE_SIZE)
def _variables(n_vars: int) -> tuple[tuple[int, ...], tuple[Polynomial, ...]]:
    """The keys of x_1..x_n and the polynomials x_1..x_n, built once per n.

    Polynomials are immutable and a term dict does not depend on the number
    of variables, so every selection out of Q^n shares these polynomials and
    every dimension shares their term dicts.  The cache holds at most
    VARIABLE_CACHE_SIZE dimensions, least recently used first out (`tancat
    selftest` uses 45), at about 70 B per variable each.  The shared term
    dicts reach the largest dimension n asked for: the key of x_j takes
    about 2j bytes, so they cost roughly n² bytes plus about 250 B per
    variable, what one selection out of Q^n costs anyway (about 1.3 MB at
    n = 1024).
    """
    terms = _VARIABLE_TERMS
    terms.extend({1 << (_FIELD * j): 1} for j in range(len(terms), n_vars))
    return tuple(next(iter(t)) for t in terms[:n_vars]), \
        tuple(_make(n_vars, t, False) for t in terms[:n_vars])


def _variable(key: int) -> int | None:
    """i when key is the monomial x_{i+1}, else None."""
    bit = key.bit_length() - 1
    if bit % _FIELD or key != 1 << bit:
        return None
    return bit // _FIELD


def _selection_images(args) -> list[int | None] | None:
    """The variable keys the polynomials `args` select, or None if they do not.

    `args` is a selection when every entry is 0 or a bare variable with
    coefficient 1; entry i is the key of the variable args[i] copies, or None
    for a zero entry.
    """
    images = []
    for c in args:
        terms = c._terms
        if not terms:
            images.append(None)
            continue
        if len(terms) != 1:
            return None
        for key in terms:
            if terms[key] != 1 or _variable(key) is None:
                return None
        images.append(key)
    return images


def _move(key: int, images: list[int | None], guard: int) -> int | None:
    """The key of monomial `key` after x_{i+1} -> images[i]; None if it dies."""
    new = 0
    while key:
        # The lowest nonzero field: variable i with exponent e.
        i = ((key & -key).bit_length() - 1) // _FIELD
        e = (key >> (_FIELD * i)) & _FIELD_MASK
        key ^= e << (_FIELD * i)
        image = images[i]
        if image is None:
            return None
        new += e * image
        # Each field stays at most MAX_EXPONENT before an add, so one add
        # cannot carry into the next field: checking now never misses.
        if new & guard:
            raise _overflow()
    return new


def _select(polys, images: list[int | None], n_vars: int) -> list[Polynomial]:
    """`polys` with x_{i+1} renamed to images[i] (None: set to 0).

    When the renaming is x_{i+1} -> x_{i+1}, the identity or a prefix into
    more variables, the keys do not change: each result shares its term dict
    with its source, which is safe because no polynomial mutates its terms.
    """
    key = 1
    for image in images:
        if image != key:
            break
        key <<= _FIELD
    else:
        return [_make(n_vars, c._terms, c._frac) for c in polys]
    guard = _guard(n_vars)
    kept = [key for key in images if key is not None]
    # Two variables with one image: monomials can meet and cancel.
    merges = len(set(kept)) < len(kept)
    comps = []
    for c in polys:
        out: dict = {}
        for key, coeff in c._terms.items():
            i = _variable(key)
            new = images[i] if i is not None else _move(key, images, guard)
            if new is None:
                continue
            out[new] = out.get(new, 0) + coeff if merges else coeff
        frac = c._frac
        if merges:
            out = {key: coeff for key, coeff in out.items() if coeff}
            frac = frac and _settle(out)
        # _make inlined: this loop builds most polynomials of nerve evaluation.
        p = object.__new__(Polynomial)
        p.n_vars = n_vars
        p._terms = out
        p._frac = frac
        comps.append(p)
    return comps


def _substitute(polys, args, n_vars: int, images) -> list[Polynomial]:
    """Each of `polys` with args[i] plugged in for x_{i+1}, in n_vars variables.

    The one substitution routine behind `Polynomial.substitute` and
    `compose_maps`, which pass `images`, the `_selection_images` of `args`.
    When every argument is 0 or a bare variable it renames keys (`_select`).
    Otherwise a polynomial that is 0 stays 0, one that is the bare variable
    x_{i+1} is args[i] itself (polynomials are immutable, so sharing it is
    safe), and every other one goes through a table that lives for this
    call: each distinct monomial of `polys` is expanded once, as its memoised
    prefix (the monomial without its highest variable) times one power
    args[i]^e, itself computed once by binary powering.  A term is scaled by
    its coefficient only when the coefficient is not 1.
    """
    if images is not None:
        return _select(polys, images, n_vars)
    guard = _guard(n_vars)
    args_frac = any(a._frac for a in args)
    powers: dict[tuple[int, int], dict] = {}
    # Expanded monomials by key; the empty monomial 1 seeds every prefix chain.
    table: dict[int, dict] = {0: {0: 1}}

    def expand(key: int) -> dict:
        chain = []
        while key not in table:
            # The highest nonzero field: variable i with exponent e.
            i = (key.bit_length() - 1) // _FIELD
            e = key >> (_FIELD * i)
            chain.append((i, e))
            key ^= e << (_FIELD * i)
        value = table[key]
        for i, e in reversed(chain):
            power = powers.get((i, e))
            if power is None:
                power = powers[i, e] = _pow(args[i]._terms, e, guard)
            if not key:
                value = power
            elif value:
                value = _mul(value, power, guard)
            key += e << (_FIELD * i)
            table[key] = value
        return value

    comps = []
    for c in polys:
        terms = c._terms
        if not terms:
            comps.append(_make(n_vars, {}, False))
            continue
        if len(terms) == 1:
            ((key, coeff),) = terms.items()
            i = _variable(key) if coeff == 1 else None
            if i is not None:
                comps.append(args[i])
                continue
        out: dict = {}
        for key, coeff in terms.items():
            value = table.get(key)
            if value is None:
                value = expand(key)
            if not value:
                continue
            if not out:
                out = dict(value) if coeff == 1 else {k: coeff * v for k, v in value.items()}
            elif coeff == 1:
                _iadd(out, value)
            else:
                get = out.get
                for k, v in value.items():
                    s = get(k, 0) + coeff * v
                    if s:
                        out[k] = s
                    else:
                        del out[k]
        comps.append(_make(n_vars, out, (c._frac or args_frac) and _settle(out)))
    return comps


def compose_maps(g: PolyMap, f: PolyMap) -> PolyMap:
    """g after f (exact substitution).

    All of g's components go through one `_substitute` call, so a monomial
    that several components share is expanded once.  When f is a coordinate
    selection (every component 0 or a bare variable) the composite only
    renames g's variables, so g's keys are remapped directly; f works out
    whether it is one once (`PolyMap.selection_images`).
    """
    if f.tgt_dim != g.src_dim:
        raise PolyError(f"cannot compose: inner target {f.tgt_dim} vs outer source {g.src_dim}")
    return PolyMap(f.src_dim, g.tgt_dim, _substitute(g.components, f.components,
                                                     f.src_dim, f.selection_images()))


def tangent_n(f: PolyMap, n: int) -> PolyMap:
    """T_{W_n} f (x; v_1..v_n) = (f(x); Df(x)·v_1, ..., Df(x)·v_n), in one pass.

    Source and target are n + 1 blocks of f's source and target dimension:
    the base block first, then one block per tangent direction.  The base
    block keeps f's keys.  For each term c·x^k and each variable x_j of
    exponent e > 0, tangent block i gets c·e at key k − x_j + v_{i,j}; the
    v-part names j, so distinct (term, j) pairs never meet.
    """
    s = f.src_dim
    total = s * (n + 1)
    base = []
    blocks: list[list[Polynomial]] = [[] for _ in range(n)]
    for comp in f.components:
        base.append(_make(total, comp._terms, comp._frac))
        # (k − x_j, x_j, c·e) for every term and every variable in it.
        legs = []
        for key, c in comp._terms.items():
            rest = key
            while rest:
                low = rest & -rest
                j = (low.bit_length() - 1) // _FIELD
                one = 1 << (_FIELD * j)
                e = (rest >> (_FIELD * j)) & _FIELD_MASK
                rest ^= e * one
                legs.append((key - one, one, c * e))
        frac = comp._frac
        if frac:
            legs = [(k, one, _canon(v)) for k, one, v in legs]
            frac = any(type(v) is not int for _, _, v in legs)
        for i, block in enumerate(blocks, 1):
            shift = _FIELD * s * i
            block.append(_make(total, {k + (one << shift): v for k, one, v in legs}, frac))
    return PolyMap(total, f.tgt_dim * (n + 1), base + [p for b in blocks for p in b])


# -- the differential combinator ---------------------------------------------


def differential(f: PolyMap) -> PolyMap:
    """D[f] : Q^(2n) -> Q^m, D[f](x, v) = Jacobian of f at x applied to v.

    Each component c is carried into Q^(2n) once, as c(x_1..x_n) (a prefix
    renaming, so it shares c's terms), and D[f]_c = Σ_j ∂_j c · v_j is summed
    there from its first nonzero term; x_i and v_j are the shared variables
    of `_variables(2n)`.  `tangent_n(f, 1)` computes the same block in one
    pass over the keys.  This path still goes through `Polynomial.substitute`
    and `Polynomial.mul` on purpose: in the `cdc` benchmark workload only
    `differential` reaches those two traced boundaries, so rerouting it
    needs a change to that workload's expected calls first.
    """
    n = f.src_dim
    two_n = 2 * n
    xs = _variables(two_n)[1]
    comps = []
    for c in f.components:
        up = c.substitute(xs[:n])
        acc = None
        for j in range(n):
            pj = up.partial(j + 1)
            if pj._terms:
                pj = pj * xs[n + j]
                acc = pj if acc is None else acc + pj
        comps.append(Polynomial.zero(two_n) if acc is None else acc)
    return PolyMap(two_n, f.tgt_dim, comps)


def is_linear(f: PolyMap) -> bool:
    """Linearity in the differential sense: D[f] ∘ (0, id) = f exactly."""
    n = f.src_dim
    zero_then_id = PolyMap.pairing([PolyMap.zero(n, n), PolyMap.identity(n)])
    return compose_maps(differential(f), zero_then_id) == f


# -- random generation and the axiom checker ---------------------------------


def random_polynomial(rng: random.Random, n_vars: int, degree: int,
                      coeff_range: tuple[int, int] = (-3, 3),
                      n_terms: int = 4) -> Polynomial:
    """A seeded random polynomial of at most `n_terms` terms.

    Draw order, which every seeded map, golden report and AC3 sample relies
    on: for each of the n_terms terms, its degree k = randint(0, degree),
    then, only when n_vars > 0, k variable indices randrange(n_vars), each
    adding one to its exponent, then its coefficient randint(*coeff_range).
    (randint(a, b) is randrange(a, b + 1), which is what is called.)  A term
    with coefficient 0 is skipped; equal monomials merge, and a sum that
    cancels drops out.  A term with an exponent above MAX_EXPONENT (only
    possible when degree is) raises PolyError if its coefficient is nonzero.
    Each term's packed key is summed as its variables are drawn, into one
    term dict for the whole polynomial.
    """
    randrange = rng.randrange
    low, high = coeff_range
    terms: dict = {}
    for _ in range(n_terms):
        key = 0
        units = randrange(degree + 1)
        if n_vars:
            for _ in range(units):
                key += 1 << (_FIELD * randrange(n_vars))
        c = randrange(low, high + 1)
        if c:
            # A field past MAX_EXPONENT sets its guard bit, or carries and
            # loses degree: only a degree above MAX_EXPONENT can do either.
            if units > MAX_EXPONENT and n_vars and (
                    key & _guard(n_vars) or _degree(key) != units):
                raise _overflow()
            c += terms.get(key, 0)
            if c:
                terms[key] = c
            else:
                del terms[key]
    return _make(n_vars, terms, False)


def random_map(rng: random.Random, src_dim: int, tgt_dim: int, degree: int,
               coeff_range: tuple[int, int] = (-3, 3)) -> PolyMap:
    return PolyMap(src_dim, tgt_dim,
                   [random_polynomial(rng, src_dim, degree, coeff_range)
                    for _ in range(tgt_dim)])


def check_cdc_axioms(sample: list[PolyMap], seed: int = 0) -> CheckReport:
    """Verify CD.1-CD.7 as exact polynomial identities over a sample.

    Companion maps with composable shapes (the g, h, k of the axioms) are
    generated from `seed`; a failure witness names the offending maps and the
    nonzero difference.
    """
    rng = random.Random(seed)
    report = CheckReport("cartesian differential axioms")

    for idx, f in enumerate(sample):
        n, m = f.src_dim, f.tgt_dim
        tag = f"map#{idx}"
        df = differential(f)
        g = random_map(rng, n, m, 2)
        # CD.1 additivity of D in the map argument.
        report.check(
            f"CD.1 D[f+g]=D[f]+D[g] [{tag}]",
            differential(f + g) - (df + differential(g)),
            lambda: f"f={f}, g={g}")
        report.check(
            f"CD.1 D[0]=0 [{tag}]",
            differential(PolyMap.zero(n, m)),
            "zero map")

        # CD.2 additivity in the direction argument.
        a = random_map(rng, n, n, 2)
        h = random_map(rng, n, n, 2)
        k = random_map(rng, n, n, 2)
        lhs = compose_maps(df, PolyMap.pairing([a, h + k]))
        rhs = (compose_maps(df, PolyMap.pairing([a, h]))
               + compose_maps(df, PolyMap.pairing([a, k])))
        report.check(f"CD.2 additive direction [{tag}]", lhs - rhs, lambda: f"f={f}")
        report.check(
            f"CD.2 zero direction [{tag}]",
            compose_maps(df, PolyMap.pairing([a, PolyMap.zero(n, n)])),
            lambda: f"f={f}")

        # CD.3 projections and the identity are linear.
        if idx == 0:
            report.check(
                "CD.3 D[id]=pi1",
                differential(PolyMap.identity(n)) - PolyMap.projection(2 * n, n, n),
                "identity map")
            if n >= 1:
                pi0 = PolyMap.projection(n, 0, 1)
                report.check(
                    "CD.3 D[pi_i]=pi_i.pi1",
                    differential(pi0) - PolyMap.projection(2 * n, n, 1),
                    "first projection")

        # CD.4 pairing.
        g2 = random_map(rng, n, 2, 2)
        report.check(
            f"CD.4 D[(f,g)]=(D[f],D[g]) [{tag}]",
            differential(PolyMap.pairing([f, g2])) - PolyMap.pairing([df, differential(g2)]),
            lambda: f"f={f}, g={g2}")

        # CD.5 chain rule: D[g∘f] = D[g]∘(f∘pi0, D[f]).
        g3 = random_map(rng, m, 2, 2)
        pi0 = PolyMap.projection(2 * n, 0, n)
        lhs = differential(compose_maps(g3, f))
        rhs = compose_maps(differential(g3), PolyMap.pairing([compose_maps(f, pi0), df]))
        report.check(f"CD.5 chain rule [{tag}]", lhs - rhs, lambda: f"f={f}, g={g3}")

        # CD.6 D[D[f]] ∘ ((a,0),(0,d)) = D[f] ∘ (a,d), as an identity in (a,d).
        ddf = differential(df)
        two_n = 2 * n
        a_var = PolyMap.projection(two_n, 0, n)
        d_var = PolyMap.projection(two_n, n, n)
        z = PolyMap.zero(two_n, n)
        plug = PolyMap.pairing([a_var, z, z, d_var])
        report.check(f"CD.6 lift of D [{tag}]",
                     compose_maps(ddf, plug) - df, lambda: f"f={f}")

        # CD.7 symmetry of mixed partials, as an identity in (a,b,c,d).
        four_n = 4 * n
        va = PolyMap.projection(four_n, 0, n)
        vb = PolyMap.projection(four_n, n, n)
        vc = PolyMap.projection(four_n, 2 * n, n)
        vd = PolyMap.projection(four_n, 3 * n, n)
        lhs = compose_maps(ddf, PolyMap.pairing([va, vb, vc, vd]))
        rhs = compose_maps(ddf, PolyMap.pairing([va, vc, vb, vd]))
        report.check(f"CD.7 symmetry [{tag}]", lhs - rhs, lambda: f"f={f}")

    return report
