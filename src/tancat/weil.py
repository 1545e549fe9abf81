"""Exact arithmetic in the monoidal category of Weil N-rigs.

Objects are tensor products W_{n1} ⊗ ... ⊗ W_{nk} of the rigs
W_n = N[x_1..x_n]/(x_i x_j, i<=j), encoded by their width lists (the empty
list is N).  A basis monomial picks, per factor, either the unit (0) or one
of that factor's variables (1..n); any product putting two variables in the
same factor vanishes.

A morphism is an N-linear map of the monomial bases (Kolář, Michor &
Slovák, *Natural Operations in Differential Geometry*, ch. VIII) and is
stored as its matrix, one column per source monomial.  The matrix is built
once from the images of the source generators, which are checked there to
be nilpotent and to kill the source relations.  Composition is then the
matrix product, the tensor the Kronecker product, and application a
matrix-vector product.

W1's vocabulary lives here alone: its generators (`generator`) and its
transverse pullbacks, among them the fibered sums W_{n+m} (`fibered_sum`).

Basis order: monomial tuples compared lexicographically with the FIRST
factor most significant and 0 (unit) < 1 < ... < n inside a factor.  This is
the order that makes the tensor act strictly, T^{U⊗V} = T^U ∘ T^V, once the
polynomial model flattens coordinates (see module `tangent`), and the order
in which the Kronecker product lists the monomials of a tensor.
"""

from __future__ import annotations

import itertools

from .frozen import Frozen


class WeilError(ValueError):
    pass


Monomial = tuple[int, ...]


class WeilAlgebra(Frozen):
    """A tensor product of W_n factors; widths == () encodes N."""

    __slots__ = ("widths", "_hash")
    _fields = ("widths",)

    def __init__(self, widths: tuple[int, ...]):
        if any(n < 1 for n in widths):
            raise WeilError("factor widths must be >= 1 (use [] for N)")
        object.__setattr__(self, "widths", widths)
        # Hashed once: algebras key the term memos and the prolongation cache.
        object.__setattr__(self, "_hash", hash(widths))

    def __eq__(self, other):
        if type(other) is not WeilAlgebra:
            return NotImplemented
        return self.widths == other.widths

    def __hash__(self):
        return self._hash

    @property
    def n_factors(self) -> int:
        return len(self.widths)

    @property
    def dim(self) -> int:
        d = 1
        for n in self.widths:
            d *= n + 1
        return d

    def basis(self) -> list[Monomial]:
        """All monomials, in the canonical order (unit first)."""
        return [tuple(m) for m in itertools.product(*(range(n + 1) for n in self.widths))]

    @property
    def unit_monomial(self) -> Monomial:
        return (0,) * len(self.widths)

    def generators(self) -> list[tuple[int, int]]:
        """(factor, variable) pairs, factor 0-based, variable 1-based."""
        return [(i, j) for i, n in enumerate(self.widths) for j in range(1, n + 1)]

    def monomial_index(self, mono: Monomial) -> int:
        index = 0
        for entry, n in zip(mono, self.widths):
            index = index * (n + 1) + entry
        return index

    def is_valid_monomial(self, mono: Monomial) -> bool:
        return len(mono) == len(self.widths) and all(
            0 <= e <= n for e, n in zip(mono, self.widths))

    def tensor(self, other: "WeilAlgebra") -> "WeilAlgebra":
        return WeilAlgebra(self.widths + other.widths)

    def var_name(self, factor: int, j: int) -> str:
        letters = "xyzstuvw"
        if all(n == 1 for n in self.widths) and self.n_factors <= len(letters):
            return letters[factor]
        if self.n_factors == 1:
            return f"x{j}"
        return f"x{factor + 1}_{j}"

    def monomial_str(self, mono: Monomial) -> str:
        names = [self.var_name(i, e) for i, e in enumerate(mono) if e]
        return "".join(names) if names else "1"

    def __str__(self) -> str:
        if not self.widths:
            return "N"
        return "*".join("W" if n == 1 else f"W{n}" for n in self.widths)

    __repr__ = __str__


NAT = WeilAlgebra(())
W = WeilAlgebra((1,))
WW = WeilAlgebra((1, 1))
W2 = WeilAlgebra((2,))


def make_weil(widths) -> WeilAlgebra:
    """Canonical object from a width list; rejects zero widths."""
    return WeilAlgebra(tuple(widths))


# The largest dimension of a Weil algebra written as text (`-V`, `id{V}`,
# `!{V}`, W_n in `proj{i,n}`).  A nerve object A.V has d + (dim V - 1)·r
# coordinates, and its cost grows faster than that: `nerve object -V` on
# so(3) takes 0.6 s for W^8 (dimension 256), 7.8 s for W^10 and over 25 s
# for W^11.
MAX_ALGEBRA_DIM = 256


def parse_algebra(text: str) -> WeilAlgebra:
    """Parse `N`, `W`, `W3`, `W2*W`, ... of dimension at most MAX_ALGEBRA_DIM."""
    text = text.strip()
    if text == "N":
        return NAT
    widths = []
    dim = 1
    for chunk in text.split("*"):
        chunk = chunk.strip()
        if not chunk.startswith("W"):
            raise WeilError(f"bad algebra syntax: {text!r}")
        tail = chunk[1:]
        if tail == "":
            widths.append(1)
        elif tail.isdecimal() and int(tail) >= 1:
            widths.append(int(tail))
        else:
            raise WeilError(f"bad algebra factor: {chunk!r}")
        dim *= widths[-1] + 1
        if dim > MAX_ALGEBRA_DIM:
            raise WeilError(f"algebra {text!r} has dimension above the limit "
                            f"MAX_ALGEBRA_DIM = {MAX_ALGEBRA_DIM}")
    return WeilAlgebra(tuple(widths))


def mono_mul(algebra: WeilAlgebra, a: Monomial, b: Monomial) -> Monomial | None:
    """Product of basis monomials; None when it dies on a relation."""
    out = []
    for x, y in zip(a, b):
        if x and y:
            return None
        out.append(x or y)
    return tuple(out)


class WeilElement:
    """An element of a Weil algebra: finitely supported N-combination of monomials."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: WeilAlgebra, coeffs: dict[Monomial, int]):
        for mono, c in coeffs.items():
            if not algebra.is_valid_monomial(mono):
                raise WeilError(f"monomial {mono} not in basis of {algebra}")
            if c < 0:
                raise WeilError("coefficients live in N; no negatives in a rig")
        self.algebra = algebra
        self.coeffs = {m: c for m, c in coeffs.items() if c}

    @staticmethod
    def zero(algebra: WeilAlgebra) -> "WeilElement":
        return WeilElement(algebra, {})

    @staticmethod
    def unit(algebra: WeilAlgebra, c: int = 1) -> "WeilElement":
        return WeilElement(algebra, {algebra.unit_monomial: c})

    @staticmethod
    def variable(algebra: WeilAlgebra, factor: int, j: int) -> "WeilElement":
        mono = [0] * algebra.n_factors
        mono[factor] = j
        return WeilElement(algebra, {tuple(mono): 1})

    def is_nilpotent(self) -> bool:
        return self.algebra.unit_monomial not in self.coeffs

    def __add__(self, other: "WeilElement") -> "WeilElement":
        self._same(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return WeilElement(self.algebra, out)

    def __mul__(self, other: "WeilElement") -> "WeilElement":
        return element_mul(self, other)

    def _same(self, other: "WeilElement") -> None:
        if self.algebra != other.algebra:
            raise WeilError(f"algebra mismatch: {self.algebra} vs {other.algebra}")

    def __eq__(self, other):
        if not isinstance(other, WeilElement):
            return NotImplemented
        return self.algebra == other.algebra and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.algebra, frozenset(self.coeffs.items())))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for mono in sorted(self.coeffs, key=self.algebra.monomial_index):
            c = self.coeffs[mono]
            name = self.algebra.monomial_str(mono)
            if name == "1":
                parts.append(str(c))
            else:
                parts.append(name if c == 1 else f"{c}{name}")
        return " + ".join(parts)

    __repr__ = __str__


def element_mul(a: WeilElement, b: WeilElement) -> WeilElement:
    """Distributive product, reduced by the nilpotency relations."""
    a._same(b)
    out: dict[Monomial, int] = {}
    for ma, ca in a.coeffs.items():
        for mb, cb in b.coeffs.items():
            mono = mono_mul(a.algebra, ma, mb)
            if mono is not None:
                out[mono] = out.get(mono, 0) + ca * cb
    return WeilElement(a.algebra, out)


class WeilMorphism:
    """A rig morphism V -> U, stored as its N-matrix on the monomial bases.

    `columns[k]` is the image of the k-th basis monomial of V, as the sorted
    (index in U's basis, coefficient) pairs of its nonzero coefficients.
    `WeilMorphism(V, U, images)` builds the matrix from the images of V's
    generators, after checking that they are nilpotent and kill V's
    relations; composites, tensors and pairings of rig morphisms are rig
    morphisms, so the operations below build their matrices unchecked.
    """

    __slots__ = ("source", "target", "columns", "_hash")

    def __init__(self, source: WeilAlgebra, target: WeilAlgebra,
                 images: list[WeilElement]):
        gens = source.generators()
        if len(images) != len(gens):
            raise WeilError(f"{source} has {len(gens)} generators, got {len(images)} images")
        for img in images:
            if img.algebra != target:
                raise WeilError("image lies in the wrong algebra")
            if not img.is_nilpotent():
                raise WeilError(f"generator image {img} has a unit part")
        offsets = [0, *itertools.accumulate(source.widths)]
        for factor, width in enumerate(source.widths):
            block = images[offsets[factor]:offsets[factor] + width]
            for i, a in enumerate(block):
                for b in block[i:]:
                    if element_mul(a, b).coeffs:
                        raise WeilError(
                            f"images break the factor-{factor} relation: "
                            f"({a})*({b}) != 0")
        columns = []
        for mono in source.basis():
            image = WeilElement.unit(target)
            for factor, entry in enumerate(mono):
                if entry:
                    image = element_mul(image, images[offsets[factor] + entry - 1])
            columns.append(tuple(sorted((target.monomial_index(m), c)
                                        for m, c in image.coeffs.items())))
        self.source, self.target, self.columns = source, target, tuple(columns)
        self._hash = hash((source, target, self.columns))

    def _element(self, column) -> WeilElement:
        basis = self.target.basis()
        return WeilElement(self.target, {basis[k]: c for k, c in column})

    def image_of(self, factor: int, j: int) -> WeilElement:
        mono = [0] * self.source.n_factors
        mono[factor] = j
        return self._element(self.columns[self.source.monomial_index(mono)])

    def apply(self, elem: WeilElement) -> WeilElement:
        """Push an element of the source through the morphism."""
        if elem.algebra != self.source:
            raise WeilError("element not in the source algebra")
        out: dict[int, int] = {}
        for mono, c in elem.coeffs.items():
            for k, v in self.columns[self.source.monomial_index(mono)]:
                out[k] = out.get(k, 0) + c * v
        return self._element(out.items())

    def matrix(self) -> list[list[int]]:
        """Natural-number matrix over the bases: column per source monomial."""
        cols = []
        for column in self.columns:
            col = [0] * self.target.dim
            for k, c in column:
                col[k] = c
            cols.append(col)
        return cols

    def __eq__(self, other):
        if not isinstance(other, WeilMorphism):
            return NotImplemented
        return self._hash == other._hash and \
            (self.source, self.target, self.columns) == \
            (other.source, other.target, other.columns)

    def __hash__(self):
        return self._hash

    def __str__(self) -> str:
        body = ", ".join(
            f"{self.source.var_name(i, j)} -> {self.image_of(i, j)}"
            for i, j in self.source.generators())
        return f"[{self.source} -> {self.target}: {body or 'unit'}]"

    __repr__ = __str__


def _from_columns(source: WeilAlgebra, target: WeilAlgebra,
                  columns: tuple) -> WeilMorphism:
    """The morphism with this matrix, which must be that of a rig morphism."""
    phi = object.__new__(WeilMorphism)
    phi.source, phi.target, phi.columns = source, target, columns
    phi._hash = hash((source, target, columns))
    return phi


def identity_morphism(algebra: WeilAlgebra) -> WeilMorphism:
    return _from_columns(algebra, algebra, tuple(((k, 1),) for k in range(algebra.dim)))


def compose_morphisms(g: WeilMorphism, f: WeilMorphism) -> WeilMorphism:
    """g after f: the matrix product G·F."""
    if f.target != g.source:
        raise WeilError(f"cannot compose: {f.target} vs {g.source}")
    columns = []
    for f_col in f.columns:
        out: dict[int, int] = {}
        for r, c in f_col:
            for k, v in g.columns[r]:
                out[k] = out.get(k, 0) + c * v
        columns.append(tuple(sorted(out.items())))
    return _from_columns(f.source, g.target, tuple(columns))


def tensor_morphisms(f: WeilMorphism, g: WeilMorphism) -> WeilMorphism:
    """f ⊗ g: the Kronecker product F ⊗ G, f's factors most significant."""
    size = g.target.dim
    columns = tuple(tuple((r * size + k, c * v) for r, c in f_col for k, v in g_col)
                    for f_col in f.columns for g_col in g.columns)
    return _from_columns(f.source.tensor(g.source), f.target.tensor(g.target), columns)


def fibered_sum(V: WeilAlgebra, U: WeilAlgebra) -> WeilAlgebra:
    """W_n x_N W_m = W_{n+m} for V = W_n and U = W_m, with W_0 = N; any other
    V or U raises WeilError."""
    for part in (V, U):
        if part.n_factors > 1:
            raise WeilError(f"pairing needs targets of the form W_n, got {part}")
    width = sum(V.widths + U.widths)
    return WeilAlgebra((width,)) if width else NAT


def fibered_pair(f: WeilMorphism, g: WeilMorphism) -> WeilMorphism:
    """Induced map into the fibered sum W_{n+m} = W_n x_N W_m.

    Both inputs must share a source and have single-factor targets W_n, W_m.
    A monomial's image is f's image plus g's shifted into the variables
    n+1..n+m, with one common unit; products of variables vanish in W_{n+m},
    so any such pairing is a rig morphism.
    """
    if f.source != g.source:
        raise WeilError("fibered pairing needs a common source")
    target = fibered_sum(f.target, g.target)
    n = f.target.dim - 1
    columns = tuple(f_col + tuple((n + k, c) for k, c in g_col if k)
                    for f_col, g_col in zip(f.columns, g.columns))
    return _from_columns(f.source, target, columns)


# -- the generator morphisms --------------------------------------------------


# p, 0, +, ℓ, c and mu do not depend on arguments: each is built once.
_FIXED = {
    "p": WeilMorphism(W, NAT, [WeilElement.zero(NAT)]),
    "zero": WeilMorphism(NAT, W, []),
    "plus": WeilMorphism(W2, W, [WeilElement.variable(W, 0, 1)] * 2),
    "ell": WeilMorphism(W, WW, [WeilElement(WW, {(1, 1): 1})]),
    "flip": WeilMorphism(WW, WW, [WeilElement.variable(WW, 1, 1),
                                  WeilElement.variable(WW, 0, 1)]),
}
_MU = WeilMorphism(W2, WW, [WeilElement(WW, {(0, 1): 1}), WeilElement(WW, {(1, 1): 1})])


def generator(kind: str, *, algebra: WeilAlgebra | None = None,
              i: int | None = None, n: int | None = None) -> WeilMorphism:
    """The structure morphisms of the free tangent category.

    p: W -> N, x -> 0.           zero: N -> W.
    plus: W2 -> W, x1,x2 -> x.   ell: W -> W⊗W, x -> xy.
    flip: W⊗W -> W⊗W, swap.      bang(V): V -> N.
    id(V).                       proj(i,n): W_n -> W, x_j -> delta_ij x.
    """
    if kind in _FIXED:
        return _FIXED[kind]
    if kind == "bang":
        if algebra is None:
            raise WeilError("bang needs an algebra")
        return _from_columns(algebra, NAT, (((0, 1),),) + ((),) * (algebra.dim - 1))
    if kind == "id":
        if algebra is None:
            raise WeilError("id needs an algebra")
        return identity_morphism(algebra)
    if kind == "proj":
        if i is None or n is None:
            raise WeilError("proj needs i and n")
        if not 1 <= i <= n:
            raise WeilError(f"proj index {i} out of range 1..{n}")
        # Checked before the images: their relation check is quadratic in n.
        if n + 1 > MAX_ALGEBRA_DIM:
            raise WeilError(f"proj source W{n} has dimension above the limit "
                            f"MAX_ALGEBRA_DIM = {MAX_ALGEBRA_DIM}")
        images = [WeilElement.variable(W, 0, 1) if j == i else WeilElement.zero(W)
                  for j in range(1, n + 1)]
        return WeilMorphism(WeilAlgebra((n,)), W, images)
    raise WeilError(f"unknown generator kind {kind!r}")


def mu_morphism() -> WeilMorphism:
    """The universality comparison mu: W2 -> W⊗W, x1 -> y, x2 -> xy."""
    return _MU


# -- transverse squares -------------------------------------------------------


class TransverseSquare(Frozen):
    """A commuting square in the ⊗-closure of the three base pullbacks.

    Stored as apex --(left_leg)--> corner_l --(left_base)--> base and
    apex --(right_leg)--> corner_r --(right_base)--> base, with a provenance
    string recording how it was generated.  Commutativity is checked at
    construction; membership in the transverse class is by provenance.
    """

    __slots__ = _fields = ("left_leg", "right_leg", "left_base", "right_base", "provenance")

    def __init__(self, left_leg: WeilMorphism, right_leg: WeilMorphism,
                 left_base: WeilMorphism, right_base: WeilMorphism, provenance: str):
        if compose_morphisms(left_base, left_leg) != compose_morphisms(right_base, right_leg):
            raise WeilError(f"square does not commute ({provenance})")
        Frozen.__init__(self, left_leg, right_leg, left_base, right_base, provenance)

    @property
    def apex(self) -> WeilAlgebra:
        return self.left_leg.source


def _identity_square(algebra: WeilAlgebra) -> TransverseSquare:
    ident = identity_morphism(algebra)
    return TransverseSquare(ident, ident, ident, ident, f"id[{algebra}]")


def _fibered_sum_square(n: int, m: int) -> TransverseSquare:
    """W_{n+m} as the pullback of W_n --bang--> N <--bang-- W_m."""
    wn, wm = (WeilAlgebra((k,)) if k else NAT for k in (n, m))
    apex = fibered_sum(wn, wm)
    left = WeilMorphism(apex, wn, [
        WeilElement.variable(wn, 0, j) if j <= n else WeilElement.zero(wn)
        for j in range(1, n + m + 1)])
    right = WeilMorphism(apex, wm, [
        WeilElement.variable(wm, 0, j - n) if j > n else WeilElement.zero(wm)
        for j in range(1, n + m + 1)])
    return TransverseSquare(left, right,
                            generator("bang", algebra=wn),
                            generator("bang", algebra=wm),
                            f"fibered-sum[{n},{m}]")


def _vertical_lift_square() -> TransverseSquare:
    """W as the pullback of W2 --mu--> W⊗W <--zero⊗id-- W."""
    into_w2 = WeilMorphism(W, W2, [WeilElement.variable(W2, 0, 1)])
    return TransverseSquare(into_w2, identity_morphism(W),
                            mu_morphism(),
                            tensor_morphisms(generator("zero"), identity_morphism(W)),
                            "vertical-lift")


def tensor_squares(a: TransverseSquare, b: TransverseSquare) -> TransverseSquare:
    return TransverseSquare(
        tensor_morphisms(a.left_leg, b.left_leg),
        tensor_morphisms(a.right_leg, b.right_leg),
        tensor_morphisms(a.left_base, b.left_base),
        tensor_morphisms(a.right_base, b.right_base),
        f"({a.provenance})⊗({b.provenance})")


def transverse_square(tag: str, *, n: int = 1, m: int = 1,
                      algebra: WeilAlgebra | None = None,
                      whisker_left: WeilAlgebra | None = None,
                      whisker_right: WeilAlgebra | None = None) -> TransverseSquare:
    """Build a base square and optionally whisker it by identity squares."""
    if tag == "fibered-sum":
        square = _fibered_sum_square(n, m)
    elif tag == "vertical-lift":
        square = _vertical_lift_square()
    elif tag == "identity":
        square = _identity_square(algebra if algebra is not None else W)
    else:
        raise WeilError(f"unknown base square tag {tag!r}")
    if whisker_left is not None:
        square = tensor_squares(_identity_square(whisker_left), square)
    if whisker_right is not None:
        square = tensor_squares(square, _identity_square(whisker_right))
    return square
