"""Flat presentations of anchored-bundle prolongations A.V.

For an anchored bundle on a trivial bundle (base Q^d, fiber Q^r, anchor
matrix ρ(x)), the prolongation by a Weil algebra V = W_{n1} ⊗ V' is the span
composition A_{n1} ×_{ϱ, T_{n1}.π} T_{n1}(A.V'), iterated down the factor
list.  Every fiber-product constraint pins a base-block duplicate (x, or
ρ(x)·u_i), so the space flattens: one d-block of base coordinates plus one
r-block per non-unit basis monomial of V.

Block order is the recursive span order — head-factor fibers first, then the
inner space's blocks, base copy before tangent copies — which for V = W⊗W
gives the (x; u, v, w) layout with embedding (x, u; x, v, ρ(x)u, w).  Each
block carries its monomial label, so reorderings (e.g. against the tangent
model's basis-ordered layout) are explicit permutations, not conventions.

The structural maps of the Weil nerve are built here.  A rig morphism
φ: V -> U acts by its N-matrix M (`weil_push`): block μ of A.U is
Σ_ν M[μ][ν]·(block ν of A.V), blocks matched by label (Leung, "Classifying
tangent structures using Weil algebras", TAC 32, 2017).  This is A.θ for
p, 0, +, ℓ, proj, ! and id and for every whiskering of them.  Only the
flip carries the algebroid's bracket: A.(L⊗c⊗R) is the block swap, with
copy μ of T^L(σ) on the spine blocks (μ, β, 1) (`whiskered_generator`).
Span tensoring of evaluated maps and fibered-sum pairing complete the
nerve.  One decomposition serves the tensor: `split_left` cuts A.(S1⊗S2)
into its legs to A.S1 and T^{S1}(A.S2), and `join_at` assembles a map
into A.(S1⊗S2) from two such legs.  The legs are coordinate selections
built from index lists (`indices_of`, `PolyMap.selection`); only when
d > 0 do the base slots of the non-unit copies in the right leg take the
components of A.S1's right leg.  `tensor_action` pushes through the Weil
morphism by the same `matrix_action` as `weil_push`: target copy k of A.S2
is Σ_j M[k][j] · (copy j) of the moved right leg.  A space keeps its split
at each factor boundary it is asked for, and the index plan of `join_at`
into it, at most n_factors + 1 of each: AC8 asks for 231 distinct (space,
k) splits 1,661 times.  Kept legs are cheap because a selection shares the
variables of its dimension (`PolyMap.selection`) instead of holding one
new polynomial per coordinate, which made a per-space split cache cost
3.5 MB of peak memory before.  The head leg `proj1` of a space is its
split after the first factor, and a whisker id_{W_n} ⊠ g can be joined
from `proj0` and T_n g ∘ `proj1`, as `algebroid` joins 1×T.σ.  The only
constrained coordinates, ρ(x)·u, come from the right leg `rho_leg` of a
single-factor space A.W_n.

Every space is obtained through `prolongation(shape, V)`, one
least-recently-used cache of at most PROLONGATION_CACHE_SIZE spaces keyed on
the (shape, V) pair.  Nerve evaluation asks for the same few spaces tens of
thousands of times, and a shared space computes its legs (`rho_leg`,
`proj1`, `embedding`, its splits, ...) once.  Sharing is safe because a
space is a pure function of (shape, V) and is never mutated once built:
blocks are a tuple of immutable Blocks, the legs are PolyMaps whose
polynomials are immutable, and the cache keys are immutable values
compared field by field (`frozen.Frozen`).  The bound keeps the memory
flat however many algebroids one process checks.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain

from . import weil
from .frozen import Frozen
from .poly import PolyMap, Polynomial, compose_maps
from .tangent import weil_prolong
from .weil import WeilAlgebra, WeilMorphism


class AnchoredShape(Frozen):
    """Base dimension, rank, and the anchor matrix (entries in the base vars)."""

    _fields = ("base_dim", "rank", "rho")

    def __init__(self, base_dim: int, rank: int,
                 rho: tuple[tuple[Polynomial, ...], ...]):   # d rows, r columns
        if len(rho) != base_dim:
            raise ValueError(f"anchor needs {base_dim} rows")
        for row in rho:
            if len(row) != rank:
                raise ValueError(f"anchor rows need {rank} entries")
            for entry in row:
                if entry.n_vars != base_dim:
                    raise ValueError("anchor entries are polynomials in the base variables")
        Frozen.__init__(self, base_dim, rank, rho)
        # Hashed once: a shape keys every `prolongation` lookup, and hashing
        # the anchor means hashing each of its polynomials.
        object.__setattr__(self, "_hash", hash((base_dim, rank, rho)))

    def __eq__(self, other):
        # Algebroids built apart have equal shapes that are not one object,
        # and each `prolongation` lookup then compares them.
        if type(other) is not AnchoredShape:
            return NotImplemented
        return self._hash == other._hash and (self.base_dim, self.rank, self.rho) == \
            (other.base_dim, other.rank, other.rho)

    def __hash__(self):
        return self._hash

    @cached_property
    def anchor_fiber_map(self) -> PolyMap:
        """(x, u) -> ρ(x)·u on Q^(d+r), built on first use and kept."""
        n = self.base_dim + self.rank
        xs = PolyMap.identity(n).components
        x, u = list(xs[:self.base_dim]), xs[self.base_dim:]
        comps = []
        for row in self.rho:
            acc = Polynomial.zero(n)
            for entry, u_a in zip(row, u):
                if not entry.is_zero():
                    acc = acc + entry.substitute(x, out_vars=n) * u_a
            comps.append(acc)
        return PolyMap(n, self.base_dim, comps)

    def anchor_fiber(self, x: list[Polynomial], u: list[Polynomial]) -> list[Polynomial]:
        """ρ(x)·u as polynomials in whatever space x, u live in: one
        composite with `anchor_fiber_map`, so x is classed once."""
        if not self.base_dim:
            return []
        n = x[0].n_vars
        return list(compose_maps(self.anchor_fiber_map,
                                 PolyMap(n, self.base_dim + self.rank, x + u)).components)


Label = tuple[int, ...]


class Block(Frozen):
    """Block `label` of a flat space: `size` coordinates from `offset` on."""

    __slots__ = _fields = ("label", "size", "offset")

    def __init__(self, label: Label, size: int, offset: int):
        # Set directly: a space builds one Block per basis monomial.
        init = object.__setattr__
        init(self, "label", label)
        init(self, "size", size)
        init(self, "offset", offset)


PROLONGATION_CACHE_SIZE = 128


@lru_cache(maxsize=PROLONGATION_CACHE_SIZE)
def prolongation(shape: AnchoredShape, V: WeilAlgebra) -> "Prolongation":
    """The shared flat space A.V; use this rather than building one."""
    return Prolongation(shape, V)


class Prolongation:
    """The flat space A.V with labeled coordinate blocks."""

    def __init__(self, shape: AnchoredShape, V: WeilAlgebra):
        self.shape = shape
        self.V = V
        d, r = shape.base_dim, shape.rank
        if V.n_factors == 0:
            self.head_width = 0
            self.inner: Prolongation | None = None
            self.blocks = (Block(V.unit_monomial, d, 0),)
        else:
            n = V.widths[0]
            tail = WeilAlgebra(V.widths[1:])
            self.head_width = n
            self.inner = prolongation(shape, tail)
            blocks: list[Block] = [Block(V.unit_monomial, d, 0)]
            offset = d
            for i in range(1, n + 1):
                blocks.append(Block((i,) + tail.unit_monomial, r, offset))
                offset += r
            for inner_block in self.inner.fiber_blocks:
                blocks.append(Block((0,) + inner_block.label, r, offset))
                offset += r
            for i in range(1, n + 1):
                for inner_block in self.inner.fiber_blocks:
                    blocks.append(Block((i,) + inner_block.label, r, offset))
                    offset += r
            self.blocks = tuple(blocks)
        self.dim = sum(b.size for b in self.blocks)
        self._by_label = {b.label: b for b in self.blocks}
        # `split_left` results and `join_at` plans by factor boundary k: at
        # most n_factors + 1 each.
        self._splits = {}
        self._joins = {}

    @cached_property
    def fiber_blocks(self) -> tuple[Block, ...]:
        return tuple(b for b in self.blocks if b.label != self.V.unit_monomial)

    def block(self, label: Label) -> Block:
        return self._by_label[label]

    def __repr__(self) -> str:
        labels = ", ".join(self.V.monomial_str(b.label) for b in self.blocks)
        return f"A.{self.V} (dim {self.dim}; blocks {labels})"

    # -- coordinate helpers --------------------------------------------------

    def indices_of(self, label: Label) -> range:
        """The 0-based coordinates of block `label`."""
        b = self.block(label)
        return range(b.offset, b.offset + b.size)

    def vars_of(self, label: Label) -> list[Polynomial]:
        return list(self.select([label]).components)

    def base_vars(self) -> list[Polynomial]:
        return self.vars_of(self.V.unit_monomial)

    def select(self, labels: list[Label]) -> PolyMap:
        """The projection onto the listed blocks (in the given order)."""
        return PolyMap.selection(self.dim, [j for label in labels
                                            for j in self.indices_of(label)])

    # -- the two legs of the span and the head decomposition ------------------

    @cached_property
    def rho_leg(self) -> PolyMap:
        """Right leg A.V -> T^V(M).

        On A.W_n this is (x; ρ(x)u_1, ..., ρ(x)u_n), the one place a
        prolongation writes ρ(x)·u; `split_left` reads it to reconstruct the
        constrained base coordinates of every other space.
        """
        if self.inner is None:
            return PolyMap.identity(self.dim)
        if self.V.n_factors == 1:
            x = self.base_vars()
            comps = list(x)
            for i in range(1, self.head_width + 1):
                comps.extend(self.shape.anchor_fiber(x, self.vars_of((i,))))
            return PolyMap(self.dim, len(comps), comps)
        t_inner_rho = weil_prolong(WeilAlgebra((self.head_width,)), self.inner.rho_leg)
        return compose_maps(t_inner_rho, self.proj1)

    @cached_property
    def proj0(self) -> PolyMap:
        """A.V -> A_n flat (x, u_1..u_n) for the head factor."""
        n = self.head_width
        labels = [self.V.unit_monomial]
        labels += [(i,) + self.inner.V.unit_monomial for i in range(1, n + 1)]
        return self.select(labels)

    @cached_property
    def proj1(self) -> PolyMap:
        """A.V -> T_n(A.V'): the head split of `split_left`."""
        return split_left(self, 1)[1]

    # -- embeddings and reorderings -------------------------------------------

    @cached_property
    def embedding(self) -> PolyMap:
        """A.V into the iterated tangent spaces: (A_n-part, T_n(embedded inner)).

        For V = W⊗W this is (x, u; x, v, ρ(x)u, w) into A × TA; the fiber
        products A_n themselves are already flat, so the recursion bottoms
        out there.
        """
        if self.inner is None or self.inner.V.n_factors == 0:
            return PolyMap.identity(self.dim)
        inner_emb = weil_prolong(WeilAlgebra((self.head_width,)), self.inner.embedding)
        return PolyMap.pairing([self.proj0, compose_maps(inner_emb, self.proj1)])

    def weil_layout_iso(self) -> PolyMap:
        """Reorder flat blocks into the V-basis monomial order.

        For the tangent algebroid (r = d, ρ = id) the result identifies A.V
        with T^V(Q^d) on the nose, since blocks become the per-monomial
        coordinate blocks of the Weil action.
        """
        order = sorted(self.blocks, key=lambda b: self.V.monomial_index(b.label))
        return self.select([b.label for b in order])


# -- structural maps -----------------------------------------------------------


def weil_push(shape: AnchoredShape, phi: WeilMorphism) -> PolyMap:
    """A.φ: A.V -> A.U on flat coordinates, for a rig morphism φ: V -> U.

    Block μ of A.U is Σ_ν M[μ][ν]·(block ν of A.V), with the blocks matched
    by label and M read off φ's columns (`matrix_action`).  A rig morphism
    sends the unit to the unit and nothing else there, so the base block is
    copied and the fiber blocks are sums of fiber blocks.  This is A.φ for
    every generator but the flip, whose spine carries the bracket through σ.
    """
    src = prolongation(shape, phi.source)
    tgt = prolongation(shape, phi.target)
    xs = PolyMap.identity(src.dim).components
    copies = [xs[b.offset:b.offset + b.size]
              for b in map(src.block, phi.source.basis())]
    labels = phi.target.basis()
    sizes = [tgt.block(label).size for label in labels]
    pushed = dict(zip(labels, matrix_action(phi, copies, sizes, Polynomial.zero(src.dim))))
    comps = list(chain.from_iterable(pushed[b.label] for b in tgt.blocks))
    return PolyMap(src.dim, tgt.dim, comps)


def matrix_action(phi: WeilMorphism, copies: list, sizes: list[int],
                  zero: Polynomial) -> list:
    """φ's N-matrix M on copies: result k, sizes[k] long, is Σ_j M[k][j]·copies[j].

    Copies follow the basis of φ.source and results that of φ.target.  A row
    whose one entry is 1 passes its copy on as it is.
    """
    rows: list[list[tuple[int, int]]] = [[] for _ in sizes]
    for j, column in enumerate(phi.columns):
        for k, c in column:
            rows[k].append((j, c))
    out = []
    for row, size in zip(rows, sizes):
        if not row:
            out.append([zero] * size)
        elif len(row) == 1 and row[0][1] == 1:
            out.append(copies[row[0][0]])
        else:
            sums = []
            for i in range(size):
                total = zero
                for j, c in row:
                    total = total + (copies[j][i] if c == 1 else copies[j][i] * c)
                sums.append(total)
            out.append(sums)
    return out


def whiskered_generator(shape: AnchoredShape, kind: str, left: WeilAlgebra,
                        right: WeilAlgebra, sigma: PolyMap | None = None,
                        *, i: int | None = None, n: int | None = None) -> PolyMap:
    """A.(left ⊗ θ ⊗ right) for a generator θ.

    Every θ but the flip is the push of id ⊗ θ ⊗ id (`weil_push`).  The
    flip is the block swap (μ, a, b, ν) <- (μ, b, a, ν) everywhere but on
    the spine blocks (μ, β, 1), β a block of A.(W⊗W): there it is copy μ
    of T^left(σ ∘ the head leg of A.(W⊗W⊗right)), read through the right
    leg of `split_left` at boundary n_factors(left).  The base slot of a
    copy μ ≠ 1 is constrained, so there only the fiber blocks β are
    written.  σ must fix the base, as every `involution_from_bracket` σ
    does: the base output of σ is written on the base block only.
    """
    if kind != "flip":
        phi = weil.tensor_morphisms(
            weil.tensor_morphisms(weil.identity_morphism(left), weil.generator(kind, i=i, n=n)),
            weil.identity_morphism(right))
        return weil_push(shape, phi)
    if sigma is None:
        raise ValueError("the flip needs the algebroid involution σ")
    pair = prolongation(shape, weil.WW)
    if sigma.src_dim != pair.dim or sigma.tgt_dim != pair.dim:
        raise ValueError("σ must act on the flat first prolongation")
    inner = weil.WW.tensor(right)
    space = prolongation(shape, left.tensor(inner))
    k = left.n_factors
    # σ after the head leg of A.(W⊗W⊗right) at boundary 2, selected directly:
    # `split_left` would also fill the ρ slots of the unused right leg.
    on_spine = compose_maps(sigma, prolongation(shape, inner).select(
        [b.label + right.unit_monomial for b in pair.blocks]))
    moved = compose_maps(weil_prolong(left, on_spine), split_left(space, k)[1]).components
    comps = list(space.select([b.label[:k] + (b.label[k + 1], b.label[k]) + b.label[k + 2:]
                               for b in space.blocks]).components)
    for pos, mu in enumerate(left.basis()):
        for b in pair.fiber_blocks if pos else pair.blocks:
            at = space.block(mu + b.label + right.unit_monomial).offset
            src = pos * pair.dim + b.offset
            comps[at:at + b.size] = moved[src:src + b.size]
    return PolyMap(space.dim, space.dim, comps)


def split_left(space: Prolongation, k: int) -> tuple[PolyMap, PolyMap, WeilAlgebra, WeilAlgebra]:
    """Decompose A.(S1⊗S2) at factor boundary k into its ⊠ components.

    Returns (to_A_S1, to_T_S1_of_A_S2, S1, S2) where the second map produces
    the full T^{S1}(A.S2) coordinates (constrained entries reconstructed from
    the right leg of A.S1).

    The split is built once per (space, k) and kept on the space, which has
    n_factors + 1 boundaries, so a space keeps at most that many splits and
    the 128-space `prolongation` cache bounds them all.  The legs are
    selections of shared variables (`PolyMap.selection`), apart from the d
    base slots per non-unit copy that the right leg of A.S1 fills, so a kept
    split costs about two references per coordinate.
    """
    split = space._splits.get(k)
    if split is None:
        if not 0 <= k <= space.V.n_factors:
            raise ValueError(f"no factor boundary {k} in {space.V}")
        split = space._splits[k] = _split_left(space, k)
    return split


def _split_left(space: Prolongation, k: int):
    """`split_left` built from the blocks of `space`."""
    V = space.V
    S1 = WeilAlgebra(V.widths[:k])
    S2 = WeilAlgebra(V.widths[k:])
    shape = space.shape
    d = shape.base_dim
    left_space = prolongation(shape, S1)
    right_space = prolongation(shape, S2)
    unit2 = S2.unit_monomial
    # Map onto A.S1: blocks with trivial S2 part.
    to_left = space.select([b.label + unit2 for b in left_space.blocks])
    # Map onto T^{S1}(A.S2): per S1-basis monomial, a full copy of A.S2 flat.
    # The base part of a copy is x for the unit, else the mu-component of the
    # right leg of the S1 prolongation: those slots are left None here.
    basis1 = S1.basis()
    sources: list[int | None] = []
    for mu in basis1:
        if mu == S1.unit_monomial:
            sources.extend(space.indices_of(space.V.unit_monomial))
        else:
            sources.extend([None] * d)
        for block in right_space.fiber_blocks:
            sources.extend(space.indices_of(mu + block.label))
    to_right = PolyMap.selection(space.dim, sources)
    if d and len(basis1) > 1:
        rho_left = compose_maps(left_space.rho_leg, to_left)   # -> T^{S1} M
        comps = list(to_right.components)
        for pos, mu in enumerate(basis1):
            if mu != S1.unit_monomial:
                slot = pos * right_space.dim
                comps[slot:slot + d] = rho_left.components[pos * d:(pos + 1) * d]
        to_right = PolyMap(space.dim, len(comps), comps)
    return to_left, to_right, S1, S2


def join_at(shape: AnchoredShape, S1: WeilAlgebra, S2: WeilAlgebra,
            left_map: PolyMap, right_map: PolyMap) -> PolyMap:
    """Inverse of split_left: assemble a map into A.(S1⊗S2).

    Coordinate i of A.(S1⊗S2) is entry plan[i] of the left map's
    components followed by the right map's; the space keeps the plan of
    each boundary, as it keeps its splits.
    """
    space = prolongation(shape, S1.tensor(S2))
    plan = space._joins.get(S1.n_factors)
    if plan is None:
        plan = space._joins[S1.n_factors] = _join_plan(space, S1, S2)
    both = left_map.components + right_map.components
    return PolyMap(left_map.src_dim, space.dim, [both[i] for i in plan])


def _join_plan(space: Prolongation, S1: WeilAlgebra, S2: WeilAlgebra) -> list[int]:
    """The `join_at` plan of `space`, by walking its blocks."""
    left_space = prolongation(space.shape, S1)
    right_space = prolongation(space.shape, S2)
    plan: list[int] = []
    for block in space.blocks:
        mu, nu = block.label[:S1.n_factors], block.label[S1.n_factors:]
        if nu == S2.unit_monomial:
            start = left_space.block(mu).offset
        else:
            start = (left_space.dim + S1.monomial_index(mu) * right_space.dim
                     + right_space.block(nu).offset)
        plan.extend(range(start, start + block.size))
    return plan


def tensor_action(shape: AnchoredShape,
                  left_phi: WeilMorphism, left_map: PolyMap,
                  right_source: WeilAlgebra, right_target: WeilAlgebra,
                  right_map: PolyMap) -> PolyMap:
    """(f ⊠ g) on flat coordinates.

    f = left_map lies over the rig morphism left_phi, whose coefficient push
    it needs; of g = right_map only the boundary algebras
    right_source -> right_target matter.  T^{S1} g moves each of the
    dim S1 copies of A.S2 (`split_left`); left_phi then acts on those copies
    by its matrix M (`matrix_action`), so target copy k is
    Σ_j M[k][j] · (moved copy j).  This is `structure_nat(left_phi, n)`
    composed after the moved copies, without building M ⊗ I_n as a map.
    """
    src_space = prolongation(shape, left_phi.source.tensor(right_source))
    to_left, to_right, S1, S2 = split_left(src_space, left_phi.source.n_factors)
    moved = compose_maps(weil_prolong(S1, right_map), to_right).components
    n = prolongation(shape, right_target).dim
    copies = [moved[j * n:(j + 1) * n] for j in range(S1.dim)]
    pushed = list(chain.from_iterable(matrix_action(
        left_phi, copies, [n] * left_phi.target.dim, Polynomial.zero(src_space.dim))))
    new_left = compose_maps(left_map, to_left)
    return join_at(shape, left_phi.target, right_target, new_left,
                   PolyMap(src_space.dim, len(pushed), pushed))


def pair_action(shape: AnchoredShape, left_map: PolyMap, right_map: PolyMap,
                target: WeilAlgebra) -> PolyMap:
    """Tupling into the fibered sum A.W_{n+m} = A.target (shared base,
    stacked fibers)."""
    d = shape.base_dim
    if left_map.components[:d] != right_map.components[:d]:
        raise ValueError("fibered pairing needs equal base components")
    comps = list(left_map.components) + list(right_map.components[d:])
    space = prolongation(shape, target)
    if len(comps) != space.dim:
        raise ValueError("fibered pairing received maps of the wrong shapes")
    return PolyMap(left_map.src_dim, space.dim, comps)
