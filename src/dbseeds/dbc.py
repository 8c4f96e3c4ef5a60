"""Seed constructors for the double-cell algebras of a pair (w, u).

Everything is exact: scalar matrices are stored through their v-exponents
(v = sqrt(q)), frames as skew-symmetric integer exponent matrices, and
exchange matrices over the integers.

Sign conventions for the generator scalar matrix are fixed by the iterated
skew polynomial presentation (the w-block acts through h(beta), the u-block
through h(-beta')) and are audited by the rewriting engine's associativity
check; see tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import add, mul
from typing import Literal, Sequence

from . import coxeter, linalg
from .coxeter import (
    CartanData,
    DoubleWordData,
    Perm,
    SigmaWord,
    Walk,
    eta_machinery,
    prefix_weight_images,
    walk,
    xi_enumerate,
)
from .qtorus import FrameMatrix, NonIntegralFrame
from .seedcore import CheckResult, ExchangeMatrix, QuantumSeed, ReductionError, antiiso_transform, graded_reduce


class OracleError(ValueError):
    """The exchange-column linear system has no unique integer solution."""


@dataclass(frozen=True)
class BowtiePresentation:
    """Scalar matrix, symmetrization data and degrees of the double-cell algebra."""

    cartan: CartanData
    dwd: DoubleWordData
    nu: FrameMatrix                           # v-exponents of lambda, halved
    degrees: tuple[tuple[int, ...], ...]      # root-lattice degree per generator
    _seeds: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # `sigma_frame_product`'s level-run table, (run -> row, frame), set on its first call
    _runs: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.dwd.size

    @cached_property
    def bz(self) -> dict[Variant, BZSeedData]:
        """Plain and modified minor-labelled seeds, built once per presentation."""
        return bz_seed(self)

    @cached_property
    def chains(self) -> ChainTable:
        """The one chain table of this presentation, grown by every sigma-frame and degree table asked for."""
        return ChainTable(self)

    def seed(self, sigma: Sequence[int]) -> QuantumSeed:
        """Seed of one interval permutation, built on first use and kept: the one lookup by sigma.

        A sigma boundary: `dwd.spell` validates sigma, and the cache is keyed
        by the sigma of the word it returns, so only a validated sigma is a key.
        The seed is the object `sweep` holds for sigma, whichever asked first.
        A seed asked for alone grows the same `chains` as the sweep, by at most n chains.
        """
        return self._seed(self.dwd.spell(sigma))

    def _seed(self, word: SigmaWord) -> QuantumSeed:
        """The kept seed of the word `spell` returned, built by `sigma_seed` on a miss."""
        seed = self._seeds.get(word.sigma)
        if seed is None:
            seed = self._seeds[word.sigma] = sigma_seed(self, word.sigma).seed
        return seed

    @cached_property
    def sweep(self) -> tuple[tuple[SigmaWord, QuantumSeed], ...]:
        """(word, seed) of every interval permutation, in `xi_enumerate` order: the one all-sigma view.

        Each sigma is spelled here once, and its seed found or built as in
        `seed`, so the checks of `verify` and `dbseeds seed --sigma all-xi`
        read the word with the seed and never spell again; the place of
        sigma in the sweep is its code in `xi_enumerate`.  Each seed grows
        `chains` as it is built, so the table then holds exactly the runs
        of the levels.  With no positions the only permutation is (), mapped
        to the empty seed.  Raises XiBoundExceeded, before any seed is
        built, past `coxeter.XI_MAX_N` positions.
        """
        if self.size > coxeter.XI_MAX_N:
            raise coxeter.XiBoundExceeded(f"n = {self.size} positions, past the Xi sweep bound {coxeter.XI_MAX_N}")
        words = map(self.dwd.spell, xi_enumerate(self.size) if self.size else ((),))
        return tuple((word, self._seed(word)) for word in words)


def bowtie_build(cartan: CartanData, w_word: Sequence[int], u_word: Sequence[int]) -> BowtiePresentation:
    """Exponent matrix and degrees of the presentation attached to (w, u).

    With positions k ordered as in the double word (w reversed, then u),
    lambda_{kj} = v^(2 nu_{kj}), where for j < k

        nu_{kj} = -<beta_|k|, beta_|j|>    on the w-block,
                  -<beta'_|k|, beta'_|j|>  on the u-block,
                  +<beta'_|k|, beta_|j|>   on the mixed block,

    which is what the h(beta)/h(-beta') action of the presentation gives.
    Each root's Gram image is taken once, and a pairing is one row sum
    against it.
    """
    dwd = eta_machinery(cartan, w_word, u_word)
    n = dwd.size
    nw = dwd.n_w
    roots = [dwd.root_at(k) for k in range(n)]
    images = [cartan.gram_image(a) for a in roots]
    nu = [[0] * n for _ in range(n)]
    for k in range(n):
        root = roots[k]
        for j in range(k):
            pairing = sum(map(mul, root, images[j]))
            e = pairing if j < nw <= k else -pairing
            nu[k][j] = e
            nu[j][k] = -e
    degrees = tuple(dwd.degree_at(k) for k in range(n))
    return BowtiePresentation(cartan, dwd, FrameMatrix(tuple(tuple(r) for r in nu)), degrees)


# ---------------------------------------------------------------------------
# Frames and degrees of the permuted seeds
# ---------------------------------------------------------------------------


def w0_permutation(dwd: DoubleWordData) -> Perm:
    """The permutation reversing the w-block and fixing the u-block."""
    nw, n = dwd.n_w, dwd.size
    return tuple(range(nw - 1, -1, -1)) + tuple(range(nw, n))


class ChainTable:
    """The chains of a presentation's sigma-words, each added once, by the first word to reach it.

    chain(k), the positions of sigma(k)'s level among sigma(0..k), is
    chain(p(k)) + {sigma(k)}, p(k) = `word.walk.pred[k]`.  So `ids` looks
    position k up by the key (chain of p(k), sigma(k)), which names that
    set, kept increasing in `chains`, as a known chain or a new one; the
    keys follow the walk as it is, and a row depends on the set only.

    A new chain c = p + {x} extends frame[c][e] = chain_c^T nu chain_e with
    no sum over its set: with R_e = sum of nu_i over i in e, kept per chain,
    frame[c][e] = frame[p][e] + sum_{j in e} nu_xj = frame[p][e] - R_e[x]
    for each chain e present (nu is skew-symmetric), frame[e][c] =
    -frame[c][e], frame[c][c] = 0, R_c = R_p + nu_x and degrees[c] =
    degrees[p] + degree_x, the empty chain p having zero rows.  So frame is
    C nu C^T with C integral, which takes the trusted path (`FrameMatrix`).
    Every chain is a run of its level, as sigma(0..k) is an interval: with
    an honest walk the table never holds more than the sum of m(m+1)/2 over
    the levels (m positions each), and a word adds at most n.
    """

    def __init__(self, pres: BowtiePresentation):
        self._nu = pres.nu.psi
        self._degree = pres.degrees
        self._keys: dict[tuple[int | None, int], int] = {}   # (chain of p(k), sigma(k)) -> chain
        self._index: dict[tuple[int, ...], int] = {}          # positions, increasing -> chain
        self._sums: list[tuple[int, ...]] = []                # R_c per chain
        self.chains: list[tuple[int, ...]] = []
        self.frame: list[list[int]] = []                      # grown in place, a row and a column per chain
        self.degrees: list[tuple[int, ...]] = []

    def ids(self, word: SigmaWord) -> tuple[int, ...]:
        """The chain of each position of `word`, adding the chains it is the first to reach."""
        at: list[int] = []
        for x, p in zip(word.sigma, word.walk.pred):
            parent = None if p is None else at[p]
            c = self._keys.get((parent, x))
            if c is None:
                c = self._keys[parent, x] = self._extend(parent, x)
            at.append(c)
        return tuple(at)

    def _extend(self, parent: int | None, x: int) -> int:
        """The chain of chain(parent) + {x}, added by the extension rule unless the set is known."""
        chain = tuple(sorted((() if parent is None else self.chains[parent]) + (x,)))
        c = self._index.setdefault(chain, len(self.chains))
        if c < len(self.chains):
            return c
        nu_x, sums = self._nu[x], self._sums
        if parent is None:
            row = [-r[x] for r in sums]
            sums.append(nu_x)
            self.degrees.append(self._degree[x])
        else:
            row = [t - r[x] for t, r in zip(self.frame[parent], sums)]
            sums.append(tuple(map(add, sums[parent], nu_x)))
            self.degrees.append(tuple(map(add, self.degrees[parent], self._degree[x])))
        for r, t in zip(self.frame, row):
            r.append(-t)
        self.frame.append(row + [0])
        self.chains.append(chain)
        return c


def sigma_frame(pres: BowtiePresentation, ids: Sequence[int]) -> FrameMatrix:
    """Frame of the seed attached to sigma: psi[a][b] = chain(a)^T nu chain(b).

    `ids` are sigma's chain ids, `pres.chains.ids(word)`.  With T =
    `pres.chains.frame`, T[c][e] = chain_c^T nu chain_e, psi is the
    principal submatrix of T at the ids: one gather
    (`FrameMatrix.principal`), no sum.  T is C nu C^T, wrapped trusted for
    this gather only.
    """
    return FrameMatrix._trusted(pres.chains.frame).principal(ids)


def _support_sums(table, supports) -> list[tuple[int, ...]]:
    """Row k is the sum of table[i] over supports[k], each support summed in full."""
    rows = []
    for support in supports:
        row = table[support[0]]
        for i in support[1:]:
            row = tuple(map(add, row, table[i]))
        rows.append(row)
    return rows


def sigma_frame_product(pres: BowtiePresentation, word: SigmaWord) -> FrameMatrix:
    """Same frame through the raw double-product formula, as an independent path.

    psi_kj = sum of nu_il over i in S_k and l in S_j, where the support S_k
    is the set of positions of sigma(k)'s level among sigma(0..k): a run of
    that level, grouped from eta and sigma alone (`word.sigma` is the only
    field read), not through the chain table or a walk.  sigma(k) lies below
    every earlier position exactly when sigma(k) < sigma(0), so S_k is kept
    increasing and equal supports are equal keys.  The first call per
    presentation sums every level run of eta in full, twice (R = the rows
    nu_i over each run, then the columns of R), and validates that table P
    once by the `FrameMatrix` constructor; psi is its principal submatrix at
    sigma's supports.  Raises XiBoundExceeded past `coxeter.XI_MAX_N`
    positions before building anything (E8 at w = u = w0 has 4488 runs).
    """
    eta = pres.dwd.eta
    if pres._runs is None:
        if pres.size > coxeter.XI_MAX_N:
            raise coxeter.XiBoundExceeded(f"n = {pres.size} positions, past the Xi sweep bound {coxeter.XI_MAX_N}")
        levels = [[i for i, b in enumerate(eta) if b == a] for a in sorted(set(eta))]
        runs = [tuple(at[i:j]) for at in levels for i in range(len(at)) for j in range(i + 1, len(at) + 1)]
        rows = _support_sums(pres.nu.psi, runs)
        frame = FrameMatrix(tuple(zip(*_support_sums(tuple(zip(*rows)), runs))))
        object.__setattr__(pres, "_runs", ({run: c for c, run in enumerate(runs)}, frame))
    index, frame = pres._runs
    sigma = word.sigma
    level: dict[int, tuple[int, ...]] = {}
    at = []
    for x in sigma:
        prev = level.get(eta[x], ())
        support = level[eta[x]] = (x,) + prev if x < sigma[0] else prev + (x,)
        at.append(index[support])
    return frame.principal(at)


def sigma_degrees(pres: BowtiePresentation, ids: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Root-lattice degree of each permuted cluster variable: the sum over its chain.

    Each chain is summed once, when `pres.chains` adds it
    (`ChainTable.degrees`), and sigma's degrees are the rows at its chain
    ids, as in `sigma_frame`.
    """
    return linalg.gather(ids)(pres.chains.degrees)


# ---------------------------------------------------------------------------
# Exchange matrices
# ---------------------------------------------------------------------------


def double_word_matrix(
    cartan: Sequence[Sequence[int]], letters: Sequence[int], eps: Sequence[int], walk: Walk, ex: Sequence[int]
) -> ExchangeMatrix:
    """Exchange matrix of a double word (Berenstein-Fomin-Zelevinsky, Cluster algebras III).

    `letters` is the level of each position, `eps` its sign, `walk` the
    same-level walk of the letters (`coxeter.walk`), whose `pred` and `succ`
    are p and s, and the columns are those of `ex`.  Column k
    has -eps_k at p(k) and eps_{s(k)} at s(k).  For j < k the entry
    is -eps_k c_{jk} when k < s(j) < s(k) with eps_k = eps_{s(j)}, or when
    k < s(k) < s(j) with the crossing eps_k != eps_{s(k)}; for k < j it is
    eps_j c_{jk} under the same conditions with j and k exchanged.  A
    missing successor reads as n, past every position.  Every other entry
    is 0, so a column visits only the positions whose level meets its own
    in the Cartan matrix, c_{jk} != 0.  Each column is made of length n, one
    per index of ex, so the matrix takes the trusted path (`ExchangeMatrix`).
    """
    n = len(letters)
    pred = walk.pred
    s = tuple(n if x is None else x for x in walk.succ)
    near: dict[int, list[tuple[int, int]]] = {}   # level a -> (j, c_{j a}) with c_{j a} != 0
    for a in set(letters):
        near[a] = [(j, cartan[b - 1][a - 1]) for j, b in enumerate(letters) if cartan[b - 1][a - 1]]
    cols = []
    for k in ex:
        ek, sk = eps[k], s[k]
        col = [0] * n
        for j, cjk in near[letters[k]]:
            sj = s[j]
            if j < k:
                if (k < sj < sk and ek == eps[sj]) or (k < sk < sj and ek != eps[sk]):
                    col[j] = -ek * cjk
            elif k < j:
                ej = eps[j]
                if (j < sk < sj and ej == eps[sk]) or (j < sj < sk and ej != eps[sj]):
                    col[j] = ej * cjk
        if pred[k] is not None:
            col[pred[k]] = -ek
        if sk < n:
            col[sk] = eps[sk]
        cols.append(tuple(col))
    return ExchangeMatrix._trusted(n, tuple(ex), tuple(cols))


def btau_columns(dwd: DoubleWordData, word: SigmaWord) -> ExchangeMatrix:
    """Exchange matrix of the sigma-seed: the matrix of the double word sigma spells.

    Position k of the word has the level of sigma(k), and sign +1 when
    sigma(k) extends the interval sigma(0..k-1) upward, -1 when downward;
    the columns are the positions with a successor.  Position 0 extends
    nothing, and its sign never enters `double_word_matrix`.  The word comes
    from `dwd.spell(sigma)`, and is read as it is.
    """
    return double_word_matrix(dwd.cartan.cartan, word.letters, word.eps, word.walk, word.ex)


def bfz_matrix(dwd: DoubleWordData) -> ExchangeMatrix:
    """Exchange matrix of the reversed-w seed, the double word itself."""
    return btau_columns(dwd, dwd.spell(w0_permutation(dwd)))


def b_columns(dwd: DoubleWordData) -> ExchangeMatrix:
    """Exchange matrix of the identity-order seed.  No library code calls it; `perfbench/` keeps it."""
    return btau_columns(dwd, dwd.spell(range(dwd.size)))


def oracle_system(
    cartan: CartanData, word: SigmaWord, seed: QuantumSeed
) -> tuple[tuple[tuple[int, ...], ...], dict[int, tuple[int, ...]]]:
    """Defining linear system of the exchange columns of sigma.

    `seed` is the seed of `word.sigma`, read as it is.  Returns its integer
    rows [psi; degrees] and, for each exchangeable position l, the
    right-hand side [-2 d e_l; 0]: the column at l is the vector b with
    frame-exponent <b, e_j> = 2 d delta_{jl} and vanishing degree pairing.
    """
    n = seed.size
    width = cartan.rank
    rows = seed.frame.psi + (tuple(zip(*seed.degrees)) or ((),) * width)
    zeros = (0,) * (n + width)
    rhs = {l: zeros[:l] + (-2 * cartan.d[word.letters[l] - 1],) + zeros[l + 1:] for l in word.ex}
    return rows, rhs


def solve_b_oracle(pres: BowtiePresentation, sigma: Sequence[int], l: int) -> tuple[int, ...]:
    """Exchange column at position l from its defining linear system.

    Solves `oracle_system` by fraction-free integer elimination for its
    unique solution, which must be an integer vector.  Used as the
    independent oracle against the closed-form column constructions.
    """
    word = pres.dwd.spell(sigma)
    rows, rhs = oracle_system(pres.cartan, word, pres.seed(word.sigma))
    if l not in rhs:
        raise OracleError(f"position {l} is not exchangeable for this permutation")
    try:
        return linalg.solve_unique(rows, rhs[l])
    except linalg.LinearSolveError as exc:
        raise OracleError(f"no unique integer exchange column at {l}: {exc}") from None


# ---------------------------------------------------------------------------
# Assembled seeds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaSeedData:
    seed: QuantumSeed


def sigma_seed(pres: BowtiePresentation, sigma: Sequence[int]) -> SigmaSeedData:
    """Full seed (frame, exchange, degrees) attached to an interval permutation.

    A sigma boundary: sigma is spelled once, and every part reads its word.
    Its chain ids are looked up once, and the frame (the chain congruence
    `sigma_frame`) and the degrees are both gathered at them;
    `verify.sigma_skew_symmetrizable` compares the frame with the product
    formula.
    """
    word = pres.dwd.spell(sigma)
    ids = pres.chains.ids(word)
    seed = QuantumSeed(
        frame=sigma_frame(pres, ids),
        exchange=btau_columns(pres.dwd, word),
        inv=frozenset(),
        degrees=sigma_degrees(pres, ids),
        d=tuple(pres.cartan.d[x - 1] for x in word.letters),
    )
    return SigmaSeedData(seed)


# ---------------------------------------------------------------------------
# The seeds on the full quantum coordinate ring (with the torus part)
# ---------------------------------------------------------------------------

Variant = Literal["plain", "modified"]


@dataclass(frozen=True)
class BZSeedData:
    """Quantum-minor seed on [0, r+N+M): labels, frame, exchange, degrees."""

    variant: Variant
    labels: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]   # (gamma_k, delta_k)
    eta: tuple[int, ...]
    walk: Walk                                # same-level walk of eta
    seed: QuantumSeed


def bz_seed(pres: BowtiePresentation) -> dict[Variant, BZSeedData]:
    """Plain and modified seeds with quantum-minor labels for the double word 1..r, w, u.

    The modified labels are the plain ones with gamma and delta swapped.  Both
    variants share one frame and one exchange matrix; their degrees are minus
    the first label of each pair.  The frame exponents are the pairing
    differences of the weight labels, <gamma_j, gamma_k> - <delta_j, delta_k>,
    taken as integer numerators over the weight form's denominator from each
    label's `weight_image`; `FrameMatrix.from_rows` divides them out and
    raises on a fractional one.  The labels are the plain ones: the modified
    labels would give the negated frame, a global sign that the cross-check
    against the reversed-w seed (`connections_check`) rejects.
    """
    cartan, dwd = pres.cartan, pres.dwd
    w, u = dwd.w_word, dwd.u_word
    r = cartan.rank
    nw = len(w)
    n = r + pres.size
    # the labels move a fundamental weight by a prefix of w^-1 or of u, read
    # off one pass over each word: position r + idx reads the prefix of w^-1
    # of length nw - 1 - idx (the letters of w after idx), position
    # r + nw + idx the prefix u[:idx + 1], and the first r positions w^-1
    on_w = prefix_weight_images(cartan, w[::-1])
    on_u = prefix_weight_images(cartan, u)
    fundamental = on_u[0]
    plain = (
        tuple((fundamental[k], on_w[nw][k]) for k in range(r))
        + tuple((fundamental[a - 1], on_w[nw - 1 - idx][a - 1]) for idx, a in enumerate(w))
        + tuple((on_u[idx + 1][a - 1], fundamental[a - 1]) for idx, a in enumerate(u))
    )
    modified = tuple((d, g) for g, d in plain)

    gamma_img = [cartan.weight_image(g) for g, _ in plain]
    delta_img = [cartan.weight_image(d) for _, d in plain]
    psi = [[0] * n for _ in range(n)]
    for j in range(n):
        gj, dj = plain[j]
        for k in range(j):
            num = sum(map(mul, gj, gamma_img[k])) - sum(map(mul, dj, delta_img[k]))
            psi[j][k] = num
            psi[k][j] = -num
    frame = FrameMatrix.from_rows(psi, cartan.weight_den)

    eta = tuple(range(1, r + 1)) + w + u
    eta_walk = walk(eta)
    eps = tuple(1 if k < r + nw else -1 for k in range(n))
    ex = tuple(k for k in range(r, n) if eta_walk.succ[k] is not None)
    exchange = double_word_matrix(cartan.cartan, eta, eps, eta_walk, ex)
    inv = frozenset(set(range(n)) - set(ex))
    d = tuple(cartan.d[eta[k] - 1] for k in range(n))

    def data(variant: Variant, labels) -> BZSeedData:
        degrees = tuple(tuple(-x for x in g) for g, _ in labels)
        return BZSeedData(variant, labels, eta, eta_walk, QuantumSeed(frame, exchange, inv, degrees, d))

    return {"plain": data("plain", plain), "modified": data("modified", modified)}


def connections_check(pres: BowtiePresentation) -> CheckResult:
    """Cross-verification of the two seed pipelines for the pair (w, u) of `pres`.

    Takes the reversed-w seed of the reduced cell, `pres.seed(w0)`, and the
    modified minor-labelled seed, `pres.bz["modified"]`, built independently
    of it; reduces the latter by its first r frozen variables, applies the
    antiisomorphism transform, shifts indices, and compares frames and
    exchange matrices entrywise.  A fractional minor-labelled frame fails.
    """
    bar = pres.seed(w0_permutation(pres.dwd))
    try:
        mbz = pres.bz["modified"]
    except NonIntegralFrame as exc:
        return CheckResult("connections", False, f"minor-labelled frame: {exc}")
    try:
        reduced = graded_reduce(mbz.seed, pres.cartan.rank)
    except ReductionError as exc:
        return CheckResult("connections", False, f"reduction failed: {exc}")
    transformed = antiiso_transform(reduced)

    frame_match = transformed.frame.psi == bar.frame.psi
    exchange_match = transformed.ex == bar.ex and all(
        transformed.exchange.column(k) == bar.exchange.column(k) for k in bar.ex
    )
    ok = frame_match and exchange_match
    detail = "" if ok else f"frame_match={frame_match} exchange_match={exchange_match}"
    return CheckResult("connections", ok, detail)
