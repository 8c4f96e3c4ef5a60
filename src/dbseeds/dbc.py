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

from . import linalg
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

    @property
    def size(self) -> int:
        return self.dwd.size

    @cached_property
    def bz(self) -> dict[Variant, BZSeedData]:
        """Plain and modified minor-labelled seeds, built once per presentation."""
        return bz_seed(self)

    def seed(self, sigma: Sequence[int]) -> QuantumSeed:
        """Seed of one interval permutation, built on first use and kept.

        A sigma boundary: `dwd.spell` validates sigma, and the cache is keyed
        by the sigma of the word it returns, so only a validated sigma is a key.
        """
        key = self.dwd.spell(sigma).sigma
        if key not in self._seeds:
            self._seeds[key] = sigma_seed(self, key).seed
        return self._seeds[key]

    @cached_property
    def seeds(self) -> dict[Perm, QuantumSeed]:
        """Seed of every interval permutation, in `xi_enumerate` order, each through `seed`.

        With no positions the only permutation is (), mapped to the empty seed.
        """
        return {sigma: self.seed(sigma) for sigma in (xi_enumerate(self.size) if self.size else [()])}


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


def _chain_sums(table, word: SigmaWord) -> list[tuple[int, ...]]:
    """Row k is the sum of table[i] over chain(k), as row p(k) + table[sigma(k)].

    p(k) is `word.walk.pred[k]`; a missing one is the empty chain, a zero row.
    """
    zero = (0,) * (len(table[0]) if table else 0)
    rows: list[tuple[int, ...]] = []
    for x, p in zip(word.sigma, word.walk.pred):
        rows.append(tuple(map(add, zero if p is None else rows[p], table[x])))
    return rows


def sigma_frame(pres: BowtiePresentation, word: SigmaWord) -> FrameMatrix:
    """Frame of the seed attached to sigma: psi[a][b] = chain(a)^T nu chain(b).

    chain(k), the positions of sigma(k)'s level among sigma(0..k), is
    chain(p(k)) + {sigma(k)}, p(k) the last earlier position of that level,
    since no position between p(k) and k has it.  So the rows
    R_k = chain(k)^T nu follow R_k = R_p(k) + nu[sigma(k)], and the columns
    of psi follow psi[.][b] = psi[.][p(b)] + R[.][sigma(b)], a missing p
    adding 0: two passes over sigma (`_chain_sums`), with no pairing and no rank.
    psi = C nu C^T with C integral, so it takes the trusted path (see `FrameMatrix`).
    """
    rows = _chain_sums(pres.nu.psi, word)
    return FrameMatrix._trusted(tuple(zip(*_chain_sums(tuple(zip(*rows)), word))))


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
    is the set of positions of sigma(k)'s level among sigma(0..k).  The
    supports are grouped by level from eta and sigma (`word.sigma`, the only
    field read) alone, not through `_chain_sums` or the word's walk.  Each
    is summed in full, twice: R_k = sum over S_k of the rows nu_i, then
    column j of psi is the sum over S_j of the columns of R.  The frame
    takes the validating constructor.
    """
    eta = pres.dwd.eta
    level: dict[int, tuple[int, ...]] = {}
    supports = []
    for x in word.sigma:
        support = level[eta[x]] = level.get(eta[x], ()) + (x,)
        supports.append(support)
    rows = _support_sums(pres.nu.psi, supports)
    return FrameMatrix(tuple(zip(*_support_sums(tuple(zip(*rows)), supports))))


def sigma_degrees(pres: BowtiePresentation, word: SigmaWord) -> tuple[tuple[int, ...], ...]:
    """Root-lattice degree of each permuted cluster variable: the sum over its chain.

    chain(k) = chain(p(k)) + {sigma(k)} (see `sigma_frame`), so
    deg_k = deg_p(k) + D[sigma(k)] (`_chain_sums`), with D the generator
    degrees and a missing p giving 0.
    """
    return tuple(_chain_sums(pres.degrees, word))


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
    in the Cartan matrix, c_{jk} != 0.
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
    return ExchangeMatrix(n, tuple(ex), tuple(cols))


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
    """Exchange matrix of the identity-order seed."""
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
    The frame is the chain congruence `sigma_frame`;
    `verify.sigma_skew_symmetrizable` compares it with the product formula.
    """
    word = pres.dwd.spell(sigma)
    seed = QuantumSeed(
        frame=sigma_frame(pres, word),
        exchange=btau_columns(pres.dwd, word),
        inv=frozenset(),
        degrees=sigma_degrees(pres, word),
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
