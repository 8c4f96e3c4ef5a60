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
    act_word_on_weight,
    eta_machinery,
    pred_succ,
    xi_enumerate,
)
from .qtorus import FrameMatrix, NonIntegralFrame
from .seedcore import ExchangeMatrix, QuantumSeed, ReductionError, antiiso_transform, graded_reduce


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
        """Seed of every interval permutation, in `xi_enumerate` order.

        With no positions the only permutation is (), mapped to the empty seed.
        """
        perms = xi_enumerate(self.size) if self.size else [()]
        return {sigma: self.seed(sigma) for sigma in perms}


def bowtie_build(cartan: CartanData, w_word: Sequence[int], u_word: Sequence[int]) -> BowtiePresentation:
    """Exponent matrix and degrees of the presentation attached to (w, u).

    With positions k ordered as in the double word (w reversed, then u),
    lambda_{kj} = v^(2 nu_{kj}), where for j < k

        nu_{kj} = -<beta_|k|, beta_|j|>    on the w-block,
                  -<beta'_|k|, beta'_|j|>  on the u-block,
                  +<beta'_|k|, beta_|j|>   on the mixed block,

    which is what the h(beta)/h(-beta') action of the presentation gives.
    """
    dwd = eta_machinery(cartan, w_word, u_word)
    n = dwd.size
    nw = dwd.n_w
    nu = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k):
            pairing = cartan.pair_alpha(dwd.root_at(k), dwd.root_at(j))
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

    p(k) is `word.pred[k]`; a missing one is the empty chain, a zero row.
    """
    zero = (0,) * (len(table[0]) if table else 0)
    rows: list[tuple[int, ...]] = []
    for x, p in zip(word.sigma, word.pred):
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


def sigma_frame_product(pres: BowtiePresentation, sigma: Sequence[int]) -> FrameMatrix:
    """Same frame through the raw double-product formula, as an independent path.

    The supports are rebuilt from eta and sigma, not through `_chain_sums` or
    the word's `pred`, and the frame takes the validating constructor.
    """
    sigma = pres.dwd.spell(sigma).sigma
    eta, nu = pres.dwd.eta, pres.nu.psi
    supports = [[i for i in sigma[: k + 1] if eta[i] == eta[x]] for k, x in enumerate(sigma)]
    return FrameMatrix(
        tuple(tuple(sum(nu[i][l] for i in sk for l in sj) for sj in supports) for sk in supports)
    )


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
    cartan: Sequence[Sequence[int]],
    letters: Sequence[int],
    eps: Sequence[int],
    pred: Sequence,
    succ: Sequence,
    ex: Sequence[int],
) -> ExchangeMatrix:
    """Exchange matrix of a double word (Berenstein-Fomin-Zelevinsky, Cluster algebras III).

    `letters` is the level of each position, `eps` its sign, `pred` and
    `succ` its same-level walk p, s (`coxeter.pred_succ` of the letters, None
    where there is no neighbour), and the columns are those of `ex`.  Column k
    has -eps_k at p(k) and eps_{s(k)} at s(k).  For j < k the entry
    is -eps_k c_{jk} when k < s(j) < s(k) with eps_k = eps_{s(j)}, or when
    k < s(k) < s(j) with the crossing eps_k != eps_{s(k)}; for k < j it is
    eps_j c_{jk} under the same conditions with j and k exchanged.  A
    missing successor reads as n, past every position.  Every other entry
    is 0.
    """
    n = len(letters)
    s = tuple(n if x is None else x for x in succ)

    def entry(j: int, k: int) -> int:
        if j == pred[k]:
            return -eps[k]
        if j == s[k]:
            return eps[j]
        cjk = cartan[letters[j] - 1][letters[k] - 1]
        sj, sk = s[j], s[k]
        if j < k:
            if (k < sj and sj < sk and eps[k] == eps[sj]) or (
                k < sk and sk < sj and eps[k] != eps[sk]
            ):
                return -eps[k] * cjk
        if k < j:
            if (j < sk and sk < sj and eps[j] == eps[sk]) or (
                j < sj and sj < sk and eps[j] != eps[sj]
            ):
                return eps[j] * cjk
        return 0

    cols = tuple(tuple(entry(j, k) for j in range(n)) for k in ex)
    return ExchangeMatrix(n, tuple(ex), cols)


def btau_columns(dwd: DoubleWordData, word: SigmaWord) -> ExchangeMatrix:
    """Exchange matrix of the sigma-seed: the matrix of the double word sigma spells.

    Position k of the word has the level of sigma(k), and sign +1 when
    sigma(k) extends the interval sigma(0..k-1) upward, -1 when downward;
    the columns are the positions with a successor.  Position 0 extends
    nothing, and its sign never enters `double_word_matrix`.  The word comes
    from `dwd.spell(sigma)`, and is read as it is.
    """
    return double_word_matrix(dwd.cartan.cartan, word.letters, word.eps, word.pred, word.succ, word.ex)


def bfz_matrix(dwd: DoubleWordData) -> ExchangeMatrix:
    """Exchange matrix of the reversed-w seed, the double word itself."""
    return btau_columns(dwd, dwd.spell(w0_permutation(dwd)))


def b_columns(dwd: DoubleWordData) -> ExchangeMatrix:
    """Exchange matrix of the identity-order seed."""
    return btau_columns(dwd, dwd.spell(range(dwd.size)))


def oracle_system(
    pres: BowtiePresentation, word: SigmaWord
) -> tuple[tuple[tuple[int, ...], ...], dict[int, tuple[int, ...]]]:
    """Defining linear system of the exchange columns of sigma.

    Returns the integer rows [psi; degrees] of `pres.seed(word.sigma)` and,
    for each exchangeable position l, the right-hand side [-2 d e_l; 0]: the
    column at l is the vector b with frame-exponent <b, e_j> = 2 d delta_{jl}
    and vanishing degree pairing.
    """
    n = pres.size
    seed = pres.seed(word.sigma)
    width = pres.cartan.rank
    rows = seed.frame.psi + (tuple(zip(*seed.degrees)) or ((),) * width)
    rhs = {}
    for l in word.ex:
        d_val = pres.cartan.d[word.letters[l] - 1]
        rhs[l] = tuple(-2 * d_val if j == l else 0 for j in range(n)) + (0,) * width
    return rows, rhs


def solve_b_oracle(pres: BowtiePresentation, sigma: Sequence[int], l: int) -> tuple[int, ...]:
    """Exchange column at position l from its defining linear system.

    Solves `oracle_system` by fraction-free integer elimination for its
    unique solution, which must be an integer vector.  Used as the
    independent oracle against the closed-form column constructions.
    """
    rows, rhs = oracle_system(pres, pres.dwd.spell(sigma))
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
    p: tuple                                  # same-level walk of eta (`coxeter.pred_succ`)
    s: tuple
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
    w_inv = tuple(reversed(w))

    def fundamental(i: int) -> tuple[int, ...]:
        return tuple(1 if t == i - 1 else 0 for t in range(r))

    def plain_label(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if k < r:
            mu = fundamental(k + 1)
            return mu, act_word_on_weight(cartan, w_inv, mu)
        if k < r + nw:
            idx = k - r   # 0-based position in w
            mu = fundamental(w[idx])
            prefix = w_inv[: nw - 1 - idx]
            return mu, act_word_on_weight(cartan, prefix, mu)
        idx = k - r - nw
        mu = fundamental(u[idx])
        return act_word_on_weight(cartan, u[: idx + 1], mu), mu

    plain = tuple(plain_label(k) for k in range(n))
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
    p, s = pred_succ(eta)
    eps = tuple(1 if k < r + nw else -1 for k in range(n))
    ex = tuple(k for k in range(r, n) if s[k] is not None)
    exchange = double_word_matrix(cartan.cartan, eta, eps, p, s, ex)
    inv = frozenset(set(range(n)) - set(ex))
    d = tuple(cartan.d[eta[k] - 1] for k in range(n))

    def data(variant: Variant, labels) -> BZSeedData:
        degrees = tuple(tuple(-x for x in g) for g, _ in labels)
        return BZSeedData(variant, labels, eta, p, s, QuantumSeed(frame, exchange, inv, degrees, d))

    return {"plain": data("plain", plain), "modified": data("modified", modified)}


@dataclass(frozen=True)
class ConnectionsReport:
    ok: bool
    detail: str


def connections_check(pres: BowtiePresentation) -> ConnectionsReport:
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
        return ConnectionsReport(False, f"minor-labelled frame: {exc}")
    try:
        reduced = graded_reduce(mbz.seed, pres.cartan.rank)
    except ReductionError as exc:
        return ConnectionsReport(False, f"reduction failed: {exc}")
    transformed = antiiso_transform(reduced)

    frame_match = transformed.frame.psi == bar.frame.psi
    exchange_match = transformed.ex == bar.ex and all(
        transformed.exchange.column(k) == bar.exchange.column(k) for k in bar.ex
    )
    ok = frame_match and exchange_match
    detail = "" if ok else f"frame_match={frame_match} exchange_match={exchange_match}"
    return ConnectionsReport(ok, detail)
