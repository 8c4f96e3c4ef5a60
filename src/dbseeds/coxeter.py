"""Finite Cartan data, Weyl word combinatorics, and double-word indexing.

Conventions
-----------
* Dynkin diagrams are numbered in the Bourbaki convention; letters in words
  are the 1-based node labels.
* Weights are integer tuples in the fundamental-weight basis, roots are
  integer tuples in the simple-root basis.
* Positions inside words and inside the combined double-word index set are
  0-based throughout the library.
* The bilinear form is normalized so that short roots have squared length 2.
* An interval permutation sigma of the double-word positions spells a double
  word of its own, `SigmaWord`: the level of sigma(k) at position k, with the
  sign of the direction in which sigma(k) extends the interval sigma(0..k-1).
  `DoubleWordData.spell(sigma)` builds it and is the one lookup and the one
  validation of a sigma.  The boundary spells; the builders behind it take
  the word and never spell again.
* The same-level walk of a word (`Walk`, built by `walk`) is taken once,
  where the word is built; consumers read it by name, and its order counts
  O_- and O_+ are computed only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from operator import mul, sub
from typing import Iterator, NamedTuple, Sequence

from . import linalg


class InvalidCartanType(ValueError):
    """(family, rank) does not name a finite simple type."""


class NonReducedWordError(ValueError):
    """A word required to be reduced is not."""


class LetterOutOfRange(ValueError):
    """A word has a letter that is not a node 1..rank of the Dynkin diagram."""


Weight = tuple[int, ...]
Root = tuple[int, ...]
Word = tuple[int, ...]


@dataclass(frozen=True)
class CartanData:
    """Cartan matrix, symmetrizers and exact weight pairings of a finite type.

    The weight pairing is kept as one integer form over one denominator:
    <w_i, w_j> = weight_form[i][j] / weight_den, where weight_den is the
    least common denominator of C^{-T} D and weight_form is weight_den C^{-T} D.
    Beside it `cartan_init` tabulates the root Gram matrix
    gram[i][j] = d_i c_ij = <alpha_i, alpha_j> and the simple roots in
    fundamental-weight coordinates, alpha_weights[i][j] = c_ji, so every
    pairing and image reads a table row by row.
    """

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]      # c[i][j] = <alpha_i^vee, alpha_j>, 0-based
    d: tuple[int, ...]                       # d_i = |alpha_i|^2 / 2
    weight_form: tuple[tuple[int, ...], ...]  # weight_den * <w_i, w_j>
    weight_den: int
    gram: tuple[tuple[int, ...], ...]         # d_i c_ij = <alpha_i, alpha_j>
    alpha_weights: tuple[Weight, ...]         # alpha_i in fundamental-weight coordinates

    def gram_image(self, a: Sequence[int]) -> tuple[int, ...]:
        """The vector gram . a: <x, a> = x . gram_image(a) for x in simple-root coordinates."""
        return linalg.mat_vec(self.gram, a)

    def weight_image(self, mu: Sequence[int]) -> tuple[int, ...]:
        """The integer vector weight_form . mu: weight_den <nu, mu> = nu . weight_image(mu)."""
        return linalg.mat_vec(self.weight_form, mu)

    def pair_weight(self, mu: Sequence[int], nu: Sequence[int]) -> Q:
        """<mu, nu> of weights in fundamental-weight coordinates.  No library code calls it; `perfbench/` keeps it."""
        return Q(sum(map(mul, mu, self.weight_image(nu))), self.weight_den)


def _chain_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


_E_EDGES = {
    6: [(0, 2), (2, 3), (3, 4), (4, 5), (1, 3)],
    7: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3)],
    8: [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)],
}


def cartan_init(family: str, rank: int) -> CartanData:
    """Build the Cartan datum of a finite simple type, exactly.

    Valid types: A_n (n>=1), B_n (n>=2), C_n (n>=3), D_n (n>=4),
    E_6..E_8, F_4, G_2.
    """
    fam = family.upper()
    n = rank
    ok = {
        "A": n >= 1, "B": n >= 2, "C": n >= 3, "D": n >= 4,
        "E": n in (6, 7, 8), "F": n == 4, "G": n == 2,
    }.get(fam, False)
    if not ok:
        raise InvalidCartanType(f"no finite type {family}{rank}")

    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    d = [1] * n
    if fam == "A":
        for i, j in _chain_edges(n):
            edge(i, j)
    elif fam == "B":
        # alpha_n short
        for i, j in _chain_edges(n):
            edge(i, j)
        edge(n - 2, n - 1, -1, -2)
        d = [2] * (n - 1) + [1]
    elif fam == "C":
        # alpha_n long
        for i, j in _chain_edges(n):
            edge(i, j)
        edge(n - 2, n - 1, -2, -1)
        d = [1] * (n - 1) + [2]
    elif fam == "D":
        for i, j in _chain_edges(n - 1):
            edge(i, j)
        edge(n - 3, n - 1)
    elif fam == "E":
        for i, j in _E_EDGES[n]:
            edge(i, j)
    elif fam == "F":
        edge(0, 1)
        edge(1, 2, -1, -2)
        edge(2, 3)
        d = [2, 2, 1, 1]
    elif fam == "G":
        edge(0, 1, -3, -1)
        d = [1, 3]

    # symmetrizability d_i c_ij = d_j c_ji must hold by construction
    for i in range(n):
        for j in range(n):
            if d[i] * c[i][j] != d[j] * c[j][i]:
                raise InvalidCartanType(f"{fam}{n}: d does not symmetrize the Cartan matrix at ({i}, {j})")

    # <w_i, w_j> from C^{-T} D, where <alpha_i, w_j> = d_i delta_ij
    cinv_t = linalg.transpose(linalg.mat_inv(c))
    pairing = [[cinv_t[i][j] * d[j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if pairing[i][j] != pairing[j][i]:
                raise InvalidCartanType(f"{fam}{n}: weight pairing is not symmetric at ({i}, {j})")
    den = math.lcm(*(x.denominator for row in pairing for x in row))
    form = tuple(tuple(int(x * den) for x in row) for row in pairing)
    gram = tuple(tuple(d[i] * x for x in row) for i, row in enumerate(c))

    return CartanData(fam, n, tuple(tuple(r) for r in c), tuple(d), form, den, gram, tuple(zip(*c)))


def prefix_weight_images(cartan: CartanData, word: Sequence[int]) -> list[tuple[Weight, ...]]:
    """x_p(w_j) for every prefix x_p = s_{i_1} ... s_{i_p} of a word, p = 0..N, in one pass.

    Entry p is the tuple of the images x_p(w_1), ..., x_p(w_r) of the
    fundamental weights.  Appending the letter i to x_p moves only w_i, as s_i w_j = w_j -
    delta_ij alpha_i: x_{p+1}(w_i) = x_p(w_i) - x_p(alpha_i), where
    x_p(alpha_i) = sum_t c_ti x_p(w_t) is one row sum over the previous entry.
    """
    r = cartan.rank
    images = tuple(tuple(_unit(r, j)) for j in range(r))
    out = [images]
    for letter in word:
        if not 1 <= letter <= r:
            raise IndexError(f"letter {letter} out of range 1..{r}")
        i = letter - 1
        moved = tuple(map(sub, images[i], linalg.combine(images, cartan.alpha_weights[i])))
        images = images[:i] + (moved,) + images[i + 1:]
        out.append(images)
    return out


def word_roots(cartan: CartanData, word: Sequence[int]) -> list[Root]:
    """Roots beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) of a word, in one pass.

    The pass carries images[j] = x(alpha_j) for the prefix x = s_{i_1} ...
    s_{i_{k-1}}, so beta_k = x(alpha_{i_k}), and appends each letter by
    `_reflect` rather than a walk over the whole prefix for every k.
    """
    r = cartan.rank
    images = [_unit(r, j) for j in range(r)]
    roots: list[Root] = []
    for k, letter in enumerate(word, 1):
        if not 1 <= letter <= r:
            raise IndexError(f"letter {letter} out of range 1..{r}")
        i = letter - 1
        roots.append(tuple(images[i]))
        if k < len(word):   # no later root reads the last letter's move
            _reflect(images, cartan.cartan[i], roots[-1])
    return roots


def _reflect(images: list[list[int]], row: Sequence[int], beta: Root) -> None:
    """images[j] = x(alpha_j) becomes x s_i(alpha_j) = x(alpha_j) - c_ij beta, in place, for beta = x(alpha_i).

    row is the Cartan row c_i.; only the j with c_ij != 0 change, over the support of beta.
    """
    support = [(t, y) for t, y in enumerate(beta) if y]
    for j, c in enumerate(row):
        if c:
            image = images[j]
            for t, y in support:
                image[t] -= c * y


def _unit(r: int, i: int) -> list[int]:
    """The i-th unit vector of length r, 0-based, as a list."""
    return [0] * i + [1] + [0] * (r - 1 - i)


def _roots_are_reduced(roots: Sequence[Root]) -> bool:
    """Whether a word's beta_k are pairwise distinct positive roots, the test of reducedness; a root is never zero."""
    return len(set(roots)) == len(roots) and all(min(a) >= 0 for a in roots)


def is_reduced(cartan: CartanData, word: Sequence[int]) -> bool:
    """Reduced iff the word's beta_k are distinct positive roots.  No library code calls it; `perfbench/` keeps it."""
    return _roots_are_reduced(word_roots(cartan, word))


def enumerate_reduced_words(cartan: CartanData, max_len: int) -> list[Word]:
    """All reduced words of length <= max_len, shortest first, lexicographic.

    Each frontier word w keeps its roots and the images x(alpha_j) that
    `word_roots` carries for the prefix x = w, so a candidate w + (a,) adds
    the one root beta = x(alpha_a).  w is reduced, so the candidate is
    reduced exactly when beta passes `_roots_are_reduced`'s rule beside w's
    roots: it is positive and not among them.  No library code calls it; `perfbench/` keeps it.
    """
    r = cartan.rank
    out: list[Word] = [()]
    frontier = [((), [_unit(r, j) for j in range(r)], ())]
    for _ in range(max_len):
        nxt = []
        for w, images, roots in frontier:
            for i, beta in enumerate(map(tuple, images)):
                if beta in roots or not _roots_are_reduced((beta,)):
                    continue
                moved = [list(x) for x in images]
                _reflect(moved, cartan.cartan[i], beta)
                nxt.append((w + (i + 1,), moved, roots + (beta,)))
        out.extend(w for w, _, _ in nxt)
        frontier = nxt
    return out


class Walk(NamedTuple):
    """The same-level walk of a letter sequence, built only by `walk`.

    pred[k] (succ[k]) is the last earlier (first later) position of k's
    letter, or None.  The order counts o_minus[k] = O_-(k) and
    o_plus[k] = O_+(k), how often k's letter occurs before (after) k, are
    read off pred and succ when asked for, so a walk whose counts nobody
    reads, such as a sigma-word's, never computes them.
    """

    pred: tuple
    succ: tuple

    @property
    def o_minus(self) -> tuple[int, ...]:
        """O_-(k) = O_-(p(k)) + 1, and 0 with no p(k); as p(k) < k, one pass up."""
        out: list[int] = []
        for p in self.pred:
            out.append(0 if p is None else out[p] + 1)
        return tuple(out)

    @property
    def o_plus(self) -> tuple[int, ...]:
        """O_+(k) = O_+(s(k)) + 1, and 0 with no s(k); as s(k) > k, one pass down."""
        succ = self.succ
        out = [0] * len(succ)
        for k in reversed(range(len(succ))):
            if succ[k] is not None:
                out[k] = out[succ[k]] + 1
        return tuple(out)


def walk(letters: Sequence[int]) -> Walk:
    """The same-level walk of `letters`, in one pass up.

    The pass keeps the last position of each letter, so p(k) is that
    position and s(p(k)) = k.
    """
    n = len(letters)
    pred: list[int | None] = [None] * n
    succ: list[int | None] = [None] * n
    last: dict[int, int] = {}
    for k, x in enumerate(letters):
        j = last.get(x)
        if j is not None:
            pred[k] = j
            succ[j] = k
        last[x] = k
    return Walk(tuple(pred), tuple(succ))


@dataclass(frozen=True)
class DoubleWordData:
    """Indexing data of the combined word attached to a pair (w, u).

    Positions 0..N-1 carry the w-letters in reversed order, positions
    N..N+M-1 the u-letters in natural order; eta[k] is the letter at
    position k, and `walk` is the same-level walk of eta.
    """

    cartan: CartanData
    w_word: Word
    u_word: Word
    eta: tuple[int, ...]
    walk: Walk
    epsilon: tuple[int, ...]
    beta: tuple[Root, ...]
    beta_prime: tuple[Root, ...]
    _words: dict = field(default_factory=dict, init=False, repr=False, compare=False)   # sigma -> its word

    @property
    def n_w(self) -> int:
        return len(self.w_word)

    @property
    def size(self) -> int:
        return len(self.eta)

    def root_at(self, k: int) -> Root:
        """beta_{|k|} resp. beta'_{|k|} at combined position k."""
        if k < self.n_w:
            return self.beta[self.n_w - 1 - k]
        return self.beta_prime[k - self.n_w]

    def degree_at(self, k: int) -> Root:
        """Root-lattice degree of the generator at position k."""
        a = self.root_at(k)
        return tuple(-x for x in a) if k < self.n_w else a

    def spell(self, sigma: Sequence[int]) -> SigmaWord:
        """The double word sigma spells on these positions; the one lookup and validation of a sigma.

        It takes a sequence only and keeps the word, with its walk; only a
        sigma of ints is looked up (a float or a bool one hashes like its
        int twin).  Raises NotAPermutation for a sigma that is not a
        permutation of the positions (wrong length, an entry that is not an
        int, a repeated position) and NotIntervalPermutation for one that
        fails the interval test.
        """
        sigma = tuple(sigma)
        n = self.size
        ints = len(sigma) == n and all(type(x) is int for x in sigma)
        word = self._words.get(sigma) if ints else None
        if word is not None:
            return word
        if not (ints and xi_is_member(sigma)):
            if not ints or sorted(sigma) != list(range(n)):
                raise NotAPermutation(f"{sigma} is not a permutation of the {n} positions")
            raise NotIntervalPermutation(f"{sigma} fails the interval test")
        letters = linalg.gather(sigma)(self.eta)
        word_walk = walk(letters)
        eps = tuple(1 if i > sigma[0] else -1 for i in sigma)
        ex = tuple(k for k, x in enumerate(word_walk.succ) if x is not None)
        return self._words.setdefault(sigma, SigmaWord(sigma, letters, eps, word_walk, ex))


def eta_machinery(cartan: CartanData, w_word: Sequence[int], u_word: Sequence[int]) -> DoubleWordData:
    """Level function and chain data for the double word of (w, u).

    Each word's roots are walked once: they are its beta_k and its test of
    reducedness.
    """
    w = tuple(w_word)
    u = tuple(u_word)
    roots = []
    for word, name in ((w, "w"), (u, "u")):
        for letter in word:
            if not 1 <= letter <= cartan.rank:
                raise LetterOutOfRange(f"{name} word {word} has letter {letter} outside 1..{cartan.rank}")
        roots.append(tuple(word_roots(cartan, word)))
        if not _roots_are_reduced(roots[-1]):
            raise NonReducedWordError(f"{name} word {word} is not reduced")
    eta = w[::-1] + u
    return DoubleWordData(
        cartan=cartan,
        w_word=w,
        u_word=u,
        eta=eta,
        walk=walk(eta),
        epsilon=(-1,) * len(w) + (1,) * len(u),
        beta=roots[0],
        beta_prime=roots[1],
    )


# ---------------------------------------------------------------------------
# Permutations with interval-initial segments
# ---------------------------------------------------------------------------

Perm = tuple[int, ...]

XI_MAX_N = 16   # 32768 interval permutations: the bound of every sweep over all of them


class XiBoundExceeded(ValueError):
    """A sweep over all 2^(n-1) interval permutations of n > XI_MAX_N positions."""


def xi_is_member(perm: Sequence[int]) -> bool:
    """Whether sigma([0,k]) is an integer interval for every k."""
    n = len(perm)
    if sorted(perm) != list(range(n)):
        return False
    if n == 0:
        return True
    lo = hi = perm[0]
    for k in range(1, n):
        v = perm[k]
        if v == hi + 1:
            hi = v
        elif v == lo - 1:
            lo = v
        else:
            return False
    return True


def xi_enumerate(n: int) -> Iterator[Perm]:
    """The 2^(n-1) interval permutations, in binary-choice order.

    Choice bits are read from the most significant position: bit 0 extends
    the image interval upward ("max"), bit 1 extends it downward ("min").
    """
    if n < 1:
        raise ValueError("n must be positive")
    for code in range(1 << (n - 1)):
        vals = [0]
        lo = hi = 0
        for k in range(n - 1):
            bit = (code >> (n - 2 - k)) & 1
            if bit == 0:
                hi += 1
                vals.append(hi)
            else:
                lo -= 1
                vals.append(lo)
        yield tuple(v - lo for v in vals)


class NotIntervalPermutation(ValueError):
    """A sigma that is not an interval permutation of the double-word positions."""


class NotAPermutation(NotIntervalPermutation):
    """A sigma that is not even a permutation of the double-word positions."""


@dataclass(frozen=True)
class SigmaWord:
    """The double word an interval permutation sigma spells on a level function eta.

    Position k carries the level letters[k] = eta[sigma(k)] and the sign
    eps[k], +1 when sigma(k) extends the interval sigma(0..k-1) upward and
    -1 when downward (position 0 extends nothing and reads -1).  walk is
    the same-level walk of letters, the neighbours in sigma order, and ex
    lists the positions that have a successor.  Only
    `DoubleWordData.spell`, which validates sigma, builds one, so a builder
    that takes a word trusts it as it is.
    """

    sigma: Perm
    letters: tuple[int, ...]
    eps: tuple[int, ...]
    walk: Walk
    ex: tuple[int, ...]


class ChainError(ValueError):
    """The chain of a permuted position is not a contiguous run ending at that position."""


def sigma_chain(eta: Sequence[int], s: Sequence, sigma: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Chain table of the permuted presentation, in one left-to-right pass.

    The chain at position k lists, in increasing order, the indices of
    sigma(k)'s level among sigma(0..k).  As sigma(0..k) is an interval,
    sigma(k) extends it at the top or at the bottom, so the chain is the
    previous chain of its level with sigma(k) appended or prepended.  Each
    chain must be a contiguous run of its level class: consecutive indices
    are same-level successors under s.  No library code calls it; `perfbench/` keeps it.
    """
    if not xi_is_member(sigma):
        raise NotIntervalPermutation(f"{tuple(sigma)} fails the interval test")
    last: dict[int, tuple[int, ...]] = {}
    table = []
    for k, x in enumerate(sigma):
        prev = last.get(eta[x], ())
        if prev and x > sigma[0]:
            chain, linked = prev + (x,), s[prev[-1]] == x
        elif prev:
            chain, linked = (x,) + prev, s[x] == prev[0]
        else:
            chain, linked = (x,), True
        if not linked:
            raise ChainError(f"chain {chain} at position {k} is not contiguous in its level class")
        last[eta[x]] = chain
        table.append(chain)
    return tuple(table)

