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
* The same-level walk of a word (`pred_succ`, `order_functions`) is taken
  once, where the word is built (`eta_machinery`, `spell`); consumers read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Iterator, Sequence

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
    """

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]      # c[i][j] = <alpha_i^vee, alpha_j>, 0-based
    d: tuple[int, ...]                       # d_i = |alpha_i|^2 / 2
    weight_form: tuple[tuple[int, ...], ...]  # weight_den * <w_i, w_j>
    weight_den: int

    def pair_alpha(self, a: Sequence[int], b: Sequence[int]) -> int:
        """<x, y> for root-lattice vectors in simple-root coordinates."""
        total = 0
        for i in range(self.rank):
            if a[i] == 0:
                continue
            for j in range(self.rank):
                total += a[i] * b[j] * self.d[i] * self.cartan[i][j]
        return total

    def weight_image(self, mu: Sequence[int]) -> tuple[int, ...]:
        """The integer vector weight_form . mu: weight_den <nu, mu> = nu . weight_image(mu)."""
        return tuple(sum(f * m for f, m in zip(row, mu)) for row in self.weight_form)

    def pair_weight(self, mu: Sequence[int], nu: Sequence[int]) -> Q:
        """<mu, nu> for weights in fundamental-weight coordinates, exactly."""
        return Q(sum(m * x for m, x in zip(mu, self.weight_image(nu))), self.weight_den)

    def alpha_in_weights(self, i: int) -> Weight:
        """Fundamental-weight coordinates of alpha_i (0-based i)."""
        return tuple(self.cartan[j][i] for j in range(self.rank))


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

    return CartanData(fam, n, tuple(tuple(r) for r in c), tuple(d), form, den)


def reflect(cartan: CartanData, i: int, mu: Sequence[int]) -> Weight:
    """Simple reflection s_i on a weight (1-based letter i)."""
    if not 1 <= i <= cartan.rank:
        raise IndexError(f"letter {i} out of range 1..{cartan.rank}")
    coef = mu[i - 1]
    alpha = cartan.alpha_in_weights(i - 1)
    return tuple(m - coef * a for m, a in zip(mu, alpha))


def reflect_root(cartan: CartanData, i: int, a: Sequence[int]) -> Root:
    """Simple reflection s_i on a root-lattice vector in root coordinates."""
    if not 1 <= i <= cartan.rank:
        raise IndexError(f"letter {i} out of range 1..{cartan.rank}")
    coef = sum(cartan.cartan[i - 1][j] * a[j] for j in range(cartan.rank))
    out = list(a)
    out[i - 1] -= coef
    return tuple(out)


def act_word_on_weight(cartan: CartanData, word: Sequence[int], mu: Sequence[int]) -> Weight:
    """Apply w = s_{i_1} ... s_{i_N} to a weight (leftmost letter acts last)."""
    out = tuple(mu)
    for letter in reversed(word):
        out = reflect(cartan, letter, out)
    return out


def word_roots(cartan: CartanData, word: Sequence[int]) -> list[Root]:
    """Roots beta_k = s_{i_1} ... s_{i_{k-1}}(alpha_{i_k}) of a word."""
    roots: list[Root] = []
    for k, letter in enumerate(word):
        a: Root = tuple(1 if j == letter - 1 else 0 for j in range(cartan.rank))
        for prev in reversed(word[:k]):
            a = reflect_root(cartan, prev, a)
        roots.append(a)
    return roots


def is_reduced(cartan: CartanData, word: Sequence[int]) -> bool:
    """A word is reduced iff its beta_k are pairwise distinct positive roots."""
    roots = word_roots(cartan, word)
    seen = set()
    for a in roots:
        if not (all(x >= 0 for x in a) and any(x > 0 for x in a)):
            return False
        if a in seen:
            return False
        seen.add(a)
    return True


def enumerate_reduced_words(cartan: CartanData, max_len: int) -> list[Word]:
    """All reduced words of length <= max_len, shortest first, lexicographic."""
    out: list[Word] = [()]
    frontier: list[Word] = [()]
    for _ in range(max_len):
        nxt: list[Word] = []
        for w in frontier:
            for letter in range(1, cartan.rank + 1):
                cand = w + (letter,)
                if is_reduced(cartan, cand):
                    nxt.append(cand)
        out.extend(nxt)
        frontier = nxt
    return out


def pred_succ(eta: Sequence[int]):
    """Predecessor/successor maps of a level function on 0-based positions.

    A position with no earlier (later) position of its level has predecessor
    (successor) None.
    """
    n = len(eta)
    p: list[int | None] = [None] * n
    s: list[int | None] = [None] * n
    last: dict[int, int] = {}
    for k in range(n):
        if eta[k] in last:
            p[k] = last[eta[k]]
            s[last[eta[k]]] = k
        last[eta[k]] = k
    return tuple(p), tuple(s)


def order_functions(p: Sequence, s: Sequence):
    """Chain-length counters O_- and O_+ of the maps `pred_succ` returns.

    O_-(k) = O_-(p(k)) + 1 and O_+(k) = O_+(s(k)) + 1, with 0 where p(k)
    (s(k)) is None.  As p(k) < k < s(k), one pass up gives O_- and one pass
    down gives O_+.
    """
    n = len(p)
    o_minus = [0] * n
    o_plus = [0] * n
    for k in range(n):
        if p[k] is not None:
            o_minus[k] = o_minus[p[k]] + 1
    for k in reversed(range(n)):
        if s[k] is not None:
            o_plus[k] = o_plus[s[k]] + 1
    return tuple(o_minus), tuple(o_plus)


@dataclass(frozen=True)
class DoubleWordData:
    """Indexing data of the combined word attached to a pair (w, u).

    Positions 0..N-1 carry the w-letters in reversed order, positions
    N..N+M-1 the u-letters in natural order; eta[k] is the letter at
    position k, and p, s, o_minus, o_plus are its chain functions.
    """

    cartan: CartanData
    w_word: Word
    u_word: Word
    eta: tuple[int, ...]
    p: tuple
    s: tuple
    o_minus: tuple[int, ...]
    o_plus: tuple[int, ...]
    epsilon: tuple[int, ...]
    beta: tuple[Root, ...]
    beta_prime: tuple[Root, ...]
    support: frozenset[int]
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

        It takes a sequence only.  The sigma boundary spells here: this
        method, `BowtiePresentation.seed`, `sigma_seed`, `solve_b_oracle`,
        `sigma_frame_product`, `bfz_matrix`, `b_columns` and the CLI; the
        builders behind it (`sigma_frame`, `sigma_degrees`, `btau_columns`,
        `oracle_system`) take the word.  The word is kept, and only a sigma
        of ints is looked up (a float or a bool one hashes like its int twin).  Raises NotAPermutation for a
        sigma that is not a permutation of the positions (wrong length, an
        entry that is not an int, a repeated position) and
        NotIntervalPermutation for one that fails the interval test.
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
        letters = tuple(self.eta[i] for i in sigma)
        pred, succ = pred_succ(letters)
        eps = tuple(1 if i > sigma[0] else -1 for i in sigma)
        ex = tuple(k for k, x in enumerate(succ) if x is not None)
        return self._words.setdefault(sigma, SigmaWord(sigma, letters, eps, pred, succ, ex))


def eta_machinery(cartan: CartanData, w_word: Sequence[int], u_word: Sequence[int]) -> DoubleWordData:
    """Level function and chain data for the double word of (w, u)."""
    w = tuple(w_word)
    u = tuple(u_word)
    for word, name in ((w, "w"), (u, "u")):
        for letter in word:
            if not 1 <= letter <= cartan.rank:
                raise LetterOutOfRange(f"{name} word {word} has letter {letter} outside 1..{cartan.rank}")
        if not is_reduced(cartan, word):
            raise NonReducedWordError(f"{name} word {word} is not reduced")
    nw, nu = len(w), len(u)
    eta = tuple(w[nw - 1 - k] for k in range(nw)) + u
    p, s = pred_succ(eta)
    o_minus, o_plus = order_functions(p, s)
    epsilon = tuple(-1 if k < nw else 1 for k in range(nw + nu))
    return DoubleWordData(
        cartan=cartan,
        w_word=w,
        u_word=u,
        eta=eta,
        p=p,
        s=s,
        o_minus=o_minus,
        o_plus=o_plus,
        epsilon=epsilon,
        beta=tuple(word_roots(cartan, w)),
        beta_prime=tuple(word_roots(cartan, u)),
        support=frozenset(eta),
    )


# ---------------------------------------------------------------------------
# Permutations with interval-initial segments
# ---------------------------------------------------------------------------

Perm = tuple[int, ...]


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
    -1 when downward (position 0 extends nothing and reads -1).  pred and
    succ are the same-level neighbours in sigma order (None where there is
    none), and ex lists the positions that have a successor.  Only
    `DoubleWordData.spell`, which validates sigma, builds one, so a builder
    that takes a word trusts it as it is.
    """

    sigma: Perm
    letters: tuple[int, ...]
    eps: tuple[int, ...]
    pred: tuple
    succ: tuple
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
    are same-level successors under s.
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

