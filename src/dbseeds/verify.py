"""Named verification sweeps shared by the CLI and the acceptance suite."""

from __future__ import annotations

from . import dbc, linalg, qtorus, seedcore
from .coxeter import CartanData, SigmaWord
from .qtorus import NonIntegralFrame
from .seedcore import CheckResult, QuantumSeed, check_compatible, degree_balance, exchange_pairings


def compat_identity(pres: dbc.BowtiePresentation) -> CheckResult:
    """Frame pairing of every exchange column: 2 d_k on the diagonal, 0 off it."""
    dwd = pres.dwd
    w, u = dwd.w_word, dwd.u_word
    w0 = dbc.w0_permutation(dwd)
    seed = pres.seed(w0)
    b = seed.exchange
    for k, row in zip(b.ex, exchange_pairings(seed.frame, b)):
        for j, got in enumerate(row):
            want = 2 * pres.cartan.d[dwd.eta[w0[k]] - 1] if j == k else 0
            if got != want:
                return CheckResult(
                    "compat-identity", False,
                    f"w={w} u={u}: pairing at (k={k}, j={j}) is {got}, expected {want}",
                )
    return CheckResult("compat-identity", True)


def grading_identity(pres: dbc.BowtiePresentation) -> CheckResult:
    """Degree balance of every reversed-w exchange column.

    Builds only the reversed-w seed, not the whole `pres.sweep`.
    """
    w, u = pres.dwd.w_word, pres.dwd.u_word
    seed = pres.seed(dbc.w0_permutation(pres.dwd))
    for k in seed.ex:
        bal = degree_balance(seed, k)
        if any(x != 0 for x in bal):
            return CheckResult("grading-identity", False, f"w={w} u={u}: column {k} balance {bal}")
    return CheckResult("grading-identity", True)


def _block_rank_is_full(pres: dbc.BowtiePresentation, word: SigmaWord, ex, rows, rhs, ranks: dict) -> bool:
    """Whether `rows` has full column rank, given that every column at `ex` solves its system.

    See `btau_oracle_equivalence` for the derivation.  `ranks` maps each
    canonical block that its caller has already eliminated to its rank.
    """
    n = pres.size
    for l in ex:
        want = rhs[l]
        if not want[l] or want.count(0) != len(want) - 1:
            return False
    starts = sorted((j for j, p in enumerate(word.walk.pred) if p is None), key=word.letters.__getitem__)
    at_starts = linalg.gather(starts)
    skip = set(ex)
    block = tuple(sorted(at_starts(row) for i, row in enumerate(rows) if i not in skip))
    r = ranks.get(block)
    if r is None:
        r = ranks[block] = linalg.rank(block)
    return len(skip) + r == n


def btau_oracle_equivalence(pres: dbc.BowtiePresentation) -> CheckResult:
    """Closed-form exchange columns against the linear-system oracle, all permutations.

    The oracle's column at l is the unique solution of `R b = rhs_l`, with
    R = [psi; degrees] and rhs_l = [-2 d e_l; 0] (`dbc.oracle_system`), so a
    closed-form column equals it exactly when R has full column rank n and
    the column solves the system.  Each sigma is certified without an n-column
    elimination:

    - First every product R b_l is checked, as a sum of R's columns over the
      nonzeros of b_l.
    - Let E = `seed.ex` and let J be the positions whose level has no earlier
      position in sigma order (the walk of sigma's word, not from the seed).  With
      rows E first,

          R [b_E | e_J] = [ diag(rhs_l[l])   R_{E,J}    ]
                          [ 0                R_{rest,J} ]

      once the products hold, where rest is every row of R outside E (the
      other frame rows and the degree rows).  When every rhs_l is
      rhs_l[l] e_l with rhs_l[l] != 0, the rank of this product is
      |E| + rank R_{rest,J}, and it is at most rank R <= n.  So
      |E| + rank R_{rest,J} = n proves rank R = n.  This holds for any J;
      R_{rest,J} is a (#levels + rank) x #levels matrix.
    - For an honest seed it succeeds.  The positions outside J are the
      successors s(l), l in E, and the Berenstein-Fomin-Zelevinsky matrix is
      unit-triangular on those rows, so [b_E | e_J] is invertible; R has
      full rank, so the product has rank n too.
    - One elimination per distinct block, not per sigma.  Each sigma's block
      is read from its own seed, every entry of it, and put in a canonical
      order: columns by level, then rows sorted.  Permuting rows or columns
      keeps the rank, so the rank of the canonical block is that of the
      block, and two sigmas whose canonical blocks are equal, entry for
      entry, have blocks of equal rank.  The ranks are kept in a dict keyed
      by the canonical block itself, which lives for this call only, so a
      lookup never answers for a matrix other than the one the seed gives:
      a corrupted entry makes another key and its own elimination.  The
      sigmas of one pair share few blocks (A3 with |w| = 5, |u| = 3: 7
      blocks for 128 sigmas).

    On a product miss or a rank shortfall the sigma is checked the long way:
    one integer rank of R, then the first column whose product misses, for
    which the solver `dbc.solve_b_oracle` names the oracle's answer.
    """
    w, u = pres.dwd.w_word, pres.dwd.u_word
    n = pres.size
    ranks: dict = {}
    for word, seed in pres.sweep:
        sigma = word.sigma
        rows, rhs = dbc.oracle_system(pres.cartan, word, seed)
        cols = tuple(zip(*rows))
        miss = next((l for l in seed.ex if linalg.combine(cols, seed.exchange.column(l)) != rhs.get(l)), None)
        if miss is None and _block_rank_is_full(pres, word, seed.ex, rows, rhs, ranks):
            continue
        r = linalg.rank(rows)
        if r != n:
            return CheckResult("btau-oracle", False, f"w={w} u={u} sigma={sigma}: oracle system has rank {r}, not {n}")
        if miss is None:
            continue
        try:
            want = dbc.solve_b_oracle(pres, sigma, miss)
        except dbc.OracleError as exc:
            want = f"fails: {exc}"
        return CheckResult(
            "btau-oracle", False,
            f"w={w} u={u} sigma={sigma}: column {miss} is {seed.exchange.column(miss)}, oracle {want}",
        )
    return CheckResult("btau-oracle", True)


def _restrictions_give(seed: QuantumSeed, k: int, psi: tuple[tuple[int, ...], ...]) -> tuple[bool, bool]:
    """Whether restricting seed's frame along `mutation_basis(seed, k, -1)`, and along `(seed, k, +1)`, gives `psi`.

    `psi` is a frame's, so skew-symmetric.  See `xi_linkage` for the derivation.
    """
    bases = [seedcore.mutation_basis(seed, k, sign) for sign in (-1, +1)]
    moved = sorted({a for basis in bases for a in qtorus.moved_indices(basis)})
    keep = [i for i in range(seed.size) if i not in moved]
    unmoved = linalg.gather(keep)
    own = seed.frame.psi
    if any(unmoved(own[i]) != unmoved(psi[i]) for i in keep):
        return False, False
    return tuple(
        all(psi[a] == row for a, row in zip(moved, qtorus.restricted_rows(own, basis, moved))) for basis in bases
    )


def _partner_masks(n: int) -> list[int]:
    """m_k, with code(sigma o (k k+1)) = code(sigma) ^ m_k on every link at k (derived in `xi_linkage`)."""
    return [(1 if k == 0 else 3) << (n - 2 - k) for k in range(n - 1)]


def xi_linkage(pres: dbc.BowtiePresentation) -> CheckResult:
    """One-step linkage between seeds of adjacent interval permutations.

    For sigma' = sigma o (k k+1), the seed of sigma' is the seed of sigma
    reindexed by the transposition when sigma(k) and sigma(k+1) lie on
    different levels, and its mutation at k when they lie on the same level.
    A mutation step must give the same frame with either sign choice.

    Each sigma is read from the sweep (`pres.sweep`) with its word, spelled
    once there.  The links are found from the signs of sigma's word: no
    sigma' is built or looked up for a k that is not a link.  For sigma in
    Xi, sigma' is in Xi exactly when k = 0 or eps[k] != eps[k+1]: its
    prefixes other than the one of length k+1 are sigma's prefixes as sets,
    and that one is I + {sigma(k+1)} with I = sigma(0..k-1).  For k = 0 it
    is one point.  For k >= 1, I is an interval [lo, hi] and sigma(k)
    extends it at one end, say to hi + 1; sigma(k+1) then extends
    [lo, hi + 1], to hi + 2 or to lo - 1, and only lo - 1 is next to I.  So
    I + {sigma(k+1)} is an interval exactly when sigma(k) and sigma(k+1)
    extend on opposite sides, and the sign eps[k] records the side
    (`coxeter.SigmaWord`).

    The other end of a link is found by its code, with no sigma' built.
    The place of sigma in the sweep is its code in `xi_enumerate`, whose
    bit n-1-j (j >= 1) is 0 when sigma(j) extends sigma(0..j-1) upward and
    1 when downward, so eps[j] = +1 exactly when that bit is 0.  Every
    prefix interval of sigma' other than sigma'(0..k) is sigma's, so every
    bit but those of steps k and k+1 is sigma's.  For k = 0, sigma'(1) =
    sigma(0) lies on the other side of sigma'(0) = sigma(1) than sigma(1)
    of sigma(0): bit n-2 flips, and sigma' has code code ^ (1 << (n-2)).
    For k >= 1, sigma'(k) = sigma(k+1) and sigma'(k+1) = sigma(k) extend
    the same intervals on the sides sigma(k+1) and sigma(k) took, so bits
    n-1-k and n-2-k swap; on a link eps[k] != eps[k+1], so they differ and
    the swap is the flip of both, code ^ (3 << (n-2-k))
    (`_partner_masks`).  sigma' itself is built only for a failure's
    detail.

    A reindexing link is checked in place: seed(sigma')'s fields must equal
    `seedcore.reindex_fields(seed, t)`, the seed's gathered along the
    transposition t, which is exactly `reindex(seed, t) == seed(sigma')`
    with no seed built.

    A mutation link is checked in place too: no mutated seed is built, and
    the frame is never restricted in full.  Let G+ and G- be
    `mutation_basis(seed, k, +1)` and `(seed, k, -1)`.  Seed(sigma) links to
    seed(sigma') with frame psi' exactly when psi' = G- psi G-^T (tested
    first: else the frame mutation depends on the sign choice), psi' =
    G+ psi G+^T, B' = mu_k(B) (`mutate_exchange`), the degrees are
    seed(sigma)'s with entry k replaced by `mutated_degree(seed, k)`, and d
    and the invertible indices are seed(sigma)'s.

    Both frame equations are read by the moved-row rule
    `qtorus.restricted_rows`, derived there.  Let M be the rows of either
    basis that are not the unit vector e_a (M = {k} for an honest basis; it
    is computed, so a fault in another row is seen too).  Where row and
    column both lie outside M, both restrictions are psi itself, so that
    block of psi' is compared with psi's once per link; each row a in M
    costs one `linalg.combine` per sign; and columns a follow, since psi' is
    a `FrameMatrix`, so skew-symmetric.  So each test holds exactly when the
    full restriction would equal psi'.  Unlike `frame_restrict`, it does
    not check the bases' lengths, int entries or independence;
    `mutation_basis` builds each from unit rows and one row with -1 at k.

    Each link {sigma, sigma'} is checked in full once, from the end that
    comes first in the sweep, the end of the lower code.  The other end needs less:

    - Reindexing by a transposition t, with t^2 = 1, compares the same
      integer entries from either end, so nothing is left to check.
    - For a mutation, the first end checks psi' = G- psi G-^T =
      G+ psi G+^T, B' = mu_k(B), the degrees, the symmetrizer d and the
      invertible indices.  Column k of B' is minus column k of B, so the
      bases of seed(sigma') are G+' = G- and G-' = G+.  Row k of either
      basis is -e_k plus a vector without a k-th entry, so G+^2 = G-^2 = 1.
      Then G+' psi' G+'^T = G- G- psi G-^T G-^T = psi, and likewise for G-'.
      `mutate_exchange` is an involution, so mu_k(B') = B.  Mutation keeps d
      and the invertible indices, and the degrees off k are shared.  What is
      left is the mutated degree at k, `mutated_degree(seed(sigma'), k)` =
      deg_k, which holds exactly when sum_{i != k} b_ik deg_i = 0: the first
      end does not imply it.

    The links are visited with sigma in the sweep's order and k
    ascending, so a failure is reported at the same (sigma, k), with the
    same detail, as a check of every link from both ends would report it
    first.
    """
    dwd = pres.dwd
    w, u = dwd.w_word, dwd.u_word
    n = dwd.size
    sweep = pres.sweep
    masks = _partner_masks(n)
    swaps = [tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, n)) for k in range(n - 1)]
    for code, (word, seed) in enumerate(sweep):
        eps, letters = word.eps, word.letters
        for k in range(n - 1):
            if k and eps[k] == eps[k + 1]:
                continue   # sigma o (k k+1) is not an interval permutation
            partner = code ^ masks[k]
            other = sweep[partner][1]
            same_level = letters[k] == letters[k + 1]
            if partner < code:
                # checked in full from the partner; only the degree at k is left
                linked = not same_level or seedcore.mutated_degree(seed, k) == other.degrees[k]
            elif not same_level:
                linked = seedcore.reindex_fields(seed, swaps[k]) == seedcore.seed_fields(other)
            else:
                # the mutated seed would already sit in the adjacent order; no
                # further reindexing (verified against the rank-one algebra)
                minus, plus = _restrictions_give(seed, k, other.frame.psi)
                if not minus:
                    detail = f"w={w} u={u}: sigma={word.sigma}, k={k}: frame mutation depends on the sign choice"
                    return CheckResult("xi-linkage", False, detail)
                linked = (
                    plus
                    and seedcore.mutate_exchange(seed.exchange, k) == other.exchange
                    and (*seed.degrees[:k], seedcore.mutated_degree(seed, k), *seed.degrees[k + 1:]) == other.degrees
                    and seed.d == other.d
                    and seed.inv == other.inv
                )
            if not linked:
                sigma = word.sigma
                sigma2 = sigma[:k] + (sigma[k + 1], sigma[k]) + sigma[k + 2:]
                return CheckResult(
                    "xi-linkage", False,
                    f"w={w} u={u}: sigma={sigma}, k={k} does not link to {sigma2}",
                )
    return CheckResult("xi-linkage", True)


def sigma_skew_symmetrizable(pres: dbc.BowtiePresentation) -> CheckResult:
    """Principal parts of all permuted exchange matrices are skew-symmetrizable.

    Each seed's frame, the chain congruence, is also compared with the
    product formula `dbc.sigma_frame_product`, which reads the sweep's word.
    """
    w, u = pres.dwd.w_word, pres.dwd.u_word
    for word, seed in pres.sweep:
        if seed.frame != dbc.sigma_frame_product(pres, word):
            detail = f"w={w} u={u} sigma={word.sigma}: chain congruence and product formula disagree"
            return CheckResult("sigma-symmetrizable", False, detail)
        if not seed.exchange.is_skew_symmetrizable(seed.d):
            return CheckResult("sigma-symmetrizable", False, f"w={w} u={u} sigma={word.sigma}")
    return CheckResult("sigma-symmetrizable", True)


def bz_compatibility(pres: dbc.BowtiePresentation) -> CheckResult:
    """The minor-labelled seeds pass compatibility; a fractional frame exponent fails integrality.

    Both variants share the frame, which the plain labels give.
    """
    w, u = pres.dwd.w_word, pres.dwd.u_word
    try:
        seeds = pres.bz
    except NonIntegralFrame as exc:
        return CheckResult("bz-integrality", False, f"w={w} u={u} plain: {exc}")
    for variant, data in seeds.items():
        report = check_compatible(data.seed)
        if not report.ok:
            return CheckResult("bz-compat", False, f"w={w} u={u} {variant}: {report}")
        if not data.seed.exchange.is_skew_symmetrizable(data.seed.d):
            return CheckResult("bz-compat", False, f"w={w} u={u} {variant}: not symmetrizable")
    return CheckResult("bz-compat", True)


def connections(pres: dbc.BowtiePresentation) -> CheckResult:
    """`dbc.connections_check` as it is; kept only because `perfbench/layertrace.py` traces it by this name."""
    return dbc.connections_check(pres)


def verify_pair(cartan: CartanData, w, u, all_xi: bool = False) -> list[CheckResult]:
    """The named checks for one word pair, in a fixed order, on one presentation.

    Every sigma-seed is built before the first check, so that no check's
    time includes seed construction.  The sweep (`pres.sweep`) spells each
    sigma once and hands its word to the checks over all sigmas with its
    seed; `xi_linkage` finds each link's other end by its code.
    """
    pres = dbc.bowtie_build(cartan, w, u)
    pres.sweep
    out = [compat_identity(pres), grading_identity(pres)]
    if all_xi:
        out += [btau_oracle_equivalence(pres), xi_linkage(pres)]
    return out + [sigma_skew_symmetrizable(pres), bz_compatibility(pres), connections(pres)]
