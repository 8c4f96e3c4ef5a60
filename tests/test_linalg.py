import random
from fractions import Fraction as Q

from dbseeds import linalg


def dense_bilinear(u, a, v):
    return sum(Q(u[i]) * a[i][j] * Q(v[j]) for i in range(len(a)) for j in range(len(a[0])))


def test_bilinear_matches_dense_sum():
    rng = random.Random(0)

    def entry(density):
        if rng.random() > density:
            return 0
        x = rng.randint(-5, 5)
        return Q(x, rng.randint(1, 4)) if rng.random() < 0.5 else x

    for _ in range(300):
        n = rng.randint(1, 7)
        density = rng.choice([0.0, 0.2, 0.6, 1.0])
        a = tuple(tuple(Q(entry(1.0)) for _ in range(n)) for _ in range(n))
        u = [entry(density) for _ in range(n)]
        v = [entry(rng.choice([0.0, 0.3, 1.0])) for _ in range(n)]
        got = linalg.bilinear(u, a, v)
        assert got == dense_bilinear(u, a, v)
        assert type(got) is Q


def test_bilinear_returns_fraction_for_zero_vectors_and_int_matrices():
    for a in (((Q(0), Q(1)), (Q(-1), Q(0))), ((0, 1), (-1, 0))):
        for u, v, want in (((0, 0), (1, 0), 0), ((1, 0), (0, 0), 0), ((0, 0), (0, 0), 0), ((1, 2), (3, 1), -5)):
            got = linalg.bilinear(u, a, v)
            assert got == want and type(got) is Q
