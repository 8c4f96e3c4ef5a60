import random
from fractions import Fraction as Q

from dbseeds import linalg


def dense_bilinear(u, a, v):
    return sum(Q(u[i]) * a[i][j] * Q(v[j]) for i in range(len(a)) for j in range(len(a[0])))


def test_bilinear_matches_dense_sum():
    # an int matrix with int vectors stays int; a Fraction matrix gives a Fraction
    rng = random.Random(0)

    def entry(density, fractions):
        if rng.random() > density:
            return 0
        x = rng.randint(-5, 5)
        return Q(x, rng.randint(1, 4)) if fractions and rng.random() < 0.5 else x

    for _ in range(300):
        n = rng.randint(1, 7)
        density = rng.choice([0.0, 0.2, 0.6, 1.0])
        for fractions in (False, True):
            a = tuple(tuple(entry(1.0, fractions) for _ in range(n)) for _ in range(n))
            if fractions:
                a = tuple(tuple(Q(x) for x in row) for row in a)
            u = [entry(density, fractions) for _ in range(n)]
            v = [entry(rng.choice([0.0, 0.3, 1.0]), fractions) for _ in range(n)]
            got = linalg.bilinear(u, a, v)
            assert got == dense_bilinear(u, a, v)
            assert type(got) is (Q if fractions else int)


def test_bilinear_type_follows_inputs_for_zero_vectors():
    int_a = ((0, 1), (-1, 0))
    frac_a = ((Q(0), Q(1)), (Q(-1), Q(0)))
    cases = (((0, 0), (1, 0), 0), ((1, 0), (0, 0), 0), ((0, 0), (0, 0), 0), ((1, 2), (3, 1), -5))
    for u, v, want in cases:
        got = linalg.bilinear(u, int_a, v)
        assert got == want and type(got) is int
        got = linalg.bilinear(u, frac_a, v)
        assert got == want and type(got) is Q
    # a Fraction coordinate that enters a product makes the result a Fraction
    got = linalg.bilinear((Q(1, 2), 0), int_a, (0, 3))
    assert got == Q(3, 2) and type(got) is Q
    got = linalg.bilinear((Q(2), 0), int_a, (0, 3))
    assert got == 6 and type(got) is Q
