import time

import numpy as np
import pytest

from metdg import (
    CapacityError,
    GF2Matrix,
    ValidationError,
    enumerate_weight2_pairs,
    generator_from_parity,
    min_distance,
)
from metdg.gf2 import _FILL_MAX_LOW, WALK_BUDGET, subset_ranks

from naive_oracles import (
    naive_weight2_pairs,
    rank_gf2_numpy,
    row_span_size,
    select_columns,
    weight_enumerator,
    weight_pair_enumerator,
)


def _random_full_rank(rng, k, n):
    while True:
        rows = rng.integers(0, 2, size=(k, n)).tolist()
        if rank_gf2_numpy(rows) == k:
            return GF2Matrix.from_rows(rows)


def _naive_min_distance(g):
    return min(w for w, c in weight_enumerator(g).items() if w and c)


def test_rank_empty_matrix():
    assert GF2Matrix.zeros(0, 0).rank() == 0
    assert GF2Matrix.zeros(3, 0).rank() == 0


def test_rank_identity():
    assert GF2Matrix.identity(3).rank() == 3


def test_rank_dependent_rows():
    m = GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert m.rank() == 2
    # oracle: the row span of a rank-r set over GF(2) has 2^r elements
    assert row_span_size(m.to_rows()) == 2**2


def test_rank_matches_numpy_elimination_on_random_matrices():
    rng = np.random.default_rng(11)
    for _ in range(200):
        r, c = rng.integers(1, 9, size=2)
        rows = rng.integers(0, 2, size=(r, c)).tolist()
        assert GF2Matrix.from_rows(rows).rank() == rank_gf2_numpy(rows)


def test_rank_is_invariant_under_column_permutation():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r, c = rng.integers(1, 7, size=2)
        m = GF2Matrix.from_rows(rng.integers(0, 2, size=(r, c)).tolist())
        idx = list(rng.permutation(c))
        sub = sorted(rng.permutation(c)[: rng.integers(0, c + 1)])
        perm = list(rng.permutation(sub))
        assert select_columns(m, sub).rank() == select_columns(m, perm).rank()
        assert select_columns(m, idx).rank() == m.rank()


def test_generator_from_parity_spc():
    g = generator_from_parity(GF2Matrix.from_rows([[1, 1, 1]]))
    assert (g.n_rows, g.n_cols) == (2, 3)
    assert g.rank() == 2
    assert all(sum(row) % 2 == 0 for row in g.to_rows())


def test_generator_from_parity_identity_gives_zero_code():
    g = generator_from_parity(GF2Matrix.identity(3))
    assert (g.n_rows, g.n_cols) == (0, 3)


def test_generator_from_parity_unique_codeword():
    g = generator_from_parity(GF2Matrix.from_rows([[1, 1, 0], [0, 1, 1]]))
    assert g.to_rows() == [[1, 1, 1]]


def test_generator_from_parity_orthogonality_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        r, c = int(rng.integers(1, 6)), int(rng.integers(1, 8))
        h = GF2Matrix.from_rows(rng.integers(0, 2, size=(r, c)).tolist())
        g = generator_from_parity(h)
        assert g.rank() == g.n_rows == c - h.rank()
        # exhaustive G H^T = 0 check
        hm = np.array(h.to_rows())
        for row in g.to_rows():
            assert not ((np.array(row) @ hm.T) % 2).any()


def test_min_distance():
    assert min_distance(GF2Matrix.from_rows([[1, 1, 1]])) == 3
    assert min_distance(GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])) == 2


def test_min_distance_capacity():
    # the walk takes the smaller of the code and its dual, so both must be
    # over the budget: a full-rank (50, 25) code
    g = _random_full_rank(np.random.default_rng(3), WALK_BUDGET + 1, 2 * (WALK_BUDGET + 1))
    with pytest.raises(CapacityError) as exc:
        min_distance(g)
    assert str(WALK_BUDGET) in str(exc.value)
    # the walk spans the basis rows of the code or its dual, not its columns
    assert f"a walk over {WALK_BUDGET + 1} basis rows" in str(exc.value)


def test_min_distance_of_the_zero_code_is_refused():
    with pytest.raises(ValidationError):
        min_distance(GF2Matrix.zeros(2, 3))


def test_min_distance_and_weight2_pairs_match_the_codebook_on_random_codes():
    # k on both sides of n/2, so both the direct walk and the walk of the
    # dual (with the MacWilliams transform) run
    rng = np.random.default_rng(41)
    dual_walked = 0
    for _ in range(60):
        n = int(rng.integers(2, 25))
        k = int(rng.integers(1, min(n, 14) + 1))
        dual_walked += k > n - k
        g = _random_full_rank(rng, k, n)
        types = [int(t) for t in rng.integers(1, 4, size=n)]
        assert min_distance(g) == _naive_min_distance(g)
        for with_u in (False, True):
            want = naive_weight2_pairs(g.to_rows(), types, with_u)
            assert enumerate_weight2_pairs(g, types, with_u) == want
    assert 15 <= dual_walked <= 45


def test_weight2_pairs_with_zero_parity_columns():
    # z weight-1 codewords e_i: their columns of H are zero, so each pair of
    # them is a weight-2 codeword; rows mixed by a random invertible matrix,
    # so inputs of weight other than 2 occur too
    rng = np.random.default_rng(43)
    for z in (2, 3, 4):
        for _ in range(8):
            n_rest = int(rng.integers(2, 9))
            rest = np.array(_random_full_rank(rng, int(rng.integers(1, n_rest)), n_rest).to_rows())
            k = z + rest.shape[0]
            g = np.zeros((k, z + n_rest), dtype=int)
            g[:z, :z] = np.eye(z, dtype=int)
            g[z:, z:] = rest
            mix = np.array(_random_full_rank(rng, k, k).to_rows())
            g = GF2Matrix.from_rows(((mix @ g % 2)[:, rng.permutation(z + n_rest)]).tolist())
            types = [int(t) for t in rng.integers(1, 4, size=g.n_cols)]
            assert min_distance(g) == 1
            for with_u in (False, True):
                want = naive_weight2_pairs(g.to_rows(), types, with_u)
                assert enumerate_weight2_pairs(g, types, with_u) == want
                assert sum(want.values()) >= z * (z - 1)


def test_min_distance_of_a_24_socket_spc_is_fast():
    g = GF2Matrix(23, 24, [1 << i | 1 << 23 for i in range(23)])
    t0 = time.perf_counter()
    assert min_distance(g) == 2
    counts = enumerate_weight2_pairs(g, [1] * 24, with_input_weight=True)
    assert time.perf_counter() - t0 < 0.5
    # e_i + e_23 has input weight 1, e_i + e_j (i, j < 23) input weight 2
    assert counts == {(1, 1, 1): 2 * 23, (1, 1, 2): 23 * 22}


@pytest.mark.parametrize("free", [0, 3, 16])
def test_subset_ranks_cover_every_key_in_order(free):
    # 18 columns over 6 rows; free = 16 runs the recurrence in several blocks
    rng = np.random.default_rng(40 + free)
    cols = [int(c) for c in rng.integers(1, 1 << 6, size=18)]
    bases = sorted({int(b) << free for b in rng.integers(0, 1 << (18 - free), size=3)})
    blocks = list(subset_ranks(cols, 6, bases, free))
    assert all(len(keys) == len(ranks) <= 1 << _FILL_MAX_LOW for keys, ranks in blocks)
    assert len(blocks) == max(1, len(bases) << free >> _FILL_MAX_LOW)
    keys = np.concatenate([keys for keys, _ in blocks])
    want = [b | s for b in bases for s in range(1 << free)]
    assert keys.tolist() == want
    ranks = np.concatenate([r for _, r in blocks])
    for r in rng.integers(0, len(want), size=60).tolist():
        picked = [c for j, c in enumerate(cols) if (want[r] >> j) & 1]
        assert ranks[r] == rank_gf2_numpy([[(c >> i) & 1 for i in range(6)] for c in picked])


def test_weight_pair_enumerator_invariants():
    rng = np.random.default_rng(23)
    for _ in range(30):
        k, n = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        g = GF2Matrix.from_rows(rng.integers(0, 2, size=(k, n)).tolist())
        counts = weight_pair_enumerator(g)
        assert sum(counts.values()) == 2**k
        assert counts[(0, 0)] == 1


def test_enumerate_weight2_pairs_spc():
    g = GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    counts = enumerate_weight2_pairs(g, [1, 2, 2])
    assert counts == {(1, 2): 2, (2, 1): 2, (2, 2): 2}


def test_enumerate_weight2_pairs_no_weight2_words():
    g = GF2Matrix.from_rows([[1, 1, 1]])
    assert enumerate_weight2_pairs(g, [1, 2, 1]) == {}


def test_enumerate_weight2_pairs_with_input_weight():
    g = GF2Matrix.from_rows([[1, 1]])
    counts = enumerate_weight2_pairs(g, [1, 2], with_input_weight=True)
    assert counts == {(1, 2, 1): 1, (2, 1, 1): 1}


def test_enumerate_weight2_pairs_total_vs_codebook_scan():
    rng = np.random.default_rng(31)
    for _ in range(40):
        k, n = int(rng.integers(1, 9)), int(rng.integers(2, 10))
        g = GF2Matrix.from_rows(rng.integers(0, 2, size=(k, n)).tolist())
        types = [int(t) for t in rng.integers(1, 4, size=n)]
        if g.rank() < k:
            with pytest.raises(ValidationError):
                enumerate_weight2_pairs(g, types, with_input_weight=True)
            continue
        counts = enumerate_weight2_pairs(g, types, with_input_weight=True)
        n_weight2 = weight_enumerator(g).get(2, 0)
        assert sum(counts.values()) == 2 * n_weight2
        # symmetry of the ordered-pair counts
        for (l, m, u), c in counts.items():
            assert counts[(m, l, u)] == c


def test_enumerate_weight2_pairs_validates_socket_vector():
    g = GF2Matrix.from_rows([[1, 1]])
    with pytest.raises(ValidationError):
        enumerate_weight2_pairs(g, [1])


def test_matrix_validation():
    with pytest.raises(ValidationError):
        GF2Matrix.from_rows([[1, 2]])
    with pytest.raises(ValidationError):
        GF2Matrix.from_rows([[1, 0], [1]])
    # entries are Python ints: a float or a bool that equals 0 or 1 is not one
    for entry in (1.0, 0.0, True, False):
        with pytest.raises(ValidationError):
            GF2Matrix.from_rows([[1, entry]])


def test_matrix_is_hashable_and_immutable():
    m = GF2Matrix.identity(2)
    assert hash(m) == hash(GF2Matrix.identity(2))
    with pytest.raises(AttributeError):
        m.n_rows = 5
