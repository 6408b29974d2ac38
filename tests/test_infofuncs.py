import math

import numpy as np
import pytest

from metdg import CapacityError, CnType, GF2Matrix, VnType, cn_info_table, vn_info_table
from metdg.gf2 import WALK_BUDGET

from conftest import random_component_code, rep_gen, spc_gen
from naive_oracles import naive_info_table, rank_table_recursion


def _random_socket_types(rng, n_cols, n_edge_types):
    while True:
        st = [int(t) for t in rng.integers(1, n_edge_types + 1, size=n_cols)]
        if len(set(st)) > 0:
            return st


def test_spc_table_hand_values():
    cn = CnType("spc", GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1]]), (1, 2, 2), 1)
    table = cn_info_table(cn, 2)
    assert table.shape == (2, 3)
    assert table[0, 0] == 0
    assert table[1, 0] == 1
    assert table[0, 1] == 2
    assert table[1, 1] == 4
    assert table[0, 2] == 2
    assert table[1, 2] == 2


def test_all_zero_selection_is_zero():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_component_code(rng)
        st = _random_socket_types(rng, g.n_cols, 2)
        cn = CnType("c", g, tuple(st), 1)
        assert cn_info_table(cn, 2).reshape(-1)[0] == 0


def test_representation_independence_of_cn_tables():
    rng = np.random.default_rng(9)
    for _ in range(20):
        g = random_component_code(rng)
        st = tuple(_random_socket_types(rng, g.n_cols, 2))
        # random invertible row transform: same row space, same code
        k = g.n_rows
        while True:
            t = GF2Matrix.from_rows(rng.integers(0, 2, size=(k, k)).tolist())
            if t.rank() == k:
                break
        rows = []
        for trow in t.row_bits:
            acc = 0
            for i in range(k):
                if (trow >> i) & 1:
                    acc ^= g.row_bits[i]
            rows.append(acc)
        g2 = GF2Matrix(k, g.n_cols, rows)
        t1 = cn_info_table(CnType("a", g, st, 1), 2)
        t2 = cn_info_table(CnType("b", g2, st, 1), 2)
        assert np.array_equal(t1, t2)


def test_vn_rep2_table_matches_brute_force():
    vn = VnType("rep2", rep_gen(2), (1,), (1, 2), 1)
    table = vn_info_table(vn, 2)
    oracle = naive_info_table(rep_gen(2).to_rows(), [1, 2], 2, puncture=[1])
    assert np.array_equal(table, oracle)


def test_vn_u0_slice_equals_cn_table_of_same_matrix():
    rng = np.random.default_rng(21)
    for _ in range(15):
        g = random_component_code(rng)
        st = tuple(_random_socket_types(rng, g.n_cols, 3))
        vn = VnType("v", g, (1,) * g.n_rows, st, 1)
        cn = CnType("c", g, st, 1)
        vt = vn_info_table(vn, 3)
        ct = cn_info_table(cn, 3)
        assert np.array_equal(vt[..., 0], ct)


def test_vn_zero_selection_column_counts_identity_ranks():
    rng = np.random.default_rng(33)
    for _ in range(15):
        g = random_component_code(rng)
        st = tuple(_random_socket_types(rng, g.n_cols, 2))
        vn = VnType("v", g, (1,) * g.n_rows, st, 1)
        vt = vn_info_table(vn, 2)
        b = vn.n_transmitted
        for u in range(b + 1):
            # u distinct identity columns always have rank u
            assert vt[(0,) * 2 + (u,)] == math.comb(b, u) * u


def test_table_entries_bounded_and_averages_monotone():
    rng = np.random.default_rng(41)
    for _ in range(10):
        g = random_component_code(rng)
        st = tuple(_random_socket_types(rng, g.n_cols, 2))
        cn = CnType("c", g, st, 1)
        table = cn_info_table(cn, 2)
        dims = [cn.sockets_of_type(1), cn.sockets_of_type(2)]
        for g1 in range(dims[0] + 1):
            for g2 in range(dims[1] + 1):
                n_sel = math.comb(dims[0], g1) * math.comb(dims[1], g2)
                assert 0 <= table[g1, g2] <= g.n_rows * n_sel
        # average rank cannot decrease when one more column is selected
        def avg(g1, g2):
            n_sel = math.comb(dims[0], g1) * math.comb(dims[1], g2)
            return table[g1, g2] / n_sel

        for g1 in range(dims[0] + 1):
            for g2 in range(dims[1] + 1):
                if g1 + 1 <= dims[0]:
                    assert avg(g1 + 1, g2) >= avg(g1, g2) - 1e-12
                if g2 + 1 <= dims[1]:
                    assert avg(g1, g2 + 1) >= avg(g1, g2) - 1e-12


def test_socket_relabeling_within_type_leaves_table_unchanged():
    # compare the permuted instance against a non-canonicalizing oracle of the
    # original, so the package's within-type canonicalization is actually tested
    rng = np.random.default_rng(55)
    for _ in range(8):
        g = random_component_code(rng, max_sockets=6)
        n = g.n_cols
        st = _random_socket_types(rng, n, 2)
        perm = list(range(n))
        for l in (1, 2):
            idx = [j for j in perm if st[j] == l]
            shuffled = [int(x) for x in rng.permutation(idx)]
            for a, b in zip(idx, shuffled):
                perm[a] = b
        g_perm = g.select_columns(perm)
        st_perm = [st[j] for j in perm]
        assert st_perm == st
        t_perm = cn_info_table(CnType("b", g_perm, tuple(st_perm), 1), 2)
        oracle = naive_info_table(g.to_rows(), st, 2)
        assert np.array_equal(t_perm, oracle)


@pytest.mark.parametrize("n_edge_types", [1, 2, 3])
def test_cn_tables_match_naive_enumeration(n_edge_types):
    rng = np.random.default_rng(100 + n_edge_types)
    for _ in range(8):
        g = random_component_code(rng, max_sockets=6)
        st = _random_socket_types(rng, g.n_cols, n_edge_types)
        table = cn_info_table(CnType("c", g, tuple(st), 1), n_edge_types)
        oracle = naive_info_table(g.to_rows(), st, n_edge_types)
        assert np.array_equal(table, oracle)


@pytest.mark.parametrize("punctured", [False, True])
def test_vn_tables_match_naive_enumeration(punctured):
    rng = np.random.default_rng(200 + punctured)
    for _ in range(8):
        g = random_component_code(rng, max_sockets=6)
        st = _random_socket_types(rng, g.n_cols, 2)
        if punctured:
            punct = tuple(int(rng.integers(0, 2)) for _ in range(g.n_rows))
        else:
            punct = (1,) * g.n_rows
        vn = VnType("v", g, punct, tuple(st), 1)
        table = vn_info_table(vn, 2)
        oracle = naive_info_table(g.to_rows(), st, 2, puncture=list(punct))
        assert np.array_equal(table, oracle)


def _recursion_table(g, socket_types, n_edge_types, puncture=None):
    """The depth-first oracle on the package's column and axis layout."""
    cols = g.column_bits()
    columns = [(bits, t - 1) for bits, t in zip(cols, socket_types)]
    shape = tuple(list(socket_types).count(l) + 1 for l in range(1, n_edge_types + 1))
    if puncture is not None:
        tx = [i for i, b in enumerate(puncture) if b]
        columns += [(1 << i, n_edge_types) for i in tx]
        shape += (len(tx) + 1,)
    return rank_table_recursion(columns, shape)


def test_subset_walk_tables_match_recursion_and_naive_enumeration():
    # seeded sweep over 1-3 edge types, CNs and VNs with random puncture
    rng = np.random.default_rng(707)
    for trial in range(24):
        n_e = 1 + trial % 3
        g = random_component_code(rng, max_sockets=6, max_k=4)
        st = _random_socket_types(rng, g.n_cols, n_e)
        cn = cn_info_table(CnType("c", g, tuple(st), 1), n_e)
        assert np.array_equal(cn, _recursion_table(g, st, n_e))
        assert np.array_equal(cn, naive_info_table(g.to_rows(), st, n_e))
        punct = tuple(int(b) for b in rng.integers(0, 2, size=g.n_rows))
        vn = vn_info_table(VnType("v", g, punct, tuple(st), 1), n_e)
        assert np.array_equal(vn, _recursion_table(g, st, n_e, punct))
        assert np.array_equal(vn, naive_info_table(g.to_rows(), st, n_e, puncture=list(punct)))


def test_walk_wider_than_a_block_matches_recursion():
    # 12 sockets plus 5 transmitted bits: 2**17 subsets, walked in 8 blocks
    rng = np.random.default_rng(12)
    while True:
        g = GF2Matrix.from_rows(rng.integers(0, 2, size=(5, 12)).tolist())
        if g.rank() == 5 and not g.has_zero_column():
            break
    st = [int(t) for t in rng.integers(1, 3, size=12)]
    table = vn_info_table(VnType("wide", g, (1,) * 5, tuple(st), 1), 2)
    assert table.dtype == np.int64
    assert np.array_equal(table, _recursion_table(g, st, 2, (1,) * 5))


def test_walk_over_the_budget_raises_before_walking():
    # (24,12) VN with every bit transmitted walks 36 columns
    g = GF2Matrix(12, 24, [(1 << i) | (1 << (i + 12)) for i in range(12)])
    vn = VnType("wide", g, (1,) * 12, (1,) * 24, 1)
    with pytest.raises(CapacityError, match="WALK_BUDGET") as exc:
        vn_info_table(vn, 1)
    assert "36 columns" in str(exc.value)
    cn = CnType("spc", spc_gen(WALK_BUDGET + 1), (1,) * (WALK_BUDGET + 1), 1)
    with pytest.raises(CapacityError, match="WALK_BUDGET"):
        cn_info_table(cn, 1)
