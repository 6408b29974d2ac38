import json
from fractions import Fraction

import numpy as np
import pytest

from metdg import (
    CapacityError,
    CnType,
    GF2Matrix,
    ValidationError,
    VnType,
    build_spec,
    spec_from_dict,
    spec_from_json,
)

from conftest import (
    example1_spec,
    example2_spec,
    fig1_doc,
    fig1_spec,
    ldpc_spec,
    ones_doc,
    random_eligible_spec,
    rep_gen,
    set_at,
    spc_gen,
)


def test_fig1_accounting():
    spec = fig1_spec()
    assert spec.codeword_length == 28
    assert spec.dimension == 8
    assert spec.rate == Fraction(2, 7)
    assert sum(vn.count * (vn.n_info_bits - vn.n_transmitted) for vn in spec.vn_types) == 4


def test_fig1_parses_from_document_form():
    spec = spec_from_dict(fig1_doc())
    assert (spec.codeword_length, spec.dimension) == (28, 8)
    assert spec.rate == Fraction(2, 7)
    assert not spec.unpunctured


def test_socket_imbalance_rejected():
    vn = VnType("rep2", rep_gen(2), (1,), (1, 1), 5)
    cn = CnType("spc3", spc_gen(3), (1, 1, 1), 2)
    with pytest.raises(ValidationError) as exc:
        build_spec(1, [vn], [cn])
    assert "imbalance" in str(exc.value)
    assert "10" in str(exc.value) and "6" in str(exc.value)


def test_example2_edge_fractions():
    spec = example2_spec(rep_gen(3), m=2)
    # one VN type per edge type, one CN type overall
    lam = spec.vn_edge_fractions
    rho = spec.cn_edge_fractions
    assert lam[0] == (Fraction(1), Fraction(0))
    assert lam[1] == (Fraction(0), Fraction(1))
    assert rho[0] == (Fraction(1), Fraction(1))
    # the per-node socket split of the single CN type is (1/3, 2/3)
    cn = spec.cn_types[0]
    assert Fraction(cn.sockets_of_type(1), cn.n_sockets) == Fraction(1, 3)
    assert Fraction(cn.sockets_of_type(2), cn.n_sockets) == Fraction(2, 3)
    assert spec.edge_counts == (6, 12)


def test_roundtrip_is_identity_on_canonical_form():
    spec = fig1_spec()
    again = spec_from_json(spec.to_json())
    assert again.to_dict() == spec.to_dict()
    # once canonicalized, parse -> serialize -> parse is the identity
    assert spec_from_json(again.to_json()) == again


def test_roundtrip_identity_on_random_specs():
    rng = np.random.default_rng(92)
    for _ in range(8):
        spec = random_eligible_spec(rng)
        again = spec_from_json(spec.to_json())
        assert again.to_dict() == spec.to_dict()
        assert spec_from_json(again.to_json()) == again


def test_edge_fraction_simplex_on_random_specs():
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec = random_eligible_spec(rng)
        for l0 in range(spec.n_edge_types):
            assert sum(f[l0] for f in spec.vn_edge_fractions) == 1
            assert sum(f[l0] for f in spec.cn_edge_fractions) == 1
        for i, vn in enumerate(spec.vn_types):
            for l0 in range(spec.n_edge_types):
                positive = spec.vn_edge_fractions[i][l0] > 0
                assert positive == (spec.vn_socket_counts[i][l0] > 0)


def test_single_edge_type_fractions_match_classical_degree_accounting():
    vn2 = VnType("rep2", rep_gen(2), (1,), (1, 1), 3)
    vn3 = VnType("rep3", rep_gen(3), (1,), (1, 1, 1), 8)
    cn6 = CnType("spc6", spc_gen(6), (1,) * 6, 3)
    cn4 = CnType("spc4", spc_gen(4), (1,) * 4, 3)
    spec = build_spec(1, [vn2, vn3], [cn6, cn4])
    edges = 2 * 3 + 3 * 8
    assert spec.edge_counts == (edges,)
    assert spec.vn_edge_fractions[0][0] == Fraction(2 * 3, edges)
    assert spec.vn_edge_fractions[1][0] == Fraction(3 * 8, edges)
    assert spec.cn_edge_fractions[0][0] == Fraction(6 * 3, edges)
    assert spec.cn_edge_fractions[1][0] == Fraction(4 * 3, edges)


def test_classify_types_example1():
    spec = example1_spec(spc_gen(3), spc_gen(3))
    assert [spec.cn_types[i].name for i in spec.cn_dist2_indices] == ["bank1", "bank2"]
    assert [spec.vn_types[i].name for i in spec.vn_dist2_indices] == ["bridge"]
    assert spec.stability_eligible


def test_classify_types_repetition3_has_no_distance2_vns():
    vn = VnType("rep3", rep_gen(3), (1,), (1, 1, 1), 2)
    cn = CnType("spc3", spc_gen(3), (1, 1, 1), 2)
    spec = build_spec(1, [vn], [cn])
    assert spec.vn_dist2_indices == ()


def test_classify_types_fig1_not_stability_eligible():
    spec = fig1_spec()
    assert not spec.unpunctured
    assert not spec.stability_eligible
    # distance-1 types present as well
    assert min(spec.vn_min_distance) == 1


def test_min_distance_recorded_per_type():
    spec = example1_spec(spc_gen(3), spc_gen(4))
    assert spec.vn_min_distance == (2,)
    assert spec.cn_min_distance == (2, 2)


def test_rank_deficient_generator_rejected():
    bad = GF2Matrix.from_rows([[1, 0, 1], [1, 0, 1]])
    vn = VnType("bad", bad, (1, 1), (1, 1, 1), 2)
    cn = CnType("spc6", spc_gen(6), (1,) * 6, 1)
    with pytest.raises(ValidationError) as exc:
        build_spec(1, [vn], [cn])
    assert "rank-deficient" in str(exc.value)


def test_idle_bit_rejected():
    bad = GF2Matrix.from_rows([[1, 0, 0], [0, 1, 0]])
    vn = VnType("bad", bad, (1, 1), (1, 1, 1), 2)
    cn = CnType("spc6", spc_gen(6), (1,) * 6, 1)
    with pytest.raises(ValidationError) as exc:
        build_spec(1, [vn], [cn])
    assert "idle" in str(exc.value)


def test_capacity_cap_enforced():
    wide = GF2Matrix.from_rows([[1] * 25])
    vn = VnType("wide", wide, (1,), (1,) * 25, 1)
    cn = CnType("spc26", spc_gen(26), (1,) * 26, 1)
    with pytest.raises(CapacityError):
        build_spec(1, [vn], [cn])


def test_schema_violations():
    with pytest.raises(ValidationError):
        spec_from_dict({"edge_types": 1, "vn_types": []})
    with pytest.raises(ValidationError):
        spec_from_dict({"edge_types": 0, "vn_types": [], "cn_types": []})
    doc = fig1_doc()
    doc["vn_types"][0]["socket_types"] = [9]
    with pytest.raises(ValidationError):
        spec_from_dict(doc)
    doc = fig1_doc()
    doc["vn_types"][0]["bogus"] = 1
    with pytest.raises(ValidationError):
        spec_from_dict(doc)
    # not JSON, nested past the decoder's recursion limit, and an integer
    # with more digits than Python converts
    for text in ("{not json", "[" * 100_000, '{"edge_types": ' + "1" * 5000 + "}"):
        with pytest.raises(ValidationError):
            spec_from_json(text)


def test_cn_parity_check_with_redundant_rows():
    doc = {
        "edge_types": 1,
        "vn_types": [
            {"name": "v", "generator": [[1, 1]], "socket_types": [1, 1], "count": 3}
        ],
        "cn_types": [
            {
                "name": "c",
                "parity_check": [[1, 1, 1], [1, 1, 1]],
                "socket_types": [1, 1, 1],
                "count": 2,
            }
        ],
    }
    spec = spec_from_dict(doc)
    assert spec.cn_types[0].dimension == 2
    assert spec.cn_min_distance == (2,)


def test_trivial_cn_code_rejected():
    doc = {
        "edge_types": 1,
        "vn_types": [
            {"name": "v", "generator": [[1, 1, 1]], "socket_types": [1, 1, 1], "count": 1}
        ],
        "cn_types": [
            {"name": "c", "parity_check": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "socket_types": [1, 1, 1], "count": 1}
        ],
    }
    with pytest.raises(ValidationError) as exc:
        spec_from_dict(doc)
    assert "trivial" in str(exc.value)


def test_unused_edge_type_rejected():
    vn = VnType("rep2", rep_gen(2), (1,), (1, 1), 3)
    cn = CnType("spc3", spc_gen(3), (1, 1, 1), 2)
    with pytest.raises(ValidationError) as exc:
        build_spec(2, [vn], [cn])
    assert "no sockets" in str(exc.value)


def test_duplicate_names_rejected():
    vn1 = VnType("x", rep_gen(2), (1,), (1, 1), 3)
    vn2 = VnType("x", rep_gen(3), (1,), (1, 1, 1), 2)
    cn = CnType("spc6", spc_gen(6), (1,) * 6, 2)
    with pytest.raises(ValidationError):
        build_spec(1, [vn1, vn2], [cn])


def test_fully_punctured_ensemble_rejected():
    vn = VnType("v", rep_gen(2), (0,), (1, 1), 3)
    cn = CnType("spc3", spc_gen(3), (1, 1, 1), 2)
    with pytest.raises(ValidationError) as exc:
        build_spec(1, [vn], [cn])
    assert "punctured" in str(exc.value)


def test_spec_json_matches_document(tmp_path):
    doc = fig1_doc()
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(doc))
    from metdg import load_spec

    spec = load_spec(path)
    assert spec.codeword_length == 28


@pytest.mark.parametrize(
    "path, value",
    [
        (("vn_types", 0, "puncture"), [1.0]),
        (("vn_types", 0, "puncture"), [True]),
        (("vn_types", 0, "puncture"), 1),
        (("vn_types", 0, "generator", 0, 0), 1.0),
        (("cn_types", 0, "generator", 0, 1), True),
        (("vn_types", 0, "name"), ["x"]),
        (("cn_types", 0, "name"), None),
        (("edge_types",), True),
        (("edge_types",), 1.0),
        (("vn_types", 0, "count"), True),
        (("cn_types", 0, "count"), 1.0),
        (("vn_types", 0, "socket_types", 0), True),
        (("vn_types", 0, "socket_types"), 1),
        (("cn_types", 0, "socket_types"), [1]),
    ],
    ids=["puncture-float", "puncture-bool", "puncture-int", "generator-float", "generator-bool",
         "name-list", "name-null", "edge-types-bool", "edge-types-float", "count-bool",
         "count-float", "socket-bool", "sockets-int", "sockets-short"],
)
def test_document_values_of_the_wrong_type_are_rejected(path, value):
    # in ones_doc, a bool or float read as 1 would make a valid spec
    spec_from_dict(ones_doc())
    with pytest.raises(ValidationError):
        spec_from_dict(set_at(ones_doc(), path, value))


def test_python_types_pass_the_same_checks():
    vn = VnType("rep2", rep_gen(2), (1,), (1, 1), 3)
    cn = CnType("spc3", spc_gen(3), (1, 1, 1), 2)
    bad = [
        ([VnType("rep2", rep_gen(2), (1,), (1, 3), 3)], [cn]),  # socket type outside 1..n_e
        ([VnType("rep2", rep_gen(2), (1,), (1,), 3)], [cn]),  # one socket type short
        ([vn], [CnType("spc3", spc_gen(3), (1, 1, True), 2)]),
        ([vn], [CnType("spc3", spc_gen(3), (1, 1, 1), 2.0)]),
        ([VnType(["rep2"], rep_gen(2), (1,), (1, 1), 3)], [cn]),
        ([VnType("rep2", rep_gen(2), (True,), (1, 1), 3)], [cn]),
    ]
    for vns, cns in bad:
        with pytest.raises(ValidationError):
            build_spec(1, vns, cns)
    with pytest.raises(ValidationError):
        build_spec(True, [vn], [cn])
    assert build_spec(1, [vn], [cn]).edge_counts == (6,)


def test_edge_types_far_above_the_sockets_are_rejected_quickly():
    # the count of edge types is never looped over before every type is
    # known to have a socket
    with pytest.raises(ValidationError) as exc:
        spec_from_dict(set_at(fig1_doc(), ("edge_types",), 10**20))
    assert "edge type 4 has no sockets" in str(exc.value)


def test_huge_counts_are_valid():
    spec = spec_from_json(ldpc_spec(3, 6, 2 * 10**20).to_json())
    assert spec.edge_counts == (6 * 10**20,)
    assert spec.codeword_length == 2 * 10**20

