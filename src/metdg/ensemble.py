"""Data model, file format, and validation for multi-edge-type ensembles.

An ensemble mixes variable-node (VN) and check-node (CN) types, each a small
linear block code whose codeword positions ("sockets") carry edge-type
labels; the two kinds differ only in the VN's transmitted bits.  Node
counts, not edge fractions, parametrize the ensemble: the per-edge-type
fractions are derived from the counts as exact rationals, so their
consistency is automatic.

`build_spec` is the one gate: a spec built in Python and one read from a
file (which `spec_from_dict` only maps onto node types) pass the same
checks, most of them shared by both kinds of node.  Every count, label and
bit is a Python int that is not a bool.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple, Sequence

from . import gf2
from .errors import ValidationError, is_int
from .gf2 import GF2Matrix


# What VN and CN types share, a generator whose columns (sockets) carry
# edge-type labels: both classes take these two members.
@property
def _n_sockets(node) -> int:
    return node.generator.n_cols


def _sockets_of_type(node, edge_type: int) -> int:
    return node.socket_types.count(edge_type)


class VnType(NamedTuple):
    """A variable-node type: encoder, puncturing pattern, socket labels, count.

    The generator matters bit for bit (it is the local encoder), so it is
    never canonicalized.  puncture[i] == 1 means information bit i is
    transmitted.
    """

    name: str
    generator: GF2Matrix
    puncture: tuple[int, ...]
    socket_types: tuple[int, ...]
    count: int

    n_sockets = _n_sockets
    sockets_of_type = _sockets_of_type

    @property
    def n_info_bits(self) -> int:
        return self.generator.n_rows

    @property
    def n_transmitted(self) -> int:
        return sum(self.puncture)

    @property
    def transmitted_positions(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.puncture) if b)


class CnType(NamedTuple):
    """A check-node type: component code, socket labels, count.

    The code may be given by a generator or a parity-check matrix; a
    full-row-rank generator is always derived and used internally.  A CN
    is a VN that transmits none of its bits: its n_transmitted and
    transmitted_positions are class constants, not fields, so code that
    reads them takes both kinds of node alike.
    """

    name: str
    generator: GF2Matrix
    socket_types: tuple[int, ...]
    count: int

    n_sockets = _n_sockets
    sockets_of_type = _sockets_of_type
    n_transmitted = 0
    transmitted_positions = ()

    @property
    def dimension(self) -> int:
        return self.generator.n_rows


class EnsembleSpec(NamedTuple):
    """A validated ensemble with all derived quantities populated.

    Edge types are numbered 1..n_edge_types in the file format; derived
    per-type sequences below are 0-indexed by (edge type - 1).
    """

    n_edge_types: int
    vn_types: tuple[VnType, ...]
    cn_types: tuple[CnType, ...]
    edge_counts: tuple[int, ...]
    vn_socket_counts: tuple[tuple[int, ...], ...]
    cn_socket_counts: tuple[tuple[int, ...], ...]
    vn_edge_fractions: tuple[tuple[Fraction, ...], ...]
    cn_edge_fractions: tuple[tuple[Fraction, ...], ...]
    vn_min_distance: tuple[int, ...]
    cn_min_distance: tuple[int, ...]
    codeword_length: int
    dimension: int

    @property
    def rate(self) -> Fraction:
        return Fraction(self.dimension, self.codeword_length)

    @property
    def vn_dist2_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.vn_min_distance) if d == 2)

    @property
    def cn_dist2_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.cn_min_distance) if d == 2)

    @property
    def unpunctured(self) -> bool:
        return all(all(b == 1 for b in vn.puncture) for vn in self.vn_types)

    @property
    def min_distance_at_least_2(self) -> bool:
        return all(d >= 2 for d in self.vn_min_distance + self.cn_min_distance)

    @property
    def stability_eligible(self) -> bool:
        return self.unpunctured and self.min_distance_at_least_2

    def to_dict(self) -> dict:
        vns = [_node_dict(vn, puncture=list(vn.puncture)) for vn in self.vn_types]
        cns = [_node_dict(cn) for cn in self.cn_types]
        return {"edge_types": self.n_edge_types, "vn_types": vns, "cn_types": cns}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def _node_dict(node: VnType | CnType, **extra) -> dict:
    return {
        "name": node.name,
        "generator": node.generator.to_rows(),
        "socket_types": list(node.socket_types),
        "count": node.count,
        **extra,
    }


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _parse_matrix(raw, what: str) -> GF2Matrix:
    _require(isinstance(raw, list) and raw and all(isinstance(r, list) for r in raw),
             f"{what}: expected a nonempty list of 0/1 rows")
    try:
        return GF2Matrix.from_rows(raw)
    except ValidationError as e:
        raise ValidationError(f"{what}: {e}") from None


def _check_node(node: VnType | CnType, n_edge_types: int, what: str) -> None:
    """The rules VN and CN types share: a string name, a positive integer
    count, a full-rank generator with no idle column within the walk budget,
    and one edge type in 1..n_edge_types per generator column."""
    _require(isinstance(node.name, str), f"{what}: name must be a string")
    _require(is_int(node.count) and node.count >= 1, f"{what}: count must be an integer >= 1")
    g = node.generator
    _require(g.n_cols >= 1, f"{what}: empty code")
    gf2.check_walk(g.n_cols, f"{what} sockets")
    _require(g.rank() == g.n_rows, f"{what}: rank-deficient generator")
    _require(not g.has_zero_column(), f"{what}: idle bit (all-zero generator column)")
    st = node.socket_types
    _require(isinstance(st, (tuple, list)) and len(st) == g.n_cols,
             f"{what}: socket_types must be a list of {g.n_cols} edge types")
    for t in st:
        _require(is_int(t) and 1 <= t <= n_edge_types,
                 f"{what}: socket type {t!r} outside 1..{n_edge_types}")


def build_spec(
    n_edge_types: int,
    vn_types: Sequence[VnType],
    cn_types: Sequence[CnType],
) -> EnsembleSpec:
    """Validate node types and counts and derive the per-edge-type quantities.

    Every spec passes here, whether built in Python or read from a file."""
    _require(is_int(n_edge_types) and n_edge_types >= 1, "edge_types must be a positive integer")
    _require(len(vn_types) >= 1, "at least one VN type is required")
    _require(len(cn_types) >= 1, "at least one CN type is required")

    for vn in vn_types:
        what = f"VN type {vn.name!r}"
        _check_node(vn, n_edge_types, what)
        p = vn.puncture
        _require(isinstance(p, (tuple, list)) and len(p) == vn.n_info_bits
                 and all(is_int(b) and b in (0, 1) for b in p),
                 f"{what}: puncture must be a list of {vn.n_info_bits} bits, each 0 or 1")
    for cn in cn_types:
        what = f"CN type {cn.name!r}"
        _require(cn.dimension >= 1, f"{what}: trivial code (dimension 0)")
        _check_node(cn, n_edge_types, what)

    names = [vn.name for vn in vn_types]
    _require(len(set(names)) == len(names), "duplicate VN type name")
    names = [cn.name for cn in cn_types]
    _require(len(set(names)) == len(names), "duplicate CN type name")
    both = {vn.name for vn in vn_types} & {cn.name for cn in cn_types}
    _require(not both, f"type name used on both sides: {sorted(both)}")
    # Checked before anything loops over the edge types, whose number may
    # be far larger than the number of sockets.
    used = {t for node in (*vn_types, *cn_types) for t in node.socket_types}
    if len(used) < n_edge_types:
        raise ValidationError(f"edge type {min(set(range(1, len(used) + 2)) - used)} has no sockets")

    per_type = range(n_edge_types)
    vn_counts, cn_counts = (
        tuple(tuple(t.sockets_of_type(l0 + 1) for l0 in per_type) for t in types)
        for types in (vn_types, cn_types)
    )
    sides = ((vn_types, vn_counts), (cn_types, cn_counts))
    edge_counts, cn_edges = (
        tuple(sum(t.count * c[l0] for t, c in zip(types, counts)) for l0 in per_type)
        for types, counts in sides
    )
    if edge_counts != cn_edges:
        detail = ", ".join(
            f"type {l0 + 1}: VN side {v} vs CN side {c}"
            for l0, (v, c) in enumerate(zip(edge_counts, cn_edges))
        )
        raise ValidationError(f"socket imbalance ({detail})")
    lam, rho = (
        tuple(tuple(Fraction(t.count * c[l0], edge_counts[l0]) for l0 in per_type)
              for t, c in zip(types, counts))
        for types, counts in sides
    )
    vn_dist, cn_dist = (tuple(gf2.min_distance(t.generator) for t in types) for types, _ in sides)

    n = sum(vn.count * vn.n_transmitted for vn in vn_types)
    _require(n >= 1, "ensemble transmits no bits (everything is punctured)")
    k = sum(vn.count * vn.n_info_bits for vn in vn_types) - sum(
        cn.count * (cn.n_sockets - cn.dimension) for cn in cn_types
    )

    return EnsembleSpec(
        n_edge_types=n_edge_types,
        vn_types=tuple(vn_types),
        cn_types=tuple(cn_types),
        edge_counts=edge_counts,
        vn_socket_counts=vn_counts,
        cn_socket_counts=cn_counts,
        vn_edge_fractions=lam,
        cn_edge_fractions=rho,
        vn_min_distance=vn_dist,
        cn_min_distance=cn_dist,
        codeword_length=n,
        dimension=k,
    )


# The document key of each side, its node type, and the keys of that side
# beyond the shared ones.
_SIDES = (("vn_types", VnType, {"puncture"}), ("cn_types", CnType, {"parity_check"}))
_NODE_KEYS = {"name", "generator", "socket_types", "count"}


def _tuple(value):
    """A JSON list as a tuple; any other value is left for build_spec to reject."""
    return tuple(value) if isinstance(value, list) else value


def spec_from_dict(doc: dict) -> EnsembleSpec:
    """Map the JSON document form of an ensemble onto node types, which
    build_spec then validates."""
    _require(isinstance(doc, dict), "spec document must be a JSON object")
    unknown = set(doc) - {"edge_types", "vn_types", "cn_types"}
    _require(not unknown, f"unknown top-level keys: {sorted(unknown)}")
    for key in ("edge_types", "vn_types", "cn_types"):
        _require(key in doc, f"missing required key {key!r}")

    sides = []
    for key, node_type, own_keys in _SIDES:
        _require(isinstance(doc[key], list), f"{key} must be a list")
        nodes = []
        for i, raw in enumerate(doc[key]):
            _require(isinstance(raw, dict), f"{key}[{i}] must be an object")
            unknown = set(raw) - _NODE_KEYS - own_keys
            _require(not unknown, f"{key}[{i}]: unknown keys {sorted(unknown)}")
            name = raw.get("name", f"{key[:2]}{i}")
            what = f"{key[:2].upper()} type {name!r}"
            if "parity_check" in raw:
                _require("generator" not in raw, f"{what}: give a generator or a parity_check, not both")
                g = gf2.generator_from_parity(_parse_matrix(raw["parity_check"], what))
            else:
                _require("generator" in raw, f"{what}: missing generator")
                g = _parse_matrix(raw["generator"], what)
            fields = {"name": name, "generator": g, "socket_types": _tuple(raw.get("socket_types")),
                      "count": raw.get("count")}
            if node_type is VnType:
                fields["puncture"] = _tuple(raw.get("puncture", [1] * g.n_rows))
            nodes.append(node_type(**fields))
        sides.append(nodes)
    return build_spec(doc["edge_types"], *sides)


def spec_from_json(text: str) -> EnsembleSpec:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise ValidationError(f"invalid JSON: {e}") from None
    return spec_from_dict(doc)


def load_spec(path) -> EnsembleSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ValidationError(f"cannot read the spec: {e}") from None
    return spec_from_json(text)
