"""Data model, file format, and validation for multi-edge-type ensembles.

An ensemble mixes variable-node (VN) and check-node (CN) types, each a small
linear block code whose codeword positions ("sockets") carry edge-type
labels.  Node counts, not edge fractions, parametrize the ensemble: the
per-edge-type fractions are derived from the counts as exact rationals, so
their consistency is automatic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import gf2
from .errors import ValidationError
from .gf2 import GF2Matrix


@dataclass(frozen=True)
class VnType:
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

    @property
    def n_sockets(self) -> int:
        return self.generator.n_cols

    @property
    def n_info_bits(self) -> int:
        return self.generator.n_rows

    @property
    def n_transmitted(self) -> int:
        return sum(self.puncture)

    @property
    def transmitted_positions(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.puncture) if b)

    def sockets_of_type(self, edge_type: int) -> int:
        return sum(1 for t in self.socket_types if t == edge_type)


@dataclass(frozen=True)
class CnType:
    """A check-node type: component code, socket labels, count.

    The code may be given by a generator or a parity-check matrix; a
    full-row-rank generator is always derived and used internally.
    """

    name: str
    generator: GF2Matrix
    socket_types: tuple[int, ...]
    count: int
    given_form: str = "generator"

    @property
    def n_sockets(self) -> int:
        return self.generator.n_cols

    @property
    def dimension(self) -> int:
        return self.generator.n_rows

    def sockets_of_type(self, edge_type: int) -> int:
        return sum(1 for t in self.socket_types if t == edge_type)


@dataclass(frozen=True)
class EnsembleSpec:
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
        vns = []
        for vn in self.vn_types:
            vns.append(
                {
                    "name": vn.name,
                    "generator": vn.generator.to_rows(),
                    "puncture": [int(b) for b in vn.puncture],
                    "socket_types": [int(t) for t in vn.socket_types],
                    "count": int(vn.count),
                }
            )
        cns = []
        for cn in self.cn_types:
            cns.append(
                {
                    "name": cn.name,
                    "generator": cn.generator.to_rows(),
                    "socket_types": [int(t) for t in cn.socket_types],
                    "count": int(cn.count),
                }
            )
        return {"edge_types": self.n_edge_types, "vn_types": vns, "cn_types": cns}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


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


def _check_socket_types(st, n_cols: int, n_edge_types: int, what: str) -> tuple[int, ...]:
    _require(isinstance(st, list), f"{what}: socket_types must be a list")
    _require(len(st) == n_cols,
             f"{what}: socket_types has length {len(st)}, expected {n_cols}")
    for t in st:
        _require(isinstance(t, int) and 1 <= t <= n_edge_types,
                 f"{what}: socket type {t!r} outside 1..{n_edge_types}")
    return tuple(st)


def build_spec(
    n_edge_types: int,
    vn_types: Sequence[VnType],
    cn_types: Sequence[CnType],
) -> EnsembleSpec:
    """Validate node types and counts and derive the per-edge-type quantities."""
    _require(isinstance(n_edge_types, int) and n_edge_types >= 1,
             "edge_types must be a positive integer")
    _require(len(vn_types) >= 1, "at least one VN type is required")
    _require(len(cn_types) >= 1, "at least one CN type is required")

    names = [vn.name for vn in vn_types]
    _require(len(set(names)) == len(names), "duplicate VN type name")
    names = [cn.name for cn in cn_types]
    _require(len(set(names)) == len(names), "duplicate CN type name")
    both = {vn.name for vn in vn_types} & {cn.name for cn in cn_types}
    _require(not both, f"type name used on both sides: {sorted(both)}")

    for vn in vn_types:
        what = f"VN type {vn.name!r}"
        g = vn.generator
        _require(vn.count >= 1, f"{what}: count must be >= 1")
        _require(g.n_rows >= 1 and g.n_cols >= 1, f"{what}: empty generator")
        gf2.check_sockets(g.n_cols)
        gf2.check_input_bits(g.n_rows)
        _require(g.rank() == g.n_rows, f"{what}: rank-deficient generator")
        _require(not g.has_zero_column(), f"{what}: idle bit (all-zero generator column)")
        _require(len(vn.puncture) == g.n_rows,
                 f"{what}: puncture vector has length {len(vn.puncture)}, expected {g.n_rows}")
        _require(all(b in (0, 1) for b in vn.puncture), f"{what}: puncture bits must be 0/1")

    for cn in cn_types:
        what = f"CN type {cn.name!r}"
        g = cn.generator
        _require(cn.count >= 1, f"{what}: count must be >= 1")
        _require(g.n_cols >= 1, f"{what}: empty code")
        gf2.check_sockets(g.n_cols)
        _require(g.n_rows >= 1, f"{what}: trivial code (dimension 0)")
        gf2.check_input_bits(g.n_rows)
        _require(g.rank() == g.n_rows, f"{what}: rank-deficient generator")
        _require(not g.has_zero_column(), f"{what}: idle bit (all-zero generator column)")

    vn_counts = tuple(
        tuple(vn.sockets_of_type(l) for l in range(1, n_edge_types + 1)) for vn in vn_types
    )
    cn_counts = tuple(
        tuple(cn.sockets_of_type(l) for l in range(1, n_edge_types + 1)) for cn in cn_types
    )

    edge_counts = []
    for l0 in range(n_edge_types):
        ev = sum(vn.count * vn_counts[i][l0] for i, vn in enumerate(vn_types))
        ec = sum(cn.count * cn_counts[i][l0] for i, cn in enumerate(cn_types))
        if ev != ec:
            detail = ", ".join(
                f"type {l + 1}: VN side {sum(v.count * vn_counts[i][l] for i, v in enumerate(vn_types))}"
                f" vs CN side {sum(c.count * cn_counts[i][l] for i, c in enumerate(cn_types))}"
                for l in range(n_edge_types)
            )
            raise ValidationError(f"socket imbalance ({detail})")
        _require(ev >= 1, f"edge type {l0 + 1} has no sockets")
        edge_counts.append(ev)

    lam = tuple(
        tuple(Fraction(vn.count * vn_counts[i][l0], edge_counts[l0]) for l0 in range(n_edge_types))
        for i, vn in enumerate(vn_types)
    )
    rho = tuple(
        tuple(Fraction(cn.count * cn_counts[i][l0], edge_counts[l0]) for l0 in range(n_edge_types))
        for i, cn in enumerate(cn_types)
    )

    vn_dist = tuple(gf2.min_distance(vn.generator) for vn in vn_types)
    cn_dist = tuple(gf2.min_distance(cn.generator) for cn in cn_types)

    n = sum(vn.count * vn.n_transmitted for vn in vn_types)
    _require(n >= 1, "ensemble transmits no bits (everything is punctured)")
    k = sum(vn.count * vn.n_info_bits for vn in vn_types) - sum(
        cn.count * (cn.n_sockets - cn.dimension) for cn in cn_types
    )

    return EnsembleSpec(
        n_edge_types=n_edge_types,
        vn_types=tuple(vn_types),
        cn_types=tuple(cn_types),
        edge_counts=tuple(edge_counts),
        vn_socket_counts=vn_counts,
        cn_socket_counts=cn_counts,
        vn_edge_fractions=lam,
        cn_edge_fractions=rho,
        vn_min_distance=vn_dist,
        cn_min_distance=cn_dist,
        codeword_length=n,
        dimension=k,
    )


def spec_from_dict(doc: dict) -> EnsembleSpec:
    """Parse and validate the JSON document form of an ensemble."""
    _require(isinstance(doc, dict), "spec document must be a JSON object")
    unknown = set(doc) - {"edge_types", "vn_types", "cn_types"}
    _require(not unknown, f"unknown top-level keys: {sorted(unknown)}")
    for key in ("edge_types", "vn_types", "cn_types"):
        _require(key in doc, f"missing required key {key!r}")
    n_e = doc["edge_types"]
    _require(isinstance(n_e, int) and n_e >= 1, "edge_types must be a positive integer")
    _require(isinstance(doc["vn_types"], list), "vn_types must be a list")
    _require(isinstance(doc["cn_types"], list), "cn_types must be a list")

    vns = []
    for i, raw in enumerate(doc["vn_types"]):
        _require(isinstance(raw, dict), f"vn_types[{i}] must be an object")
        unknown = set(raw) - {"name", "generator", "puncture", "socket_types", "count"}
        _require(not unknown, f"vn_types[{i}]: unknown keys {sorted(unknown)}")
        name = raw.get("name", f"vn{i}")
        what = f"VN type {name!r}"
        _require("generator" in raw, f"{what}: missing generator")
        g = _parse_matrix(raw["generator"], what)
        puncture = raw.get("puncture", [1] * g.n_rows)
        _require(isinstance(puncture, list) and all(b in (0, 1) for b in puncture),
                 f"{what}: puncture must be a list of 0/1 bits")
        st = _check_socket_types(raw.get("socket_types"), g.n_cols, n_e, what)
        count = raw.get("count")
        _require(isinstance(count, int), f"{what}: count must be an integer")
        vns.append(VnType(name, g, tuple(puncture), st, count))

    cns = []
    for i, raw in enumerate(doc["cn_types"]):
        _require(isinstance(raw, dict), f"cn_types[{i}] must be an object")
        unknown = set(raw) - {"name", "generator", "parity_check", "socket_types", "count"}
        _require(not unknown, f"cn_types[{i}]: unknown keys {sorted(unknown)}")
        name = raw.get("name", f"cn{i}")
        what = f"CN type {name!r}"
        has_g = "generator" in raw
        has_h = "parity_check" in raw
        _require(has_g != has_h, f"{what}: give exactly one of generator, parity_check")
        if has_g:
            g = _parse_matrix(raw["generator"], what)
            form = "generator"
        else:
            h = _parse_matrix(raw["parity_check"], what)
            g = gf2.generator_from_parity(h)
            form = "parity_check"
        st = _check_socket_types(raw.get("socket_types"), g.n_cols, n_e, what)
        count = raw.get("count")
        _require(isinstance(count, int), f"{what}: count must be an integer")
        cns.append(CnType(name, g, st, count, given_form=form))

    return build_spec(n_e, vns, cns)


def spec_from_json(text: str) -> EnsembleSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValidationError(f"invalid JSON: {e}") from None
    return spec_from_dict(doc)


def load_spec(path) -> EnsembleSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_json(fh.read())
