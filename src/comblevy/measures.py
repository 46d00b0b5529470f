"""Finitely supported measures on a space of structures.

Covers the measure algebra used everywhere else: exchangeability checking,
orbit averaging (symmetrization), the finite exchangeable decomposition into
orbit-uniform measures, and urn measures on k-subsets.  Measures are stored
sparsely, keyed by structure; dense orbit enumeration happens only inside the
operations that need it and is guarded by the canonicalization cap.

A measure here may weight the empty structure (empirical jump measures count
no-jump steps); the zero-mass-at-empty convention for jump intensities is
enforced in the intensity layer, not here.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from functools import cached_property

import numpy as np

from .orbits import OrbitId, _orbit_groups
from .structures import (
    Signature,
    Structure,
    _cell_lists,
    _cells,
    _flat_cells,
    _serialize_all,
    _structure_from_cells,
    _take_rows,
    parse,
    serialize,
)
from .value import Value

__all__ = [
    "FiniteMeasure",
    "OrbitWeights",
    "urn_measure",
    "is_exchangeable",
    "symmetrize",
    "decompose_exchangeable",
    "measure_to_json",
    "measure_from_json",
    "measure_to_payload",
    "measure_from_payload",
    "point_mass",
    "orbit_weights_to_json",
]

MASS_TOL = 1e-12
# Largest per-member deviation from its orbit's mean mass that
# is_exchangeable accepts.
EXCHANGEABLE_TOL = 1e-9

SIG_SET = Signature((1,))


class FiniteMeasure:
    """A nonnegative measure with finite support on structures over [n].

    Zero-mass entries are dropped, so the support is the set of structures
    with strictly positive mass.
    """

    def __init__(self, signature: Signature, n: int, weights: dict):
        self.signature = signature
        self.n = n
        clean: dict[Structure, float] = {}
        for m, w in weights.items():
            if m.signature != signature or m.n != n:
                raise ValueError(
                    f"support structure {serialize(m)} does not match "
                    f"measure shape {signature}/n={n}"
                )
            w = float(w)
            if not 0.0 <= w < math.inf:
                raise ValueError(f"mass {w} on {serialize(m)} must be finite and >= 0")
            if w > 0:
                clean[m] = clean.get(m, 0.0) + w
        self.weights = clean
        self.total_mass = math.fsum(clean.values())

    @property
    def is_probability(self) -> bool:
        return abs(self.total_mass - 1.0) <= MASS_TOL

    def mass(self, m: Structure) -> float:
        return self.weights.get(m, 0.0)

    def support(self) -> list[Structure]:
        """Support sorted by canonical serialization."""
        return list(self._sorted_support[1])

    def items_sorted(self) -> list[tuple[Structure, float]]:
        return [(m, self.weights[m]) for m in self.support()]

    @cached_property
    def _sorted_support(self) -> tuple[list[str], list[Structure]]:
        """The support's canonical texts, formatted as one block, and its
        members, both in the order of those texts."""
        members = list(self.weights)
        texts = _serialize_all(self.signature, self.n, members)
        order = sorted(range(len(members)), key=texts.__getitem__)
        return [texts[i] for i in order], [members[i] for i in order]

    @cached_property
    def _inverse_cdf(self) -> tuple[np.ndarray, tuple]:
        """The support's cumulative masses in sampling order and its cells
        as one flat column with their counts; built on the first draw."""
        structures = self.support()
        if not structures:
            raise ValueError("cannot sample from a zero measure")
        cum = np.fromiter(itertools.accumulate(self.weights[m] for m in structures), float)
        return cum, _flat_cells([_cells(m) for m in structures], self.signature.k)

    def sample(self, rng) -> Structure:
        """One draw by inverse CDF over the sorted support: the batch of one."""
        cells, = _cell_lists(*self.sample_cells_batch(rng, 1))
        return _structure_from_cells(self.signature, self.n, cells)

    def sample_cells_batch(self, rng, k: int) -> tuple[np.ndarray, np.ndarray]:
        """k draws by inverse CDF, the draws that k calls of :meth:`sample`
        make from the same stream, as one flat column of their sorted cells
        and the (k x relations) counts (see ``structures._Parser.batch``)."""
        return _take_rows(*self._inverse_cdf[1], self._pick(rng, k))

    def _pick(self, rng, k: int) -> np.ndarray:
        """k draws by inverse CDF, one uniform each, as places in :meth:`support`."""
        cum = self._inverse_cdf[0]
        picked = np.searchsorted(cum, rng.random(k) * self.total_mass, side="right")
        return np.minimum(picked, len(cum) - 1)

    def approx_equal(self, other: "FiniteMeasure", tol: float = MASS_TOL) -> bool:
        if self.signature != other.signature or self.n != other.n:
            return False
        keys = set(self.weights) | set(other.weights)
        return all(abs(self.mass(m) - other.mass(m)) <= tol for m in keys)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteMeasure):
            return NotImplemented
        return (
            self.signature == other.signature
            and self.n == other.n
            and self.weights == other.weights
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"FiniteMeasure({self.signature}, n={self.n}, "
            f"|support|={len(self.weights)}, total={self.total_mass:.6g})"
        )


class OrbitWeights(Value):
    """Nonnegative weights on orbits, the mixing coefficients over U_Y."""

    signature: Signature
    n: int
    p: dict = dict

    def mass(self, oid: OrbitId) -> float:
        return self.p.get(oid, 0.0)

    def total(self) -> float:
        return math.fsum(self.p.values())

    def approx_equal(self, other: "OrbitWeights", tol: float = MASS_TOL) -> bool:
        if self.signature != other.signature or self.n != other.n:
            return False
        keys = set(self.p) | set(other.p)
        return all(abs(self.mass(y) - other.mass(y)) <= tol for y in keys)


def urn_measure(k: int, n: int) -> FiniteMeasure:
    """Uniform measure on the k-subsets of [n] (signature (1))."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} outside 0..{n}")
    mass = 1.0 / math.comb(n, k)
    weights = {
        Structure.from_tuples(SIG_SET, n, [subset]): mass
        for subset in itertools.combinations(range(1, n + 1), k)
    }
    return FiniteMeasure(SIG_SET, n, weights)


def is_exchangeable(mu: FiniteMeasure) -> bool:
    """Whether the mass is constant across each isomorphism class."""
    return _constant_on(mu, _orbit_groups(mu.support()))


def _constant_on(mu: FiniteMeasure, groups: list[list[Structure]]) -> bool:
    """Whether the mass is constant, within tolerance, on each group."""
    for members in groups:
        mean = math.fsum(mu.mass(m) for m in members) / len(members)
        if any(abs(mu.mass(m) - mean) > EXCHANGEABLE_TOL for m in members):
            return False
    return True


def symmetrize(mu: FiniteMeasure) -> FiniteMeasure:
    """Average the mass over each orbit; orbit totals are preserved."""
    weights: dict[Structure, float] = {}
    for members in _orbit_groups(mu.support()):
        mean = math.fsum(mu.mass(m) for m in members) / len(members)
        for m in members:
            weights[m] = mean
    return FiniteMeasure(mu.signature, mu.n, weights)


def decompose_exchangeable(mu: FiniteMeasure) -> OrbitWeights:
    """Unique orbit weights with mu = sum of p_Y * (uniform on Y)."""
    if not mu.is_probability:
        raise ValueError(f"not a probability measure (total {mu.total_mass})")
    groups = _orbit_groups(mu.support())
    if not _constant_on(mu, groups):
        raise ValueError("measure is not exchangeable within tolerance")
    # each orbit meets the support, so has positive mass; canonical member first
    p = {OrbitId(serialize(members[0])): math.fsum(map(mu.mass, members)) for members in groups}
    return OrbitWeights(mu.signature, mu.n, p)


def measure_to_payload(mu: FiniteMeasure) -> dict:
    return {
        "signature": str(mu.signature),
        "n": mu.n,
        "entries": [
            {"structure": text, "mass": mu.weights[m]}
            for text, m in zip(*mu._sorted_support)
        ],
    }


def _json_object(value, field: str) -> dict:
    """``value``, the parsed JSON value ``field``, if an object."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be an object, got {json.dumps(value):.60}")
    return value


def _json_objects(value, field: str) -> list:
    """``value``, the parsed JSON field ``field``, if an array of objects."""
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise ValueError(f"{field} must be an array of objects, got {json.dumps(value):.60}")
    return value


def measure_from_payload(payload: dict) -> FiniteMeasure:
    """Fields are type-checked rather than coerced: ``entries`` an array of
    objects, ``n`` a JSON integer, each ``structure`` a string and each
    ``mass`` a number (not a bool or a string)."""
    try:
        signature = Signature.parse(payload["signature"])
        n = payload["n"]
        entries = _json_objects(payload["entries"], "measure field 'entries'")
        entries = [(entry["structure"], entry["mass"]) for entry in entries]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"measure JSON missing field: {exc}") from None
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"measure field 'n' must be an integer, got {n!r}")
    weights: dict[Structure, float] = {}
    for text, mass in entries:
        if not isinstance(text, str):
            raise ValueError(f"measure field 'structure' must be a string, got {text!r}")
        if isinstance(mass, bool) or not isinstance(mass, numbers.Real):
            raise ValueError(f"measure field 'mass' must be a number, got {mass!r}")
        m = parse(text)
        if m in weights:
            raise ValueError(f"duplicate entry: {text!r}")
        weights[m] = mass
    return FiniteMeasure(signature, n, weights)


def measure_to_json(mu: FiniteMeasure) -> str:
    """``json.dumps(measure_to_payload(mu), indent=2)``, laid out by
    :func:`_measure_json`."""
    texts, members = mu._sorted_support
    return _measure_json(mu.signature, mu.n, texts, map(mu.weights.__getitem__, members))


def _measure_json(signature: Signature, n: int, texts: list[str], masses) -> str:
    """The measure JSON of the entries ``texts[i]`` with mass ``masses[i]``,
    in the given order, laid out in one join: a structure text needs no
    escaping, and a mass, a finite float, is written as its repr."""
    head = f'{{\n  "signature": "{signature}",\n  "n": {n},\n  "entries": ['
    if not texts:
        return head + "]\n}"
    opening = '\n    {\n      "structure": "'
    leads = itertools.chain([opening], itertools.repeat("\n    }," + opening))
    pieces = zip(leads, texts, itertools.repeat('",\n      "mass": '), map(repr, masses))
    return head + "".join(itertools.chain.from_iterable(pieces)) + "\n    }\n  ]\n}"


def measure_from_json(text: str) -> FiniteMeasure:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed measure JSON: {exc}") from None
    return measure_from_payload(_json_object(payload, "measure JSON"))


def orbit_weights_to_json(p: OrbitWeights) -> str:
    entries = sorted(p.p.items(), key=lambda kv: kv[0].canonical)
    payload = {
        "signature": str(p.signature),
        "n": p.n,
        "entries": [{"orbit": oid.canonical, "p": mass} for oid, mass in entries],
    }
    return json.dumps(payload, indent=2)


def point_mass(m: Structure) -> FiniteMeasure:
    return FiniteMeasure(m.signature, m.n, {m: 1.0})
