"""Galois-orbit tables for CM types and the double-transitivity certificate.

The bit-0 part of Gamma preserves the signature and acts through the coset
action; the full group additionally complements subsets (rho).  A Gamma orbit
therefore joins a subset orbit with the complement of that orbit, which lands
in the stratum of complementary size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galois_model import UnitaryGaloisModel
from .permgroup import is_k_transitive, lex_unrank, orbits_on_subsets


@dataclass
class StratumOrbits:
    """Orbit data for one subset size under one group choice."""

    count: int
    sizes: list
    reps: list  # canonical representatives as sorted index tuples

    def to_dict(self):
        return {"count": self.count, "sizes": self.sizes,
                "reps": [list(r) for r in self.reps]}


@dataclass
class OrbitTable:
    """Per-size orbit statistics under the signature-preserving group (bit 0)
    and under the full group including rho.

    Full-group reps may live in the complementary stratum; equal reps across
    the two strata identify merged orbits.
    """

    entries: dict  # eps -> {"bit0": StratumOrbits, "full": StratumOrbits}

    def to_dict(self, eps_max: int):
        """The strata up to ``eps_max``."""
        return {str(eps): {k: v.to_dict() for k, v in entry.items()}
                for eps, entry in sorted(self.entries.items())
                if eps <= eps_max}


def _tuples(subsets: np.ndarray) -> list:
    return [tuple(row) for row in subsets.tolist()]


def orbit_table(model: UnitaryGaloisModel, eps_max: int) -> OrbitTable:
    """Orbits of CM types for every size up to ``eps_max``.

    Complementation maps the subset of lexicographic rank r to the subset of
    rank C(n, eps) - 1 - r in the complementary stratum, so it reverses the
    order within a stratum.
    """
    n = model.n
    rows = model.generator_action_rows
    entries = {}
    for eps in range(min(eps_max, n) + 1):
        labels = orbits_on_subsets(rows, n, eps)
        reps, sizes = np.unique(labels, return_counts=True)
        bit0 = StratumOrbits(len(reps), sizes.tolist(),
                             _tuples(lex_unrank(reps, n, eps)))
        if 2 * eps < n:
            # rho moves this stratum wholesale to size n - eps; the shorter
            # rep of the merged orbit is the bit-0 one
            full = bit0
        elif 2 * eps > n:
            # the shorter rep is the complement of the orbit's largest
            # member, whose rank is where the label first occurs in reverse
            _, first = np.unique(labels[::-1], return_index=True)
            full = StratumOrbits(len(reps), bit0.sizes,
                                 _tuples(lex_unrank(first, n, n - eps)))
        else:
            # self-complementary stratum: each orbit merges with the orbit of
            # its complement
            merged, sizes = np.unique(np.minimum(labels, labels[::-1]),
                                      return_counts=True)
            full = StratumOrbits(len(merged), sizes.tolist(),
                                 _tuples(lex_unrank(merged, n, eps)))
        entries[eps] = {"bit0": bit0, "full": full}
    return OrbitTable(entries)


CRITERION_MET_TEXT = (
    "Certified: the group acts 2-transitively on the cosets of the "
    "subgroup, so CM types of each signature with at most two conjugated "
    "places form a single Galois orbit and the double-transitivity "
    "criterion applies to every CM type of the corresponding unitary CM "
    "field. This certificate checks the group-theoretic hypotheses only."
)
CRITERION_NOT_MET_TEXT = (
    "Not certified: the action on cosets is not 2-transitive, so the "
    "double-transitivity criterion does not apply. This is not evidence "
    "against the conjecture; the criterion is sufficient, not necessary."
)


@dataclass
class ColmezCertificate:
    """Machine-readable conclusion of the double-transitivity criterion."""

    two_transitive: bool
    pair_orbit_count: int
    orbit_counts: dict  # eps in {0,1,2} -> bit-0 orbit count
    criterion_met: bool
    statement: str

    def to_dict(self):
        return {
            "two_transitive": self.two_transitive,
            "pair_orbit_count": self.pair_orbit_count,
            "orbit_counts": {str(k): v for k, v in sorted(self.orbit_counts.items())},
            "criterion_met": self.criterion_met,
            "statement": self.statement,
        }


def certify(model: UnitaryGaloisModel, table: OrbitTable) -> ColmezCertificate:
    """Run the 2-transitivity test; the orbit counts of the strata <= 2 are
    read from ``table``, which must list them."""
    n = model.n
    rows = model.generator_action_rows
    if n >= 2:
        two_transitive, pair_orbits = is_k_transitive(rows, n, 2)
    else:
        two_transitive, pair_orbits = False, 0
    counts = {eps: table.entries[eps]["bit0"].count
              for eps in range(min(2, n) + 1)}
    met = two_transitive
    return ColmezCertificate(
        two_transitive=two_transitive,
        pair_orbit_count=pair_orbits,
        orbit_counts=counts,
        criterion_met=met,
        statement=CRITERION_MET_TEXT if met else CRITERION_NOT_MET_TEXT,
    )
