import math

import numpy as np

from cmred.certifier import certify, orbit_table
from cmred.galois_model import UnitaryGaloisModel
from cmred.permgroup import close_generators
from orbit_oracle import oracle_orbit_table
from perm_oracle import build_zoo_model


def certificate(spec):
    """The certificate of a zoo model, its strata <= 2 read from one table."""
    m = build_zoo_model(spec)
    return certify(m, orbit_table(m, 2))


def test_sym4_orbit_table():
    m = build_zoo_model("sym:4")
    table = orbit_table(m, 4)
    assert table.entries[2]["bit0"].count == 1
    assert table.entries[2]["bit0"].sizes == [6]
    # eps = 1 and eps = 3 strata are one full-group orbit: same canonical rep
    assert table.entries[1]["full"].reps == table.entries[3]["full"].reps == [(0,)]


def test_cyclic4_orbit_table():
    m = build_zoo_model("cyclic:4")
    table = orbit_table(m, 2)
    strat = table.entries[2]["bit0"]
    assert strat.count == 2
    assert sorted(strat.sizes) == [2, 4]
    assert strat.reps == [(0, 1), (0, 2)]
    # both orbits are complement-closed, so nothing merges at eps = n/2
    assert table.entries[2]["full"].count == 2


def test_cyclic6_middle_stratum_merges_under_complement():
    m = build_zoo_model("cyclic:6")
    table = orbit_table(m, 3)
    bit0 = table.entries[3]["bit0"]
    full = table.entries[3]["full"]
    assert bit0.count == 4
    assert sorted(bit0.sizes) == [2, 6, 6, 6]
    # the two non-self-complementary 6-orbits merge into one 12-orbit
    assert full.count == 3
    assert sorted(full.sizes) == [2, 6, 12]
    assert sum(full.sizes) == math.comb(6, 3)


def test_orbit_sizes_partition_every_stratum():
    for spec in ("sym:4", "cyclic:5", "dihedral:5", "psl2:3"):
        m = build_zoo_model(spec)
        table = orbit_table(m, m.n)
        for eps, entry in table.entries.items():
            assert sum(entry["bit0"].sizes) == math.comb(m.n, eps)
            assert sum(entry["full"].sizes) == math.comb(m.n, eps)


def test_bit0_refines_full_and_strata_pair():
    from cmred.permgroup import orbits_on_subsets

    for spec in ("sym:4", "cyclic:6", "dihedral:4", "alt:4", "cyclic:8"):
        m = build_zoo_model(spec)
        table = orbit_table(m, m.n)
        rows = m.generator_action_rows
        for eps, entry in table.entries.items():
            # strata pair up under complementation
            assert entry["bit0"].count == table.entries[m.n - eps]["bit0"].count
            if 2 * eps != m.n:
                assert entry["full"].count == entry["bit0"].count
                assert entry["full"].sizes == entry["bit0"].sizes
            else:
                # every merged orbit is a union of whole bit-0 orbits
                _, sizes = np.unique(orbits_on_subsets(rows, m.n, eps),
                                     return_counts=True)
                size_of = dict(enumerate(sizes.tolist()))
                assert entry["full"].count <= entry["bit0"].count
                assert sum(entry["full"].sizes) == math.comb(m.n, eps)
                for size in entry["full"].sizes:
                    assert size in (s for s in
                                    [a + b for a in size_of.values()
                                     for b in size_of.values()] + list(size_of.values()))


def test_orbit_table_matches_oracle():
    # covers 2 eps < n, 2 eps > n (complement reps) and 2 eps = n (merging)
    for spec in ("cyclic:6", "dihedral:12", "sym:4"):
        m = build_zoo_model(spec)
        expected = oracle_orbit_table(m.generator_action_rows, m.n, m.n)
        assert orbit_table(m, m.n).to_dict(m.n) == expected, spec


def test_certify_positive():
    cert = certificate("sym:5")
    assert cert.two_transitive and cert.criterion_met
    assert cert.pair_orbit_count == 1
    assert cert.orbit_counts == {0: 1, 1: 1, 2: 1}
    assert "2-transitively" in cert.statement


def test_certify_negative():
    cert = certificate("cyclic:5")
    assert not cert.two_transitive and not cert.criterion_met
    assert cert.pair_orbit_count == 4
    assert "not 2-transitive" in cert.statement


def test_certify_sp4():
    for sign in "+-":
        cert = certificate(f"sp4f2:{sign}")
        assert cert.criterion_met
        assert cert.orbit_counts == {0: 1, 1: 1, 2: 1}


def test_two_transitive_implies_single_small_orbits():
    for spec in ("sym:3", "sym:4", "alt:4", "psl2:5", "pgl2:3", "psu3:2"):
        cert = certificate(spec)
        if cert.two_transitive:
            assert all(v == 1 for v in cert.orbit_counts.values()), spec


def test_certificates_deterministic():
    a = certificate("sym:4").to_dict()
    b = certificate("sym:4").to_dict()
    assert a == b
    ta = orbit_table(build_zoo_model("cyclic:6"), 3).to_dict(3)
    tb = orbit_table(build_zoo_model("cyclic:6"), 3).to_dict(3)
    assert ta == tb
