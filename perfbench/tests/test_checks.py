"""Checker self-test: each injected error is counted as a failure, and a
clean small instance records none."""

import dataclasses

import graphspectra as gs
import pytest

import checks as ck
from workloads import CriteriaTree, _grid_miss_confirmer, _roots

STAR_WINDOW = (-5.0, 20.0)


@pytest.fixture(scope="module")
def star():
    g = gs.star(3, lengths=[1.0, 0.7, 1.3])
    coupling = gs.delta_coupling(g, gs.alpha_map(g, 0.0))
    scan = gs.scan_spectrum(g, coupling, STAR_WINDOW)
    oracle = gs.oracle_eigenvalues(g, coupling, STAR_WINDOW)
    return g, coupling, scan, oracle


def _compare(star, krein):
    g, coupling, scan, oracle = star
    confirm = _grid_miss_confirmer(gs, g, coupling, STAR_WINDOW, {})
    return ck.compare_routes("test", "star(3)", krein, _roots(oracle),
                             scan.excluded, confirm, STAR_WINDOW, 600)


def _failures(checks):
    return [c for c in checks if c.status == ck.FAIL]


def test_clean_star_has_no_failures(star):
    checks = _compare(star, _roots(star[2]))
    assert len(star[2].roots) >= 4
    assert _failures(checks) == []
    assert ck.tally(checks)["passed"] == len(star[2].roots)


def test_shifted_root_fails(star):
    krein = _roots(star[2])
    values = list(krein.values)
    values[0] += 1e-5
    failed = _failures(_compare(star, ck.Roots(tuple(values), krein.multiplicities)))
    assert {c.check for c in failed} == {"no-oracle-match", "no-krein-match"}
    assert all(c.defect is None for c in failed)


def test_dropped_root_fails(star):
    krein = _roots(star[2])
    failed = _failures(_compare(star, ck.Roots(krein.values[1:],
                                               krein.multiplicities[1:])))
    assert [c.check for c in failed] == ["no-krein-match"]
    assert failed[0].defect is None


def test_multiplicity_change_fails(star):
    krein = _roots(star[2])
    assert krein.multiplicities[0] == 1
    mults = (2,) + krein.multiplicities[1:]
    failed = _failures(_compare(star, ck.Roots(krein.values, mults)))
    assert [(c.check, c.got, c.want) for c in failed] == [("multiplicity", 2, 1)]
    assert failed[0].defect is None


def untimed(name, fn, *args):
    return fn(*args)


def _small_tree_inputs():
    g = gs.binary_tree(3)
    lengths = [0.3 + 0.1 * i for i in range(len(g.edges))]
    edges = tuple((e.id, e.source, e.target, ell) for e, ell in zip(g.edges, lengths))
    alpha = {v: 0.1 * i for i, v in enumerate(sorted(g.vertices))}
    return {"seed": 0, "vertices": g.vertices, "edges": edges, "alpha": alpha}


def test_clean_binary_tree_has_no_failures():
    workload = CriteriaTree()
    inputs = _small_tree_inputs()
    checks = workload.check(gs, inputs, workload.sweep(gs, inputs, untimed), None)
    assert _failures(checks) == []
    assert ck.tally(checks)["passed"] == 14 + 15 + 15 + 1 + 5


def test_scaled_weight_fails():
    workload = CriteriaTree()
    inputs = _small_tree_inputs()
    dl, lmin, verdicts = workload.sweep(gs, inputs, untimed)
    key = next(iter(sorted(dl.b)))
    b = dict(dl.b)
    b[key] *= 1 + 1e-9
    checks = workload.check(gs, inputs, (dataclasses.replace(dl, b=b), lmin, verdicts),
                            None)
    failed = _failures(checks)
    assert len(failed) >= 1
    assert failed[0].check.startswith("b(")
    assert all(c.defect is None for c in failed)


def test_potential_is_checked_against_the_diagonal_it_comes_from():
    workload = CriteriaTree()
    inputs = _small_tree_inputs()
    inputs["alpha"] = {**inputs["alpha"], "n1": 2.5e-4}
    dl, lmin, verdicts = workload.sweep(gs, inputs, untimed)
    assert _failures(workload.check(gs, inputs, (dl, lmin, verdicts), None)) == []
    c = dl.c.copy()
    c[dl.labels.index("n1")] += 1e-9
    checks = workload.check(gs, inputs, (dataclasses.replace(dl, c=c), lmin, verdicts),
                            None)
    failed = _failures(checks)
    assert [f.check for f in failed if f.check.startswith("c(")] == ["c(n1)"]
    assert all(f.defect is None for f in failed)


def test_grid_miss_needs_the_oracle_to_confirm():
    window = (0.0, 6.0)                      # cells of width 0.01
    krein = ck.Roots((1.001, 1.004), (1, 1))
    oracle = ck.Roots((1.001,), (1,))
    confirmed = ck.compare_routes("t", "i", krein, oracle, (), lambda lam: 1.004,
                                  window, 601)
    assert [c.defect for c in _failures(confirmed)] == ["oracle-grid-miss"]
    unconfirmed = ck.compare_routes("t", "i", krein, oracle, (), lambda lam: None,
                                    window, 601)
    assert [c.defect for c in _failures(unconfirmed)] == [None]
    apart = ck.Roots((1.001, 1.5), (1, 1))
    far = ck.compare_routes("t", "i", apart, oracle, (), lambda lam: 1.5, window, 601)
    assert [c.defect for c in _failures(far)] == [None]


def test_chain_drift_is_known_only_at_its_size():
    drifted = ck.lowest_root_checks("t", "chain", {"krein": (3.117916753,),
                                                   "oracle": (3.1179113521108395,)})
    assert [(c.status, c.defect) for c in drifted] == [
        (ck.FAIL, "short-edge-drift"), (ck.PASS, None)]
    wrong = ck.lowest_root_checks("t", "chain", {"krein": (3.2,), "oracle": ()})
    assert [(c.status, c.defect) for c in wrong] == [(ck.FAIL, None), (ck.FAIL, None)]


def test_cli_csv_flags_are_checked():
    text = ("method,lambda,residual,multiplicity,flag\n"
            "krein,2.0,1e-10,1,agrees-oracle\n"
            "krein,3.0,1e-10,1,no-oracle-match\n"
            "krein,4.0,nan,0,undetermined-by-matching\n"
            "oracle,2.0,1e-15,1,ok\n"
            "oracle,3.0,1e-15,1,ok\n")
    krein, flags, oracle, poles = ck.parse_spectrum_csv(text)
    assert poles == (4.0,)
    checks = ck.compare_routes("t", "i", krein, oracle, poles, lambda lam: None,
                               (0.0, 10.0), 600, flags=flags)
    assert [(c.lam, c.check, c.status) for c in checks] == [
        (2.0, "multiplicity", ck.PASS), (3.0, "no-oracle-match", ck.FAIL)]
