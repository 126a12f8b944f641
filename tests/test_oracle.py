"""The compiled RK4 oracle: its matrix A(lambda) against a per-incidence
reference assembly, and the number of determinants it takes per root."""

from __future__ import annotations

import numpy as np
import pytest

from graphspectra import coupling as cp
from graphspectra import graphs as gr
from graphspectra import spectra as sp
from graphspectra.edges import Dirac


def reference_matrix(g, coupling, transfers, index):
    """Vertex-condition rows written out per incidence, in phase-rotated
    coordinates: comp^H Gamma0 = 0 and unit^H Gamma1 - mat unit^H Gamma0 = 0."""
    edge_ids = sorted(e.id for e in g.edges)
    col_of = {eid: 2 * i for i, eid in enumerate(edge_ids)}
    n = 2 * len(edge_ids)
    dirac = isinstance(g.model, Dirac)
    inc = gr.incidence_sets(g)
    rows = []
    for v in sorted(g.vertices):
        entries = inc[v]
        phases = np.array([1.0 if (not dirac or e.endpoint == 0) else 1.0j
                           for e in entries])
        block = coupling.block(v)
        basis = phases.conj()[:, None] * block.basis
        unit = basis / np.linalg.norm(basis, axis=0)
        q = np.linalg.svd(basis, full_matrices=True)[0]
        comp = q[:, basis.shape[1]:]
        g0 = np.zeros((len(entries), n), dtype=complex)
        g1 = np.zeros((len(entries), n), dtype=complex)
        for i, entry in enumerate(entries):
            col = col_of[entry.edge]
            t_mat = transfers[entry.edge][index]
            first, second = ((np.array([1.0, 0.0]), np.array([0.0, 1.0]))
                             if entry.endpoint == 0 else (t_mat[0], t_mat[1]))
            g0[i, col:col + 2] = first
            g1[i, col:col + 2] = (g.model.c if dirac else 1.0) * entry.sign * second
        for k in range(comp.shape[1]):
            rows.append(comp[:, k].conj() @ g0)
        proj0 = unit.conj().T @ g0
        proj1 = unit.conj().T @ g1
        for i in range(unit.shape[1]):
            rows.append(proj1[i] - block.matrix[i] @ proj0)
    return np.array(rows)


def delta(g, alpha):
    return cp.delta_coupling(g, gr.alpha_map(g, alpha))


def laplacian_star():
    g = gr.star(3, lengths=[1.0, 0.7, 1.3])
    return g, delta(g, 0.0), (-2.0, 3.5, 20.0)


def dirac_star():
    g = gr.star(3, lengths=[1.0, 0.7, 1.3], model=Dirac(1.0))
    return g, delta(g, 0.5), (-2.0, 0.3, 1.7)


def dirac_star_custom_centre():
    g = gr.star(3, lengths=[1.0, 0.7, 1.3], model=Dirac(1.5))
    vectors = [[1.0, 1j, 0.5], [0.3, -0.2j, 1.0 + 0.4j]]
    matrix = np.array([[0.7, 0.2 - 0.3j], [0.2 + 0.3j, -0.4]])
    return g, cp.custom_coupling(g, {"center": (vectors, matrix)}), (-3.0, 0.4, 2.5)


def short_edge_chain():
    g = gr.geometric_chain(0.5, 0.5, 8)
    return g, delta(g, 0.3), (-1.0, 5.0, 40.0)


@pytest.mark.parametrize("make", [laplacian_star, dirac_star,
                                  dirac_star_custom_centre, short_edge_chain])
@pytest.mark.parametrize("mesh", [2000, 4000])
def test_compiled_matrix_matches_reference(make, mesh):
    g, coupling, lams = make()
    oracle = sp._CompiledOracle(g, coupling)
    transfers = sp._transfer_matrices(g, np.array(lams), mesh)
    for i, lam in enumerate(lams):
        want = reference_matrix(g, coupling, transfers, i)
        got = oracle.matrices([lam], mesh)[0]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # A grid block assembles the same matrices as one lambda at a time.
    block = oracle.matrices(np.array(lams), mesh).copy()
    for i, lam in enumerate(lams):
        np.testing.assert_array_equal(block[i], oracle.matrices([lam], mesh)[0])


def test_oracle_determinants_per_root(monkeypatch):
    calls = []
    det = np.linalg.det

    def counted(a):
        calls.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    g = gr.random_graph(7, 15)
    oracle = sp.oracle_eigenvalues(g, delta(g, 0.0), (-1.0, 20.0))
    assert len(oracle.roots) > 0
    assert len(calls) <= 25 * len(oracle.roots)
