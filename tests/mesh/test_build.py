"""Unit tests for connectivity derivation."""

import numpy as np
import pytest

from repro.mesh import box_mesh, single_tet, two_tets
from repro.mesh.build import build_edges, build_faces, csr_from_pairs, invert_to_csr
from repro.mesh.topology import LOCAL_FACES


def test_single_tet_counts():
    m = single_tet()
    assert m.nv == 4
    assert m.ne == 1
    assert m.nedges == 6
    assert m.nbnd == 4
    assert m.dual_pairs.shape == (0, 2)


def test_two_tets_counts():
    m = two_tets()
    assert m.ne == 2
    assert m.nedges == 9  # 6 + 6 - 3 shared on the common face
    assert m.nbnd == 6  # 8 faces total, 2 glued into 1 interior face
    assert m.dual_pairs.tolist() == [[0, 1]]


def test_build_edges_deterministic_order():
    elems = np.array([[3, 1, 0, 2]])
    edges, elem2edge = build_edges(elems, 4)
    # lexicographic over (lo, hi)
    assert edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
    # local edge order of element (3,1,0,2): pairs (3,1),(3,0),(3,2),(1,0),(1,2),(0,2)
    assert elem2edge.tolist() == [[4, 2, 5, 0, 3, 1]]


def test_build_faces_nonmanifold_rejected():
    # three tets all sharing the face (0,1,2)
    elems = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    with pytest.raises(ValueError, match="non-manifold"):
        build_faces(elems, 6)


def test_csr_from_pairs_groups_and_orders():
    ptr, dat = csr_from_pairs(
        rows=np.array([1, 0, 1, 2, 0]), vals=np.array([9, 5, 3, 7, 1]), nrows=3
    )
    assert ptr.tolist() == [0, 2, 4, 5]
    assert dat.tolist() == [1, 5, 3, 9, 7]


def _csr_from_pairs_old(rows, vals, nrows):
    """The lexsort formulation."""
    order = np.lexsort((vals, rows))
    ptr = np.zeros(nrows + 1, dtype=np.int64)
    np.add.at(ptr, rows[order] + 1, 1)
    np.cumsum(ptr, out=ptr)
    return ptr, vals[order]


def _build_faces_old(elems, nv):
    """Face keys from a full sort of each face's vertex triple."""
    ne = elems.shape[0]
    if ne == 0:
        return (np.empty((0, 3), dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty((0, 2), dtype=np.int64))
    tri = np.sort(elems[:, LOCAL_FACES], axis=2).astype(np.int64)
    flat = ((tri[..., 0] * nv + tri[..., 1]) * nv + tri[..., 2]).ravel()
    owner = np.repeat(np.arange(ne, dtype=np.int64), 4)
    order = np.argsort(flat, kind="stable")
    skeys, sown = flat[order], owner[order]
    starts = np.flatnonzero(np.r_[True, skeys[1:] != skeys[:-1]])
    counts = np.diff(np.append(starts, skeys.shape[0]))
    if np.any(counts > 2):
        raise ValueError("non-manifold mesh")
    b_idx, i_idx = starts[counts == 1], starts[counts == 2]
    bkeys = skeys[b_idx]
    bnd = np.column_stack([bkeys // (nv * nv), (bkeys // nv) % nv, bkeys % nv])
    return bnd, sown[b_idx], np.column_stack([sown[i_idx], sown[i_idx + 1]])


def _element_lists():
    rng = np.random.default_rng(5)
    yield np.empty((0, 4), dtype=np.int64), 4  # empty mesh
    m = box_mesh(3, 2, 2)
    yield m.elems, m.nv
    yield m.elems[rng.permutation(m.ne)][:, rng.permutation(4)], m.nv
    for _ in range(20):
        nv = int(rng.integers(4, 30))
        ne = int(rng.integers(1, 40))
        elems = np.array([rng.choice(nv, size=4, replace=False) for _ in range(ne)])
        yield elems, nv


def test_build_faces_matches_sort_formulation():
    for elems, nv in _element_lists():
        try:
            want = _build_faces_old(elems, nv)
        except ValueError:
            with pytest.raises(ValueError, match="non-manifold"):
                build_faces(elems, nv)
            continue
        for got, exp in zip(build_faces(elems, nv), want):
            assert got.dtype == exp.dtype and np.array_equal(got, exp)


def test_csr_from_pairs_matches_lexsort_formulation():
    rng = np.random.default_rng(6)
    for elems, nv in _element_lists():
        edges, elem2edge = build_edges(elems, nv)
        nedge = edges.shape[0]
        cases = [
            (edges.ravel(), np.repeat(np.arange(nedge, dtype=np.int64), 2), nv),
            (elem2edge.ravel(), np.repeat(np.arange(elems.shape[0]), 6), nedge),
        ]
        # unsorted, repeated and negative values, empty rows
        m = int(rng.integers(0, 50))
        cases.append((rng.integers(0, 7, size=m), rng.integers(-4, 9, size=m), 9))
        for rows, vals, nrows in cases:
            rows = rows.astype(np.int64)
            vals = vals.astype(np.int64)
            got = csr_from_pairs(rows, vals, nrows)
            for g, w in zip(got, _csr_from_pairs_old(rows, vals, nrows)):
                assert np.array_equal(g, w)


def test_invert_to_csr_roundtrip():
    mapping = np.array([[0, 2], [2, 1], [0, 1]])
    ptr, dat = invert_to_csr(mapping, 3)
    # value v -> rows where it appears
    groups = {v: sorted(dat[ptr[v] : ptr[v + 1]].tolist()) for v in range(3)}
    assert groups == {0: [0, 2], 1: [1, 2], 2: [0, 1]}
