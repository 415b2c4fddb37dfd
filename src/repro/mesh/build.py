"""Derivation of edge/face connectivity from an element list (vectorized).

These routines build the edge-based data structures of paper §3: the global
edge list, the element→edge incidence (six edges per tetrahedron), the
edge→element and vertex→edge adjacency lists ("these lists eliminate
extensive searches and are crucial to the efficiency of the overall adaption
scheme"), and the boundary faces.
"""

from __future__ import annotations

import numpy as np

from .topology import LOCAL_EDGES, LOCAL_FACES

__all__ = [
    "build_edges",
    "build_faces",
    "csr_from_pairs",
    "invert_to_csr",
]


def build_edges(elems: np.ndarray, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """Extract unique edges and the ``(ne, 6)`` element→edge map.

    Edges are returned as an ``(nedge, 2)`` array with the lower vertex id
    first, sorted lexicographically, so edge ids are a deterministic
    function of the element list.
    """
    elems = np.asarray(elems)
    pairs = elems[:, LOCAL_EDGES]  # (ne, 6, 2)
    lo = pairs.min(axis=2).astype(np.int64)
    hi = pairs.max(axis=2).astype(np.int64)
    keys = lo * nv + hi  # unique scalar key per undirected edge
    uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
    edges = np.column_stack([uniq // nv, uniq % nv]).astype(np.int64)
    elem2edge = inverse.reshape(elems.shape[0], 6).astype(np.int64)
    return edges, elem2edge


def build_faces(
    elems: np.ndarray, nv: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify the triangular faces of a tetrahedral mesh.

    Returns
    -------
    bnd_faces:
        ``(nb, 3)`` vertex triples of faces belonging to exactly one element.
    bnd_elem:
        ``(nb,)`` owning element of each boundary face.
    dual_pairs:
        ``(ni, 2)`` element pairs sharing each interior face — exactly the
        edge list of the dual graph (paper §4.1).

    Raises
    ------
    ValueError
        If any face is shared by more than two elements (non-manifold mesh).
    """
    elems = np.asarray(elems)
    ne = elems.shape[0]
    if ne == 0:
        empty3 = np.empty((0, 3), dtype=np.int64)
        empty1 = np.empty(0, dtype=np.int64)
        return empty3, empty1, np.empty((0, 2), dtype=np.int64)
    tri = elems[:, LOCAL_FACES].astype(np.int64)  # (ne, 4, 3)
    lo = tri.min(axis=2)
    hi = tri.max(axis=2)
    mid = tri.sum(axis=2) - lo - hi
    keys = (lo * nv + mid) * nv + hi  # the sorted vertex triple as one key
    flat = keys.ravel()
    owner = np.repeat(np.arange(ne, dtype=np.int64), 4)

    order = np.argsort(flat, kind="stable")
    skeys = flat[order]
    sown = owner[order]
    # group boundaries over the sorted keys
    new_grp = np.empty(skeys.shape[0], dtype=bool)
    new_grp[0] = True
    new_grp[1:] = skeys[1:] != skeys[:-1]
    starts = np.flatnonzero(new_grp)
    counts = np.diff(np.append(starts, skeys.shape[0]))
    if np.any(counts > 2):
        bad = skeys[starts[counts > 2]][0]
        raise ValueError(f"non-manifold mesh: face key {bad} in >2 elements")

    b_idx = starts[counts == 1]
    i_idx = starts[counts == 2]
    bnd_elem = sown[b_idx]
    bkeys = skeys[b_idx]
    v2 = bkeys % nv
    v1 = (bkeys // nv) % nv
    v0 = bkeys // (nv * nv)
    bnd_faces = np.column_stack([v0, v1, v2])
    dual_pairs = np.column_stack([sown[i_idx], sown[i_idx + 1]])
    return bnd_faces, bnd_elem, dual_pairs


def csr_from_pairs(
    rows: np.ndarray, vals: np.ndarray, nrows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Build a CSR adjacency (``ptr``, ``dat``) from (row, value) pairs.

    Values within a row keep ascending ``vals`` order, making the structure
    deterministic.
    """
    rows = np.asarray(rows, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.int64)
    # one sort on a (row, value) key: values differ by less than ``span``,
    # so the key orders by row, then value; equal keys are equal pairs, so
    # any sort gives the lexsort((vals, rows)) result
    span = vals.max(initial=0) - vals.min(initial=0) + 1
    order = np.argsort(rows * span + vals)
    ptr = np.zeros(nrows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nrows), out=ptr[1:])
    return ptr, vals[order]


def invert_to_csr(mapping: np.ndarray, nrows: int) -> tuple[np.ndarray, np.ndarray]:
    """Invert a dense ``(n, k)`` map (e.g. elem→edge) into CSR (edge→elem)."""
    mapping = np.asarray(mapping, dtype=np.int64)
    n, k = mapping.shape
    owners = np.repeat(np.arange(n, dtype=np.int64), k)
    return csr_from_pairs(mapping.ravel(), owners, nrows)
