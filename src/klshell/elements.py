"""Element quadrature, CS/CAS element stiffness, loads, constraints, assembly.

Two quadratic element types share one code path:

* ``cs``  -- compatible strains evaluated at the quadrature points;
* ``cas`` -- membrane strain rows evaluated at the four element corners and
  interpolated bilinearly across the element, which makes the assumed
  membrane strains C0-continuous across element boundaries.  The bending
  part is identical to ``cs``.

Element kernels run vectorized over batches of elements, the knot spans of
a patch.  Every knot span is an element, so the stiffness pattern is fixed
by the control grid alone.  Assembly, the one stiffness path, computes the
parts of a batch at once, one per CPU, on a cached thread pool, adds the
element blocks in a fixed order into a control-point stencil, mirrors its
lower slots through one neighbour table of the control grid and reads the
stiffness matrix off it in 3x3 blocks (see ``assemble``); constraint
elimination (with the ``rotation_rows`` ties) and the solver take it as it is.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import SingularGeometryError
from .nurbs import NurbsSurface, rational_eval
from .shell import ShellMaterial, bending_rows, constitutive_voigt, frame_arrays, membrane_rows

CS = "cs"
CAS = "cas"
QUAD_ORDERS = (2, 3)  # Gauss points per direction of the element rules

# parent-square corners in (u, v), u-major; L columns follow this order
_CORNERS = np.array([[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]])


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Tensor-product rule on the parent square [-1, 1]^2, u-major point order."""

    points: np.ndarray   # (nq, 2)
    weights: np.ndarray  # (nq,)


@functools.cache
def _line_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre points and weights on [-1, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def tensor_rule(n_per_dir: int) -> QuadratureRule:
    """Read-only Gauss-Legendre tensor rule, n >= 1 points per direction, built once."""
    x, w = _line_rule(n_per_dir)
    pts = np.array([(xi, eta) for xi in x for eta in x])
    wts = np.array([wi * wj for wi in w for wj in w])
    pts.flags.writeable = wts.flags.writeable = False
    return QuadratureRule(pts, wts)


def gauss_rule(n_per_dir: int) -> QuadratureRule:
    """Element integration rule, n_per_dir in ``QUAD_ORDERS``."""
    if n_per_dir not in QUAD_ORDERS:
        raise ValueError(f"unsupported quadrature order {n_per_dir} (use 2 or 3)")
    return tensor_rule(n_per_dir)


# The surface is the mesh.  The benchmark harness traces mesh construction
# under this name until it traces ``NurbsSurface`` itself (ROADMAP item 2).
Patch = NurbsSurface


# ---------------------------------------------------------------------------
# Batched evaluation over elements
# ---------------------------------------------------------------------------

def _dofs(conn):
    """Global dof indices (ne, 3*nfun) of element connectivity rows (ne, nfun)."""
    return (3 * conn[:, :, None] + np.arange(3)).reshape(len(conn), -1)


_CHUNK = 2048


def _chunks(n: int):
    """Consecutive index batches of at most _CHUNK that cover range(n)."""
    for start in range(0, n, _CHUNK):
        yield np.arange(start, min(start + _CHUNK, n))


def _batch_eval(patch: NurbsSurface, eids, theta, order: int = 2):
    """The record of a batch of points: basis, geometry and surface frame.

    ``theta`` (ne, nq, 2) holds points of the elements ``eids``.  Returns a
    dict with eids (ne,), conn (ne, nfun) and arrays of leading shape
    (ne, nq): r, r1, r2, r11, r22, r12 (..., 3) and N, N1, N2, N11, N22, N12
    (..., nfun), up to the requested derivative order, and at order 2 the
    ``frame_arrays`` entries (a1, a2, a3, a_inv, jac, d2, ...).
    Raises SingularGeometryError naming the elements with a degenerate point.
    """
    eids = np.asarray(eids, dtype=int)
    su, sv = patch.element_spans(eids)
    R = rational_eval(patch, su[:, None], sv[:, None],
                      theta[..., 0], theta[..., 1], order)
    ev = {"eids": eids, "conn": patch.conn[eids]}
    for d, row in zip(("", "1", "2", "11", "22", "12"), R):
        ev["N" + d], ev["r" + d] = row[..., :-4], row[..., -4:-1]
    if order == 2:
        try:
            ev.update(frame_arrays(ev["r1"], ev["r2"], ev["r11"], ev["r22"], ev["r12"]))
        except SingularGeometryError as exc:
            jac = np.linalg.norm(np.cross(ev["r1"], ev["r2"]), axis=-1)
            bad = np.unique(eids[~np.all(np.isfinite(jac) & (jac > 0.0), axis=1)])
            raise SingularGeometryError(exc.reason, bad.tolist()) from exc
    return ev


def _boxes(patch, eids):
    """Lower and upper corners (ne, 2) of the elements' parametric boxes."""
    su, sv = patch.element_spans(np.asarray(eids, dtype=int))
    ku, kv = patch.kv_u.knots, patch.kv_v.knots
    return (np.stack([ku[su], kv[sv]], axis=-1),
            np.stack([ku[su + 1], kv[sv + 1]], axis=-1))


def _parent_eval(patch, eids, xi, order: int = 2):
    """_batch_eval at the parent points xi (nq, 2) of every element.

    Adds those exact points as "xi" and "half" (ne, 2), the half-widths of
    the elements' parametric boxes.
    """
    lo, hi = _boxes(patch, eids)
    theta = lo[:, None, :] + 0.5 * (xi + 1.0) * (hi - lo)[:, None, :]
    ev = _batch_eval(patch, eids, theta, order)
    ev["xi"], ev["half"] = xi, 0.5 * (hi - lo)
    return ev


def _rule_eval(patch, eids, rule):
    """_parent_eval at the rule's points, plus the area weights "dA" (ne, nq)."""
    ev = _parent_eval(patch, eids, rule.points)
    ev["dA"] = (rule.weights[None, :] * ev["jac"]
                * (ev["half"][:, 0] * ev["half"][:, 1])[:, None])
    return ev


def _corner_membrane_rows(patch, eids):
    """Compatible membrane rows at the four element corners, (ne, 4, 3, 3*nfun)."""
    ev = _parent_eval(patch, eids, _CORNERS, order=1)
    return membrane_rows(ev["N1"], ev["N2"], ev["r1"], ev["r2"])


def _corner_weights(xi):
    """Bilinear corner interpolation weights (..., 4) at parent points xi (..., 2).

    Corner order as _CORNERS.
    """
    xi = np.asarray(xi, dtype=float)[..., None, :]
    return (1.0 + _CORNERS[:, 0] * xi[..., 0]) * (1.0 + _CORNERS[:, 1] * xi[..., 1]) * 0.25


def _membrane_strain_rows(patch, ev, kind):
    """Membrane strain rows of an element kind, (ne, nq, 3, 3*nfun), Voigt form.

    ``cs`` takes the compatible rows at the points of the record ``ev``.
    ``cas`` evaluates the compatible rows at the four corners of its
    elements and interpolates them bilinearly to its parent points "xi",
    (nq, 2) shared or (ne, nq, 2) per element.
    """
    if kind == CS:
        return membrane_rows(ev["N1"], ev["N2"], ev["r1"], ev["r2"])
    if kind != CAS:
        raise ValueError(f"unknown element kind {kind!r}")
    if patch.kv_u.degree != 2 or patch.kv_v.degree != 2:
        raise ValueError("cas elements are defined for quadratic patches only")
    L = np.broadcast_to(_corner_weights(ev["xi"]), ev["N"].shape[:2] + (4,))
    return np.einsum("eql,elai->eqai", L, _corner_membrane_rows(patch, ev["eids"]))


def _contract(B, C):
    """Sum over quadrature points of B^T C B, (ne, nd, nd), for rows B
    (ne, nq, 3, nd) and laws C (ne, nq, 3, 3), as one matmul per element."""
    ne, nq, _, nd = B.shape
    return (B.reshape(ne, 3 * nq, nd).transpose(0, 2, 1)
            @ (C @ B).reshape(ne, 3 * nq, nd))


def _stiffness_batch(patch, eids, mat, rule, kind):
    """Membrane and bending stiffness (ne, nd, nd) and integrals of N_A dA (ne, nfun)."""
    ev = _rule_eval(patch, eids, rule)
    C = constitutive_voigt(ev["a_inv"], ev["dA"], mat.nu)  # unit law times area
    return (mat.membrane_stiffness * _contract(_membrane_strain_rows(patch, ev, kind), C),
            mat.bending_stiffness * _contract(bending_rows(ev), C),
            np.einsum("eqA,eq->eA", ev["N"], ev["dA"]))


# ---------------------------------------------------------------------------
# Constraints
# ---------------------------------------------------------------------------

def fix_cps(cp_indices, components=(0, 1, 2)) -> np.ndarray:
    """Dof indices of the given displacement components of control points."""
    cp = np.asarray(list(cp_indices), dtype=np.int64)
    comps = np.asarray(list(components), dtype=np.int64)
    if np.any((comps < 0) | (comps > 2)):
        raise ValueError(f"displacement components must be 0, 1 or 2, not {comps}")
    return (3 * cp[:, None] + comps[None, :]).ravel()


# The edges of a patch: the parametric direction held fixed on the edge
# (0 = u, 1 = v) and the end of it the edge lies at (0 = start, 1 = end).
_EDGES = {"u0": (0, 0), "u1": (0, 1), "v0": (1, 0), "v1": (1, 1)}


def edge_lines(edge: str, shape, n_lines: int = 1) -> np.ndarray:
    """u-major indices iu * n_v + iv of the first n_lines lines at a patch
    edge of a grid of shape (n_u, n_v), line by line: control-point rows of
    the control net, element rows of the element grid."""
    if edge not in _EDGES:
        raise ValueError(f"{edge!r} is not a patch edge (u0, u1, v0 or v1)")
    d, end = _EDGES[edge]
    k = np.arange(n_lines)[:, None]
    line, run = (shape[d] - 1 - k if end else k), np.arange(shape[1 - d])
    iu, iv = (line, run) if d == 0 else (run, line)
    return (iu * shape[1] + iv).ravel()


def rotation_rows(patch: NurbsSurface, edge: str):
    """Zero-rotation-about-the-edge rows (dofs, coeffs), a3 . (U_row0 - U_row1)
    = 0 collocated at the Greville stations of the edge.

    The edge row is listed first, so that on a tie in coefficient size its
    dof becomes the slave (see ``_mpc_transform``) and the reduced matrix
    keeps the band of K."""
    g0, g1 = edge_lines(edge, patch.shape, 2).reshape(2, -1)
    d, end = _EDGES[edge]
    kvs = (patch.kv_u, patch.kv_v)
    kv = kvs[1 - d]
    j = np.arange(kv.n_basis)[:, None] + 1 + np.arange(kv.degree)
    g = np.mean(kv.knots[j], axis=1)
    at = np.full_like(g, kvs[d].knots[-1 if end else 0])
    theta = np.stack((at, g) if d == 0 else (g, at), axis=-1)
    a3 = _batch_eval(patch, patch.locate(theta), theta[:, None, :])["a3"][:, 0]
    dofs = _dofs(np.stack([g0, g1], axis=1))
    coeffs = np.concatenate([a3, -a3], axis=1)
    return tuple(zip(dofs, coeffs))


@dataclass(eq=False)
class ReducedSystem:
    """Constraint-eliminated system T' K T, T' F with U = T U_free.

    ``T`` (n_dof, n_free) maps the free dofs to all dofs; its rows of free
    dofs are unit rows, so U_free = U[free].
    """

    K: sp.csr_matrix
    F: np.ndarray
    free: np.ndarray
    T: sp.csr_matrix

    def expand(self, U_free: np.ndarray) -> np.ndarray:
        return np.asarray(self.T @ np.asarray(U_free, dtype=float))


def _mpc_transform(n, fixed_mask, rows):
    """Master/slave elimination basis T for homogeneous multipoint rows.

    Each row is a pair (dofs, coeffs) of equal-shape arrays, the condition
    sum_i coeffs[i] * U[dofs[i]] = 0.  Sequential elimination with eager
    substitution: each row is rewritten in the current masters through the
    slave expressions, its largest-coefficient dof (the first listed on
    ties) becomes a slave, and that slave is at once substituted out of the
    earlier expressions that hold it (``users`` maps each master to them),
    so every expression holds masters only.  Rows that reduce to nothing
    (all dofs fixed or already implied) are dropped.  Returns the free dofs
    and T (n, n_free); without rows T selects the dofs that are not fixed.
    """
    slave_of, users = {}, {}
    for dofs, coeffs in rows:
        out = {}
        for d, c in zip(dofs, coeffs):
            if fixed_mask[d]:
                continue
            for dm, wm in slave_of.get(int(d), {int(d): 1.0}).items():
                out[dm] = out.get(dm, 0.0) + float(c) * wm
        out = {d: c for d, c in out.items() if c != 0.0}
        if not out:
            continue
        scale = max(abs(c) for c in out.values())
        out = {d: c for d, c in out.items() if abs(c) > 1e-14 * scale}
        slave = next(d for d, c in out.items() if abs(c) == scale)
        cs = out.pop(slave)
        expr = {d: -c / cs for d, c in sorted(out.items())}
        for user in users.pop(slave, ()):
            entry = slave_of[user]
            w = entry.pop(slave)
            for d, ws in expr.items():
                entry[d] = entry.get(d, 0.0) + w * ws
                users.setdefault(d, set()).add(user)
        for d in expr:
            users.setdefault(d, set()).add(slave)
        slave_of[slave] = expr

    is_slave = np.zeros(n, dtype=bool)
    is_slave[np.fromiter(slave_of, dtype=np.int64, count=len(slave_of))] = True
    free = np.nonzero(~fixed_mask & ~is_slave)[0]
    col_of = -np.ones(n, dtype=np.int64)
    col_of[free] = np.arange(len(free))
    terms = np.array([(s, d, w) for s, entry in slave_of.items() for d, w in sorted(entry.items())
                      if w != 0.0], dtype=[("i", np.int64), ("j", np.int64), ("w", float)])
    T = sp.csr_matrix((np.concatenate([np.ones(len(free)), terms["w"]]),
                       (np.concatenate([free, terms["i"]]),
                        np.concatenate([np.arange(len(free)), col_of[terms["j"]]]))),
                      shape=(n, len(free)))
    return free, T


def apply_constraints(K: sp.csr_matrix, F: np.ndarray, fixed,
                      linear=()) -> ReducedSystem:
    """Eliminate the dofs ``fixed`` (value 0) and the multipoint rows ``linear``.

    Each multipoint row is a pair (dofs, coeffs), the homogeneous condition
    sum_i coeffs[i] * U[dofs[i]] = 0 with finite coefficients.  Both go
    through one master/slave basis T: K -> T' K T keeps symmetry and
    definiteness, and without multipoint rows T selects the free dofs.
    ``K`` must be exactly symmetric and canonical, as ``assemble`` returns
    it.  The reduced matrix is its upper triangle mirrored, so it is exactly
    symmetric, canonical and stores no zeros.
    """
    n = K.shape[0]
    fixed = np.asarray(fixed, dtype=np.int64)
    rows = [(np.asarray(d, dtype=np.int64), np.asarray(c, dtype=float)) for d, c in linear]
    for i, (d, c) in enumerate(rows):
        if d.shape != c.shape or not np.all(np.isfinite(c)):
            raise ValueError(f"multipoint row {i}: dofs {d} need as many "
                             f"finite coefficients, not {c}")
    dofs = np.concatenate([fixed] + [d for d, _ in rows])
    if len(dofs) and (dofs.min() < 0 or dofs.max() >= n):
        raise ValueError("constraint dof index out of range")
    fixed_mask = np.zeros(n, dtype=bool)
    fixed_mask[fixed] = True

    free, T = _mpc_transform(n, fixed_mask, rows)
    if free.size == 0:
        raise ValueError("all dofs constrained: empty reduced system")
    # T' K T as (T' (K T))' in CSR products: for exactly symmetric, canonical
    # K these are the arrays T.T @ K @ T would build from a CSC copy of K
    upper = sp.triu((T.T.tocsr() @ (K @ T)).T, format="csr")
    upper.sort_indices()
    Kred = sp.csr_matrix(upper + sp.triu(upper, k=1).T)
    return ReducedSystem(Kred, T.T @ F, free, T)


# ---------------------------------------------------------------------------
# Assembly and loads
# ---------------------------------------------------------------------------

def _stencil(patch: NurbsSurface):
    """The control-point stencil of a tensor-product patch.

    Slot s holds the offset (du[s], dv[s]), |du| <= pu and |dv| <= pv, in
    u-major order: slot n_slot - 1 - s holds the opposite offset, and the
    slots from the centre on lead to control points of equal or higher grid
    index.  Returns the slot (nfun, nfun) of the offset from element-local
    function a to b, and du, dv (n_slot,).
    """
    pu, pv = patch.kv_u.degree, patch.kv_v.degree
    iu, iv = np.divmod(np.arange(patch.conn.shape[1]), pv + 1)
    pair_slot = (iu - iu[:, None] + pu) * (2 * pv + 1) + iv - iv[:, None] + pv
    du, dv = np.divmod(np.arange((2 * pu + 1) * (2 * pv + 1)), 2 * pv + 1)
    return pair_slot, du - pu, dv - pv


# A chunk of elements is computed in contiguous parts of at least _PART_MIN
# elements, at most one per CPU of the affinity mask: the caller computes the
# first and the cached _pool, made on the first split, the others, while
# numpy's kernels release the GIL.  Each element's block and area row are the
# same whichever batch computes them, so K and the area vector are bitwise
# independent of the CPU count.  A chunk too small for two parts (every strip
# level) runs on the caller alone: parts of a few hundred elements lose more
# to contention for the GIL than they gain.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
_PART_MIN = 256


@functools.cache
def _pool() -> ThreadPoolExecutor:
    """The thread pool of ``_chunk_stiffness``, created on its first split."""
    return ThreadPoolExecutor(max(_WORKERS - 1, 1), thread_name_prefix="klshell")


os.register_at_fork(after_in_child=_pool.cache_clear)  # a forked child has no pool threads


def _chunk_stiffness(patch, eids, mat, rule, kind):
    """Element stiffness k_eps + k_kappa (ne, nd, nd) and integrals of N_A dA
    (ne, nfun) of a chunk of elements, computed in parts (see _WORKERS).

    Every part is joined before an error is raised; degenerate points of
    several parts raise one SingularGeometryError naming all their elements.
    """
    n_parts = min(_WORKERS, len(eids) // _PART_MIN)
    if n_parts < 2:  # in place: a buffer costs a one-CPU assemble ~5%
        k_eps, k_kappa, area_e = _stiffness_batch(patch, eids, mat, rule, kind)
        return np.add(k_eps, k_kappa, out=k_eps), area_e
    nfun = patch.conn.shape[1]
    k, area_e = np.empty((len(eids), 3 * nfun, 3 * nfun)), np.empty((len(eids), nfun))

    def run(part):
        k_eps, k_kappa, area_e[part] = _stiffness_batch(patch, eids[part], mat, rule, kind)
        np.add(k_eps, k_kappa, out=k[part])

    cut = [len(eids) * i // n_parts for i in range(n_parts + 1)]
    parts = [slice(a, b) for a, b in zip(cut, cut[1:])]
    futures = [_pool().submit(run, part) for part in parts[1:]]
    errors = []
    try:
        run(parts[0])
    except Exception as exc:
        errors.append(exc)
    finally:
        wait(futures)
    errors += [f.exception() for f in futures if f.exception() is not None]
    if len(errors) > 1 and all(isinstance(e, SingularGeometryError) for e in errors):
        raise SingularGeometryError(errors[0].reason,
                                    [i for e in errors for i in e.elements]) from errors[0]
    if errors:
        raise errors[0]
    return k, area_e


def assemble(patch: NurbsSurface, mat: ShellMaterial, rule: QuadratureRule,
             kind: str) -> tuple[sp.csr_matrix, np.ndarray]:
    """Scatter-add all element stiffness matrices into the global matrix.

    Returns K and, from the same pass over the rule's points, the area
    vector area[g] = integral of N_g dA (n_cp,) that ``load_area`` takes.

    The matrix is built as a control-point stencil: S[g, s] is the 3x3 block
    coupling the dofs of control point g to those of nbr[g, s], the control
    point at offset slot s from g (see ``_stencil``).  The block of each
    element-local pair (a, b), a <= b in u-major order, is added to the slot
    of the offset from a to b in the row of a.  Within a chunk no two
    elements share that row for a fixed pair, so each pair is one
    fancy-index add without duplicates; chunks and pairs go in a fixed
    order, so the sums are bitwise reproducible.  The element blocks of a
    chunk are computed in parts on a thread pool (see ``_WORKERS``); the
    scatter runs on the caller alone.  The diagonal blocks' lower triangles
    and the lower slots, gathered through nbr, are then exact transposes of
    the upper ones.  Every knot span is an element, so any two control
    points within the stencil's reach share one: the stored pattern is the
    slots ``inside`` the grid, explicit zeros included.  K is read off S as
    a BSR matrix of 3x3 blocks in slot order, which is column order; it is
    exactly symmetric in pattern and values, and canonical.
    """
    nu, nv = patch.shape
    pair_slot, du, dv = _stencil(patch)
    n_slot, nfun = len(du), len(pair_slot)
    centre = n_slot // 2
    a_up, b_up = np.nonzero(pair_slot >= centre)
    S = np.zeros((nu * nv, n_slot, 3, 3))
    area = np.zeros(nu * nv)
    for eids in _chunks(patch.n_elements):
        k, area_e = _chunk_stiffness(patch, eids, mat, rule, kind)
        k = k.reshape(len(eids), nfun, 3, nfun, 3)
        conn = patch.conn[eids]
        np.add.at(area, conn, area_e)
        for a, b in zip(a_up, b_up):
            S[conn[:, a], pair_slot[a, b]] += k[:, a, :, b, :]

    D = S[:, centre]
    S[:, centre] = np.triu(D) + np.triu(D, 1).swapaxes(-1, -2)
    iu, iv = np.divmod(np.arange(nu * nv), nv)
    u, v = iu[:, None] + du, iv[:, None] + dv
    inside = (u >= 0) & (u < nu) & (v >= 0) & (v < nv)
    nbr = np.where(inside, u * nv + v, 0)  # gathered from but never stored where 0
    # slot by slot: one gather of every lower slot at once raised the peak RSS
    # of repeated 128x64 hypar solves by up to 13%
    for s in range(centre):
        S[:, s] = S[nbr[:, s], n_slot - 1 - s].swapaxes(-1, -2)
    indptr = np.concatenate(([0], np.cumsum(inside.sum(axis=1))))
    return sp.bsr_matrix((S[inside], nbr[inside], indptr),
                         shape=(3 * nu * nv,) * 2).tocsr(), area


def _add_forces(F, conn, Fe):
    """F[dofs] += Fe (ne, nfun, 3) element by element, in order."""
    np.add.at(F, _dofs(conn).ravel(), Fe.ravel())
    return F


def load_area(area: np.ndarray, f) -> np.ndarray:
    """Consistent load vector area (x) f of a constant per-area force 3-vector f."""
    return np.outer(area, np.asarray(f, dtype=float)).ravel()


def load_edge_line(patch: NurbsSurface, edge: str, n_gauss: int, q) -> np.ndarray:
    """Consistent load vector for a per-arc-length line load on a patch edge.

    ``edge`` is one of 'u0', 'u1', 'v0', 'v1' (the boundary where that
    parameter takes its start or end value); ``q`` is the constant line
    force density 3-vector.  Each element on the edge is integrated with
    n_gauss points along it, and the point forces are added in order.
    """
    eids = edge_lines(edge, patch.n_el)
    d, end = _EDGES[edge]
    x1, w1 = _line_rule(n_gauss)
    xi = np.empty((n_gauss, 2))
    xi[:, d], xi[:, 1 - d] = 2.0 * end - 1.0, x1

    ev = _parent_eval(patch, eids, xi, order=1)
    ds = np.linalg.norm(ev["r2" if d == 0 else "r1"], axis=-1)
    w = w1 * ev["half"][:, 1 - d, None]
    Fe = ev["N"][..., None] * np.asarray(q, dtype=float) * (w * ds)[..., None, None]
    conn = np.repeat(ev["conn"], n_gauss, axis=0)
    return _add_forces(np.zeros(3 * patch.n_cp), conn, Fe.reshape(len(conn), -1, 3))


def load_point(patch: NurbsSurface, theta, P) -> np.ndarray:
    """Load vector for concentrated forces P (n, 3) at parametric points
    theta (n, 2), added point by point in order."""
    theta = np.asarray(theta, dtype=float).reshape(-1, 2)
    ev = _batch_eval(patch, patch.locate(theta), theta[:, None, :], order=0)
    Fe = ev["N"][:, 0, :, None] * np.asarray(P, dtype=float).reshape(-1, 1, 3)
    return _add_forces(np.zeros(3 * patch.n_cp), ev["conn"], Fe)
