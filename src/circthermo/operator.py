"""Pointwise transfer-operator application and finite-rank discretizations.

The transfer operator weighted by a potential phi acts on observables as

    (L g)(x) = sum over preimages y of x of  e^{phi(y)} g(y).

Two discretizations are provided on a uniform circle grid: collocation
(evaluate at nodes through exact preimages and an interpolation stencil,
fast on smooth data) and a weighted Ulam scheme (cell-transfer Galerkin
projection, positivity preserving) used as an independent cross-check.
A Discretization names one (N, scheme, interpolation, eigensolve limits),
and every operator carries the one it was made from; an OperatorSetup
computes its map-and-grid geometry once and reweights it for each
potential, and `discretize` is the one-shot form.  An OperatorBlock
applies the operators of several potentials, one to each column of a
block, straight from that geometry.
The local stencils (linear collocation and Ulam) are stored in CSR form in
float64; Fourier collocation and extended precision are stored dense.
scipy.sparse is imported where the first CSR matrix is built.  Grid values
sit where their GridFunction's rule says (`sites`): at the nodes i/N under
collocation, at the cell midpoints (i + 1/2)/N under Ulam.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from .errors import ConfigError, ResourceLimitError
from .maps import BranchMap, Potential, _pi, lift_target, wrap

if TYPE_CHECKING:
    from scipy import sparse

SCHEMES = ("collocation", "ulam")
NODAL_RULES = ("linear", "fourier")   # the rules whose values sit at the nodes
# each interpolation rule -> its sites (i + offset)/N, in cells
SITE_OFFSET = {"linear": 0.0, "fourier": 0.0, "cell": 0.5}
# every leaf of one tree walk (d^depth times the roots), and d^n for the periodic oracle
TREE_LEAF_GUARD = 2 ** 24
TREE_BLOCK = 2 ** 15   # points a tree walk or periodic-orbit solve expands at a time
CSV_BLOCK_BYTES = 2 ** 20   # bytes of dense rows a CSR export holds at a time


@dataclass(frozen=True)
class Grid:
    """N equispaced nodes x_i = i/N with cells [x_i, x_{i+1})."""
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 2:
            raise ConfigError(f"grid needs at least 2 cells, got {self.n_cells}")

    @property
    def nodes(self):
        return np.arange(self.n_cells) / self.n_cells

    @property
    def cell_width(self):
        return 1.0 / self.n_cells


@dataclass(frozen=True)
class Discretization:
    """How a leading triple is computed, checked here once: grid size N
    (an integer >= 2), scheme, interpolation (Ulam takes only the default;
    its values follow the "cell" rule) and the eigensolve limits tol
    (finite, > 0) and max_iter (an integer >= 1)."""
    n: int = 512
    scheme: str = "collocation"
    interpolation: str = "linear"
    tol: float = 1e-12
    max_iter: int = 100000

    def __post_init__(self):
        for key in ("n", "max_iter"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        Grid(self.n)   # refuses N < 2
        if self.max_iter < 1:
            raise ConfigError(f"max_iter={self.max_iter} must be >= 1")
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol={self.tol} must be finite and > 0")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if self.interpolation not in NODAL_RULES:
            raise ConfigError(f"unknown interpolation {self.interpolation!r}")
        if self.scheme == "ulam" and self.interpolation != "linear":
            raise ConfigError("discretization.interpolation: ulam has cell averages, "
                              f"not {self.interpolation!r} interpolation")

    @property
    def grid(self) -> Grid:
        return Grid(self.n)

    @property
    def rule(self) -> str:
        """The GridFunction rule of the grid values: "cell" under Ulam."""
        return "cell" if self.scheme == "ulam" else self.interpolation


def trig_interp_matrix(points, n, dtype=np.float64):
    """Rows of trigonometric cardinal functions on the n-point uniform grid.

    Row p evaluates the trigonometric interpolant (with the cosine
    convention for the Nyquist mode when n is even) of nodal data at
    points[p]; exact at the nodes.  Barycentric form, O(P*n).
    """
    pts = np.asarray(points, dtype=dtype).ravel()
    xk = np.arange(n, dtype=dtype) / np.asarray(n, dtype=dtype)
    w = np.where(np.arange(n) % 2 == 0, 1.0, -1.0).astype(dtype)
    t = np.subtract(pts[:, None], xk[None, :])
    t *= _pi(pts)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        (np.tan if n % 2 == 0 else np.sin)(t, out=t)
        np.divide(w, t, out=t)
        denom = t.sum(axis=1)
        t /= denom[:, None]
    # a point on a node (or within underflow of one) makes its denominator
    # infinite: exact one-hot row
    on_node = np.flatnonzero(~np.isfinite(denom))
    t[on_node] = 0.0
    t[on_node, np.argmin(np.abs(pts[on_node, None] - xk), axis=1)] = 1.0
    return t


def linear_stencil(x, n, offset=0.0):
    """Linear interpolation between the n sites (i + offset)/n: x takes
    (1 - frac) v[left] + frac v[right], with right = left + 1 mod n."""
    pos = x * n - offset
    base = np.floor(pos)
    left = base.astype(int) % n
    return left, (left + 1) % n, pos - base


class GridFunction:
    """Grid values and the rule that says where they sit (`sites`) and how they
    interpolate: trigonometric for fourier, linear between the sites else."""

    def __init__(self, grid: Grid, values, interpolation="linear"):
        values = np.asarray(values)
        if values.shape != (grid.n_cells,):
            raise ConfigError(
                f"values shape {values.shape} does not match grid of {grid.n_cells}")
        if interpolation not in SITE_OFFSET:
            raise ConfigError(f"unknown interpolation {interpolation!r}")
        self.grid, self.values, self.interpolation = grid, values, interpolation

    @property
    def sites(self):
        """Where the values sit, in the real dtype of the values."""
        real = np.result_type(self.values.real.dtype, np.float64)
        nodes = np.asarray(self.grid.nodes, dtype=real)
        return nodes + SITE_OFFSET[self.interpolation] * self.grid.cell_width

    def __call__(self, x):
        real = np.result_type(self.values.real.dtype, np.asarray(x).dtype, np.float64)
        x = wrap(np.asarray(x, dtype=real))
        n = self.grid.n_cells
        if self.interpolation != "fourier":
            left, right, frac = linear_stencil(x, n, SITE_OFFSET[self.interpolation])
            return self.values[left] * (1.0 - frac) + self.values[right] * frac
        flat = np.atleast_1d(x).ravel()
        out = trig_interp_matrix(flat, n, dtype=real) @ self.values
        return out.reshape(x.shape) if x.shape else out[0]

    def derivative(self):
        """Derivative at the sites: spectral for fourier, centered differences else."""
        n = self.grid.n_cells
        v = self.values
        dtype = np.result_type(v.dtype, np.float64)   # integer values differentiate in float
        if self.interpolation == "fourier":
            # the FFT keeps extended precision (longdouble in, clongdouble out)
            coeffs = np.fft.fft(np.asarray(v, dtype=dtype))
            k = np.fft.fftfreq(n, d=1.0 / n)
            if n % 2 == 0:
                k[n // 2] = 0.0  # cosine Nyquist mode has zero derivative at nodes
            dv = np.fft.ifft(coeffs * 2j * _pi(coeffs.real) * k)
            dv = dv if np.iscomplexobj(v) else dv.real
        else:
            dv = (np.roll(v, -1) - np.roll(v, 1)) * (n / 2.0)
        return GridFunction(self.grid, np.asarray(dv, dtype=dtype), self.interpolation)


@dataclass
class DiscretizedOperator:
    """Transfer matrix M on the grid of `disc`, stored as CSR or as a dense array.

    `disc` is the Discretization the matrix was made from: its grid, its
    scheme and rule, and the limits every eigensolve of M obeys.  `apply`
    (v -> M v) and `apply_left` (w -> w M) work on either form, on a vector
    or on each column of an (N, K) block; `matrix` is always the dense
    array, built on first use from CSR.
    """
    storage: Union[np.ndarray, sparse.csr_matrix]
    disc: Discretization
    branch_map: BranchMap
    potential: Potential
    dropped_entries: int = 0
    _dense: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _left: Optional[sparse.csr_matrix] = field(default=None, init=False, repr=False)

    @property
    def grid(self) -> Grid:
        return self.disc.grid

    @property
    def dtype(self):
        return self.storage.dtype

    @property
    def matrix(self) -> np.ndarray:
        if isinstance(self.storage, np.ndarray):
            return self.storage
        if self._dense is None:
            self._dense = self.storage.toarray()
        return self._dense

    def apply(self, values):
        return self.storage @ np.asarray(values)

    def apply_left(self, weights):
        if isinstance(self.storage, np.ndarray):
            return self.storage.T @ np.asarray(weights)
        if self._left is None:
            self._left = self.storage.T.tocsr()
        return self._left @ np.asarray(weights)

    def grid_function(self, values):
        return GridFunction(self.grid, np.asarray(values), self.disc.rule)

    def export_csv(self, path):
        """Dense text dump with a header naming scheme, N, and the map tag.

        CSR storage is written a block of rows at a time; the dense matrix
        is neither built nor cached.
        """
        n = self.grid.n_cells
        header = (f"# circthermo operator scheme={self.disc.scheme} N={n} "
                  f"map={self.branch_map.family_tag} "
                  f"interpolation={self.disc.rule} "
                  f"potential={self.potential.describe()}")
        line = ",".join(["%.17g"] * n) + "\n"
        with open(path, "w") as fh:
            fh.write(header + "\n")
            if isinstance(self.storage, np.ndarray):
                blocks = [self.storage]
            else:
                step = max(1, CSV_BLOCK_BYTES // (8 * n))
                blocks = (self.storage[i:i + step].toarray() for i in range(0, n, step))
            for block in blocks:
                for row in np.asarray(block, dtype=float):
                    fh.write(line % tuple(row.tolist()))


# ---------------------------------------------------------------------------
# Pointwise application
# ---------------------------------------------------------------------------

def preimage_tree(branch_map: BranchMap, pot: Potential, x, depth: int, leaf,
                  h_field=None):
    """The values leaf(y, S, vel, dS) at the d^depth leaves above the points x.

    Level k holds the y_k with f(y_k) = y_{k-1}, y_0 = x, and adds phi(y_k)
    to the log-weight S.  Under a map direction H (f -> f + eps H) the
    inverse branches move: vel_k = (vel_{k-1} - H(y_k)) / F'(y_k) from
    vel_0 = 0, and dS = sum_k phi'(y_k) vel_k; vel and dS are None without
    H.  leaf gets flat arrays of leaves and returns their values.  The
    result has shape (d^depth, *shape(x)): root r's leaf reached by the
    branches b_1, ..., b_depth sits at i_depth, with i_k = b_k d^(k-1) +
    i_(k-1) and i_0 = 0.

    The walk is depth first in blocks.  The frontier grows a level at a
    time while d times its size is at most TREE_BLOCK points; past that it
    is split into chunks of TREE_BLOCK / d points, and each chunk is walked
    to its leaves before the next.  Memory is 8 B per leaf (the result)
    plus a block per level walked in chunks, and the values do not depend
    on where the blocks fall.  TREE_LEAF_GUARD bounds every leaf: d^depth
    times the number of roots.
    """
    if depth < 1:
        raise ConfigError(f"tree depth must be >= 1, got {depth}")
    d = branch_map.degree
    roots = np.asarray(x, dtype=float)
    leaves = d ** depth * roots.size
    if leaves > TREE_LEAF_GUARD:
        raise ResourceLimitError(
            f"preimage tree would have {leaves} leaves (> {TREE_LEAF_GUARD})")
    chunk = max(1, TREE_BLOCK // d)   # the most points one level may expand at once
    flat = roots.ravel()
    zeros = None if h_field is None else np.zeros_like(flat)
    # frontiers still to walk: (level k, each point's index i_k * roots.size + r
    # in the result, y, S, vel, dS)
    todo = [(0, np.arange(flat.size), flat, np.zeros_like(flat), zeros, zeros)]
    out = None
    while todo:
        k, at, ys, log_w, vel, d_log_w = todo.pop()
        while k < depth and ys.size <= chunk:
            level = branch_map.preimages(ys)          # (d, ys.size)
            log_w = (log_w + pot(level)).ravel()
            if h_field is not None:
                step = (vel - np.asarray(h_field(level))) / np.asarray(branch_map.dlift(level))
                d_log_w = (d_log_w + pot.derivative(level) * step).ravel()
                vel = step.ravel()
            at = (np.arange(d)[:, None] * (d ** k * roots.size) + at).ravel()
            ys, k = level.ravel(), k + 1
        if k < depth:   # split, and walk the first chunk first
            todo.extend((k, *(None if a is None else a[i:i + chunk]
                              for a in (at, ys, log_w, vel, d_log_w)))
                        for i in reversed(range(0, ys.size, chunk)))
            continue
        values = np.asarray(leaf(ys, log_w, vel, d_log_w))
        if out is None:
            out = np.empty(leaves, dtype=values.dtype)
        out[at] = values
    return out.reshape((-1,) + roots.shape)


def leaf_sum(values):
    """Sum over the leaves (axis 0) of a `preimage_tree`; a float for one root."""
    total = np.sum(values, axis=0)
    return float(total) if total.ndim == 0 else total


def apply_transfer_point(branch_map: BranchMap, pot: Potential, g, x):
    """(L g)(x) evaluated through exact preimages; g is any callable."""
    return apply_transfer_tree(branch_map, pot, g, x, 1)


def apply_transfer_tree(branch_map: BranchMap, pot: Potential, g, x, depth: int):
    """(L^n g)(x) summed over the full d^n-leaf preimage tree.

    No discretization is involved: Birkhoff weights accumulate along the
    tree and g is evaluated at the leaves.
    """
    def leaf(ys, log_w, vel, d_log_w):
        return np.exp(log_w) * np.asarray(g(ys))

    return leaf_sum(preimage_tree(branch_map, pot, x, depth, leaf))


# ---------------------------------------------------------------------------
# Discretizations
# ---------------------------------------------------------------------------

class OperatorSetup:
    """The potential-independent part of one discretized transfer operator.

    Built once per (map, Discretization, dtype) from one preimage table
    y_j(x_i) of the nodes, which both schemes share.
    Collocation polishes the table in the working dtype and stores the
    stencil (idx/frac triplets for linear, the (d, N, N) cardinal matrix
    for Fourier); Ulam cuts the arcs between the sorted preimages into
    pieces and stores their midpoints y* and F'(y*) |piece| / |cell|, in
    float64 only.  `operator(pot)` only evaluates e^{pot} at the stored
    points and combines; an OperatorBlock applies several potentials'
    operators from the same points without assembling any.  A caller that
    sweeps the potential holds one setup for the sweep; nothing outlives
    the caller that holds it.
    """

    def __init__(self, branch_map: BranchMap, disc: Discretization, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        if disc.scheme == "ulam" and self.dtype != np.float64:
            raise ConfigError(f"ulam assembles in float64 only, got dtype {self.dtype}")
        self.branch_map, self.disc, self.grid = branch_map, disc, disc.grid
        self.dropped_entries = 0
        self._cards = None
        ys = branch_map.preimages(self.grid.nodes)   # (d, N)
        (self._setup_collocation if disc.scheme == "collocation" else self._setup_ulam)(ys)

    def _setup_collocation(self, ys):
        branch_map, dtype = self.branch_map, self.dtype
        n = self.grid.n_cells
        d = branch_map.degree
        nodes = np.asarray(self.grid.nodes, dtype=dtype)
        ys = np.asarray(ys, dtype=dtype)
        # polish preimages in the working dtype (Newton reaches its eps quickly)
        f0 = np.asarray(branch_map.lift(np.zeros(1, dtype=dtype)))[0]
        targets = lift_target(f0, np.arange(d)[:, None], nodes)
        for _ in range(3):
            resid = np.asarray(branch_map.lift(ys)) - targets
            ys = np.clip(ys - resid / np.asarray(branch_map.dlift(ys)), 0.0, 1.0)
        ys.setflags(write=False)   # shared by every operator of this setup
        self.points = ys
        if self.disc.interpolation == "fourier":
            self._cards = trig_interp_matrix(ys.ravel(), n, dtype=dtype).reshape(d, n, n)
            return
        left, right, frac = linear_stencil(ys, n)
        self._rows = np.tile(np.arange(n), 2 * d)
        self._cols = np.concatenate([left.ravel(), right.ravel()])
        self._factors = np.concatenate([(1.0 - frac).ravel(), frac.ravel()])

    def _setup_ulam(self, ys):
        """Arc pieces of the weighted cell-transfer (Galerkin) projection.

        Entry (i, j) integrates L applied to the indicator of cell j over
        cell i, evaluated by midpoint rule on each piece of a preimage arc
        of cell i inside cell j: e^{phi(y*)} f'(y*) |piece| / |cell|.  All
        entries are nonnegative.  f is an increasing degree-d covering, so
        the preimages of the nodes, sorted, are the arc endpoints: the arc
        from a preimage of node i to the next sorted preimage maps onto
        cell i.  The arc after the last preimage wraps through 0 and is
        split there, so every endpoint lies in [0, 1].
        """
        n = self.grid.n_cells
        flat = ys.ravel()
        order = np.argsort(flat, kind="stable")
        ends = flat[order]
        # arc t runs from ends[t] to ends[t + 1] onto the cell of ends[t]'s
        # node; the last wraps through 0 as [ends[-1], 1] and [0, ends[0]]
        p = np.append(ends, 0.0)
        q = np.concatenate((ends[1:], [1.0, ends[0]]))
        cells = np.append(order % n, order[-1] % n)
        # arc [p, q] meets the cells j0, j0 + 1, ... with j / n < q.  The
        # candidates run to ceil(q n), which is at least the last such cell
        # however q n rounds; a candidate past it gives an empty piece
        j0 = np.floor(p * n).astype(int)
        count = np.maximum(np.ceil(q * n).astype(int) - j0 + 1, 0)
        arc = np.repeat(np.arange(p.size), count)
        j = j0[arc] + np.arange(arc.size) - np.repeat(np.cumsum(count) - count, count)
        lo = np.maximum(p[arc], j / n)
        hi = np.minimum(q[arc], (j + 1) / n)
        width = hi - lo
        self.dropped_entries = int(np.count_nonzero((width > 0.0) & (width < 1e-14)))
        piece = width >= 1e-14
        lo, hi = lo[piece], hi[piece]
        self.points = 0.5 * (lo + hi)
        self._rows, self._cols = cells[arc[piece]], j[piece] % n
        self._factors = np.asarray(self.branch_map.dlift(self.points)) * (hi - lo) * n

    def weights(self, pot: Potential):
        """e^{pot} at the stored points in the working dtype.

        A weight that is not finite there (an overflowing or NaN potential)
        is refused before it reaches an eigensolver.
        """
        values = np.asarray(pot(self.points), dtype=self.dtype)
        with np.errstate(over="ignore", invalid="ignore"):
            weights = np.exp(values)
        if not np.all(np.isfinite(weights)):
            raise ConfigError(f"e^potential is not finite in {self.dtype}: the potential "
                              f"reaches {np.max(values):.6g} at the preimages")
        return weights

    def _triplet_values(self, weights):
        """The (nnz, K) triplet values of K potentials' weights at the points.

        weights has the points' shape, plus a trailing axis of K when K > 1;
        linear collocation repeats each preimage weight in its two columns.
        """
        weights = weights.reshape(self.points.size, -1)
        values = np.tile(weights, (len(self._factors) // len(weights), 1))
        values *= self._factors[:, None]
        return values

    def operator(self, pot: Potential) -> DiscretizedOperator:
        """The transfer matrix weighted by e^{pot}, from the stored geometry."""
        return self._assemble(pot, self.weights(pot))

    def _assemble(self, pot, weights) -> DiscretizedOperator:
        n = self.grid.n_cells
        if self._cards is not None:
            mat = np.einsum("kn,knm->nm", weights, self._cards)
        else:
            vals = self._triplet_values(weights)[:, 0]
            mat = _from_triplets(self._rows, self._cols, vals, n, self.dtype)
        return DiscretizedOperator(mat, self.disc, self.branch_map, pot,
                                   dropped_entries=self.dropped_entries)


class OperatorBlock:
    """The operators M_k of a setup's potentials pots[k], one per column.

    `apply(V)` and `apply_left(W)` return M_k V[:, k] and M_k^T W[:, k]
    with no N x N matrix assembled.  M = sum_j diag(e^{pot}(y_j)) C_j, so
    on the Fourier cards a product is d GEMMs (the left one as
    (X^T C_j)^T, summed over j inside one GEMM); on the (row, column,
    factor) triplets of linear collocation and Ulam it is a gather and a
    sparse sum.  `keep(mask)` drops columns, and `operator(k)` assembles
    M_k of a kept column from the weights the block holds.  The block
    carries its setup's `disc`, as an operator does.
    """

    def __init__(self, setup: OperatorSetup, pots):
        self.setup, self.pots = setup, list(pots)
        self.disc, self.grid, self.dtype = setup.disc, setup.grid, setup.dtype
        self._live = np.arange(len(self.pots))
        self._weights = np.stack([setup.weights(pot) for pot in self.pots], axis=-1)
        if setup._cards is not None:
            return
        from scipy import sparse
        nnz, n = len(setup._factors), self.grid.n_cells
        ones, at = np.ones(nnz), np.arange(nnz)
        self._row_sum, self._col_sum = (sparse.csr_matrix((ones, (idx, at)), shape=(n, nnz))
                                        for idx in (setup._rows, setup._cols))
        self._vals = setup._triplet_values(self._weights)

    def apply(self, v):
        cards = self.setup._cards
        if cards is not None:
            return (self._weights * (cards @ v)).sum(axis=0)
        return self._row_sum @ (self._vals * v[self.setup._cols])

    def apply_left(self, w):
        cards = self.setup._cards
        if cards is not None:
            y = (self._weights * w).reshape(-1, w.shape[1])
            return (y.T @ cards.reshape(y.shape[0], -1)).T
        return self._col_sum @ (self._vals * w[self.setup._rows])

    def keep(self, mask):
        self._live, self._weights = self._live[mask], self._weights[..., mask]
        if self.setup._cards is None:
            self._vals = self._vals[:, mask]

    def operator(self, k) -> DiscretizedOperator:
        column = np.searchsorted(self._live, k)
        return self.setup._assemble(self.pots[k], self._weights[..., column])


def discretize(branch_map: BranchMap, pot: Potential, disc: Discretization,
               dtype=np.float64) -> DiscretizedOperator:
    """Assemble the N x N transfer matrix that `disc` names, once.

    Use an OperatorSetup to assemble for many potentials.
    """
    return OperatorSetup(branch_map, disc, dtype).operator(pot)


build_operator = discretize   # the name perfbench/tracer.py times


def _from_triplets(rows, cols, vals, n, dtype):
    """Sum a local stencil's (row, col, value) triplets into an N x N matrix.

    Duplicates are summed, in triplet order.  CSR in float64; extended
    precision stays dense and needs no scipy.
    """
    if np.dtype(dtype) != np.float64:
        mat = np.zeros((n, n), dtype=dtype)
        np.add.at(mat, (rows, cols), vals)
        return mat
    from scipy import sparse
    return sparse.coo_matrix((vals, (rows, cols)), shape=(n, n), dtype=dtype).tocsr()
