"""ID-to-representation encoders: embedding table and linear graph propagation.

Ranking scores use raw dot products, so outputs stay unnormalized here;
the losses and metrics apply normalize_rows (defined below). The graph is
a UserIndex over users and items plus entry weights from its row lengths;
of scipy, only the compiled kernel extension of its sparse products is loaded.
A table is dumped as an uncompressed .npz of its two float64 blocks.
"""

from __future__ import annotations

import importlib.util
import zipfile
from dataclasses import dataclass, field
from functools import cache
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import numpy as np

from .data import InteractionSet, UserIndex, open_atomic
from .errors import DataError, DegenerateEmbedding, MissingKernel
from .rng import substream

DUMP_MEMBERS = ("user_emb", "item_emb")  # the dump's .npz members, in row order


@dataclass
class EmbeddingTable:
    """One (|U|+|I|) x d parameter array, users first (the row order of the
    dump and of the graph); user_emb/item_emb are row-block views of it."""

    emb: np.ndarray
    n_users: int

    @classmethod
    def from_parts(cls, user_emb: np.ndarray, item_emb: np.ndarray) -> "EmbeddingTable":
        return cls(np.concatenate([user_emb, item_emb]), len(user_emb))

    @property
    def user_emb(self) -> np.ndarray:
        return self.emb[: self.n_users]

    @property
    def item_emb(self) -> np.ndarray:
        return self.emb[self.n_users :]

    @property
    def d(self) -> int:
        return int(self.emb.shape[1])

    @property
    def n_items(self) -> int:
        return int(self.emb.shape[0]) - self.n_users

    def copy(self) -> "EmbeddingTable":
        return EmbeddingTable(self.emb.copy(), self.n_users)


def init_xavier(n_users: int, n_items: int, d: int, seed: int) -> EmbeddingTable:
    """Xavier-uniform init: entries ~ U[-a, a], a = sqrt(6 / (n_rows + d)) per matrix."""
    if d < 1:
        raise ValueError(f"embedding dimension must be >= 1, got {d}")
    rng = substream(seed, "init")
    a_user = np.sqrt(6.0 / (n_users + d))
    a_item = np.sqrt(6.0 / (n_items + d))
    user = rng.uniform(-a_user, a_user, size=(n_users, d))
    item = rng.uniform(-a_item, a_item, size=(n_items, d))
    return EmbeddingTable.from_parts(user, item)


@cache
def _sparsetools():
    """scipy's compiled sparse kernels, loaded from the file of
    `scipy.sparse._sparsetools` without importing `scipy.sparse`, which takes
    longer than a short graph training run. The module is named after the
    extension's init function, so its name must end in `_sparsetools`."""
    scipy = importlib.util.find_spec("scipy")
    folders = (scipy and scipy.submodule_search_locations) or []
    paths = [Path(f, "sparse", "_sparsetools" + ext) for f in folders for ext in EXTENSION_SUFFIXES]
    for path in filter(Path.is_file, paths):
        spec = importlib.util.spec_from_file_location("directau._sparsetools", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    raise MissingKernel("the graph encoder needs scipy: scipy/sparse/_sparsetools not found")


def _spmm_into(fmt: str, shape: tuple, arrays: tuple, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`A @ x` for the sparse matrix A of the given shape, stored as the
    (indptr, indices, data) `arrays` of its `fmt` ("csr" or "csc") form,
    and a C-contiguous float64 `x`, written into the C-contiguous float64
    `out` and returned.

    This calls the kernel that scipy's `A @ x` reaches through
    `_matmul_multivector` on a zeroed `out`, so every sum runs in scipy's
    order and the result equals `A @ x` bit for bit.
    """
    (n_out, n_in), d = shape, x.shape[1]
    n_major = n_out if fmt == "csr" else n_in
    if (arrays[0].size != n_major + 1 or x.shape[0] != n_in or out.shape != (n_out, d)
            or not out.flags.c_contiguous):
        raise ValueError(f"spmm shapes: {shape} @ {x.shape} into {out.shape}")
    out.fill(0.0)
    kernel = getattr(_sparsetools(), fmt + "_matvecs")
    kernel(n_out, n_in, d, *arrays, x.ravel(), out.ravel())
    return out


@dataclass
class GraphPropagator:
    """Linear propagation over the symmetrically normalized bipartite graph.

    The adjacency is (|U|+|I|) square, rows/cols users first, in CSR form:
    the index `adjacency` (row r lists r's neighbours, ascending) and the
    entry `weights` in its order. The entry for a training edge (u, i) is
    1/sqrt(p(u) * p(i)) with p(.) the training degree, the node's row
    length. No self-loops and no feature transforms; layer outputs are
    combined by their mean. Products run in scipy's compiled kernel alone.

    Its full-graph layers and the backward sum run in the (3, |U|+|I|, d)
    float64 `scratch` it owns, made on first use and again only when the
    table's shape changes, so a training step takes no fresh table-sized
    array.
    """

    base: EmbeddingTable
    n_layers: int
    adjacency: UserIndex
    weights: np.ndarray
    scratch: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False, compare=False)

    @classmethod
    def build(cls, base: EmbeddingTable, interactions: InteractionSet,
              n_layers: int) -> "GraphPropagator":
        if n_layers < 0:
            raise ValueError(f"n_layers must be >= 0, got {n_layers}")
        if interactions.n_users != base.n_users or interactions.n_items != base.n_items:
            raise DataError("interaction set and embedding table disagree on entity counts")
        n = interactions.n_users + interactions.n_items
        u = interactions.users
        i = interactions.items + interactions.n_users
        adjacency = UserIndex.build(np.concatenate([u, i]), np.concatenate([i, u]), n)
        degree = np.diff(adjacency.indptr)
        row = np.repeat(np.arange(n), degree)
        weights = 1.0 / np.sqrt(degree[row] * degree[adjacency.indices])
        return cls(base, n_layers, adjacency, weights)

    def _csr(self, rows=slice(None)) -> tuple[np.ndarray, ...]:
        """CSR arrays of the adjacency's `rows`, an index array, in order;
        of the whole adjacency by default."""
        if isinstance(rows, slice):
            return (*self.adjacency, self.weights)
        indptr, _, at = self.adjacency.entries(rows)
        return indptr, self.adjacency.indices[at], self.weights[at]

    def _scratch(self, d: int) -> np.ndarray:
        """`scratch` for width `d`: the backward sum, then two layer outputs
        that the layers alternate between."""
        shape = (3, self.base.emb.shape[0], d)
        if self.scratch.shape != shape:
            self.scratch = np.empty(shape)
        return self.scratch

    def propagate(self, rows=slice(None)) -> np.ndarray:
        """Layer mean of the propagated representations at `rows`, an index
        array (every user and item by default), in the stacked row order,
        as a fresh array. `rows` selects at most |U|+|I| rows, since the
        last layer is computed in the scratch.

        Layers before the last run on the whole graph; the last one is
        computed only at `rows`. Slicing CSR rows keeps each row's
        summation order, so the result equals the full pass's rows bit for
        bit.
        """
        x = self.base.emb
        n = x.shape[0]
        _, *layers = self._scratch(x.shape[1])
        acc = x[rows].copy()
        cur = x
        for layer in range(self.n_layers - 1):
            cur = _spmm_into("csr", (n, n), self._csr(), cur, layers[layer % 2])
            acc += cur[rows]
        if self.n_layers > 0:
            k = acc.shape[0]
            out = layers[(self.n_layers - 1) % 2][:k]
            acc += _spmm_into("csr", (k, n), self._csr(rows), cur, out)
        acc /= self.n_layers + 1
        return acc

    def backward(self, rows: np.ndarray, grad_rows: np.ndarray) -> np.ndarray:
        """Pull a gradient w.r.t. the outputs at `rows` (sorted, unique; zero
        at every other row) back onto every row of the stacked base
        embeddings.

        The adjacency is symmetric, so the transpose pass is the same
        layer mean; its first layer reads only the given rows, as
        `adjacency[rows].T @ grad_rows` (the slice's CSR arrays read as
        CSC), which adds the same nonzero terms in the same order as the
        full product with the zero-padded gradient.

        The result is the sum array of the propagator's scratch: it is
        valid until the next `backward` call, which overwrites it.
        """
        n = self.base.emb.shape[0]
        acc, *layers = self._scratch(grad_rows.shape[1])
        acc.fill(0.0)
        acc[rows] = grad_rows
        if self.n_layers > 0:
            cur = _spmm_into("csc", (n, rows.size), self._csr(rows), grad_rows, layers[0])
            acc += cur
            for layer in range(1, self.n_layers):
                cur = _spmm_into("csr", (n, n), self._csr(), cur, layers[layer % 2])
                acc += cur
        acc /= self.n_layers + 1
        return acc


def _unit_rows(reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit Euclidean norm, and the norms as (n, 1)."""
    reps = np.asarray(reps, dtype=np.float64)
    norms = np.linalg.norm(reps, axis=-1, keepdims=True)
    if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
        raise DegenerateEmbedding("row with zero or non-finite norm")
    return reps / norms, norms


def normalize_rows(reps: np.ndarray) -> np.ndarray:
    """Scale each row to unit Euclidean norm.

    Raises DegenerateEmbedding on zero or non-finite row norms rather than
    epsilon-fudging: those only arise from divergence and must not be masked.
    """
    return _unit_rows(reps)[0]


def write_embeddings(table: EmbeddingTable, path: str | Path) -> None:
    """Dump as an uncompressed .npz: the float64 members `user_emb` and
    `item_emb` (`np.load` reads them), stored bit for bit. Each member is
    written through an explicit `zipfile.ZipInfo`, whose timestamp is the
    fixed default, so equal tables give byte-identical files. The file at
    `path` is replaced whole when the dump is complete."""
    with open_atomic(path) as fh, zipfile.ZipFile(fh, "w") as archive:
        for name, part in zip(DUMP_MEMBERS, (table.user_emb, table.item_emb)):
            with archive.open(zipfile.ZipInfo(name + ".npy"), "w", force_zip64=True) as member:
                np.lib.format.write_array(member, part, allow_pickle=False)


def read_embeddings(path: str | Path) -> EmbeddingTable:
    """Load a dump with exactly the members `user_emb` and `item_emb`, as
    write_embeddings() or `np.savez(path, user_emb=U, item_emb=I)` writes
    it: each 2-D float64 with at least one row, both of one width d >= 1.
    Anything else (no zip archive, another member set, dtype or shape) is
    a DataError naming the file."""
    path = Path(path)
    parts = []
    try:
        with zipfile.ZipFile(path) as archive:
            if sorted(archive.namelist()) != sorted(f"{name}.npy" for name in DUMP_MEMBERS):
                raise DataError(f"{path}: members {archive.namelist()}, not {DUMP_MEMBERS}")
            for name in DUMP_MEMBERS:
                with archive.open(name + ".npy") as member:
                    parts.append(np.lib.format.read_array(member, allow_pickle=False))
    # OSError: a corrupt offset; RuntimeError: an unsupported member; MemoryError: a huge shape
    except (zipfile.BadZipFile, EOFError, MemoryError, OSError, RuntimeError, ValueError) as exc:
        raise DataError(f"{path}: not a readable embedding dump ({exc})") from exc
    user, item = parts
    if not (all(part.dtype == np.float64 and part.ndim == 2 and len(part) > 0 for part in parts)
            and user.shape[1] == item.shape[1] > 0):
        raise DataError(
            f"{path}: user_emb and item_emb must be 2-D float64 with at least one row and one "
            f"width d >= 1, got {user.dtype} {user.shape} and {item.dtype} {item.shape}"
        )
    return EmbeddingTable.from_parts(user, item)
