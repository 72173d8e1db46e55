"""Lossless column factorization (paper §5, Fig. 5).

A column with a large code domain is sliced into subcolumns of at most
``2^bits`` values each: the *first* subcolumn holds the highest-order bits
(matching the paper's Figure 5). Because the downstream model is
autoregressive, no information is lost — ``p(col) = p(sub_1) p(sub_2|sub_1)
...`` — hence "lossless".

Range filters on the original column translate to *progressively relaxed*
per-subcolumn intervals: while the drawn high-bit chunks sit exactly on the
filter boundary the next chunk stays constrained; once a drawn chunk moves
strictly inside the range, lower chunks become wildcards-in-range. IN filters
translate through a prefix trie over chunk tuples.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import EstimationError


class Factorizer:
    """Bijective chunking of codes ``0..domain-1`` into base-``2^bits`` digits."""

    def __init__(self, domain: int, bits: int | None):
        if domain < 1:
            raise EstimationError("factorizer domain must be >= 1")
        self.domain = int(domain)
        self.bits = bits
        max_code = self.domain - 1
        needed_bits = max(1, max_code.bit_length())
        if bits is None or needed_bits <= bits:
            self.n_sub = 1
            self.shifts = [0]
            self.sub_domains = [self.domain]
            return
        self.n_sub = math.ceil(needed_bits / bits)
        # First subcolumn = highest bits.
        self.shifts = [bits * (self.n_sub - 1 - k) for k in range(self.n_sub)]
        low_mask_domain = 2**bits
        self.sub_domains = [(max_code >> self.shifts[0]) + 1] + [
            low_mask_domain
        ] * (self.n_sub - 1)

    @property
    def is_factorized(self) -> bool:
        return self.n_sub > 1

    # ------------------------------------------------------------------
    def encode(self, codes: np.ndarray) -> np.ndarray:
        """``(B,) -> (B, n_sub)`` chunk matrix, high bits first."""
        codes = np.asarray(codes, dtype=np.int64)
        if self.n_sub == 1:
            return codes.reshape(-1, 1)
        mask = (1 << self.bits) - 1
        out = np.empty((len(codes), self.n_sub), dtype=np.int64)
        for k, shift in enumerate(self.shifts):
            out[:, k] = (codes >> shift) & (mask if k > 0 else (1 << 63) - 1)
        return out

    def decode(self, chunks: np.ndarray) -> np.ndarray:
        """Inverse of :meth:`encode`."""
        chunks = np.asarray(chunks, dtype=np.int64)
        if self.n_sub == 1:
            return chunks[:, 0]
        out = np.zeros(len(chunks), dtype=np.int64)
        for k, shift in enumerate(self.shifts):
            out += chunks[:, k] << shift
        return out

    def chunks_of(self, code: int) -> List[int]:
        """Chunk tuple of a single code."""
        return self.encode(np.array([code]))[0].tolist()


class IntervalState:
    """Per-sample progressive translation of ``[lo, hi]`` onto subcolumns.

    Implements the paper's §5 example generalized to two-sided intervals:
    sample ``k``'s bounds for subcolumn ``j`` are tight only while all its
    higher chunks were drawn exactly on the corresponding boundary.
    """

    def __init__(self, factorizer: Factorizer, lo: int, hi: int, n_samples: int):
        if lo > hi:
            raise EstimationError("empty interval must be short-circuited earlier")
        self.factorizer = factorizer
        self.lo_chunks = factorizer.chunks_of(lo)
        self.hi_chunks = factorizer.chunks_of(hi)
        self.tight_lo = np.ones(n_samples, dtype=bool)
        self.tight_hi = np.ones(n_samples, dtype=bool)

    def bounds(self, sub: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-sample inclusive (lo, hi) code bounds for subcolumn ``sub``."""
        dom = self.factorizer.sub_domains[sub]
        lo = np.where(self.tight_lo, self.lo_chunks[sub], 0)
        hi = np.where(self.tight_hi, self.hi_chunks[sub], dom - 1)
        return lo, hi

    def observe(self, sub: int, drawn: np.ndarray) -> None:
        """Relax bounds after drawing subcolumn ``sub``."""
        self.tight_lo &= drawn == self.lo_chunks[sub]
        self.tight_hi &= drawn == self.hi_chunks[sub]


class SetTrie:
    """Prefix trie over chunk tuples for IN filters on factorized columns.

    The trie is stored as flat arrays so progressive sampling can walk many
    samples at once: each distinct drawn prefix at level ``k`` is a dense
    *node id*, ``codes_at(node, k)`` gives the admissible chunk values under
    that node, and :meth:`advance` maps ``(node, drawn chunk)`` pairs to the
    next level's node ids with a single ``searchsorted``. ``valid(prefix,
    k)`` keeps the tuple-keyed view for tests and single-sample callers.
    """

    def __init__(self, factorizer: Factorizer, codes: np.ndarray):
        self.factorizer = factorizer
        codes = np.unique(np.asarray(codes, dtype=np.int64))
        chunks = factorizer.encode(codes)
        self.n_sub = factorizer.n_sub
        # Per level: node -> sorted admissible chunk values, the sorted
        # (node * sub_domain + chunk) transition keys (whose positions are
        # the next level's node ids), and prefix-tuple -> node for valid().
        self._node_codes: List[List[np.ndarray]] = []
        self._trans_keys: List[np.ndarray] = []
        self._prefix_nodes: List[Dict[Tuple[int, ...], int]] = [{(): 0}]
        node_of_row = np.zeros(len(codes), dtype=np.int64)
        for k in range(self.n_sub):
            dom = factorizer.sub_domains[k]
            keys, node_of_row = np.unique(
                node_of_row * dom + chunks[:, k], return_inverse=True
            )
            parents, values = keys // dom, keys % dom
            n_nodes = len(self._prefix_nodes[k])
            self._node_codes.append([values[parents == p] for p in range(n_nodes)])
            self._trans_keys.append(keys)
            children: Dict[Tuple[int, ...], int] = {}
            for prefix, node in self._prefix_nodes[k].items():
                for v in self._node_codes[k][node]:
                    child = int(np.searchsorted(keys, node * dom + v))
                    children[prefix + (int(v),)] = child
            self._prefix_nodes.append(children)

    def valid(self, prefix: Tuple[int, ...], k: int) -> np.ndarray:
        """Admissible chunk values at level ``k`` for a drawn prefix."""
        node = self._prefix_nodes[k].get(tuple(prefix))
        if node is None:
            return np.empty(0, dtype=np.int64)
        return self._node_codes[k][node]

    def codes_at(self, node: int, k: int) -> np.ndarray:
        """Admissible chunk values at level ``k`` under node ``node``."""
        return self._node_codes[k][node]

    def advance(self, nodes: np.ndarray, drawn: np.ndarray, k: int) -> np.ndarray:
        """Vectorized ``(node, drawn chunk) -> next-level node`` transition.

        Pairs without a matching trie edge (possible for samples that just
        went dead) map to node 0; such a sample's weight is already 0.
        """
        keys = self._trans_keys[k]
        key = nodes * self.factorizer.sub_domains[k] + drawn
        idx = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        return np.where(keys[idx] == key, idx, 0)
