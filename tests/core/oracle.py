"""An exact 'model' over enumerated full-join rows (test oracle).

Exposes the same ``conditional(tokens, col, wildcard)`` interface as ResMADE
but computes conditionals exactly from the brute-forced full outer join.
Plugged into :class:`ProgressiveSampler`, it isolates the *inference* layer
(region translation, factorization, indicators, fanout scaling) from
learning error: estimates must match the exact executor up to Monte Carlo
noise only.
"""

from __future__ import annotations

import numpy as np

from repro.core.encoding import Layout
from repro.joins.counts import JoinCounts
from repro.joins.sampler import FullJoinSampler, joined_column_specs
from tests.helpers import brute_force_full_join


class OracleModel:
    def __init__(self, schema, factorization_bits=None, exclude=()):
        self.counts = JoinCounts(schema)
        specs = joined_column_specs(schema, self.counts, exclude=exclude)
        self.sampler = FullJoinSampler(schema, self.counts, specs=specs)
        self.layout = Layout(schema, self.counts, specs, factorization_bits)
        rows = brute_force_full_join(schema)
        row_arrays = {
            t: np.array(
                [(-1 if r[t] is None else r[t]) for r in rows], dtype=np.int64
            )
            for t in schema.tables
        }
        batch = self.sampler.assemble(row_arrays)
        self.all_tokens = self.layout.encode_batch(batch)
        self.full_join_size = float(len(rows))

    def conditional(self, tokens, col, wildcard=None):
        n, dom = len(tokens), self.layout.domains[col]
        out = np.full((n, dom), 1.0 / dom, dtype=np.float64)
        for i in range(n):
            mask = np.ones(len(self.all_tokens), dtype=bool)
            for j in range(col):
                if wildcard is None or not wildcard[i, j]:
                    mask &= self.all_tokens[:, j] == tokens[i, j]
            total = int(mask.sum())
            if total == 0:
                continue
            hist = np.bincount(self.all_tokens[mask, col], minlength=dom)
            out[i] = hist / total
        return out


class FixedBudget:
    """A bare engine served at one sample count.

    The serving stack passes no sample budget: a served ``NeuroCard``
    answers at its own ``progressive_samples``. This gives a bare
    :class:`~repro.core.progressive.ProgressiveSampler` (the oracle) the
    same shape, so a scheduler, a service or a worker pool (it pickles)
    answers with ``n_samples`` rows per query. ``inference`` lets the
    scheduler validate queries at submit; ``schema`` lets a service build
    cascade tiers and fallbacks.
    """

    is_fitted = True

    def __init__(self, engine, n_samples: int):
        self.inference = engine
        self.n_samples = n_samples

    @property
    def schema(self):
        return self.inference.layout.schema

    @property
    def size_bytes(self) -> int:
        return self.inference.size_bytes

    def estimate_batch(self, queries, rngs=None):
        return self.inference.estimate_batch(queries, n_samples=self.n_samples, rngs=rngs)

    def estimate(self, query, rng=None) -> float:
        return self.inference.estimate(query, n_samples=self.n_samples, rng=rng)
