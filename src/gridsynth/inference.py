"""Posterior fitting via adaptive random-walk Metropolis-within-Gibbs, with
exact Gibbs steps where a full conditional can be drawn directly.

Models declare a :class:`ParamSpace` (named parameters with supports) and a
log-posterior over the constrained values. Each support has a bijective
transform to unconstrained coordinates with a log-Jacobian, so positivity,
unit-interval, simplex, and ordered-positive constraints hold on every draw
by construction.

The sampler's state is each chain's row of constrained values. Metropolis
blocks are deliberately simple: one Gaussian random-walk block per parameter
group in unconstrained coordinates, with per-block step sizes adapted during
warm-up by a Robbins-Monro recursion targeting 0.35 acceptance. Each step
size starts at ``_INITIAL_STEP`` (0.5) over the square root of its block's
size, and each chain starts from the init point plus Gaussian jitter of
scale ``_INIT_JITTER`` (0.1) in unconstrained coordinates; neither is a
``FitConfig`` field. A block transforms only its own parameters, and its
acceptance ratio carries only their log-Jacobian (the other parameters'
terms cancel). Parameters whose full conditional is known are passed to
:func:`fit` as ``exact`` steps instead: each sweep draws them from that
conditional after the Metropolis blocks, then rescores the chain with one
log-posterior call. All chains advance in lockstep, and the Metropolis
blocks are scored in pairs, in block order: one log-posterior call over a
leading row axis scores three row sets of one row per chain, the first
block's candidate, the second block's candidate on the current state, and
the second block's candidate after the first block moved. The sampler decides
the first block, then the second on the row set that matches each chain's
first decision, so two blocks cost one call, and each draw is the one that
scoring the blocks one by one would give (pre-fetching; Brockwell 2006,
J. Comput. Graph. Stat. 15:246). An odd last block is a pair of one and scores one row set:

- values carry a leading row axis of up to three times the chain count: a
  scalar parameter is a ``(rows,)`` array and a vector one ``(rows, n)``;
- the log-posterior returns one value per row, a ``(rows,)`` array, and must
  score each row independently of the others, to the last bit: a row's value
  may not depend on which or how many rows share its call;
- a row with an out-of-domain parameter scores ``-inf`` instead of raising,
  and a row outside the open support never reaches the model;
- chain ``c`` consumes only its own substream ``(seed, "mcmc-chain", c)``, in
  its Metropolis blocks and its exact steps alike, so its draws do not depend
  on the number of chains. Each sweep it first draws one standard normal per
  unconstrained coordinate of all its Metropolis blocks, then one uniform per
  block, then whatever its exact steps draw, in order;
- the values dict the model reads is a set of views into one buffer that the
  sampler reuses from call to call: a log-posterior or an exact draw must not
  keep it or write to it.

Chains are pooled after warm-up and thinning; the kept draws are the
constrained rows. Split-R-hat and effective sample size are attached as
diagnostics (chains stuck at different constants have an infinite R-hat),
computed for all scalars at once; R-hats above the threshold are listed in
one ``UserWarning`` per fit, never a hard failure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .distributions import substream

__all__ = [
    "InitializationError",
    "ParamDef",
    "ParamSpace",
    "FitConfig",
    "PosteriorEnsemble",
    "Posterior",
    "fit",
]

SUPPORTS = ("real", "positive", "unit", "simplex", "ordered_positive")

# Warm-up adapts each block's step size toward this acceptance rate, and a
# scalar whose split-R-hat exceeds the threshold is listed in a warning.
_TARGET_ACCEPT = 0.35
_RHAT_THRESHOLD = 1.05
# Each block's first step size, split over its coordinates, and the scale of
# the Gaussian jitter that moves each chain's start off the init point.
_INITIAL_STEP = 0.5
_INIT_JITTER = 0.1


class InitializationError(RuntimeError):
    """Log-posterior is not finite at the initialization point."""


def _expit(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


@dataclass(frozen=True)
class ParamDef:
    """One named parameter: a scalar (shape ``()``) or a vector (shape ``(n,)``)."""

    name: str
    shape: tuple[int, ...] = ()
    support: str = "real"

    def __post_init__(self) -> None:
        if self.support not in SUPPORTS:
            raise ValueError(f"unknown support {self.support!r}")
        if len(self.shape) > 1:
            raise ValueError("only scalar and vector parameters are supported")
        if self.support == "simplex" and (not self.shape or self.shape[0] < 2):
            raise ValueError("simplex parameters need length >= 2")
        if self.support == "ordered_positive" and (not self.shape or self.shape[0] < 1):
            raise ValueError("ordered_positive parameters need length >= 1")

    @property
    def constrained_size(self) -> int:
        return self.shape[0] if self.shape else 1

    @property
    def unconstrained_size(self) -> int:
        if self.support == "simplex":
            return self.shape[0] - 1
        return self.constrained_size


class ParamSpace:
    """Named parameters with supports, packed into one unconstrained vector.

    ``blocks`` optionally groups parameter names that should be proposed
    jointly, each name in at most one block; ungrouped parameters get their
    own block.
    """

    def __init__(self, defs: list[ParamDef], blocks: list[list[str]] | None = None):
        names = [d.name for d in defs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        self.defs = list(defs)
        self._by_name = {d.name: d for d in defs}
        self._offsets: dict[str, tuple[int, int]] = {}
        # constrained values of all parameters live side by side in one row
        self._columns: dict[str, tuple[int, int]] = {}
        pos = cpos = 0
        for d in defs:
            self._offsets[d.name] = (pos, pos + d.unconstrained_size)
            self._columns[d.name] = (cpos, cpos + d.constrained_size)
            pos += d.unconstrained_size
            cpos += d.constrained_size
        self.dim = pos
        grouped = blocks or []
        seen: set[str] = set()
        for n in (n for g in grouped for n in g):
            if n not in self._by_name:
                raise ValueError(f"unknown parameter in blocks: {n!r}")
            if n in seen:
                raise ValueError(f"parameter listed twice in blocks: {n!r}")
            seen.add(n)
        self.blocks = [list(g) for g in grouped] + [[n] for n in names if n not in seen]
        self._groups = _transform_groups(self.defs, self._offsets, self._columns)
        # open support of each constrained column: lower < value < upper
        self._lower = np.full(cpos, -np.inf)
        self._upper = np.full(cpos, np.inf)
        for d in defs:
            lo, hi = self._columns[d.name]
            if d.support != "real":
                self._lower[lo:hi] = 0.0
            if d.support == "unit":
                self._upper[lo:hi] = 1.0

    def block_indices(self, block: list[str]) -> np.ndarray:
        idx: list[int] = []
        for name in block:
            lo, hi = self._offsets[name]
            idx.extend(range(lo, hi))
        return np.asarray(idx, dtype=int)

    def _constrain_flat(self, z) -> tuple[np.ndarray, np.ndarray]:
        """All constrained values of ``z`` (shape ``(..., dim)``) as one
        ``(..., constrained size)`` array, and the log-Jacobian of the
        transform, both keeping the leading axes of ``z``."""
        z = np.asarray(z, dtype=float)
        flat = np.empty(z.shape[:-1] + self._lower.shape)
        return flat, _transform(self._groups, z, flat)

    def _block_groups(self, block: list[str]):
        """The transform groups of the parameters in ``block`` alone, reading
        the block's own unconstrained coordinates (``block_indices`` order)."""
        defs = [self._by_name[n] for n in block]
        sizes = np.cumsum([0] + [d.unconstrained_size for d in defs]).tolist()
        local = {d.name: (lo, hi) for d, lo, hi in zip(defs, sizes, sizes[1:])}
        return _transform_groups(defs, local, self._columns)

    def _unpack(self, flat: np.ndarray) -> dict[str, float | np.ndarray]:
        """Named views into a constrained row (or stack of rows)."""
        return {
            d.name: flat[..., lo] if not d.shape else flat[..., lo:hi]
            for d, (lo, hi) in zip(self.defs, self._columns.values())
        }

    def _inside(self, flat: np.ndarray, cols=slice(None), fallback=None) -> np.ndarray:
        """Whether each row lies in the open support on the columns ``cols``
        (NaN never does); a row outside is reset to its row of ``fallback``."""
        x = flat[..., cols]
        inside = ((x > self._lower[cols]) & (x < self._upper[cols])).all(axis=-1)
        if fallback is not None and not inside.all():
            flat[~inside] = fallback[~inside]
        return inside

    def _column_slice(self, names: list[str]):
        """The constrained columns of ``names``: a slice when contiguous."""
        cols = np.concatenate([np.arange(*self._columns[n]) for n in names])
        if np.array_equal(cols, np.arange(cols[0], cols[0] + cols.size)):
            return slice(int(cols[0]), int(cols[0]) + cols.size)
        return cols

    def to_unconstrained(self, values: dict[str, float | np.ndarray]) -> np.ndarray:
        z = np.empty(self.dim)
        for d in self.defs:
            lo, hi = self._offsets[d.name]
            z[lo:hi] = _inverse(d, values[d.name])
        return z


def _transform_groups(defs, offsets, columns):
    """One transform call per support, and per vector length for the simplex
    and ordered supports, whose transforms act on whole vectors:
    ``(support, width, unconstrained columns, constrained columns)``, where
    ``width`` is one vector's unconstrained size (0 for elementwise supports)."""
    groups: dict[tuple[str, int], tuple[list[int], list[int]]] = {}
    for d in defs:
        vector = d.support in ("simplex", "ordered_positive")
        width = d.unconstrained_size if vector else 0
        ucols, ccols = groups.setdefault((d.support, width), ([], []))
        ucols.extend(range(*offsets[d.name]))
        ccols.extend(range(*columns[d.name]))
    return [
        (support, width, np.asarray(u, dtype=int), np.asarray(c, dtype=int))
        for (support, width), (u, c) in groups.items()
    ]


def _transform(groups, z: np.ndarray, flat: np.ndarray):
    """Write the constrained values of ``groups`` from ``z`` (``(..., dim)``)
    into their columns of ``flat`` and return their summed log-Jacobian."""
    batch = z.shape[:-1]
    log_jacobian = 0.0
    for support, width, ucols, ccols in groups:
        # np.take keeps rows contiguous (z[..., ucols] would be column-major),
        # so each row's log-Jacobian sums the same way for any number of rows;
        # a group that reads all of z (in order) reads it as it is
        zg = z if ucols.size == z.shape[-1] else np.take(z, ucols, axis=-1)
        if width:
            zg = zg.reshape(batch + (-1, width))
        x, lj = _forward(support, zg)
        flat[..., ccols] = x.reshape(batch + (-1,))
        log_jacobian = log_jacobian + lj
    return log_jacobian


def _forward(support: str, z: np.ndarray):
    """Constrained values and summed log-Jacobian per leading row. The
    simplex and ordered supports get ``z`` as ``(..., vectors, free size)``."""
    if support == "real":
        return z, 0.0
    if support == "positive":
        return np.exp(z), z.sum(axis=-1)
    if support == "unit":
        x = _expit(z)
        return x, (np.log(x) + np.log1p(-x)).sum(axis=-1)
    if support == "ordered_positive":
        return np.cumsum(np.exp(z), axis=-1), z.sum(axis=-1).sum(axis=-1)
    if support == "simplex":
        # stick breaking: break i takes v_i of what is left, where
        # v_i = expit(z_i - log(k - 1 - i)) centres z = 0 on the uniform point
        free = z.shape[-1]
        v = _expit(z - np.log(np.arange(free, 0, -1.0)))
        left = np.cumprod(1.0 - v, axis=-1)
        stick = np.concatenate([np.ones(z.shape[:-1] + (1,)), left[..., :-1]], axis=-1)
        x = np.concatenate([stick * v, left[..., -1:]], axis=-1)
        lj = (
            np.log(np.maximum(stick, 1e-300))
            + np.log(np.maximum(v, 1e-300))
            + np.log(np.maximum(1.0 - v, 1e-300))
        )
        return x, lj.sum(axis=-1).sum(axis=-1)
    raise AssertionError(support)  # pragma: no cover


def _inverse(d: ParamDef, value: float | np.ndarray) -> np.ndarray:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if d.support == "real":
        return v.copy()
    if d.support == "positive":
        if np.any(v <= 0.0):
            raise ValueError(f"{d.name}: positive parameter initialized non-positive")
        return np.log(v)
    if d.support == "unit":
        if np.any((v <= 0.0) | (v >= 1.0)):
            raise ValueError(f"{d.name}: unit parameter initialized outside (0, 1)")
        return np.log(v) - np.log1p(-v)
    if d.support == "simplex":
        k = d.shape[0]
        if abs(float(v.sum()) - 1.0) > 1e-8 or np.any(v <= 0.0):
            raise ValueError(f"{d.name}: simplex init must be positive and sum to 1")
        z = np.empty(k - 1)
        stick = 1.0
        for i in range(k - 1):
            frac = float(v[i] / stick)
            frac = min(max(frac, 1e-12), 1.0 - 1e-12)
            z[i] = math.log(frac / (1.0 - frac)) + math.log(k - 1 - i)
            stick *= 1.0 - frac
        return z
    if d.support == "ordered_positive":
        diffs = np.diff(np.concatenate(([0.0], v)))
        if np.any(diffs <= 0.0):
            raise ValueError(f"{d.name}: ordered_positive init must be strictly increasing > 0")
        return np.log(diffs)
    raise AssertionError(d.support)  # pragma: no cover


@dataclass
class FitConfig:
    chains: int = 4
    warmup: int = 2000
    draws: int = 2000
    thin: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if (
            self.chains < 1
            or self.warmup < 0
            or self.draws < 1
            or not 1 <= self.thin <= self.draws
        ):
            raise ValueError("invalid fit configuration")


@dataclass
class PosteriorEnsemble:
    """Pooled post-warm-up draws plus sampler diagnostics."""

    draws: dict[str, np.ndarray]
    diagnostics: dict = field(default_factory=dict)

    @property
    def size(self) -> int:
        return next(iter(self.draws.values())).shape[0]


@dataclass
class Posterior:
    """A fitted sub-model: its pooled ensemble."""

    ensemble: PosteriorEnsemble


def fit(
    log_posterior,
    space: ParamSpace,
    config: FitConfig | None = None,
    init: dict[str, float | np.ndarray] | None = None,
    exact=(),
) -> PosteriorEnsemble:
    """Sample the posterior of ``log_posterior`` over ``space``.

    All chains advance together, and the sampler's state is each chain's row
    of constrained values. ``log_posterior`` receives a dict of constrained
    values with a leading row axis (a scalar parameter is a ``(rows,)``
    array, a vector one ``(rows, n)``) and returns one value per row, ``-inf``
    allowed away from the init point; a row with an out-of-domain parameter
    should score ``-inf`` rather than raise. A call gets up to
    ``3 * chains`` rows, and each row must score as it would alone, bit for
    bit, whatever else shares the call. It runs with numpy's overflow,
    divide-by-zero and invalid-value warnings off: the batched kernels
    evaluate every row's formula before masking, and a row that is finite but
    extreme (a positive value above 1e154 squares to inf in a half-normal
    prior) must be rejected, not abort the fit where warnings are errors. Any
    non-finite value it returns rejects the row. The model never sees a row
    outside the open support (an overflow to inf, an underflow to 0, a unit
    value rounded to 1): the row is swapped for the state it was proposed from
    and scored ``-inf``.

    The values dict passed to ``log_posterior`` (and to ``draw`` below) holds
    views into a buffer the sampler reuses: it is valid for that call only,
    and must not be kept or written to.

    ``exact`` lists the parameters whose full conditional can be drawn
    directly, as ``(names, draw)`` pairs. ``draw(values, rngs)`` gets the
    current constrained values (one row per chain) and returns a dict of new
    values for ``names``, drawing chain ``c``'s row only from ``rngs[c]``. It
    runs under the same warning settings as ``log_posterior``. These
    parameters leave the Metropolis blocks. Each sweep runs the Metropolis
    blocks, then each exact step in order followed by one log-posterior call
    that refreshes the chain's score; a drawn row that leaves the open
    support or scores non-finite keeps the chain's current values and counts
    as a rejection in that step's ``diagnostics["acceptance"]`` entry (keyed
    by its names joined with ``-``, like a block).

    A Metropolis block proposes a Gaussian random-walk step in the
    unconstrained coordinates of its own parameters and transforms only
    those; its acceptance ratio carries only their log-Jacobian, since the
    other parameters' terms cancel. Kept draws are the constrained rows.
    Blocks are scored two at a time: one call scores the first block's
    candidate, the second block's candidate on the current state, and the
    second block's candidate after the first moved (``3 * chains`` rows);
    the second block is then decided on whichever of its two row sets
    matches each chain's first decision, so the draws are those of one call
    per block. An odd last block is scored alone (``chains`` rows), as is
    each exact step.

    Chain ``c`` draws only from its own substream ``(seed, "mcmc-chain", c)``
    and keeps its own step sizes and proposal covariance, so its draws do not
    depend on how many chains run beside it. Each sweep, in this order, it
    draws one standard-normal vector covering the unconstrained coordinates
    of all Metropolis blocks (each block takes its slice, in block order),
    then one uniform per block for the accept test, and then its exact steps
    draw in order. A support check covers only the columns the step changed;
    the rest of the row is the state it was proposed from, which is inside.

    At most one ``UserWarning`` per call lists the scalars above the R-hat
    threshold (an infinite R-hat included); ``diagnostics["rhat"]`` holds
    every scalar's value. Chains start from ``init`` (or the transform origin)
    with per-chain jitter; step sizes adapt during warm-up only, so the kept
    draws target the exact posterior.
    """
    config = config or FitConfig()
    exact = [(list(names), draw) for names, draw in exact]
    blocks = _metropolis_blocks(space, [n for names, _ in exact for n in names])
    quiet = dict(over="ignore", divide="ignore", invalid="ignore")
    chains = config.chains
    width = space._lower.size

    def score(values, inside) -> np.ndarray:
        """Model log-posterior of each row that ``values`` views. A row
        outside the open support (``inside`` false), reset beforehand to a
        row inside, scores -inf, as does a non-finite value."""
        lp = np.asarray(log_posterior(values), dtype=float)
        if lp.shape != inside.shape:
            raise ValueError(
                f"log_posterior must return one value per row, shape {inside.shape}; "
                f"got shape {lp.shape}"
            )
        return np.where(inside & np.isfinite(lp), lp, -np.inf)

    init_z = space.to_unconstrained(init) if init else np.zeros(space.dim)
    init_flat, _ = space._constrain_flat(init_z[None])
    rngs = [substream(config.seed, "mcmc-chain", c) for c in range(chains)]
    z = np.repeat(init_z[None], chains, axis=0)
    current = np.repeat(init_flat, chains, axis=0)  # the state: constrained rows
    current_values = space._unpack(current)
    # the candidate rows of every step, up to three row sets of one row per
    # chain: the first block's candidate, the second's on the current state,
    # and the second's after the first moved; the model reads named views of
    # the first row set, or of all three
    cand = np.empty((3 * chains, width))
    first, second, second_moved = cand[:chains], cand[chains : 2 * chains], cand[2 * chains :]
    cand_values = {sets: space._unpack(cand[: sets * chains]) for sets in (1, 3)}
    block_idx = [space.block_indices(b) for b in blocks]
    block_groups = [space._block_groups(b) for b in blocks]
    block_changed = [space._column_slice(b) for b in blocks]
    pairs = [range(bi, min(bi + 2, len(blocks))) for bi in range(0, len(blocks), 2)]
    chain_rows = np.arange(chains)
    exact_cols = [[space._columns[n] for n in names] for names, _ in exact]
    exact_changed = [space._column_slice(names) for names, _ in exact]
    # each sweep's random numbers: one normal per Metropolis coordinate, each
    # block reading its slice of them, and one uniform per block
    starts = np.cumsum([0] + [idx.size for idx in block_idx]).tolist()
    noise = np.empty((chains, starts[-1]))
    uniform = np.empty((chains, len(blocks)))
    sweep_accept = np.empty((chains, len(blocks)))
    kept_per_chain = config.draws // config.thin
    chain_draws = np.empty((chains, kept_per_chain, width))
    # per-chain, per-block state: log step size, summed acceptance probability,
    # and the proposal shape learned from warm-up draws (Welford covariance ->
    # Cholesky factor that correlates the proposals; None until then)
    log_step = np.array(
        [[math.log(_INITIAL_STEP / math.sqrt(len(idx))) for idx in block_idx]] * chains
    )
    accepted = np.zeros((chains, len(blocks) + len(exact)))
    chol: list[np.ndarray | None] = [None] * len(blocks)
    w_count = 0
    w_mean = [np.zeros((chains, idx.size)) for idx in block_idx]
    w_cov = [np.zeros((chains, idx.size, idx.size)) for idx in block_idx]
    kept = 0
    with np.errstate(**quiet):
        # the model sees the init row only inside the support
        inside = space._inside(init_flat)
        init_lp = score(space._unpack(init_flat), inside) if inside[0] else np.array([-np.inf])
        if not np.isfinite(init_lp[0]):
            raise InitializationError("log-posterior is not finite at the initialization point")
        lp = np.repeat(init_lp, chains)
        # up to 20 jittered starts per chain; a chain keeps its first finite one
        pending = list(range(chains))
        for _ in range(20):
            if not pending:
                break
            cand_z = init_z + _INIT_JITTER * np.array(
                [rngs[c].standard_normal(space.dim) for c in pending]
            )
            rows = current[pending]
            _transform(space._groups, cand_z, rows)
            inside = space._inside(rows, fallback=current[pending])
            cand_lp = score(space._unpack(rows), inside)
            for row, c in enumerate(pending):
                if np.isfinite(cand_lp[row]):
                    z[c], lp[c], current[c] = cand_z[row], cand_lp[row], rows[row]
            pending = [c for row, c in enumerate(pending) if not np.isfinite(cand_lp[row])]
        # each block's unconstrained coordinates, and the per-chain log-Jacobian
        # of its current values: only that block's moves change either
        z_blocks = [z[:, idx] for idx in block_idx]
        log_jac = np.zeros((chains, len(blocks)))
        for bi, groups in enumerate(block_groups):
            log_jac[:, bi] = _transform(groups, z_blocks[bi], first)

        for it in range(config.warmup + config.draws):
            warm = it < config.warmup
            for c, rng in enumerate(rngs):
                rng.standard_normal(out=noise[c])
                rng.random(out=uniform[c])
            step = np.exp(log_step)
            for pair in pairs:
                # propose both blocks of the pair, each on the current state,
                # and score every row set they can need in one call
                cand_z, cand_lj, inside = [], [], []
                for bi, rows in zip(pair, (first, second)):
                    shift = noise[:, starts[bi] : starts[bi + 1]]
                    if chol[bi] is not None:
                        shift = (chol[bi] @ shift[:, :, None])[:, :, 0]
                    cand_z.append(z_blocks[bi] + step[:, bi, None] * shift)
                    np.copyto(rows, current)
                    cand_lj.append(_transform(block_groups[bi], cand_z[-1], rows))
                    inside.append(space._inside(rows, block_changed[bi], current))
                if len(pair) == 2:
                    changed = block_changed[pair[1]]
                    np.copyto(second_moved, first)
                    second_moved[:, changed] = second[:, changed]
                    inside.append(inside[1])
                cand_lp = score(cand_values[len(inside)], np.concatenate(inside))
                at = slice(0, chains)
                for k, bi in enumerate(pair):
                    if k:
                        # the second block reads the row set that matches
                        # each chain's first decision
                        at = np.where(move, 2 * chains, chains) + chain_rows
                    block_lp = cand_lp[at]
                    # min(1, exp(log ratio)), floored at exp(-700)
                    log_ratio = (block_lp + cand_lj[k]) - (lp + log_jac[:, bi])
                    accept_prob = np.exp(np.minimum(np.maximum(log_ratio, -700.0), 0.0))
                    sweep_accept[:, bi] = accept_prob
                    move = uniform[:, bi] < accept_prob
                    if move.any():
                        np.copyto(z_blocks[bi], cand_z[k], where=move[:, None])
                        np.copyto(current, cand[at], where=move[:, None])
                        np.copyto(lp, block_lp, where=move)
                        np.copyto(log_jac[:, bi], cand_lj[k], where=move)
            if warm:
                # Robbins-Monro gain on the log step size, toward the target acceptance
                log_step += (it + 10.0) ** -0.6 * (sweep_accept - _TARGET_ACCEPT)
            else:
                accepted[:, : len(blocks)] += sweep_accept
            for ei, ((step_names, draw), cols) in enumerate(zip(exact, exact_cols)):
                np.copyto(first, current)
                new = draw(current_values, rngs)
                for name, (lo, hi) in zip(step_names, cols):
                    first[:, lo:hi] = np.reshape(new[name], (chains, hi - lo))
                inside = space._inside(first, exact_changed[ei], current)
                cand_lp = score(cand_values[1], inside)
                move = np.isfinite(cand_lp)
                np.copyto(current, first, where=move[:, None])
                np.copyto(lp, cand_lp, where=move)
                if not warm:
                    accepted[:, len(blocks) + ei] += move
            if warm:
                w_count += 1
                for bi, zb in enumerate(z_blocks):
                    delta = zb - w_mean[bi]
                    w_mean[bi] += delta / w_count
                    w_cov[bi] += delta[:, :, None] * (zb - w_mean[bi])[:, None, :]
                if w_count >= 100 and w_count % 50 == 0:
                    for bi, idx in enumerate(block_idx):
                        if chol[bi] is None:
                            chol[bi] = np.repeat(np.eye(idx.size)[None], chains, axis=0)
                        for c in range(chains):
                            cov = w_cov[bi][c] / (w_count - 1)
                            jitter = 1e-8 + 1e-6 * float(np.trace(cov)) / idx.size
                            try:
                                chol[bi][c] = np.linalg.cholesky(cov + jitter * np.eye(idx.size))
                            except np.linalg.LinAlgError:
                                pass
            if not warm and (it - config.warmup) % config.thin == config.thin - 1:
                chain_draws[:, kept] = current
                kept += 1
    accept_rates = accepted / config.draws

    names, pooled, rhat, ess = _summarize_chains(space, chain_draws)
    ensemble = PosteriorEnsemble(draws=pooled)
    steps = blocks + [step_names for step_names, _ in exact]
    ensemble.diagnostics = {
        "acceptance": {"-".join(b): float(accept_rates[:, i].mean()) for i, b in enumerate(steps)},
        "rhat": {n: float(r) for n, r in zip(names, rhat)},
        "ess": {n: float(e) for n, e in zip(names, ess)},
        "kept_draws": int(chains * kept_per_chain),
    }
    # NaN (too few draws) compares false; an infinite R-hat is listed
    high = [(n, r) for n, r in zip(names, rhat) if r > _RHAT_THRESHOLD]
    if high:
        listed = ", ".join(f"{n} ({r:.3f})" for n, r in high)
        warnings.warn(
            f"R-hat above {_RHAT_THRESHOLD} for {len(high)} scalars: {listed}",
            stacklevel=2,
        )
    return ensemble


def _metropolis_blocks(space: ParamSpace, exact_names: list[str]) -> list[list[str]]:
    """The blocks of ``space`` left to Metropolis once ``exact_names`` are
    drawn exactly; a block must be wholly one or the other."""
    drawn = set(exact_names)
    if len(drawn) != len(exact_names):
        raise ValueError("a parameter appears in more than one exact step")
    unknown = sorted(drawn - set(space._by_name))
    if unknown:
        raise ValueError(f"unknown parameters in exact: {unknown}")
    blocks = []
    for block in space.blocks:
        shared = drawn.intersection(block)
        if shared and len(shared) != len(block):
            raise ValueError(f"block {block} mixes exact and Metropolis parameters")
        if not shared:
            blocks.append(block)
    return blocks


def _summarize_chains(space: ParamSpace, chain_draws: np.ndarray):
    """Pool the kept constrained rows and compute per-scalar R-hat / ESS, all
    scalars in one call each."""
    chains, kept, width = chain_draws.shape
    rows = space._unpack(chain_draws.reshape(chains * kept, width))
    pooled = {name: np.ascontiguousarray(arr) for name, arr in rows.items()}
    names = [
        f"{d.name}[{j}]" if d.shape else d.name
        for d in space.defs
        for j in range(d.constrained_size)
    ]
    return names, pooled, _split_rhat(chain_draws), _effective_sample_size(chain_draws)


def _split_rhat(x: np.ndarray) -> np.ndarray:
    """Split-R-hat of each scalar of a ``(chains, draws, scalars)`` array."""
    c, n, width = x.shape
    half = n // 2
    if half < 2:
        return np.full(width, math.nan)
    seqs = np.concatenate([x[:, :half], x[:, half : 2 * half]], axis=0)
    means = seqs.mean(axis=1)
    w = seqs.var(axis=1, ddof=1).mean(axis=0)
    b = half * means.var(axis=0, ddof=1)
    var_plus = (half - 1.0) / half * w + b / half
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(var_plus / w)
    # constant sequences (whose variance need not round to 0): converged if
    # they agree, stuck apart if not
    constant = ~np.ptp(seqs, axis=1).any(axis=0)
    agree = np.ptp(seqs[:, 0], axis=0) == 0.0
    return np.where(constant, np.where(agree, 1.0, math.inf), rhat)


def _effective_sample_size(x: np.ndarray) -> np.ndarray:
    """ESS of each scalar of a ``(chains, draws, scalars)`` array, via
    chain-averaged autocorrelations with Geyer's initial-positive rule.

    The autocovariances of every chain and scalar come from one FFT along the
    draw axis; the sum of autocorrelation pairs stops, per scalar, before the
    first negative pair.
    """
    c, n, width = x.shape
    total = c * n
    centered = x - x.mean(axis=1, keepdims=True)
    var = centered.var(axis=1).mean(axis=0)
    max_lag = min(n - 1, 500)
    # lag-k autocovariance sum_t x_t x_{t+k} / n, chain-averaged; zero padding
    # to 2n keeps the correlation linear, not circular
    spectrum = np.fft.rfft(centered, n=2 * n, axis=1)
    acov = np.fft.irfft(spectrum * spectrum.conj(), n=2 * n, axis=1)[:, 1 : max_lag + 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = acov.mean(axis=0) / n / var
    # the pairs (rho_1 + rho_2), (rho_3 + rho_4), ... whose second lag is at
    # most max_lag
    last = 2 * (max_lag // 2)
    pairs = rho[0:last:2] + rho[1:last:2]
    before_negative = np.logical_and.accumulate(pairs >= 0.0, axis=0)
    tau = np.where(before_negative, pairs, 0.0).sum(axis=0)
    ess = np.clip(total / (1.0 + 2.0 * tau), 1.0, total)
    # constant chains: one sample each unless they all agree
    constant = ~np.ptp(x, axis=1).any(axis=0)
    agree = np.ptp(x[:, 0], axis=0) == 0.0
    return np.where(constant, np.where(agree, float(total), float(c)), ess)
