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
conditional after the Metropolis blocks, and each draw is scored by one
log-posterior call, the last step's in the next sweep's first call. All
chains advance in lockstep, and the Metropolis blocks are scored in pairs,
in block order: one log-posterior call over a leading row axis scores three
row sets of one row per chain, the first block's candidate, the second
block's candidate on the current state, and the second block's candidate
after the first block moved. The sampler decides the first block, then
the second on the row set that matches each chain's first decision, so two
blocks cost one call, and each draw is the one that scoring the blocks one
by one would give (pre-fetching; Brockwell 2006, J. Comput. Graph. Stat.
15:246). An odd last block is a pair of one and scores one row set, and the
last exact step's drawn rows ride along in the next sweep's first call as
one more row set (see :func:`fit`):

- values carry a leading row axis of up to four times the chain count: a
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
        log_jacobian = 0.0
        for terms in _transform(self._groups, z, flat):
            if terms is not None:
                log_jacobian = log_jacobian + terms.sum(axis=-1)
        return flat, log_jacobian

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
        return _as_slice(np.concatenate([np.arange(*self._columns[n]) for n in names]))

    def to_unconstrained(self, values: dict[str, float | np.ndarray]) -> np.ndarray:
        missing = [n for n in self._by_name if n not in values]
        unknown = [n for n in values if n not in self._by_name]
        wrong = [f"{kind} {n}" for kind, n in (("missing", missing), ("unknown", unknown)) if n]
        if wrong:
            raise ValueError("init entries " + " and ".join(wrong))
        z = np.empty(self.dim)
        for d in self.defs:
            size = np.size(values[d.name])
            if size != d.constrained_size:
                raise ValueError(
                    f"init entry {d.name!r} needs size {d.constrained_size}, got size {size}"
                )
            lo, hi = self._offsets[d.name]
            z[lo:hi] = _inverse(d, values[d.name])
        return z


def _as_slice(idx: np.ndarray):
    """``idx`` as a slice when it runs through consecutive integers, which
    indexes by a view instead of a copy."""
    if np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size)):
        return slice(int(idx[0]), int(idx[0]) + idx.size)
    return idx


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


def _transform(groups, z: np.ndarray, flat: np.ndarray) -> list:
    """Write the constrained values of ``groups`` from ``z`` (``(..., dim)``)
    into their columns of ``flat`` and return each group's log-Jacobian
    terms, as :func:`_forward` gives them."""
    batch = z.shape[:-1]
    terms = []
    for support, width, ucols, ccols in groups:
        # np.take keeps rows contiguous (z[..., ucols] would be column-major),
        # so each row's log-Jacobian sums the same way for any number of rows;
        # a group that reads all of z (in order) reads it as it is
        zg = z if ucols.size == z.shape[-1] else np.take(z, ucols, axis=-1)
        if width:
            zg = zg.reshape(batch + (-1, width))
        x, group_terms = _forward(support, zg)
        flat[..., ccols] = x.reshape(batch + (-1,))
        terms.append(group_terms)
    return terms


def _forward(support: str, z: np.ndarray):
    """Constrained values and log-Jacobian terms per leading row, whose sum
    is the row's log-Jacobian: one term per coordinate for the elementwise
    supports, one per vector for the simplex and ordered supports (which get
    ``z`` as ``(..., vectors, free size)``), and None on the real line."""
    if support == "real":
        return z, None
    if support == "positive":
        return np.exp(z), z
    if support == "unit":
        x = _expit(z)
        return x, np.log(x) + np.log1p(-x)
    if support == "ordered_positive":
        return np.cumsum(np.exp(z), axis=-1), z.sum(axis=-1)
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
        return x, lj.sum(axis=-1)
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
    ``4 * chains`` rows, and each row must score as it would alone, bit for
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
    blocks, then each exact step in order; a drawn row that leaves the open
    support or scores non-finite keeps the chain's current values and counts
    as a rejection in that step's ``diagnostics["acceptance"]`` entry (keyed
    by its names joined with ``-``, like a block), in the sweep that drew it.
    The support is checked as soon as a step draws, and a row outside it is
    never scored. Each exact step but the last is then scored by a call of
    its own. The last one's drawn rows are scored in the next sweep's first
    call, as one more row set beside the first pair's: each chain moves to
    its drawn row meanwhile, and the first pair proposes from it. A drawn row
    that scores non-finite sends its chain back to its row and score from
    before the draw (and its kept draw, if that sweep kept one), and the
    first pair is proposed again and scored in a second call. The last
    sweep's draw is scored alone after it, and a fit with no Metropolis block
    scores every exact step in a call of its own.

    A Metropolis block proposes a Gaussian random-walk step in the
    unconstrained coordinates of its own parameters and transforms only
    those; its acceptance ratio carries only their log-Jacobian, since the
    other parameters' terms cancel. Kept draws are the constrained rows.
    Blocks are scored two at a time: one call scores the first block's
    candidate, the second block's candidate on the current state, and the
    second block's candidate after the first moved (``3 * chains`` rows,
    and ``chains`` more in the first pair's call for a deferred exact draw);
    the second block is then decided on whichever of its two row sets
    matches each chain's first decision, so the draws are those of one call
    per block. An odd last block is scored alone (``chains`` rows). Every
    block's candidate is proposed at the sweep's start, from the state then,
    since a block's own coordinates change only at its own decision: one
    step over all blocks' coordinates, one transform and one support check,
    after which a pair only copies its candidates' columns into its rows.

    Chain ``c`` draws only from its own substream ``(seed, "mcmc-chain", c)``
    and keeps its own step sizes and proposal covariance, so its draws do not
    depend on how many chains run beside it. Each sweep, in this order, it
    draws one standard-normal vector covering the unconstrained coordinates
    of all Metropolis blocks (each block takes its slice, in block order),
    then one uniform per block for the accept test, and then its exact steps
    draw in order. A support check covers only the columns the step changed;
    the rest of the row is the state it was proposed from, which is inside.
    The draws are those of scoring every step in a call of its own, bit for
    bit.

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
    # the candidate rows of every call, up to four row sets of one row per
    # chain: the first block's candidate, the second's on the current state,
    # and the second's after the first moved, then the chains' rows as the
    # last exact step drew them; the model reads named views of the first sets
    cand = np.empty((4 * chains, width))
    first, second, second_moved = (cand[k * chains : (k + 1) * chains] for k in range(3))
    cand_values = {sets: space._unpack(cand[: sets * chains]) for sets in (1, 2, 3, 4)}
    layout = _BlockLayout(space, blocks)
    starts = layout.starts
    pairs = [range(bi, min(bi + 2, len(blocks))) for bi in range(0, len(blocks), 2)]
    chain_rows = np.arange(chains)
    exact_cols = [[space._columns[n] for n in names] for names, _ in exact]
    exact_changed = [space._column_slice(names) for names, _ in exact]
    # the last exact step's draw waits for the next sweep's first call, when
    # there is one: the chains take their drawn rows, ``held`` keeps their
    # rows from before the draw, and ``drawn`` says which chains moved and
    # whether that sweep was a warm-up sweep and kept a draw
    deferred = len(exact) - 1 if blocks else -1
    held = np.empty((chains, width))
    drawn = None
    # each sweep's random numbers: one normal per Metropolis coordinate, each
    # block reading its slice of them, and one uniform per block; every
    # block's candidate values in its own constrained columns
    noise = np.empty((chains, starts[-1]))
    uniform = np.empty((chains, len(blocks)))
    prop = np.zeros((chains, width))
    sweep_accept = np.empty((chains, len(blocks)))
    kept_per_chain = config.draws // config.thin
    chain_draws = np.empty((chains, kept_per_chain, width))
    # per-chain, per-block state: log step size, summed acceptance probability,
    # and the proposal shape learned from warm-up draws (Welford covariance of
    # each block -> Cholesky factors that correlate the proposals, stacked by
    # block size; None until then)
    log_step = np.array(
        [[math.log(_INITIAL_STEP / math.sqrt(hi - lo)) for lo, hi in zip(starts, starts[1:])]]
        * chains
    )
    accepted = np.zeros((chains, len(blocks) + len(exact)))
    chol: list[np.ndarray] | None = None
    w_count = 0
    w_mean = np.zeros((chains, starts[-1]))
    w_cov = np.zeros((chains, layout.cov_i.size))
    kept = 0

    def settle(draw_lp) -> bool:
        """Decide the deferred exact draw on its scores ``draw_lp``: a chain
        whose drawn row scored non-finite goes back to its row from before
        the draw, kept draw included. Whether any did."""
        moved, warm, kept_row = drawn
        move = moved & np.isfinite(draw_lp)
        np.copyto(lp, draw_lp, where=move)
        if not warm:
            accepted[:, len(blocks) + deferred] += move
        back = moved & ~move
        if back.any():
            current[back] = held[back]
            if kept_row:
                chain_draws[back, kept - 1] = held[back]
        return back.any()

    def pair_rows(pair) -> list[np.ndarray]:
        """Fill the row sets of ``pair`` from the current state and the
        blocks' candidates; whether each row set is inside the support."""
        for bi, rows in zip(pair, (first, second)):
            np.copyto(rows, current)
            rows[:, layout.changed[bi]] = prop[:, layout.changed[bi]]
        inside = [block_inside[:, bi] for bi in pair]
        if len(pair) == 2:
            np.copyto(second_moved, first)
            second_moved[:, layout.changed[pair[1]]] = prop[:, layout.changed[pair[1]]]
            inside.append(inside[1])
        return inside

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
        # the blocks' unconstrained coordinates, and the per-chain log-Jacobian
        # of each block's current values: only that block's moves change either
        zb = z[:, layout.coords]
        log_jac = layout.transform(zb, prop)

        for it in range(config.warmup + config.draws):
            warm = it < config.warmup
            keep = not warm and (it - config.warmup) % config.thin == config.thin - 1
            for c, rng in enumerate(rngs):
                rng.standard_normal(out=noise[c])
                rng.random(out=uniform[c])
            # every block's candidate, each on the state at the sweep's start
            # (a block's own coordinates change only at its own decision);
            # a block outside the support proposes its current values
            shift = noise if chol is None else layout.correlate(chol, noise)
            cand_z = zb + np.exp(log_step)[:, layout.coord_block] * shift
            cand_lj = layout.transform(cand_z, prop)
            outside = ~((prop > space._lower) & (prop < space._upper)) @ layout.members
            block_inside = ~outside
            if outside.any():
                np.copyto(prop, current, where=outside @ layout.members.T)
            for pi, pair in enumerate(pairs):
                # score every row set the pair can need in one call, and a
                # deferred exact draw with the first pair
                inside = pair_rows(pair)
                sets = len(inside)
                if pi == 0 and drawn is not None:
                    cand[sets * chains : (sets + 1) * chains] = current
                    cand_lp = score(cand_values[sets + 1], np.concatenate(inside + [drawn[0]]))
                    redo = settle(cand_lp[sets * chains :])
                    drawn = None
                    if redo:
                        # a chain went back: propose the pair again on its row
                        inside = pair_rows(pair)
                        cand_lp = score(cand_values[sets], np.concatenate(inside))
                else:
                    cand_lp = score(cand_values[sets], np.concatenate(inside))
                at = slice(0, chains)
                for k, bi in enumerate(pair):
                    if k:
                        # the second block reads the row set that matches
                        # each chain's first decision
                        at = np.where(move, 2 * chains, chains) + chain_rows
                    block_lp = cand_lp[at]
                    # min(1, exp(log ratio)), floored at exp(-700)
                    log_ratio = (block_lp + cand_lj[:, bi]) - (lp + log_jac[:, bi])
                    accept_prob = np.exp(np.minimum(np.maximum(log_ratio, -700.0), 0.0))
                    sweep_accept[:, bi] = accept_prob
                    move = uniform[:, bi] < accept_prob
                    if move.any():
                        block = slice(starts[bi], starts[bi + 1])
                        np.copyto(zb[:, block], cand_z[:, block], where=move[:, None])
                        np.copyto(current, cand[at], where=move[:, None])
                        np.copyto(lp, block_lp, where=move)
                        np.copyto(log_jac[:, bi], cand_lj[:, bi], where=move)
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
                if ei == deferred:
                    # move to the drawn rows until the next call scores them
                    np.copyto(held, current)
                    np.copyto(current, first)
                    drawn = (inside, warm, keep)
                    continue
                cand_lp = score(cand_values[1], inside)
                move = np.isfinite(cand_lp)
                np.copyto(current, first, where=move[:, None])
                np.copyto(lp, cand_lp, where=move)
                if not warm:
                    accepted[:, len(blocks) + ei] += move
            if warm:
                w_count += 1
                delta = zb - w_mean
                w_mean += delta / w_count
                w_cov += delta[:, layout.cov_i] * (zb - w_mean)[:, layout.cov_j]
                if w_count >= 100 and w_count % 50 == 0:
                    chol = layout.factor(w_cov / (w_count - 1), chol)
            if keep:
                chain_draws[:, kept] = current
                kept += 1
        if drawn is not None:
            np.copyto(first, current)
            settle(score(cand_values[1], drawn[0]))
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


class _BlockLayout:
    """The Metropolis blocks' unconstrained coordinates side by side, in block
    order, and the index arrays that let a sweep propose, transform,
    support-check and adapt every block at once."""

    def __init__(self, space: ParamSpace, blocks: list[list[str]]):
        defs = [space._by_name[n] for block in blocks for n in block]
        sizes = [sum(space._by_name[n].unconstrained_size for n in b) for b in blocks]
        self.starts = np.cumsum([0] + sizes).tolist()
        # each block-ordered coordinate's column of z, and its block
        self.coords = np.array([i for b in blocks for i in space.block_indices(b)], dtype=int)
        self.coord_block = np.repeat(np.arange(len(blocks)), sizes)
        offsets, pos = {}, 0
        for d in defs:
            offsets[d.name] = (pos, pos + d.unconstrained_size)
            pos += d.unconstrained_size
        self.groups = _transform_groups(defs, offsets, space._columns)
        # A block's log-Jacobian adds, in the order its parameters first meet
        # each transform group, the sum of its span of that group's terms, as
        # a transform of the block alone would: one sum per (order, group,
        # span length) over all blocks that share them
        group_of = {(support, w): g for g, (support, w, _, _) in enumerate(self.groups)}
        used = [0] * len(self.groups)
        spans: dict[tuple[int, int, int], tuple[list[int], list[int]]] = {}
        for bi, block in enumerate(blocks):
            own: dict[int, list[int]] = {}
            for d in (space._by_name[n] for n in block):
                vector = d.support in ("simplex", "ordered_positive")
                g = group_of[d.support, d.unconstrained_size if vector else 0]
                units = 1 if vector else d.unconstrained_size
                own.setdefault(g, [used[g], used[g]])[1] += units
                used[g] += units
            terms = [(g, lo, hi) for g, (lo, hi) in own.items() if self.groups[g][0] != "real"]
            for order, (g, lo, hi) in enumerate(terms):
                members, firsts = spans.setdefault((order, g, hi - lo), ([], []))
                members.append(bi)
                firsts.append(lo)
        self.jacobian = []
        for (_, g, length), (members, firsts) in sorted(spans.items(), key=lambda kv: kv[0][0]):
            span = np.add.outer(firsts, np.arange(length)).ravel()
            self.jacobian.append((_as_slice(np.array(members)), len(members), g, _as_slice(span)))
        # which constrained columns each block owns, as a matrix and as columns
        self.members = np.zeros((space._lower.size, len(blocks)), dtype=bool)
        for bi, block in enumerate(blocks):
            for n in block:
                self.members[slice(*space._columns[n]), bi] = True
        self.changed = [space._column_slice(b) for b in blocks]
        # the entries of each block's covariance, row-major, block after block
        bounds = list(zip(self.starts, self.starts[1:]))
        self.cov_i = np.array(
            [i for lo, hi in bounds for i in range(lo, hi) for _ in range(lo, hi)], dtype=int
        )
        self.cov_j = np.array(
            [j for lo, hi in bounds for _ in range(lo, hi) for j in range(lo, hi)], dtype=int
        )
        self.cov_starts = np.cumsum([0] + [k * k for k in sizes]).tolist()
        # the blocks of each size, whose Cholesky factors stack into one array
        by_size: dict[int, list[int]] = {}
        for bi, k in enumerate(sizes):
            by_size.setdefault(k, []).append(bi)
        self.by_size = [
            (k, bis, np.array([np.arange(self.starts[b], self.starts[b + 1]) for b in bis]))
            for k, bis in by_size.items()
        ]

    def transform(self, z: np.ndarray, prop: np.ndarray) -> np.ndarray:
        """Write every block's constrained values from the block-ordered
        ``z`` (``(rows, coordinates)``) into its columns of ``prop``, and
        return each block's log-Jacobian, ``(rows, blocks)``."""
        terms = _transform(self.groups, z, prop)
        rows = z.shape[0]
        log_jacobian = np.zeros((rows, len(self.starts) - 1))
        for members, count, g, span in self.jacobian:
            # each block's span of terms on a trailing axis of its own, which
            # sums as the block's terms alone would
            log_jacobian[:, members] += terms[g][:, span].reshape(rows, count, -1).sum(axis=-1)
        return log_jacobian

    def correlate(self, chol: list[np.ndarray], noise: np.ndarray) -> np.ndarray:
        """Each block's slice of ``noise`` times its chain's Cholesky factor:
        one stacked product per block size."""
        shift = np.empty_like(noise)
        for (_, _, idx), factors in zip(self.by_size, chol):
            shift[:, idx] = (factors @ noise[:, idx][..., None])[..., 0]
        return shift

    def factor(self, cov: np.ndarray, chol: list[np.ndarray] | None) -> list[np.ndarray]:
        """Cholesky factors of each chain's block covariances (``cov`` holds
        their entries as ``cov_i``/``cov_j`` list them), with a small ridge;
        a covariance that fails keeps its block's last factor (the identity
        at first)."""
        chains = cov.shape[0]
        if chol is None:
            chol = [np.tile(np.eye(k), (chains, len(bis), 1, 1)) for k, bis, _ in self.by_size]
        for (k, bis, _), factors in zip(self.by_size, chol):
            for j, bi in enumerate(bis):
                start = self.cov_starts[bi]
                for c in range(chains):
                    block_cov = cov[c, start : start + k * k].reshape(k, k)
                    jitter = 1e-8 + 1e-6 * float(np.trace(block_cov)) / k
                    try:
                        factors[c, j] = np.linalg.cholesky(block_cov + jitter * np.eye(k))
                    except np.linalg.LinAlgError:
                        pass
        return chol


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
