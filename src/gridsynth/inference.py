"""Posterior fitting via adaptive random-walk Metropolis-within-Gibbs, with
exact Gibbs steps where a full conditional can be drawn directly.

Models declare a :class:`ParamSpace` (named parameters with supports) and a
log-posterior over the constrained values; :func:`fit` states the contract
between them in full. Each support has a bijective transform to
unconstrained coordinates with a log-Jacobian, so positivity, unit-interval,
simplex and ordered-positive constraints hold on every draw by construction.

All chains advance in lockstep, and the sampler's state is each chain's row
of constrained values. Each parameter group is one Gaussian random-walk
block in unconstrained coordinates, whose step size warm-up adapts toward
0.35 acceptance by a Robbins-Monro recursion and whose proposal it shapes by
the block's covariance. Blocks that read disjoint term columns of the
log-posterior are conditionally independent, so they are coloured greedily
and each colour is decided on one row set (chromatic Gibbs; Gonzalez, Low,
Gretton & Guestrin 2011, AISTATS), two colours per call, the second on the
sets that match the first's decisions (pre-fetching; Brockwell 2006, J.
Comput. Graph. Stat. 15:246). Exact steps
follow the blocks, and an exact draw is provisional until the next call
scores it. A step whose parameters enter no term column has been summed out
of the log-posterior the sweep samples (partially collapsed Gibbs; van Dyk
& Park 2008, JASA 103:790), so it is drawn once, after the sweeps, for
every kept row.

Chains are pooled after warm-up and thinning. Split-R-hat and effective
sample size are attached as diagnostics, computed for all scalars at once;
R-hats above the threshold are listed in one ``UserWarning`` per fit, never
a hard failure.
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
        # where the parameters that ``stack`` is asked for sit in the row
        self._spacings: dict[tuple[str, ...], tuple | None] = {}
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

    def stack(self, values, names) -> np.ndarray:
        """``values[name]`` for each of ``names`` (any sequence), parameters
        of one shape, side by side on a new axis after the leading row axes,
        as ``np.stack`` puts them. Where ``values`` are the views that
        ``fit`` hands a model and the parameters' columns are evenly spaced
        in the row, the result is a read-only view of the rows instead of a
        copy, made once per buffer; a model scores it to the same bits."""
        names = tuple(names)
        if isinstance(values, _Rows):
            if names not in values.stacked:
                values.stacked[names] = values.space._stack_view(values.flat, names)
            if values.stacked[names] is not None:
                return values.stacked[names]
        axis = -1 - len(self._by_name[names[0]].shape)
        return np.stack([values[name] for name in names], axis=axis)

    def _stack_view(self, flat: np.ndarray, names: tuple[str, ...]) -> np.ndarray | None:
        """The view :meth:`stack` returns for the C-contiguous rows ``flat``,
        or None where the parameters differ in shape or their columns are
        not evenly spaced."""
        if names not in self._spacings:
            shapes = {self._by_name[name].shape for name in names}
            firsts = [self._columns[name][0] for name in names]
            step = firsts[1] - firsts[0] if len(names) > 1 else 1
            even = len(shapes) == 1 and step > 0
            even = even and firsts == list(range(firsts[0], firsts[-1] + 1, step))
            self._spacings[names] = (firsts[0], step, *shapes) if even else None
        if self._spacings[names] is None or not flat.flags.c_contiguous:
            return None
        first, step, shape = self._spacings[names]
        item = flat.itemsize
        # read-only, as the buffer ``flat`` is
        return np.ndarray(
            flat.shape[:-1] + (len(names),) + shape,
            flat.dtype,
            flat,
            first * item,
            flat.strides[:-1] + (step * item,) + (item,) * len(shape),
        )

    def _outside(self, flat: np.ndarray) -> np.ndarray:
        """Whether each value of the constrained rows ``flat`` lies outside
        its column's open support (NaN does)."""
        return ~((flat > self._lower) & (flat < self._upper))

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


class _Rows(dict):
    """Named views of a buffer of constrained rows, ``flat``, and the views
    :meth:`ParamSpace.stack` has made of it, by names: what ``fit`` hands a
    model. They view ``flat`` read-only, and so does any view taken from
    them."""

    def __init__(self, space: ParamSpace, flat: np.ndarray):
        flat = flat.view()
        flat.flags.writeable = False
        super().__init__(
            (d.name, flat[..., lo] if not d.shape else flat[..., lo:hi])
            for d, (lo, hi) in zip(space.defs, space._columns.values())
        )
        self.space, self.flat, self.stacked = space, flat, {}


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
        rest = 1.0 - v
        left = np.cumprod(rest, axis=-1)
        stick = np.concatenate([np.ones(z.shape[:-1] + (1,)), left[..., :-1]], axis=-1)
        x = np.concatenate([stick * v, left[..., -1:]], axis=-1)
        lj = (
            np.log(np.maximum(stick, 1e-300))
            + np.log(np.maximum(v, 1e-300))
            + np.log(np.maximum(rest, 1e-300))
        )
        return x, lj.sum(axis=-1)
    raise AssertionError(support)  # pragma: no cover


def _inverse(d: ParamDef, value: float | np.ndarray) -> np.ndarray:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    if np.isnan(v).any():  # NaN passes every range check below
        raise ValueError(f"{d.name}: {d.support} parameter initialized NaN")
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
        counts = (self.chains, self.warmup, self.draws, self.thin)
        if (
            not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool) for n in counts)
            or self.chains < 1
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
    terms: dict[str, list[int]] | None = None,
) -> PosteriorEnsemble:
    """Sample the posterior of ``log_posterior`` over ``space``.

    All chains advance together, and the sampler's state is each chain's row
    of constrained values. ``log_posterior`` receives a dict of constrained
    values with a leading row axis (a scalar parameter is a ``(rows,)``
    array, a vector one ``(rows, n)``) and returns one value per row, ``-inf``
    allowed away from the init point. With ``terms``, which states for every
    parameter the term columns it enters, it returns its terms as columns,
    ``(rows, terms)``, whose row sum is the log-posterior, and a column must
    keep its bits when only a parameter that does not enter it changes;
    without, its one value per row is one column that every parameter
    enters. A call gets up to ``4 * chains`` rows, and each row must score as
    it would alone, bit for bit, whatever else shares the call. The model
    never sees a row outside the open support (an overflow to inf, an
    underflow to 0, a unit value rounded to 1): the row is swapped for the
    state it was proposed from and scored ``-inf``. That is the one test of
    the parameters' support, as the ``fit_*`` functions are the one test of
    the observations: a model evaluates its formulas on what it is handed
    and tests neither. It masks only a quantity it derives that can leave a
    density's domain while the values it comes from stay in their support
    (a Gamma rate made from a mean and a CV), and any non-finite term, NaN
    included, rejects its row. It runs with numpy's overflow, divide-by-zero
    and invalid-value warnings off, so that a row inside the support but
    extreme (a positive value above 1e154 squares to inf in a half-normal
    prior) is rejected rather than aborting the fit where warnings are
    errors. The values dict passed
    to ``log_posterior`` (and to ``draw`` below) holds read-only views into a
    buffer the sampler reuses: it is valid for that call only and must not be
    kept, and a write to it raises.

    ``exact`` lists the parameters whose full conditional can be drawn
    directly, as ``(names, draw)`` pairs. ``draw(values, rngs)`` gets the
    current constrained values (one row per chain) and returns a dict of new
    values for ``names``, drawing chain ``c``'s row only from ``rngs[c]``,
    under the same warning settings. These parameters leave the Metropolis
    blocks. Each sweep runs the Metropolis blocks, then each exact step in
    order, except a step whose parameters all enter no term column
    (``terms[name] == []``): the sweep samples the log-posterior with them
    summed out, so no Metropolis block, and no exact step of the sweep, may
    read them (their columns of the state keep each chain's start). Such a
    step is drawn once after the last sweep, for every kept row: ``draw``
    gets values of shape ``(chains, kept, ...)``, chain ``c`` drawing from
    ``rngs[c]`` after its sweeps, so the sweeps' draws do not depend on it. A
    kept row it draws outside the open support takes the chain's previous
    kept row of those parameters (its start before the first), and its
    acceptance counts kept rows.

    Every Metropolis candidate of a sweep is proposed at its start, a
    Gaussian random-walk step in the unconstrained coordinates of its
    block's parameters, whose log-Jacobian alone enters its acceptance
    ratio. The blocks are coloured greedily in block order: a block joins
    the first colour none of whose blocks reads one of its term columns, so
    without ``terms`` each block has a colour of its own. A colour is one row
    set, the state with all its candidates copied in; each of its blocks is
    decided on the sum of its own columns against the same sum of the
    state's score, kept per column, and a block whose candidate leaves the
    open support is rejected alone. Colours are scored two at a time: one
    call scores the first colour, the second, and both (``3 * chains``
    rows). Once the first colour is decided, each column of the second
    colour's score comes from the set with both where the first-colour block
    that reads it moved, and from the set with the second alone where it did
    not, which is exact because no two blocks of a colour read one column.
    An odd last colour is scored alone (``chains`` rows). The draws are
    those of deciding every block in a call of its own, in colour order.

    An exact step's drawn rows are provisional: each chain moves to its
    drawn row, and the next call that scores anything (the next sweep's
    first, or one of its own when another exact draw or the end of the fit
    comes first) scores them as one more set and settles them. A drawn row
    that leaves the open support never reaches the model, and the chain
    keeps its row; one that scores non-finite sends its chain back to its
    row and score from before the draw, and its kept draw too if one was
    kept meanwhile, and the call's colours are scored again. Either counts
    as a rejection in the step's ``diagnostics["acceptance"]`` entry (keyed
    by its names joined with ``-``, like a block), in the sweep that drew
    it. Kept draws are the constrained rows.

    Chain ``c`` draws only from its own substream ``(seed, "mcmc-chain", c)``
    and keeps its own step sizes and proposal covariance. Each sweep it draws
    one standard-normal vector covering the unconstrained coordinates of all
    Metropolis blocks (each block takes its slice, in block order), then one
    uniform per block, then its exact steps' draws in order; after the last
    sweep, the draws of the steps that left it, in order. Chains start
    from ``init`` (the transform origin when it is None; a missing entry
    raises) with per-chain jitter; step sizes adapt during warm-up only, so
    the kept draws target the exact posterior. At most one ``UserWarning``
    per call lists the scalars above the R-hat threshold (an infinite R-hat
    included); ``diagnostics["rhat"]`` holds every scalar's value.
    """
    config = config or FitConfig()
    exact = [(list(names), draw) for names, draw in exact]
    blocks = _metropolis_blocks(space, [n for names, _ in exact for n in names])
    quiet = dict(over="ignore", divide="ignore", invalid="ignore")
    chains = config.chains
    width = space._lower.size
    layout = _BlockLayout(space, blocks)
    starts = layout.starts
    colours, n_terms = _colours(space, blocks, terms, layout)
    # where each part of a colour's move table ends: coordinates, constrained
    # columns, blocks, then term columns
    coords_end = starts[-1]
    columns_end = coords_end + width
    blocks_end = columns_end + len(blocks)
    # a step whose parameters enter no term column leaves the sweep
    leaves = [terms is not None and not any(terms[n] for n in names) for names, _ in exact]
    sweep_steps = [(ei, names, draw) for ei, (names, draw) in enumerate(exact) if not leaves[ei]]

    def score(values, rows: int) -> np.ndarray:
        """Model log-posterior terms of the ``rows`` rows that ``values``
        views, ``(rows, term columns)``; a non-finite term scores -inf."""
        lp = np.asarray(log_posterior(values), dtype=float)
        shape = (rows,) if terms is None else (rows, n_terms)
        if lp.shape != shape:
            raise ValueError(
                f"log_posterior must return one value per row{'' if terms is None else ' and term'}"
                f", shape {shape}; got shape {lp.shape}"
            )
        lp = lp.reshape(rows, n_terms)
        return np.where(np.isfinite(lp), lp, -np.inf)

    def write(rows: np.ndarray, names: list[str], new: dict) -> None:
        """Write an exact step's draw ``new`` of ``names`` into their columns
        of the constrained rows ``rows``."""
        for name in names:
            lo, hi = space._columns[name]
            rows[..., lo:hi] = np.reshape(new[name], rows.shape[:-1] + (hi - lo,))

    init_z = space.to_unconstrained(init) if init is not None else np.zeros(space.dim)
    init_flat = np.empty((1, width))
    _transform(space._groups, init_z[None], init_flat)
    rngs = [substream(config.seed, "mcmc-chain", c) for c in range(chains)]
    current = np.repeat(init_flat, chains, axis=0)  # the state: constrained rows
    # the blocks' unconstrained coordinates: only a block's moves change them
    zb = np.repeat(init_z[None, layout.coords], chains, axis=0)
    # an exact draw moves the chains at once and waits for the next call to
    # score it: ``held`` keeps their rows from before it, and ``pending``
    # which chains moved, the step, its sweep's warm-up flag and kept row
    held = np.empty((chains, width))
    held_values = _Rows(space, held)
    pending = None
    # the rows of every call: up to four row sets of one row per chain, each
    # the state with the candidate columns of some blocks copied in
    cand = np.empty((4 * chains, width))
    cand_sets = cand.reshape(4, chains, width)
    cand_values = {sets: _Rows(space, cand[: sets * chains]) for sets in (1, 2, 3, 4)}
    # each call's colours and its row sets as masks of the columns taken from
    # the candidates: the first colour, the second on the state, and both;
    # then the set with nothing taken, which a pending exact draw is
    nothing = np.zeros(width, dtype=bool)
    calls = []
    for ci in range(0, len(colours), 2):
        pair = colours[ci : ci + 2]
        taken = [owned[:, coords_end:columns_end].any(axis=0) for *_, owned in pair]
        calls.append((pair, np.array(taken + [taken[0] | taken[-1]] * (len(pair) - 1) + [nothing])))
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
    # and the proposal shape learned from warm-up draws (Welford covariances
    # -> Cholesky factors that correlate the proposals, both stacked by block
    # size; no factors until then)
    log_step = np.array(
        [[math.log(_INITIAL_STEP / math.sqrt(hi - lo)) for lo, hi in zip(starts, starts[1:])]]
        * chains
    )
    accepted = np.zeros((chains, len(blocks) + len(exact)))
    chol: list[np.ndarray] | None = None
    w_count = 0
    w_mean = np.zeros((chains, starts[-1]))
    w_cov = [np.zeros((chains,) + idx.shape + idx.shape[1:]) for idx in layout.by_size]
    kept = 0

    def fill(masks: np.ndarray) -> dict:
        """The state with the candidate columns that each row of ``masks``
        selects copied in, one row set per mask; the model's views of them."""
        rows = cand_sets[: len(masks)]
        np.copyto(rows, current)
        np.copyto(rows, prop, where=masks[:, None])
        return cand_values[len(masks)]

    def call(masks=nothing[None]) -> np.ndarray:
        """Score the row sets of ``masks`` but the last, the empty set (none
        by default), in one log-posterior call, with a pending exact draw as
        that last set, which settles it: a chain whose drawn row scores
        non-finite goes back to its row from before the draw, kept row
        included, and the sets are scored again."""
        nonlocal pending
        rows = (len(masks) - 1) * chains
        if pending is not None:
            moved, ei, warm, kept_row = pending
            pending = None
            lp_rows = score(fill(masks), rows + chains)
            draw_lp = lp_rows[rows:]
            move = moved & np.isfinite(draw_lp).all(axis=1)
            np.copyto(lp, draw_lp, where=move[:, None])
            if not warm:
                accepted[:, len(blocks) + ei] += move
            back = moved & ~move
            current[back] = held[back]
            if kept_row is not None:  # a keep still to come writes it again
                chain_draws[back, kept_row] = held[back]
            if not (rows and back.any()):
                return lp_rows[:rows]
        return score(fill(masks[:-1]), rows)

    def decide(colour, cand_lp: np.ndarray) -> np.ndarray | None:
        """Decide every block of ``colour`` on its own term columns of
        ``cand_lp`` (one row per chain); return which term columns of each
        chain's score moved, None where no block moved."""
        members, single, reads, owned = colour
        if single is not None:  # each block reads one column
            new, old = cand_lp[:, single], lp[:, single]
        else:
            # each block's columns, zero where it reads none, on a trailing
            # axis of its own: each row sums the same way for any number of
            # rows, and as the one column would where the block reads one
            new, old = np.where(reads, np.stack((cand_lp, lp))[:, :, None], 0.0).sum(axis=-1)
        # min(1, exp(log ratio)), floored at exp(-700)
        log_ratio = (new + cand_lj[:, members]) - (old + log_jac[:, members])
        accept_prob = np.exp(np.minimum(np.maximum(log_ratio, -700.0), 0.0))
        sweep_accept[:, members] = accept_prob
        move = uniform[:, members] < accept_prob
        if not move.any():
            return None
        # what each chain's moves take from the candidates, in one product
        took = move @ owned
        np.copyto(zb, cand_z, where=took[:, :coords_end])
        np.copyto(current, prop, where=took[:, coords_end:columns_end])
        np.copyto(log_jac, cand_lj, where=took[:, columns_end:blocks_end])
        took = took[:, blocks_end:]
        np.copyto(lp, cand_lp, where=took)
        return took

    with np.errstate(**quiet):
        # the model sees the init row only inside the support
        lp = np.full((1, n_terms), -np.inf)
        if not space._outside(init_flat).any():
            lp = score(_Rows(space, init_flat), 1)
        if not np.isfinite(lp).all():
            raise InitializationError("log-posterior is not finite at the initialization point")
        lp = np.repeat(lp, chains, axis=0)  # the state's score, per term column
        # up to 20 jittered starts per chain; a chain keeps its first finite one
        waiting = list(range(chains))
        for _ in range(20):
            if not waiting:
                break
            start_z = init_z + _INIT_JITTER * np.array(
                [rngs[c].standard_normal(space.dim) for c in waiting]
            )
            rows = current[waiting]
            _transform(space._groups, start_z, rows)
            outside = space._outside(rows).any(axis=-1)
            rows[outside] = current[waiting][outside]
            start_lp = score(_Rows(space, rows), len(waiting))
            finite = ~outside & np.isfinite(start_lp).all(axis=1)
            for row, c in enumerate(waiting):
                if finite[row]:
                    zb[c], lp[c], current[c] = start_z[row, layout.coords], start_lp[row], rows[row]
            waiting = [c for row, c in enumerate(waiting) if not finite[row]]
        # the per-chain log-Jacobian of each block's current values
        log_jac = layout.transform(zb, prop)

        for it in range(config.warmup + config.draws):
            warm = it < config.warmup
            keep = not warm and (it - config.warmup) % config.thin == config.thin - 1
            for c, rng in enumerate(rngs):
                rng.standard_normal(out=noise[c])
                rng.random(out=uniform[c])
            # every block's candidate, each on the state at the sweep's start
            # (a block's own coordinates change only at its own decision);
            # a block outside the support proposes its current values, and
            # its log-Jacobian of -inf rejects it
            shift = noise if chol is None else layout.correlate(chol, noise)
            cand_z = zb + np.exp(log_step)[:, layout.coord_block] * shift
            cand_lj = layout.transform(cand_z, prop)
            outside = space._outside(prop) @ layout.members
            if outside.any():
                np.copyto(prop, current, where=outside @ layout.members.T)
                cand_lj[outside] = -np.inf
            for pair, masks in calls:
                # every row set the pair of colours can need, in one call
                cand_lp = call(masks)
                took = decide(pair[0], cand_lp[:chains])
                if len(pair) > 1:
                    both, alone = cand_lp[2 * chains :], cand_lp[chains : 2 * chains]
                    decide(pair[1], alone if took is None else np.where(took, both, alone))
            if warm:
                # Robbins-Monro gain on the log step size, toward the target acceptance
                log_step += (it + 10.0) ** -0.6 * (sweep_accept - _TARGET_ACCEPT)
            else:
                accepted[:, : len(blocks)] += sweep_accept
            for ei, step_names, draw in sweep_steps:
                if pending is not None:
                    call()  # the draw before this one, in a call of its own
                # the step reads ``held``, so writing its draw into the state
                # cannot change what it returned
                np.copyto(held, current)
                write(current, step_names, draw(held_values, rngs))
                outside = space._outside(current).any(axis=-1)
                current[outside] = held[outside]
                pending = (~outside, ei, warm, kept if keep else None)
            if warm:
                w_count += 1
                delta = zb - w_mean
                w_mean += delta / w_count
                after = zb - w_mean
                for idx, cov in zip(layout.by_size, w_cov):
                    cov += delta[:, idx][..., None] * after[:, idx][..., None, :]
                if w_count >= 100 and w_count % 50 == 0:
                    chol = _factor([cov / (w_count - 1) for cov in w_cov], chol)
            if keep:
                chain_draws[:, kept] = current
                kept += 1
        if pending is not None:
            call()  # the last sweep's draw
        # the steps that leave the sweep, once for every kept row; their
        # columns of the state still hold each chain's start
        kept_values = _Rows(space, chain_draws)
        for ei in np.flatnonzero(leaves):
            step_names, draw = exact[ei]
            cols = np.concatenate([np.arange(*space._columns[n]) for n in step_names])
            start = current[:, None, cols]
            # the draw may view the rows it was handed: copy it before writing
            new = draw(kept_values, rngs)
            write(chain_draws, step_names, {n: np.array(new[n]) for n in step_names})
            # a row outside the open support takes the chain's previous kept
            # row, or its start before the first
            inside = ~space._outside(chain_draws)[..., cols].any(axis=-1)
            last = np.maximum.accumulate(np.where(inside, np.arange(kept_per_chain), -1), axis=1)
            rows = np.concatenate([start, chain_draws[..., cols]], axis=1)
            chain_draws[..., cols] = np.take_along_axis(rows, last[..., None] + 1, axis=1)
            accepted[:, len(blocks) + ei] = inside.sum(axis=1)
    # a step that leaves the sweep counts its kept rows, any other step its
    # post-warm-up sweeps
    accept_rates = accepted / np.where([False] * len(blocks) + leaves, kept_per_chain, config.draws)

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


def _colours(space: ParamSpace, blocks: list[list[str]], terms, layout) -> tuple[list, int]:
    """Colour the blocks greedily in block order, each joining the first
    colour none of whose blocks reads one of its term columns (without
    ``terms``, every block reads the one column). Per colour: its blocks (a
    slice where they run in order); the column each reads where each reads
    one (None otherwise); then one boolean row per block of the term columns
    it reads; and one boolean row per block of what its move takes, side by
    side: the block-ordered coordinates, constrained columns and blocks it
    owns, and the term columns it reads. Also the number of term columns."""
    if terms is None:
        reads = np.ones((len(blocks), 1), dtype=bool)
    else:
        missing = [n for n in space._by_name if n not in terms]
        unknown = [n for n in terms if n not in space._by_name]
        if missing or unknown:
            raise ValueError(
                f"terms must state every parameter: missing {missing}, unknown {unknown}"
            )
        last = max((c for cols in terms.values() for c in cols), default=-1)
        reads = np.zeros((len(blocks), 1 + last), bool)
        for row, block in zip(reads, blocks):
            row[[c for n in block for c in terms[n]]] = True
    groups: list[list[int]] = []
    for b, row in enumerate(reads):
        for g in groups:
            if not (reads[g].any(axis=0) & row).any():
                g.append(b)
                break
        else:
            groups.append([b])
    colours = []
    for g in map(np.array, groups):
        single = None
        if (reads[g].sum(axis=1) == 1).all():
            single = _as_slice(reads[g].argmax(axis=1))
        coords, columns = g[:, None] == layout.coord_block, layout.members[:, g].T
        own = g[:, None] == np.arange(len(blocks))
        owned = np.concatenate([coords, columns, own, reads[g]], axis=1)
        colours.append((_as_slice(g), single, reads[g], owned))
    return colours, reads.shape[1]


class _BlockLayout:
    """The Metropolis blocks' unconstrained coordinates side by side, in block
    order, and the index arrays that let a sweep propose, transform,
    support-check and adapt every block at once."""

    def __init__(self, space: ParamSpace, blocks: list[list[str]]):
        defs = [space._by_name[n] for block in blocks for n in block]
        sizes = [sum(space._by_name[n].unconstrained_size for n in b) for b in blocks]
        self.starts = np.cumsum([0] + sizes).tolist()
        # each block-ordered coordinate's column of z, and its block
        self.coords = np.array([i for d in defs for i in range(*space._offsets[d.name])], dtype=int)
        self.coord_block = np.repeat(np.arange(len(blocks)), sizes)
        offsets, pos = {}, 0
        for d in defs:
            offsets[d.name] = (pos, pos + d.unconstrained_size)
            pos += d.unconstrained_size
        self.groups = _transform_groups(defs, offsets, space._columns)
        # the block that owns each log-Jacobian term of each group: one term
        # per coordinate, or per vector of the vector supports
        self.owners = [self.coord_block[ucols[:: width or 1]] for _, width, ucols, _ in self.groups]
        # which constrained columns each block owns
        self.members = np.zeros((space._lower.size, len(blocks)), dtype=bool)
        for bi, block in enumerate(blocks):
            for n in block:
                self.members[slice(*space._columns[n]), bi] = True
        # the coordinates of the blocks of each size, ``(blocks, size)``:
        # their covariances and Cholesky factors stack into one array
        by_size: dict[int, list[np.ndarray]] = {}
        for lo, hi in zip(self.starts, self.starts[1:]):
            by_size.setdefault(hi - lo, []).append(np.arange(lo, hi))
        self.by_size = [np.array(idx) for idx in by_size.values()]

    def transform(self, z: np.ndarray, prop: np.ndarray) -> np.ndarray:
        """Write every block's constrained values from the block-ordered
        ``z`` (``(rows, coordinates)``) into its columns of ``prop``, and
        return each block's log-Jacobian, ``(rows, blocks)``."""
        log_jacobian = np.zeros((z.shape[0], len(self.starts) - 1))
        for terms, owners in zip(_transform(self.groups, z, prop), self.owners):
            if terms is not None:
                # term by term into each block, in order: for fewer than 8
                # terms of one group, the bits of numpy's sum of them alone
                np.add.at(log_jacobian, (slice(None), owners), terms)
        return log_jacobian

    def correlate(self, chol: list[np.ndarray], noise: np.ndarray) -> np.ndarray:
        """Each block's slice of ``noise`` times its chain's Cholesky factor:
        one stacked product per block size."""
        shift = np.empty_like(noise)
        for idx, factors in zip(self.by_size, chol):
            shift[:, idx] = (factors @ noise[:, idx][..., None])[..., 0]
        return shift


def _factor(covs: list[np.ndarray], chol: list[np.ndarray] | None) -> list[np.ndarray]:
    """Cholesky factors of each chain's block covariances, stacked by block
    size as ``covs`` stacks them, with a small ridge; a covariance that fails
    keeps its block's last factor (the identity at first)."""
    if chol is None:
        chol = [np.tile(np.eye(cov.shape[-1]), cov.shape[:2] + (1, 1)) for cov in covs]
    for cov, factors in zip(covs, chol):
        k = cov.shape[-1]
        for c, j in np.ndindex(cov.shape[:2]):
            jitter = 1e-8 + 1e-6 * float(np.trace(cov[c, j])) / k
            try:
                factors[c, j] = np.linalg.cholesky(cov[c, j] + jitter * np.eye(k))
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
    """Pool the kept constrained rows, as arrays of their own that the caller
    may write, and compute per-scalar R-hat / ESS, all scalars in one call
    each."""
    chains, kept, width = chain_draws.shape
    rows = _Rows(space, chain_draws.reshape(chains * kept, width))
    pooled = {name: arr.copy() for name, arr in rows.items()}
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
