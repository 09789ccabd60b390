"""The per-item samplers against reference copies kept here.

Each reference is a plain, unoptimized form of a sampler: numpy arithmetic on
small arrays, a plain categorical pick, the public gamma sampler, the Carson
matrix built from scratch for every line. The package's samplers must return
the same bits and leave the generator in the same state, on any parameters
and any seed.
"""

import math
from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from gridsynth.distributions import (
    ParameterError,
    make_rng,
    sample_gamma,
    sample_negbinomial,
    sample_truncnormal,
    sample_weibull,
)
from gridsynth.lines import LineParams, _carson_zabc, attach_zabc, sample_line
from gridsynth.loads import sample_demand
from gridsynth.phases import CONFIGS
from gridsynth.reliability import sample_caidi, sample_caifi

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SEEDS = st.integers(0, 2**32 - 1)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


def twin_generators(seed):
    return make_rng(seed), make_rng(seed)


def same_state(rng_a, rng_b) -> bool:
    # the Philox state holds its counter and key as arrays; repr shows every entry
    return repr(rng_a.bit_generator.state) == repr(rng_b.bit_generator.state)


# ---------------------------------------------------------------------------
# Reference copies


def ref_sample_categorical(rng, probs):
    """The scalar categorical draw as the package once had it: running totals
    of the probabilities, then one uniform scaled by their total."""
    cum = np.cumsum(np.asarray(probs, dtype=float)).tolist()
    return bisect_right(cum, rng.random() * cum[-1])


def ref_sample_mixture(draw, prefix, zone, rng):
    means = np.asarray(draw[f"{prefix}_means"], dtype=float)
    cv = float(draw[f"{prefix}_cv"])
    weights = np.asarray(draw[f"{prefix}_weights_z{zone}"], dtype=float)
    shape, rates = 1.0 / cv**2, 1.0 / (cv**2 * means)
    k = ref_sample_categorical(rng, weights / weights.sum())
    return float(sample_gamma(rng, shape, rates[k]))


def ref_sample_line(draw, zone, rng):
    return ref_sample_mixture(draw, "r", zone, rng), ref_sample_mixture(draw, "rho", zone, rng)


def ref_carson_primitive(positions, gmr, r_ac, frequency, resistivity):
    n = len(positions)
    p_term = math.pi**2 * frequency * 1e-4
    q_coef = 4.0 * math.pi * frequency * 1e-4
    depth = 658.368 * math.sqrt(resistivity / frequency)
    z = np.empty((n, n), dtype=complex)
    for i in range(n):
        z[i, i] = r_ac + p_term + 1j * q_coef * math.log(depth / gmr)
        for j in range(i):
            d = math.hypot(positions[i][0] - positions[j][0], positions[i][1] - positions[j][1])
            z[i, j] = z[j, i] = p_term + 1j * q_coef * math.log(depth / d)
    return z


def ref_kron_reduce(z, keep):
    zpp, zpn, znp, znn = z[:keep, :keep], z[:keep, keep:], z[keep:, :keep], z[keep:, keep:]
    return zpp - zpn @ np.linalg.solve(znn, znp)


def ref_carson_zabc(r1, rho, config):
    # spacings 0.6/0.6/1.2 m put the phases on one line; the neutral runs
    # 1.2 m above the active conductors' midpoint; 60 Hz over 100 ohm-m earth
    q_coef = 4.0 * math.pi * 60.0 * 1e-4
    gmr = (0.6 * 0.6 * 1.2) ** (1.0 / 3.0) * math.exp(-(rho * r1) / q_coef)
    phase_pos = {"A": (0.0, 0.0), "B": (0.6, 0.0), "C": (1.2, 0.0)}
    active = [p for p in "ABC" if p in config.name]
    positions = [phase_pos[p] for p in active]
    xs = [p[0] for p in positions]
    ys = [p[1] for p in positions]
    positions.append((sum(xs) / len(xs), sum(ys) / len(ys) + 1.2))
    zprim = ref_carson_primitive(positions, gmr, r1, 60.0, 100.0)
    zred = ref_kron_reduce(zprim, len(active))
    out = np.zeros((3, 3), dtype=complex)
    idx = [ord(p) - ord("A") for p in active]
    for i, gi in enumerate(idx):
        for j, gj in enumerate(idx):
            out[gi, gj] = zred[i, j]
    return out


def ref_sample_truncnormal(rng, mu, sigma, lower):
    if sigma == 0.0:
        if not mu >= lower:
            raise ParameterError("degenerate truncnormal needs mu >= lower")
        return float(mu)
    a = (lower - mu) / sigma
    out = np.empty(1)
    filled = 0
    while filled < 1:
        if ndtr(-a) >= 0.1:
            batch = max(64, int(1.5 * (1 - filled) / max(ndtr(-a), 1e-3)))
            z = rng.standard_normal(batch)
            z = z[z >= a]
        else:
            alpha = 0.5 * (a + math.sqrt(a * a + 4.0))
            batch = max(64, 2 * (1 - filled))
            u1 = 1.0 - rng.random(batch)
            z = a - np.log(u1) / alpha
            z = z[rng.random(batch) <= np.exp(-0.5 * (z - alpha) ** 2)]
        take = min(z.size, 1 - filled)
        out[filled : filled + take] = z[:take]
        filled += take
    return float((mu + sigma * out)[0])


def ref_mean_vector(draw, config):
    mu = np.zeros(3)
    active = [ord(p) - ord("A") for p in "ABC" if p in config.name]
    if len(active) == 1:
        mu[active[0]] = draw["p_pot_mono"]
    elif len(active) == 2:
        mu[active[0]] = draw["p_pot_bi"] * draw["delta_bi"]
        mu[active[1]] = draw["p_pot_bi"] * (1.0 - draw["delta_bi"])
    else:
        mu[:] = draw["p_pot_tri"] * np.asarray(draw["delta_tri"], dtype=float)
    return mu


def ref_sample_demand(draw, config, rng, pf):
    mu = ref_mean_vector(draw, config)
    p = np.zeros(3)
    for i in [ord(p) - ord("A") for p in "ABC" if p in config.name]:
        p[i] = ref_sample_truncnormal(rng, mu[i], float(draw["sigma_p"]), 0.0)
    return p, p * math.tan(math.acos(pf))


def ref_sample_caidi(draw, zone, rng):
    p = np.asarray(draw["hurdle_p"], dtype=float)[zone - 1]
    if rng.random() >= p:
        return 0.0
    shape = np.asarray(draw["weib_shape"], dtype=float)[zone - 1]
    scale = np.asarray(draw["weib_scale"], dtype=float)[zone - 1]
    return float(sample_weibull(rng, shape, scale))


def ref_sample_caifi(draw, zone, rng):
    mu = np.asarray(draw["freq_mean"], dtype=float)[zone - 1]
    return sample_negbinomial(rng, mu, float(draw["dispersion"]))


# ---------------------------------------------------------------------------
# Strategies

positive = st.floats(0.01, 5.0)
# a zero weight is a component the draw never picks
weight = st.one_of(st.just(0.0), st.floats(0.001, 1.0))


@st.composite
def mixture_draws(draw):
    out = {}
    for prefix in ("r", "rho"):
        out[f"{prefix}_means"] = np.cumsum(draw(st.lists(positive, min_size=3, max_size=3)))
        # cv above 1 puts the gamma shape below 1, on its boosted path
        out[f"{prefix}_cv"] = draw(st.floats(0.05, 1.5))
        weights = draw(st.lists(weight, min_size=3, max_size=3).filter(lambda w: sum(w) > 0.0))
        out[f"{prefix}_weights_z1"] = np.array(weights)
    return out


@st.composite
def demand_draws(draw):
    # negative potentials put the truncation point above the mean, in
    # Robert's regime; sigma 0 is the point mass
    pot = st.floats(-5.0, 20.0)
    delta_tri = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3)))
    return {
        "p_pot_mono": draw(pot),
        "p_pot_bi": draw(pot),
        "p_pot_tri": draw(pot),
        "delta_bi": draw(st.floats(0.01, 0.99)),
        "delta_tri": delta_tri / delta_tri.sum(),
        "sigma_p": draw(st.one_of(st.just(0.0), st.floats(0.05, 3.0))),
    }


def zone_vector(elements, zones=3):
    return st.lists(elements, min_size=zones, max_size=zones).map(np.array)


# ---------------------------------------------------------------------------
# Tests


@PROPERTY
@given(mixture_draws(), SEEDS)
def test_sample_line_matches_reference(draw, seed):
    rng_a, rng_b = twin_generators(seed)
    for _ in range(4):
        params = sample_line(draw, 1, rng_a)
        r1, rho = ref_sample_line(draw, 1, rng_b)
        assert same_bits(params.r1_ohm_per_km, r1) and same_bits(params.rho, rho)
    assert same_state(rng_a, rng_b)


@PROPERTY
@given(st.sampled_from(CONFIGS), st.floats(0.01, 3.0), st.floats(0.1, 5.0))
def test_carson_zabc_matches_reference(config, r1, rho):
    expected = ref_carson_zabc(r1, rho, config)
    params = LineParams(r1_ohm_per_km=r1, rho=rho)
    assert _carson_zabc(params, config).tobytes() == expected.tobytes()
    attached = attach_zabc(params, config)
    assert attached.z_abc.tobytes() == expected.tobytes()
    assert (attached.r1_ohm_per_km, attached.rho) == (r1, rho)


@PROPERTY
@given(st.floats(-10.0, 40.0), st.one_of(st.just(0.0), st.floats(0.01, 10.0)), SEEDS)
def test_scalar_truncnormal_matches_reference(a, sigma, seed):
    # a is the standardized bound: below about 1.28 plain rejection runs,
    # above it Robert's proposal
    lower = 1.5
    mu = lower - a * sigma if sigma else lower + abs(a)
    rng_a, rng_b = twin_generators(seed)
    for _ in range(3):
        got = sample_truncnormal(rng_a, mu, sigma, lower)
        assert same_bits(got, ref_sample_truncnormal(rng_b, mu, sigma, lower))
    assert same_state(rng_a, rng_b)


@PROPERTY
@given(demand_draws(), st.sampled_from(CONFIGS), st.sampled_from([0.85, 0.9, 0.95]), SEEDS)
def test_sample_demand_matches_reference(draw, config, pf, seed):
    rng_a, rng_b = twin_generators(seed)
    try:
        expected = ref_sample_demand(draw, config, rng_b, pf)
    except ParameterError:
        # a point mass below the bound
        try:
            sample_demand(draw, config, rng_a, pf)
        except ParameterError:
            return
        raise AssertionError("the reference rejects the draw, sample_demand does not")
    demand = sample_demand(draw, config, rng_a, pf)
    assert demand.p_kw.tobytes() == expected[0].tobytes()
    assert demand.q_kvar.tobytes() == expected[1].tobytes()
    assert same_state(rng_a, rng_b)


@PROPERTY
@given(
    zone_vector(st.floats(0.0, 1.0)),
    zone_vector(st.floats(0.3, 3.0)),
    zone_vector(positive),
    zone_vector(positive),
    positive,
    st.integers(1, 3),
    SEEDS,
)
def test_reliability_draws_match_reference(hurdle, shape, scale, freq, dispersion, zone, seed):
    caidi = {"hurdle_p": hurdle, "weib_shape": shape, "weib_scale": scale}
    caifi = {"freq_mean": freq, "dispersion": dispersion}
    rng_a, rng_b = twin_generators(seed)
    for _ in range(4):
        assert same_bits(sample_caidi(caidi, zone, rng_a), ref_sample_caidi(caidi, zone, rng_b))
        count = sample_caifi(caifi, zone, rng_a)
        assert type(count) is int and count == ref_sample_caifi(caifi, zone, rng_b)
    assert same_state(rng_a, rng_b)
