"""End-to-end acceptance gate.

Eight go/no-go checks, one test each, every one printing a single
``[criterion N] PASS/FAIL`` line with the measured numbers.  Tolerances are
pinned here and must not be loosened: a red line here means the library does
not do what it claims.
"""

import math

import numpy as np
import pytest
from scipy.stats import kstest

from covertq.codec import (
    decode,
    encode,
    generate_codebook,
    mm1_log_output_ratio_bound,
    random_coding_error_bounds,
)
from covertq.errors import InfeasibleRateError
from covertq.harness import ExperimentConfig, emit, run
from covertq.laws import sample_info_densities
from covertq.queueing import (
    ServiceModel,
    departure_epochs,
    poisson_arrivals,
    simulate_channel,
)
from covertq.rates import (
    RatePoint,
    RegionSpec,
    choose_dummy_rate,
    covert_capacity,
    in_region,
    kl_to_exponential,
    min_key_rate,
)
from covertq.warden import run_detection_trials, summarize_detection

from oracles import des_departures

LAM, MU1, MU2 = 0.5, 1.0, 2.0
BOB = ServiceModel.exponential(MU1)
WILLIE = ServiceModel.exponential(MU2)


def report(capsys, criterion, ok, detail):
    with capsys.disabled():
        print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_queue_matches_event_calendar(capsys):
    # 10^4 random instances, block lengths up to 10^3: departure epochs must
    # match an independent event-calendar simulation exactly (same floats)
    rng = np.random.default_rng(1001)
    mismatches = 0
    instances = 10_000
    for _ in range(instances):
        n = int(np.exp(rng.uniform(0.0, math.log(1000.0))))
        lam = float(rng.uniform(0.2, 2.0))
        mu = float(rng.uniform(0.3, 3.0))
        a = rng.exponential(1.0 / lam, n)
        s = rng.exponential(1.0 / mu, n)
        d, _ = departure_epochs(a, s)
        d_oracle, _ = des_departures(a, s)
        if not np.array_equal(d, d_oracle):
            mismatches += 1
    report(
        capsys, 1, mismatches == 0,
        f"{instances} instances, {mismatches} departure-epoch mismatches (exact equality)",
    )


def test_criterion_2_stationary_output_is_poisson(capsys):
    # Burke property: stationary M/M/1 departures are i.i.d. Exp(lam).
    # 10^5 packets after a 10^3-packet warm-up, KS against Exp(0.5).
    rng = np.random.default_rng(0)
    warm, n = 1_000, 100_000
    arrivals = poisson_arrivals(LAM, warm + n, rng)
    dep = simulate_channel(arrivals, BOB, rng)
    stationary = np.diff(dep, prepend=0.0)[warm:]
    result = kstest(stationary, "expon", args=(0.0, 1.0 / LAM))
    ok = result.pvalue > 0.01
    report(
        capsys, 2, ok,
        f"KS p-value {result.pvalue:.4f} > 0.01 for Exp({LAM}) departures "
        f"(n={n}, warm-up={warm})",
    )


def test_criterion_3_info_density_concentrates(capsys):
    # per-packet information density: mean within 10% of ln(mu1/lam) at
    # n=2000, with the sample spread shrinking as n grows
    trials = 500
    target = math.log(MU1 / LAM)
    stds, p01s, means = [], [], {}
    for i, n in enumerate((100, 500, 2000)):
        rng = np.random.default_rng(3000 + i)
        values = sample_info_densities(n, LAM, BOB, trials, rng)
        assert np.all(np.isfinite(values))
        means[n] = values.mean()
        stds.append(values.std(ddof=1))
        p01s.append(np.percentile(values, 1.0))
    mean_ok = abs(means[2000] - target) <= 0.10 * target
    shrink_ok = stds[0] > stds[1] > stds[2]
    tail_ok = p01s[0] < p01s[1] < p01s[2]
    report(
        capsys, 3, mean_ok and shrink_ok and tail_ok,
        f"mean(n=2000)={means[2000]:.4f} vs ln2={target:.4f} (10% band), "
        f"std {stds[0]:.3f}>{stds[1]:.3f}>{stds[2]:.3f}, "
        f"p01 rising {p01s[0]:.3f}<{p01s[1]:.3f}<{p01s[2]:.3f}",
    )


def test_criterion_4_decoding_error_bounds(capsys):
    # n=200 blocks at rates 0.5x and 1.5x the per-packet capacity ln2:
    # 100-bit codebooks decode (error < 1%), 300-bit ones cannot (error > 50%).
    # 2^100 and 2^300 codewords are not enumerable (and over the 2^20 cap), so
    # the certified two-sided bounds on the ML error carry the check.
    n, trials = 200, 2000
    rng = np.random.default_rng(4001)
    samples = sample_info_densities(n, LAM, BOB, trials, rng)
    kappa = mm1_log_output_ratio_bound(LAM, MU1)
    inside = random_coding_error_bounds(samples, n, 100, kappa)
    outside = random_coding_error_bounds(samples, n, 300, kappa)
    ok = inside.upper < 0.01 and outside.lower > 0.5
    report(
        capsys, 4, ok,
        f"ML error <= {inside.upper:.2e} at 100 bits (< 1%), "
        f">= {outside.lower:.4f} at 300 bits (> 50%), {trials} samples",
    )


def test_criterion_5_detection_tracks_resolvability(capsys):
    # under-resolved codebook (4 bits of randomness over n=200) is detectable;
    # an over-resolved one (20 bits over n=4, 2.5x the ln(mu2/lam) threshold)
    # pins the detector near blindness
    trials = 2000

    under_book = generate_codebook(200, 2, 1, 1, arrival_rate=LAM, seed=5001)
    rng = np.random.default_rng(5002)
    llr0, llr1 = run_detection_trials(under_book, WILLIE, trials, rng)
    auc_under = summarize_detection(llr0, llr1)["auc"][0]

    over_book = generate_codebook(4, 7, 7, 6, arrival_rate=LAM, seed=5003)
    rng = np.random.default_rng(5004)
    llr0, llr1 = run_detection_trials(over_book, WILLIE, trials, rng)
    auc_over = summarize_detection(llr0, llr1)["auc"][0]
    null_mean = llr0[np.isfinite(llr0)].mean()

    ok = auc_under > 0.6 and auc_over < 0.55 and abs(null_mean) < 0.05 * over_book.n
    report(
        capsys, 5, ok,
        f"AUC={auc_under:.4f} > 0.6 under-resolved (4 bits, n=200); "
        f"AUC={auc_over:.4f} < 0.55 over-resolved (20 bits, n=4); "
        f"|mean null llr|={abs(null_mean):.3f} < {0.05 * over_book.n:.2f}; "
        f"{trials} trials/hypothesis",
    )


def test_criterion_6_closed_forms_and_region(capsys):
    checks = []

    cap = covert_capacity(LAM, MU1)
    checks.append(("capacity", abs(cap - 0.34657359027997264) < 1e-12))
    # calculus argmax: lam* = mu1/e, value mu1/e
    lam_star = MU1 / math.e
    checks.append(("argmax", abs(covert_capacity(lam_star, MU1) - MU1 / math.e) < 1e-12))
    key = min_key_rate(LAM, RegionSpec(MU1, MU2))
    checks.append(("key-rate", abs(key - 0.34657359027997264) < 1e-12))
    checks.append(("key-rate-zero", min_key_rate(0.5, RegionSpec(2.0, 1.0)) == 0.0))

    # Erlang-2 divergence: quadrature oracle and frozen closed form
    from oracles import kl_by_quadrature

    model = ServiceModel.erlang(MU2, shape=2)
    kl = kl_to_exponential(model, MU2)
    quad_val = kl_by_quadrature(
        lambda x: float(model.log_density(np.array([x]))[0]),
        lambda x: math.log(MU2) - MU2 * x,
        0.0, 40.0,
    )
    checks.append(("erlang-kl", abs(kl - quad_val) < 1e-6
                   and abs(kl - 0.11593151565841244) < 1e-10))

    # uniform divergence against 10^7-sample Monte Carlo, 3 significant digits
    uni = ServiceModel.uniform(MU2, halfwidth=0.2)
    kl_uni = kl_to_exponential(uni, MU2)
    rng = np.random.default_rng(6001)
    draws = rng.uniform(0.3, 0.7, 10_000_000)
    mc = float(np.mean(-math.log(0.4) - (math.log(MU2) - MU2 * draws)))
    checks.append(("uniform-kl", abs(kl_uni - mc) < 1e-3 * max(1.0, abs(mc))))

    # The region on a 50x50 grid, for three adversary laws: R below capacity
    # and R_K above lam * (ln(mu2/mu1) + D), the key threshold that the
    # decodability and resolvability constraints on the dummy rate leave; and
    # in the region exactly where a dummy rate meets both constraints
    for name, law in (("exp", ServiceModel.exponential(MU2)),
                      ("erlang2", ServiceModel.erlang(MU2, shape=2)),
                      ("uniform", ServiceModel.uniform(MU2, halfwidth=0.2))):
        spec = RegionSpec(MU1, MU2, law)
        theta = LAM * (math.log(MU2 / MU1) + kl_to_exponential(law, MU2))
        grid_ok = True
        for r in np.linspace(0.0, 0.45, 50):
            for rk in np.linspace(0.0, 0.9, 50):
                point = RatePoint(LAM, float(r), float(rk))
                inside = in_region(point, spec)
                try:
                    choose_dummy_rate(point, spec)
                    reachable = True
                except InfeasibleRateError:
                    reachable = False
                want = (r < cap) and (rk > theta if theta > 0 else True)
                grid_ok &= inside == want and inside == reachable
        checks.append((f"region-grid-{name}", grid_ok))

    failed = [name for name, ok in checks if not ok]
    report(
        capsys, 6, not failed,
        f"capacity/key-rate/argmax at 1e-12, erlang KL at 1e-6, uniform KL vs "
        f"1e7-sample MC at 3 digits, 50x50 region grid for 3 laws"
        + (f"; FAILED: {failed}" if failed else ""),
    )


def test_criterion_7_wrong_key_decodes_to_noise(capsys):
    # decoding with a mismatched key hits the true message only by chance:
    # error rate = 1 - 2^-bits_message within 3 binomial SEs over 2000 trials
    trials = 2000
    bits_message, bits_key, n = 4, 2, 50
    want = 1.0 - 2.0 ** -bits_message
    se = math.sqrt(want * (1.0 - want) / trials)
    fast_bob = ServiceModel.exponential(100.0 * LAM)
    seeds = np.random.SeedSequence(7001).spawn(trials)
    errors = 0
    for seq in seeds:
        rng = np.random.default_rng(seq)
        # fresh codebook per trial keeps the trials independent
        book = generate_codebook(n, bits_message, 0, bits_key,
                                 arrival_rate=LAM, seed=int(rng.integers(2**32)))
        w = int(rng.integers(book.num_messages))
        k = int(rng.integers(book.num_keys))
        tx = encode(book, w, k, rng)
        dep = simulate_channel(tx.arrival_epochs, fast_bob, rng)
        wrong = (k + 1 + int(rng.integers(book.num_keys - 1))) % book.num_keys
        if decode(book, dep, wrong, fast_bob).message != w:
            errors += 1
    err = errors / trials
    ok = abs(err - want) <= 3 * se
    report(
        capsys, 7, ok,
        f"mismatched-key error {err:.4f} vs 1 - 2^-{bits_message} = {want:.4f} "
        f"(+/- {3 * se:.4f}, {trials} fresh-codebook trials)",
    )


def test_criterion_8_runs_are_bit_reproducible(capsys, tmp_path):
    # same seed, different worker counts, both output formats: byte-identical
    base = dict(
        experiment="detection_sweep", arrival_rate=LAM, mu1=MU1, mu2=MU2,
        n_list=[6, 12], width_list=[[2, 1, 1]], trials=100, master_seed=88,
    )
    files = {}
    for workers in (1, 3):
        for fmt in ("csv", "jsonlines"):
            cfg = ExperimentConfig.from_dict(dict(base, workers=workers, output_format=fmt))
            path = tmp_path / f"w{workers}.{fmt}"
            emit(run(cfg), str(path), fmt)
            files[(workers, fmt)] = path.read_bytes()
    same_workers = all(files[(1, f)] == files[(3, f)] for f in ("csv", "jsonlines"))

    cfg = ExperimentConfig.from_dict(dict(base, experiment="info_density"))
    repeat_same = run(cfg) == run(cfg)
    ok = same_workers and repeat_same
    report(
        capsys, 8, ok,
        f"byte-identical across 1 vs 3 workers (csv+jsonlines): {same_workers}; "
        f"repeated run identical: {repeat_same}",
    )
