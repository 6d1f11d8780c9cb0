"""Every public entry applies the package's three input rules at its call.

Gaps (non-empty, finite, non-negative) raise ``StructuralError``; counts (an
integer >= its least value, never a bool) and rates (a finite number > 0
whose reciprocal is finite, never a bool) raise ``ParameterError``.  A service law, a region and a
config refuse a malformed field when they are built, with the category of
their module: ``ParameterError`` for the library's objects, ``ConfigError``
for a config.
"""

import math
import warnings

import numpy as np
import pytest

from covertq.codec import (decode, decode_block, generate_codebook, mm1_log_output_ratio_bound,
                           random_coding_error_bounds)
from covertq.errors import ConfigError, ParameterError, StructuralError
from covertq.harness import ExperimentConfig
from covertq.laws import info_density_sample, poisson_log_density, sample_info_densities
from covertq.queueing import ServiceModel, poisson_arrivals, simulate_block
from covertq.rates import RatePoint, RegionSpec
from covertq.warden import run_detection_trials, willie_llr, willie_llr_block

EXP = ServiceModel.exponential(2.0)
BOOK = generate_codebook(4, 2, 1, 1, arrival_rate=0.5, seed=3)
INFO = np.array([0.4, 0.9, 0.6])  # per-packet information densities


def rng():
    return np.random.default_rng(0)


def block(bad):
    """(4, 3) gaps with one bad value in column 1."""
    gaps = np.full((4, 3), 0.7)
    gaps[2, 1] = bad
    return gaps


GAP_ENTRIES = {
    "decode_block": lambda bad: decode_block(BOOK, block(bad), [0, 1, 0], EXP),
    "decode": lambda bad: decode(BOOK, block(bad)[:, 1], 0, EXP),
    "willie_llr_block": lambda bad: willie_llr_block(BOOK, block(bad), EXP, 0.5),
    "willie_llr": lambda bad: willie_llr(BOOK, block(bad)[:, 1], EXP, 0.5),
    "info_density_sample": lambda bad: info_density_sample(np.full((4, 3), 0.7), block(bad),
                                                           EXP, 0.5),
    "info_density_sample arrivals": lambda bad: info_density_sample(block(bad)[:, 1],
                                                                    np.full(4, 0.7), EXP, 0.5),
    "poisson_log_density": lambda bad: poisson_log_density(block(bad), 0.5),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5])
@pytest.mark.parametrize("entry", GAP_ENTRIES)
def test_bad_gap_is_a_structural_error(entry, bad):
    with pytest.raises(StructuralError):
        GAP_ENTRIES[entry](bad)


COUNT_ENTRIES = {
    "generate_codebook n": lambda v: generate_codebook(v, 1, 0, 0, arrival_rate=0.5, seed=0),
    "generate_codebook bits_key": lambda v: generate_codebook(4, 1, 0, v, arrival_rate=0.5,
                                                              seed=0),
    "Codebook.send": lambda v: BOOK.send(rng(), v),
    "poisson_arrivals": lambda v: poisson_arrivals(0.5, v, rng()),
    "sample_info_densities n": lambda v: sample_info_densities(v, 0.5, EXP, 3, rng()),
    "sample_info_densities trials": lambda v: sample_info_densities(4, 0.5, EXP, v, rng()),
    "run_detection_trials": lambda v: run_detection_trials(BOOK, EXP, 0.5, v, rng()),
    "random_coding_error_bounds n": lambda v: random_coding_error_bounds(INFO, v, 2, 0.1),
    "random_coding_error_bounds message_bits": lambda v: random_coding_error_bounds(INFO, 4, v,
                                                                                    0.1),
}


@pytest.mark.parametrize("count", [2.5, True, np.bool_(True), -1], ids=repr)
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_bad_count_is_a_parameter_error(entry, count):
    with pytest.raises(ParameterError):
        COUNT_ENTRIES[entry](count)


RATE_ENTRIES = {
    "generate_codebook": lambda v: generate_codebook(4, 1, 0, 0, arrival_rate=v, seed=0),
    "poisson_arrivals": lambda v: poisson_arrivals(v, 4, rng()),
    "sample_info_densities": lambda v: sample_info_densities(4, v, EXP, 3, rng()),
    "run_detection_trials": lambda v: run_detection_trials(BOOK, EXP, v, 3, rng()),
    "mm1_log_output_ratio_bound arrival_rate": lambda v: mm1_log_output_ratio_bound(v, 2.0),
    "mm1_log_output_ratio_bound mu1": lambda v: mm1_log_output_ratio_bound(0.5, v),
    "ServiceModel.exponential": lambda v: ServiceModel.exponential(v),
}


# 5e-324 is subnormal: its reciprocal, the mean gap, overflows to inf
@pytest.mark.parametrize("rate", [True, math.nan, 0.0, 5e-324, np.float64(1e-309)], ids=repr)
@pytest.mark.parametrize("entry", RATE_ENTRIES)
def test_bad_rate_is_a_parameter_error(entry, rate):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ParameterError):
            RATE_ENTRIES[entry](rate)


def test_draws_past_the_float_range_are_a_parameter_error():
    # 1 / 5.6e-309 is just under the largest float: a legal rate, whose gaps
    # and their running sums can still overflow to inf
    assert ServiceModel.exponential(5.6e-309).mean < math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no inf - inf on the way
        with pytest.raises(ParameterError, match="overflow"):
            sample_info_densities(16, 1e-308, EXP, 20, rng())
        with pytest.raises(ParameterError, match="overflow"):  # blocks in stacks
            sample_info_densities(2000, 1e-308, EXP, 300, rng())
        with pytest.raises(ParameterError, match="overflow"):
            simulate_block(np.full((4, 3), 0.7), ServiceModel.exponential(1e-308), rng())
        with pytest.raises(ParameterError, match="overflow"):  # one inf draw of three
            poisson_arrivals(5.6e-309, 3, np.random.default_rng(0))
        with pytest.raises(ParameterError, match="overflow"):  # one inf epoch of 262,144
            generate_codebook(4, 16, 0, 0, arrival_rate=1e-307, seed=1)


@pytest.mark.parametrize("experiment, widths", [
    ("info_density", []), ("decode_sweep", [[21, 0, 0]]), ("detection_sweep", [[2, 1, 1]])])
def test_subnormal_config_rate_is_a_config_error(experiment, widths):
    payload = dict(experiment=experiment, arrival_rate=5e-324, mu1=1.0, mu2=2.0, n_list=[4],
                   width_list=widths)
    with pytest.raises(ConfigError, match="arrival_rate"):
        ExperimentConfig.from_dict(payload)


def test_nan_information_density_is_a_structural_error():
    # -inf marks an infeasible trial: legal, and counted as an error
    bounds = random_coding_error_bounds(np.array([0.5, -math.inf, 0.7]), 10, 3, 0.1)
    assert bounds.lower == pytest.approx(1 / 3)
    with pytest.raises(StructuralError):
        random_coding_error_bounds(np.array([0.5, math.nan, 0.7]), 10, 3, 0.1)


@pytest.mark.parametrize("bound", [math.nan, math.inf, True, "0.1", -5.0, -1e-300], ids=repr)
def test_bad_log_output_ratio_bound_is_a_parameter_error(bound):
    with pytest.raises(ParameterError):
        random_coding_error_bounds(np.array([0.5, 0.6, 0.7]), 10, 3, bound)


@pytest.mark.parametrize("value", [True, np.bool_(False), "1", math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("name", ["message_rate", "key_rate", "dummy_rate"])
def test_bad_rate_point_rate_is_a_parameter_error(name, value):
    rates = {"message_rate": 0.5, "key_rate": 0.1, "dummy_rate": 0.0, name: value}
    with pytest.raises(ParameterError):
        RatePoint(0.5, **rates)


def test_numpy_counts_and_an_empty_send_are_accepted():
    messages, dummies, keys, gaps = BOOK.send(rng(), np.int64(0))
    assert gaps.shape == (4, 0) and messages.size == dummies.size == keys.size == 0
    assert poisson_arrivals(0.5, np.int32(4), rng()).shape == (4,)
    assert sample_info_densities(np.int64(4), 0.5, EXP, np.uint8(3), rng()).shape == (3,)


SERVICE_LAWS = {
    "kind as a string": lambda: ServiceModel("exponential", 2.0),
    "bool halfwidth": lambda: ServiceModel.uniform(1.0, True),
    "string halfwidth": lambda: ServiceModel.uniform(1.0, "a"),
    "region law as a dict": lambda: RegionSpec(1.0, 2.0, {"kind": "exponential", "rate": 2.0}),
}


@pytest.mark.parametrize("entry", SERVICE_LAWS)
def test_bad_service_law_is_a_parameter_error(entry):
    with pytest.raises(ParameterError):
        SERVICE_LAWS[entry]()


@pytest.mark.parametrize("payload", ["abc", [1, 2], None], ids=repr)
def test_bad_config_is_a_config_error(payload):
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(payload)

