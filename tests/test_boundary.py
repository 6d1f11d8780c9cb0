"""Every public entry applies the package's input rules at its call.

Epochs (non-empty, finite, non-negative and non-decreasing down axis 0: the
running sums of the gaps that ``departure_epochs`` takes) raise
``StructuralError``; counts (an integer >= its least value, never a bool)
and rates (a finite number > 0 whose reciprocal is finite, never a bool)
raise ``ParameterError``; codeword indices (an integer in range, never a
bool) raise ``StructuralError``; an arrival rate at or above a service rate
raises ``InstabilityError`` at every entry that needs a stable queue.  A
codebook, a service law, a region and a config refuse a malformed field when
they are built, with the category of their module: ``ParameterError`` for
the library's objects, ``ConfigError`` for a config.  A codebook also
refuses epochs that are not a float64 (n, total) array (``StructuralError``)
and a size past the cap (``ResourceLimitError``).
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from covertq.codec import (decode, encode, generate_codebook,
                           mm1_log_output_ratio_bound, random_coding_error_bounds)
from covertq.errors import (ConfigError, InstabilityError, ParameterError, ResourceLimitError,
                            StructuralError)
from covertq.harness import ExperimentConfig, service_from_dict
from covertq.laws import info_density_sample, poisson_log_density, sample_info_densities
from covertq.queueing import ServiceModel, poisson_arrivals, simulate_channel
from covertq.rates import RatePoint, RegionSpec, covert_capacity, min_key_rate
from covertq.warden import run_detection_trials, willie_llr

EXP = ServiceModel.exponential(2.0)
BOOK = generate_codebook(4, 2, 1, 1, arrival_rate=0.5, seed=3)
INFO = np.array([0.4, 0.9, 0.6])  # per-packet information densities


def rng():
    return np.random.default_rng(0)


def block(bad):
    """(4, 3) epochs, 0.7 apart, with one bad value in column 1."""
    epochs = np.cumsum(np.full((4, 3), 0.7), axis=0)
    epochs[2, 1] = bad
    return epochs


EPOCH_ENTRIES = {
    "decode 2-d": lambda bad: decode(BOOK, block(bad), [0, 1, 0], EXP),
    "decode": lambda bad: decode(BOOK, block(bad)[:, 1], 0, EXP),
    "willie_llr 2-d": lambda bad: willie_llr(BOOK, block(bad), EXP),
    "willie_llr": lambda bad: willie_llr(BOOK, block(bad)[:, 1], EXP),
    "info_density_sample": lambda bad: info_density_sample(np.full((4, 3), 0.7), block(bad),
                                                           EXP, 0.5),
    "info_density_sample arrivals": lambda bad: info_density_sample(block(bad)[:, 1],
                                                                    np.full(4, 0.7), EXP, 0.5),
    "poisson_log_density": lambda bad: poisson_log_density(block(bad), 0.5),
}


# 1.0 comes after the epoch 1.4: a negative gap
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, 1.0])
@pytest.mark.parametrize("entry", EPOCH_ENTRIES)
def test_bad_gap_is_a_structural_error(entry, bad):
    with pytest.raises(StructuralError):
        EPOCH_ENTRIES[entry](bad)


COUNT_ENTRIES = {
    "generate_codebook n": lambda v: generate_codebook(v, 1, 0, 0, arrival_rate=0.5, seed=0),
    "generate_codebook bits_key": lambda v: generate_codebook(4, 1, 0, v, arrival_rate=0.5,
                                                              seed=0),
    "generate_codebook seed": lambda v: generate_codebook(4, 1, 0, 0, arrival_rate=0.5, seed=v),
    "Codebook n": lambda v: replace(BOOK, n=v),
    "Codebook bits_message": lambda v: replace(BOOK, bits_message=v),
    "Codebook bits_dummy": lambda v: replace(BOOK, bits_dummy=v),
    "Codebook bits_key": lambda v: replace(BOOK, bits_key=v),
    "Codebook seed": lambda v: replace(BOOK, seed=v),
    "Codebook.send": lambda v: BOOK.send(rng(), v),
    "poisson_arrivals": lambda v: poisson_arrivals(0.5, v, rng()),
    "sample_info_densities n": lambda v: sample_info_densities(v, 0.5, EXP, 3, rng()),
    "sample_info_densities trials": lambda v: sample_info_densities(4, 0.5, EXP, v, rng()),
    "run_detection_trials": lambda v: run_detection_trials(BOOK, EXP, v, rng()),
    "random_coding_error_bounds n": lambda v: random_coding_error_bounds(INFO, v, 2, 0.1),
    "random_coding_error_bounds message_bits": lambda v: random_coding_error_bounds(INFO, 4, v,
                                                                                    0.1),
}


# "4" is a count written as text, as a hand-edited config or file would give it
@pytest.mark.parametrize("count", [2.5, True, np.bool_(True), -1, "4"], ids=repr)
@pytest.mark.parametrize("entry", COUNT_ENTRIES)
def test_bad_count_is_a_parameter_error(entry, count):
    with pytest.raises(ParameterError):
        COUNT_ENTRIES[entry](count)


RATE_ENTRIES = {
    "generate_codebook": lambda v: generate_codebook(4, 1, 0, 0, arrival_rate=v, seed=0),
    "Codebook": lambda v: replace(BOOK, arrival_rate=v),
    "poisson_arrivals": lambda v: poisson_arrivals(v, 4, rng()),
    "sample_info_densities": lambda v: sample_info_densities(4, v, EXP, 3, rng()),
    "mm1_log_output_ratio_bound arrival_rate": lambda v: mm1_log_output_ratio_bound(v, 2.0),
    "mm1_log_output_ratio_bound mu1": lambda v: mm1_log_output_ratio_bound(0.5, v),
    "ServiceModel.exponential": lambda v: ServiceModel.exponential(v),
}


# 5e-324 is subnormal: its reciprocal, the mean gap, overflows to inf
@pytest.mark.parametrize("rate", [True, math.nan, math.inf, 0.0, -1.0, 5e-324,
                                  np.float64(1e-309), "0.5"], ids=repr)
@pytest.mark.parametrize("entry", RATE_ENTRIES)
def test_bad_rate_is_a_parameter_error(entry, rate):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ParameterError):
            RATE_ENTRIES[entry](rate)


BOOK_EPOCHS = {
    "too few columns": lambda: replace(BOOK, arrival_epochs=BOOK.arrival_epochs[:, :8]),
    "widths that disagree": lambda: replace(BOOK, bits_key=3),
    "1-d": lambda: replace(BOOK, arrival_epochs=BOOK.arrival_epochs[0]),
    "float32": lambda: replace(BOOK, arrival_epochs=BOOK.arrival_epochs.astype(np.float32)),
    "a list": lambda: replace(BOOK, arrival_epochs=BOOK.arrival_epochs.tolist()),
}


@pytest.mark.parametrize("entry", BOOK_EPOCHS)
def test_bad_book_epochs_are_a_structural_error(entry):
    with pytest.raises(StructuralError, match="arrival_epochs"):
        BOOK_EPOCHS[entry]()


# refused on the fields alone: no epochs of that size are needed
@pytest.mark.parametrize("fields", [dict(bits_message=19), dict(n=2**9, bits_message=18)],
                         ids=["codewords", "cells"])
def test_a_book_past_the_cap_is_a_resource_limit_error(fields):
    with pytest.raises(ResourceLimitError):
        replace(BOOK, **fields)


INDEX_ENTRIES = {  # BOOK has 4 messages, 2 dummies and 2 keys
    "encode message": lambda v: encode(BOOK, v, 0, rng()),
    "encode key": lambda v: encode(BOOK, 0, v, rng()),
    "Codebook.column dummy": lambda v: BOOK.column(0, v, 0),
}


@pytest.mark.parametrize("index", [1.5, "1", True, np.bool_(True), -1, 4], ids=repr)
@pytest.mark.parametrize("entry", INDEX_ENTRIES)
def test_bad_index_is_a_structural_error(entry, index):
    with pytest.raises(StructuralError):
        INDEX_ENTRIES[entry](index)


def test_numpy_indices_are_recorded_as_python_ints():
    sent = encode(BOOK, np.int64(3), np.uint8(1), rng())
    assert (sent.message, sent.key) == (3, 1)
    assert type(sent.message) is int and type(sent.key) is int
    assert BOOK.column(np.int32(1), np.int64(1), np.uint8(1)) == 11


def test_draws_past_the_float_range_are_a_parameter_error():
    # 1 / 5.6e-309 is just under the largest float: a legal rate, whose gaps
    # and their running sums can still overflow to inf
    assert ServiceModel.exponential(5.6e-309).mean < math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no inf - inf on the way
        with pytest.raises(ParameterError, match="overflow"):
            sample_info_densities(16, 1e-308, EXP, 20, rng())
        # an overflow first seen in a later row piece: the error names the block
        with pytest.raises(ParameterError, match="overflow.* within 4000 packets"):
            sample_info_densities(4000, 1e-305, EXP, 300, rng())
        with pytest.raises(ParameterError, match="overflow"):
            simulate_channel(np.full((4, 3), 0.7), ServiceModel.exponential(1e-308), rng())
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
@pytest.mark.parametrize("name", ["message_rate", "key_rate"])
def test_bad_rate_point_rate_is_a_parameter_error(name, value):
    rates = {"message_rate": 0.5, "key_rate": 0.1, name: value}
    with pytest.raises(ParameterError):
        RatePoint(0.5, **rates)


def test_numpy_counts_and_an_empty_send_are_accepted():
    messages, dummies, keys, epochs = BOOK.send(rng(), np.int64(0))
    assert epochs.shape == (4, 0) and messages.size == dummies.size == keys.size == 0
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



@pytest.mark.parametrize("payload", [
    *({"kind": "exponential", "rate": rate}
      for rate in ("2.0", None, True, math.nan, math.inf, [2.0], {"rate": 2.0})),
    *({"kind": "erlang", "rate": 2.0, "shape": shape}
      for shape in (2.0, True, "2", 10**400, {"shape": 2})),
    {"kind": "erlang", "rate": 2.0},
    *({"kind": "uniform", "rate": 2.0, "halfwidth": width}
      for width in ("0.1", None, [0.1], {"halfwidth": 0.1})),
    {"kind": "exponential", "rate": 2.0, "shape": 2},
    {"kind": "exponential", "rate": 2.0, "halfwidth": 0.1},
    {"kind": "uniform", "rate": 2.0, "shape": 2, "halfwidth": 0.1},
    {"kind": "erlang", "rate": 2.0, "shape": 2, "halfwidth": 0.1},
], ids=lambda payload: repr(payload)[:64])
def test_a_bad_service_law_payload_is_a_config_error(payload):
    # the law's own rules refuse every field of the wrong type or value
    with pytest.raises(ConfigError):
        service_from_dict(payload)


MU = 0.7
STABILITY_ENTRIES = {
    "ExperimentConfig mu1": lambda lam: ExperimentConfig("region_table", lam, MU, 2 * MU),
    "ExperimentConfig mu2": lambda lam: ExperimentConfig("region_table", lam, 2 * MU, MU),
    "min_key_rate mu1": lambda lam: min_key_rate(lam, RegionSpec(MU, 2 * MU)),
    "min_key_rate mu2": lambda lam: min_key_rate(lam, RegionSpec(2 * MU, MU)),
    "covert_capacity": lambda lam: covert_capacity(lam, MU),
    "mm1_log_output_ratio_bound": lambda lam: mm1_log_output_ratio_bound(lam, MU),
}


@pytest.mark.parametrize("entry", STABILITY_ENTRIES)
def test_an_unstable_queue_is_an_instability_error(entry):
    STABILITY_ENTRIES[entry](float(np.nextafter(MU, 0.0)))  # the last stable rate
    for lam in (MU, float(np.nextafter(MU, math.inf)), 2 * MU):
        with pytest.raises(InstabilityError, match="no stationary regime"):
            STABILITY_ENTRIES[entry](lam)
