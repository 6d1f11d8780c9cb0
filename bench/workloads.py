"""The benchmark's pinned workloads.

Every workload is one experiment config, driven through the same public
calls the CLI makes: ``ExperimentConfig.from_dict`` -> ``harness.run`` ->
``harness.emit``, with ``workers=1``.  Only ``master_seed`` comes from the
benchmark's ``--seed``; everything else is fixed here.  ``BENCHMARK.json``
and ``bench/README.md`` say why each one was chosen.
"""

from __future__ import annotations

DEFAULT_SEED = 20160816
# The gate also checks one run at this distance from the workload seed, so
# that no reading rests on a single lucky seed.
SECOND_SEED_OFFSET = 7919
CODEBOOK_CAP_BITS = 20  # the harness enumerates codebooks up to 2^20 codewords

CHANNEL = {
    "arrival_rate": 0.5,
    "mu1": 1.0,
    "mu2": 2.0,
    "willie_service": {"kind": "exponential", "rate": 2.0},
    "workers": 1,
    "output_format": "csv",
}

# ``trial_opener`` is the traced call that starts a new trial; spans between
# two such calls share a trial id.
WORKLOADS = {
    # laws scan + warden log-sum-exp over a 2^20 book (criterion 5's cost)
    "detect_wide": {
        "config": {"experiment": "detection_sweep", "n_list": [4], "width_list": [[7, 7, 6]],
                   "trials": 10},
        "trial_opener": "codec.encode",
    },
    # per-trial Python path: simulate_channel + info_density_sample, no scan
    "info_short": {
        "config": {"experiment": "info_density", "n_list": [16], "trials": 2000},
        "trial_opener": "queueing.poisson_arrivals",
    },
    # the scan again, behind a key-strided gather and an argmax on a 1 MB sub-book
    "decode_keyed": {
        "config": {"experiment": "decode_sweep", "n_list": [32], "width_list": [[10, 2, 2]],
                   "trials": 400},
        "trial_opener": "codec.encode",
    },
    # beyond the enumeration cap at 0.95x capacity: few long departure recursions
    "bound_long": {
        "config": {"experiment": "decode_sweep", "n_list": [2000], "width_list": [[1900, 0, 0]],
                   "trials": 300},
        "trial_opener": "queueing.poisson_arrivals",
    },
}


def config_dict(name: str, seed: int, output_path: str) -> dict:
    """The full experiment config of workload ``name`` at ``seed``."""
    return dict(CHANNEL, **WORKLOADS[name]["config"], master_seed=seed, output_path=output_path)


def work_per_run(name: str) -> int:
    """Configured trials x parameter points: the numerator of ``trials_per_s``.

    For ``detection_sweep`` one trial is one message block plus one
    no-message block.
    """
    cfg = WORKLOADS[name]["config"]
    points = len(cfg["n_list"]) * len(cfg.get("width_list", [None]))
    if cfg["experiment"] == "info_density":
        points *= 2  # bob and willie sides
    return cfg["trials"] * points


def codebook_shape(name: str):
    """``(n, widths)`` of the codebook the workload enumerates, or None."""
    cfg = WORKLOADS[name]["config"]
    widths = cfg.get("width_list", [None])[0]
    if widths is None or sum(widths) > CODEBOOK_CAP_BITS:
        return None
    return cfg["n_list"][0], tuple(widths)
