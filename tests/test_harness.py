import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from covertq import codec, harness, laws, queueing, warden
from covertq.cli import main as cli_main
from covertq.codec import decode, generate_codebook
from covertq.errors import (ConfigError, InstabilityError, OutputError, ResourceLimitError,
                            StructuralError)
from covertq.harness import (
    ExperimentConfig,
    ResultRow,
    emit,
    load_rows,
    param_points,
    reproduce_metric,
    run,
    service_from_dict,
    service_to_dict,
)
from covertq.queueing import ServiceModel, simulate_channel

import oracles


def base_config(**overrides):
    payload = dict(
        experiment="region_table",
        arrival_rate=0.5,
        mu1=1.0,
        mu2=2.0,
        trials=30,
        master_seed=9,
    )
    payload.update(overrides)
    return ExperimentConfig(**payload)


class TestConfig:
    def test_instability_rejected_at_load(self):
        with pytest.raises(InstabilityError):
            base_config(arrival_rate=1.0)
        with pytest.raises(InstabilityError):
            base_config(mu2=0.4)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            base_config(experiment="nope")

    def test_sweeps_require_lists(self):
        with pytest.raises(ConfigError):
            base_config(experiment="decode_sweep", n_list=(8,))
        with pytest.raises(ConfigError):
            base_config(experiment="info_density")

    def test_willie_service_defaults_to_exponential_mu2(self):
        cfg = base_config()
        assert cfg.willie_service == ServiceModel.exponential(2.0)

    def test_willie_service_rate_must_match_mu2(self):
        with pytest.raises(ConfigError):
            base_config(willie_service=ServiceModel.exponential(1.0))

    def test_from_dict_round_trip_with_service_law(self):
        model = ServiceModel.erlang(2.0, shape=2)
        cfg = ExperimentConfig.from_dict(
            dict(
                experiment="info_density",
                arrival_rate=0.5,
                mu1=1.0,
                mu2=2.0,
                willie_service=service_to_dict(model),
                n_list=[10],
                trials=5,
            )
        )
        assert cfg.willie_service == model
        assert service_from_dict(service_to_dict(model)) == model

    def test_size_budget_edges(self):
        # at most 2^32 packets (n x trials) per point and 2^28 cells
        # (n x codewords) per enumerated codebook
        base_config(experiment="info_density", n_list=(2**16, 3), trials=2**16)
        base_config(experiment="detection_sweep", n_list=(2**8,), width_list=((10, 10, 0),))
        base_config(experiment="decode_sweep", n_list=(2**8,), width_list=((10, 10, 0),))
        base_config(experiment="decode_sweep", n_list=(2**8,), width_list=((40, 0, 0),))  # bounds
        base_config(n_list=(2**40,), trials=2**40)  # a region table runs no trials
        base_config(experiment="info_density", n_list=(2**24,), trials=2)  # one block <= 2^24
        with pytest.raises(ResourceLimitError, match="block length"):
            base_config(experiment="info_density", n_list=(2**24 + 1,), trials=2)
        with pytest.raises(ResourceLimitError, match="packets"):
            base_config(experiment="info_density", n_list=(2**16, 3), trials=2**16 + 1)
        with pytest.raises(ResourceLimitError, match="cells"):
            base_config(experiment="detection_sweep", n_list=(2**8,), width_list=((10, 10, 1),))
        with pytest.raises(ResourceLimitError, match="cells"):
            base_config(experiment="decode_sweep", n_list=(2**9,), width_list=((10, 10, 0),))

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(dict(experiment="region_table", arrival_rate=0.5,
                                            mu1=1.0, mu2=2.0, bogus=1))
        with pytest.raises(ConfigError, match="enumeration_cap_bits"):  # the cap is not a knob
            ExperimentConfig.from_dict(dict(experiment="region_table", arrival_rate=0.5,
                                            mu1=1.0, mu2=2.0, enumeration_cap_bits=20))


class TestRegionTable:
    def test_reference_rates_present(self):
        rows = run(base_config())
        by_metric = {r.metric: r for r in rows if r.metric != "boundary_key_rate"}
        assert by_metric["covert_capacity"].value == pytest.approx(0.34657359, abs=1e-8)
        assert by_metric["min_key_rate"].value == pytest.approx(0.34657359, abs=1e-8)
        assert by_metric["willie_divergence"].value == 0.0
        assert by_metric["no_key_needed"].value == 0.0
        boundary = [r for r in rows if r.metric == "boundary_key_rate"]
        assert len(boundary) == 21
        assert all(r.value == pytest.approx(0.34657359, abs=1e-8) for r in boundary)

    def test_exponential_and_erlang_shape_one_give_one_table(self):
        # one law, two spellings: the same rows but for the law's name
        exp_rows = run(base_config(willie_service=ServiceModel.exponential(2.0)))
        erlang_rows = run(base_config(willie_service=ServiceModel.erlang(2.0, shape=1)))
        assert [(r.metric, r.value) for r in exp_rows] == [
            (r.metric, r.value) for r in erlang_rows]

    def test_boundary_adds_the_divergence_at_every_message_rate(self):
        rows = run(base_config(willie_service=ServiceModel.erlang(2.0, shape=2)))
        by_metric = {r.metric: r.value for r in rows}
        assert by_metric["min_key_rate"] == pytest.approx(
            0.5 * (math.log(2.0) + by_metric["willie_divergence"]), abs=1e-8)
        boundary = [r.value for r in rows if r.metric == "boundary_key_rate"]
        assert boundary == [by_metric["min_key_rate"]] * 21


class TestDeterminism:
    def test_same_seed_same_rows(self):
        cfg = base_config(experiment="info_density", n_list=(20,), trials=40)
        assert run(cfg) == run(cfg)

    def test_worker_count_does_not_change_results(self, tmp_path):
        cfg = base_config(
            experiment="detection_sweep", n_list=(6, 10), width_list=((2, 1, 1),),
            trials=100,
        )
        rows1 = run(cfg)
        rows2 = run(ExperimentConfig.from_dict(
            dict(experiment="detection_sweep", arrival_rate=0.5, mu1=1.0, mu2=2.0,
                 n_list=[6, 10], width_list=[[2, 1, 1]], trials=100, master_seed=9,
                 workers=3)
        ))
        assert rows1 == rows2
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(rows1, str(p1))
        emit(rows2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("experiment, points", [
        ("region_table", 1), ("info_density", 4), ("detection_sweep", 2),
    ])
    def test_at_most_one_process_per_point(self, monkeypatch, experiment, points):
        pools = []

        class InlinePool:
            """Records the pool size asked for and runs each task at once."""

            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        cfg = base_config(experiment=experiment, n_list=(6, 10), width_list=((2, 1, 1),),
                          trials=20)
        assert len(param_points(cfg)) == points
        rows = run(replace(cfg, workers=5000))
        assert pools == ([] if points == 1 else [points])
        assert rows == run(cfg)

    def test_different_seed_changes_stochastic_rows(self):
        cfg1 = base_config(experiment="info_density", n_list=(20,), trials=40, master_seed=1)
        cfg2 = base_config(experiment="info_density", n_list=(20,), trials=40, master_seed=2)
        v1 = [r.value for r in run(cfg1) if r.metric == "mean_per_packet"]
        v2 = [r.value for r in run(cfg2) if r.metric == "mean_per_packet"]
        assert v1 != v2


class TestSweeps:
    def test_decode_sweep_dense_and_bounded_modes(self):
        cfg = base_config(
            experiment="decode_sweep",
            mu1=50.0,  # high SNR keeps the dense error tiny
            n_list=(50,),
            width_list=((4, 2, 0), (30, 0, 0)),
            trials=60,
        )
        rows = run(cfg)
        dense = {r.metric for r in rows if r.params["bits_message"] == 4}
        bounded = {r.metric for r in rows if r.params["bits_message"] == 30}
        assert dense == {"message_error_rate", "pair_error_rate"}
        assert bounded == {"ml_error_upper_bound", "ml_error_lower_bound"}
        err = [r for r in rows if r.metric == "message_error_rate"][0]
        assert err.value <= 0.05
        ub = [r for r in rows if r.metric == "ml_error_upper_bound"][0]
        lb = [r for r in rows if r.metric == "ml_error_lower_bound"][0]
        assert 0.0 <= lb.value <= ub.value <= 1.0

    def test_detection_sweep_reports_expected_metrics(self):
        cfg = base_config(
            experiment="detection_sweep", n_list=(8,), width_list=((2, 1, 1),), trials=100
        )
        rows = run(cfg)
        metrics = {r.metric for r in rows}
        assert {"auc", "tv_estimate", "llr_infeasible_fraction"} <= metrics
        auc = [r for r in rows if r.metric == "auc"][0]
        assert 0.0 <= auc.value <= 1.0 and auc.stderr > 0.0

    def test_info_density_side_sweep(self):
        cfg = base_config(experiment="info_density", n_list=(10, 30), trials=50)
        rows = run(cfg)
        points = param_points(cfg)
        assert len(points) == 4  # 2 sides x 2 block lengths
        means = {(r.params["side"], r.params["n"]): r.value
                 for r in rows if r.metric == "mean_per_packet"}
        assert set(means) == {("bob", 10), ("bob", 30), ("willie", 10), ("willie", 30)}
        # adversary faster than receiver: higher per-packet information
        assert means[("willie", 30)] > means[("bob", 30)]


    def test_decode_sweep_matches_per_trial_encode_and_decode(self):
        # the sweep's gathered block against the public calls, trial by trial:
        # the same draws (the messages, keys and dummies, then the block's
        # services) and the same departure epochs, so the same bits
        cfg = base_config(experiment="decode_sweep", n_list=(6,), width_list=((3, 1, 1),),
                          trials=300)
        rows = {r.metric: r.value for r in run(cfg)}
        bob = ServiceModel.exponential(cfg.mu1)
        book = generate_codebook(6, 3, 1, 1, arrival_rate=cfg.arrival_rate,
                                 seed=harness._book_seed(cfg, 0))
        rng = harness._point_rng(cfg, 0)
        messages, dummies, keys, epochs = book.send(rng, cfg.trials)
        swept = codec._decode(book, queueing._queue(epochs, bob, rng), keys, bob)
        rng = harness._point_rng(cfg, 0)
        sent_messages, sent_dummies, sent_keys, codewords = oracles.sent_codewords(
            book, rng, cfg.trials)
        departures = simulate_channel(np.stack(codewords, axis=1), bob, rng)
        got = [decode(book, departures[:, j], key, bob) for j, key in enumerate(sent_keys)]
        assert (sent_messages, sent_dummies, sent_keys) == (
            messages.tolist(), dummies.tolist(), keys.tolist())
        assert swept[0].tolist() == [r.message for r in got]
        assert swept[1].tolist() == [r.dummy for r in got]
        assert swept[3].tolist() == [r.feasible_count for r in got]
        assert [x.hex() for x in swept[2].tolist()] == [r.log_likelihood.hex() for r in got]
        errors = sum(r.message != w for r, w in zip(got, sent_messages))
        pair_errors = sum((r.message, r.dummy) != sent
                          for r, sent in zip(got, zip(sent_messages, sent_dummies)))
        assert 0 < errors < cfg.trials
        assert rows["message_error_rate"] == errors / cfg.trials
        assert rows["pair_error_rate"] == pair_errors / cfg.trials

    def test_decode_sweep_decodes_every_block_at_a_fast_service(self):
        # a block the queue produced is feasible for its own codeword, even
        # where the services are a few ulps of the epochs, so a 1e12-rate
        # receiver decodes every pair
        cfg = base_config(experiment="decode_sweep", mu1=1e12, n_list=(16,),
                          width_list=((3, 1, 1),), trials=4000, master_seed=1)
        rows = {r.metric: r.value for r in run(cfg)}
        assert rows["pair_error_rate"] == rows["message_error_rate"] == 0.0

    def test_detection_sweep_scores_every_sent_block_at_a_fast_service(self):
        # no sent block scores -inf, so the message llr mean is finite and
        # the point emits its rows
        cfg = base_config(experiment="detection_sweep", mu2=1e12, n_list=(16,),
                          width_list=((3, 1, 1),), trials=2000, master_seed=2)
        rows = {r.metric: r.value for r in run(cfg)}
        assert math.isfinite(rows["mean_llr_message"]) and rows["auc"] > 0.99

    @pytest.mark.parametrize("experiment, widths", [
        ("decode_sweep", (2, 1, 1)),
        ("detection_sweep", (2, 1, 1)),
        ("info_density", (2, 1, 1)),
        ("decode_sweep", (21, 0, 0)),
    ], ids=["decode_sweep", "detection_sweep", "info_density", "decode_sweep past the cap"])
    def test_sweep_checks_times_per_block_not_per_trial(self, monkeypatch, experiment, widths):
        # the codeword lookup and q(D) each run per block: a per-trial or
        # per-observation call would count more at 90 trials.  No sweep checks
        # the gaps it draws or the epochs it sends
        calls = []

        def count(name, *owners):  # every module's own binding of the name
            for owner in owners:
                call = getattr(owner, name)
                monkeypatch.setattr(owner, name, lambda *a, call=call, **k:
                                    calls.append(name) or call(*a, **k))

        count("_as_times", queueing)
        count("_as_epochs", queueing, codec, laws, warden)
        count("column", codec.Codebook)
        count("_poisson_log_density", laws, warden)
        counts = []
        for trials in (3, 90):  # one block each
            calls.clear()
            run(base_config(experiment=experiment, n_list=(8,), width_list=(widths,),
                            trials=trials))
            counts.append(sorted(calls))
        assert counts[0] == counts[1]
        assert "_as_times" not in counts[0] and "_as_epochs" not in counts[0]


class TestReproduce:
    def test_every_row_reproduces_from_its_seed(self):
        cfg = base_config(
            experiment="decode_sweep", mu1=20.0, n_list=(12,), width_list=((2, 1, 1),),
            trials=40,
        )
        rows = run(cfg)
        for row in rows:
            assert reproduce_metric(cfg, row) == row.value

    def test_region_rows_reproduce(self):
        cfg = base_config()
        for row in run(cfg):
            assert reproduce_metric(cfg, row) == row.value

    def test_a_row_reproduces_at_its_own_trial_count(self):
        # the row's trials, not the config's, set the re-run
        rows = run(base_config(experiment="info_density", n_list=(16,), trials=400))
        cfg = base_config(experiment="info_density", n_list=(16,), trials=100)
        for row in rows:
            assert row.trials == 400
            assert reproduce_metric(cfg, row) == row.value

    def test_rows_name_the_warden_law_shape_and_halfwidth(self):
        def config(law):
            return base_config(experiment="info_density", n_list=(16,), trials=100,
                               master_seed=3, willie_service=law)

        erlang3, erlang5 = (config(ServiceModel.erlang(2.0, shape=k)) for k in (3, 5))
        rows = [row for row in run(erlang3) if row.params["side"] == "willie"]
        assert all(row.params["willie_shape"] == 3 for row in rows)
        for row in rows:
            assert reproduce_metric(erlang3, row) == row.value
            with pytest.raises(ConfigError, match="parameter point"):
                reproduce_metric(erlang5, row)
        uniform = run(base_config(willie_service=ServiceModel.uniform(2.0, halfwidth=0.25)))
        assert all(row.params["willie_halfwidth"] == 0.25 for row in uniform)
        # an exponential law has neither: its rows keep their keys
        assert all(set(row.params) == {"arrival_rate", "mu1", "mu2", "willie_kind"}
                   for row in run(base_config()) if row.metric != "boundary_key_rate")


class TestEmit:
    def _rows(self):
        return [
            ResultRow("region_table", "covert_capacity",
                      {"arrival_rate": 0.5, "mu1": 1.0}, 0.34657359027997264, 0.0, 1, 9),
            ResultRow("region_table", "no_key_needed",
                      {"arrival_rate": 0.5, "mu1": 1.0}, 0.0, 0.0, 1, 9),
        ]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit(self._rows(), str(path), "csv")
        back = load_rows(str(path), "csv")
        assert [r.metric for r in back] == ["covert_capacity", "no_key_needed"]
        assert back[0].value == pytest.approx(0.34657359, abs=1e-9)
        assert back[0].params == {"arrival_rate": 0.5, "mu1": 1.0}
        # a second emit of the parsed rows is byte-stable
        path2 = tmp_path / "rows2.csv"
        emit(back, str(path2), "csv")
        assert path.read_bytes() == path2.read_bytes()

    def test_jsonlines_round_trip(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        emit(self._rows(), str(path), "jsonlines")
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert json.loads(lines[0])["metric"] == "covert_capacity"
        back = load_rows(str(path), "jsonlines")
        assert back[0].value == pytest.approx(0.34657359, abs=1e-9)
        assert back[1].trials == 1

    def test_nine_significant_digits(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit(self._rows(), str(path), "csv")
        assert "0.34657359," in path.read_text()

    def test_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], str(path), "csv")
        assert path.read_text() == "experiment,metric,params,value,stderr,trials,seed\n"

    @pytest.mark.parametrize("fmt, bad", [
        ("csv", "no params column"),
        ("csv", "non-numeric value"),
        ("csv", "params not an object"),
        ("jsonlines", "missing keys"),
        ("jsonlines", "not JSON"),
        ("jsonlines", "non-numeric value"),
        ("jsonlines", "params not an object"),
        ("jsonlines", "fractional trials"),
        ("jsonlines", "fractional seed"),
        ("jsonlines", "bool value"),
        *((fmt, bad) for fmt in ("csv", "jsonlines")
          for bad in ("nan value", "inf stderr", "zero trials", "negative seed")),
    ])
    def test_malformed_row_raises_structural_error_naming_the_line(self, tmp_path, fmt, bad):
        row = self._rows()[0].to_dict()
        if fmt == "csv":
            header = "experiment,metric,params,value,stderr,trials,seed\n"
            text = {
                "no params column": "experiment,metric,value,stderr,trials,seed\n"
                                    "region_table,covert_capacity,0.3,0,1,9\n",
                "non-numeric value": header + 'region_table,covert_capacity,"{}",abc,0,1,9\n',
                "params not an object": header + 'region_table,covert_capacity,"[1]",0.3,0,1,9\n',
                "nan value": header + 'region_table,covert_capacity,"{}",nan,0,1,9\n',
                "inf stderr": header + 'region_table,covert_capacity,"{}",0.3,inf,1,9\n',
                "zero trials": header + 'region_table,covert_capacity,"{}",0.3,0,0,9\n',
                "negative seed": header + 'region_table,covert_capacity,"{}",0.3,0,1,-9\n',
            }[bad]
        else:
            line = {
                "missing keys": json.dumps({"experiment": "region_table", "metric": "auc"}),
                "not JSON": "wrote 25 rows",
                "non-numeric value": json.dumps(dict(row, value="abc")),
                "params not an object": json.dumps(dict(row, params=5)),
                "fractional trials": json.dumps(dict(row, trials=3.7)),
                "fractional seed": json.dumps(dict(row, seed=9.0)),
                "bool value": json.dumps(dict(row, value=True)),
                "nan value": json.dumps(dict(row, value=math.nan)),
                "inf stderr": json.dumps(dict(row, stderr=-math.inf)),
                "zero trials": json.dumps(dict(row, trials=0)),
                "negative seed": json.dumps(dict(row, seed=-9)),
            }[bad]
            text = json.dumps(row) + "\n" + line + "\n"
        path = tmp_path / "rows.txt"
        path.write_text(text)
        with pytest.raises(StructuralError, match=re.escape(f"{path} line 2 ")):
            load_rows(str(path), fmt)

    def test_unwritable_path_raises_with_context(self):
        with pytest.raises(OutputError, match="/nonexistent"):
            emit(self._rows(), "/nonexistent/dir/rows.csv", "csv")


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        payload = dict(
            experiment="region_table", arrival_rate=0.5, mu1=1.0, mu2=2.0,
            trials=10, master_seed=3,
        )
        payload.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_run_to_file(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "rows.csv"
        code = cli_main(["--config", str(cfg), "--out", str(out), "--format", "csv"])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert load_rows(str(out), "csv")[0].metric == "covert_capacity"

    def test_stdout_mode_is_jsonlines(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert cli_main(["--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        first = stdout.strip().split("\n")[0]
        assert list(json.loads(first)) == ["experiment", "metric", "params", "value", "stderr",
                                           "trials", "seed"]
        # the same bytes as a JSON-lines file
        out = tmp_path / "rows.jsonl"
        assert cli_main(["--config", str(cfg), "--out", str(out), "--format", "jsonlines"]) == 0
        assert out.read_text() == stdout

    def test_closed_stdout_exits_7_with_one_diagnostic(self, tmp_path):
        # `covertq --config ... | head -n 1`: the reader is gone before the rows come
        proc = subprocess.Popen([sys.executable, "-m", "covertq", "--config",
                                 str(self._write_config(tmp_path))],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 7
        assert err.count("\n") == 1
        assert json.loads(err)["error_category"] == "output"

    def test_closed_stdout_after_writing_the_file_exits_7(self, tmp_path):
        # `covertq --config ... --out rows.csv | true`: the rows reach the
        # file, and the report line finds no reader
        out = tmp_path / "rows.csv"
        proc = subprocess.Popen([sys.executable, "-m", "covertq", "--config",
                                 str(self._write_config(tmp_path)), "--out", str(out)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 7
        assert err.count("\n") == 1
        assert json.loads(err)["error_category"] == "output"
        assert len(load_rows(str(out), "csv")) == 25

    def test_flag_overrides_win(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, master_seed=3)
        out = tmp_path / "rows.csv"
        assert cli_main(["--config", str(cfg), "--seed", "77", "--out", str(out)]) == 0
        assert load_rows(str(out), "csv")[0].seed == 77

    def test_invalid_config_exit_code_and_diagnostic(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, arrival_rate=5.0)  # unstable
        code = cli_main(["--config", str(cfg)])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error_category"] == "instability"

    @pytest.mark.parametrize("field, value", [
        ("n_list", 5),
        ("width_list", 5),
        ("arrival_rate", True),
        ("mu1", True),
        ("mu2", True),
        ("trials", True),
        ("master_seed", True),
        ("workers", True),
        ("output_format", True),
        ("n_list", [True]),
        ("width_list", [[True, 1, 1]]),
        ("mu2", 10**400),  # no finite float holds it
        ("arrival_rate", 5e-324),  # subnormal: the mean gap 1 / 5e-324 overflows
        ("trials", 10**400),
    ])
    def test_malformed_field_exit_code_and_diagnostic(self, tmp_path, capsys, field, value):
        fields = dict(experiment="decode_sweep", n_list=[4], width_list=[[1, 1, 1]])
        cfg = self._write_config(tmp_path, **dict(fields, **{field: value}))
        assert cli_main(["--config", str(cfg)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error_category"] == "config"
        assert field in err["message"]

    @pytest.mark.parametrize("law", [
        {"kind": "exponential"},
        {"kind": "erlang", "rate": 2.0, "shape": True},
        {"kind": "erlang", "rate": 2.0, "shape": 10**400},
        {"kind": "uniform", "rate": 2.0, "halfwidth": True},
        5,
        # well-typed laws with an illegal value
        {"kind": "exponential", "rate": 0.0},
        {"kind": "uniform", "rate": 2.0, "halfwidth": 5.0},
        {"kind": "exponential", "rate": 2.0, "shape": 3},
        {"kind": "erlang", "rate": 2.0},
    ])
    def test_malformed_service_law_exit_code_and_diagnostic(self, tmp_path, capsys, law):
        cfg = self._write_config(tmp_path, willie_service=law)
        assert cli_main(["--config", str(cfg)]) == 2
        assert json.loads(capsys.readouterr().err)["error_category"] == "config"

    @pytest.mark.parametrize("flags, book_bits, code, category", [
        (["--trials", "1"], 20, 2, "config"),  # one score per hypothesis has no spread
    ])
    def test_run_time_error_exit_code_and_diagnostic(self, tmp_path, capsys, flags, book_bits,
                                                     code, category):
        cfg = self._write_config(tmp_path, n_list=[4], width_list=[[book_bits, 0, 0]])
        assert cli_main(["--config", str(cfg), "--experiment", "detection_sweep", *flags]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error_category"] == category

    @pytest.mark.parametrize("fields", [
        dict(experiment="info_density", n_list=[10**10], trials=1),
        dict(experiment="decode_sweep", n_list=[2**30], width_list=[[40, 0, 0]], trials=8),
        dict(experiment="detection_sweep", n_list=[16], width_list=[[10, 9, 6]]),
        dict(experiment="detection_sweep", n_list=[4], width_list=[[1, 1, 1], [10**6, 0, 0]]),
        # one block of 2^31 packets: 2 trials are within the packet budget
        dict(experiment="info_density", n_list=[2**31], trials=2),
        dict(experiment="decode_sweep", n_list=[2**31], width_list=[[40, 0, 0]], trials=2),
        # 2^21 codewords at its second point, within the cells but over the codeword cap
        dict(experiment="detection_sweep", n_list=[4], width_list=[[7, 7, 6], [21, 0, 0]]),
    ])
    def test_config_over_the_size_budget_exits_4_at_load(self, tmp_path, capsys, monkeypatch,
                                                          fields):
        monkeypatch.setattr("covertq.cli.run", lambda config: pytest.fail("the config ran"))
        cfg = self._write_config(tmp_path, **fields)
        assert cli_main(["--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error_category"] == "resource-limit"

    def test_non_finite_statistic_exits_2_and_writes_no_rows(self, tmp_path, capsys):
        # rates near the top of the float range: the no-message llrs reach
        # -8e292 and their sample SE overflows, which was emitted as Infinity
        cfg = self._write_config(tmp_path, experiment="detection_sweep", arrival_rate=2.8e16,
                                 mu1=1.75e19, mu2=1.7976931348623157e308, n_list=[13],
                                 width_list=[[0, 0, 1]], trials=3, master_seed=7)
        out = tmp_path / "rows.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # the overflow must not warn
            assert cli_main(["--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1
        diagnostic = json.loads(captured.err)
        assert diagnostic["error_category"] == "parameter"
        assert "mean_llr_null" in diagnostic["message"] and "'n': 13" in diagnostic["message"]

    def test_single_detection_trial_rejected_before_any_codebook(self, tmp_path, capsys,
                                                                  monkeypatch):
        built = []
        monkeypatch.setattr(codec, "generate_codebook", lambda *a, **k: built.append(a))
        cfg = self._write_config(tmp_path, n_list=[4], width_list=[[20, 0, 0]])
        assert cli_main(["--config", str(cfg), "--experiment", "detection_sweep",
                         "--trials", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["error_category"] == "config"
        assert built == []

    @pytest.mark.parametrize("experiment",
                             ["region_table", "info_density", "decode_sweep", "detection_sweep"])
    def test_deterministic_law_is_an_unknown_kind_at_load(self, tmp_path, capsys, monkeypatch,
                                                          experiment):
        # every law has a density; "deterministic" names none of them
        monkeypatch.setattr("covertq.cli.run", lambda config: pytest.fail("the config ran"))
        cfg = self._write_config(tmp_path, experiment=experiment, n_list=[4],
                                 width_list=[[2, 1, 1]],
                                 willie_service={"kind": "deterministic", "rate": 2.0})
        assert cli_main(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert json.loads(err)["error_category"] == "config"

    @pytest.mark.parametrize("flags", [
        ["--trials", "2.5"],
        ["--seed", "x"],
        ["--format", "xml"],
        ["--bogus"],
    ])
    def test_malformed_flag_exits_2_with_one_diagnostic(self, tmp_path, capsys, flags):
        # the documented JSON line, not argparse's usage text
        assert cli_main(["--config", str(self._write_config(tmp_path)), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert json.loads(captured.err)["error_category"] == "config"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli_main(["--help"])
        assert exit_.value.code == 0
        assert "usage: covertq" in capsys.readouterr().out

    def test_missing_config_file(self, capsys):
        assert cli_main(["--config", "/no/such/file.json"]) == 2
        assert json.loads(capsys.readouterr().err)["error_category"] == "config"

    def test_module_entry_point(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "rows.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "covertq", "--config", str(cfg),
             "--out", str(out), "--format", "jsonlines"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


def test_import_leaves_process_pools_unloaded():
    # a process pool is only needed for workers > 1; its modules cost every cold import
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # nor do the scan's threads need an executor or a queue
    probe = ("import sys, covertq; print(sorted(m for m in sys.modules if m in"
             " ('concurrent.futures', 'concurrent.futures.process', 'multiprocessing', 'queue')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_forked_workers_finish_after_threaded_scans():
    # harness.run forks its workers from a process whose scans ran on threads;
    # a thread pool kept between scans would be inherited without its threads,
    # and the workers' first scan would wait on it for ever
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "from covertq import ExperimentConfig, laws, run\n"
        "laws.scan_threads = lambda: 2  # threads on a one-CPU host too\n"
        "cfg = dict(experiment='detection_sweep', arrival_rate=0.5, mu1=1.0, mu2=2.0,\n"
        "           width_list=[[9, 8, 0]], trials=2, master_seed=4)  # two tiles per scan\n"
        "run(ExperimentConfig.from_dict(dict(cfg, n_list=[2])))\n"
        "print(len(run(ExperimentConfig.from_dict(dict(cfg, n_list=[2, 3], workers=2)))))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert int(out.stdout) > 0
