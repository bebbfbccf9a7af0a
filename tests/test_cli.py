"""End-to-end tests of the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.persistence import load_bundle, load_model
from repro.smart.io import read_backblaze_csv


@pytest.fixture(scope="module")
def fleet_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "fleet.csv"
    rc = main([
        "generate", "--spec", "sta", "--scale", "0.05", "--months", "8",
        "--stride", "2", "--seed", "3", "-o", str(path),
    ])
    assert rc == 0
    return path


class TestGenerate:
    def test_csv_loadable(self, fleet_csv):
        ds = read_backblaze_csv(fleet_csv)
        assert ds.n_rows > 1000
        assert ds.n_drives > 20

    def test_output_printed(self, fleet_csv, capsys):
        # fixture already ran; re-run to capture output
        rc = main([
            "generate", "--spec", "stb", "--scale", "0.03", "--months", "5",
            "--seed", "1", "-o", str(fleet_csv.parent / "stb.csv"),
        ])
        assert rc == 0


class TestTrainEvaluate:
    def test_orf_roundtrip(self, fleet_csv, tmp_path, capsys):
        ckpt = tmp_path / "orf.npz"
        rc = main([
            "train", "--data", str(fleet_csv), "--model", "orf",
            "--trees", "6", "--seed", "1", "-o", str(ckpt),
        ])
        assert rc == 0
        model = load_model(ckpt)
        assert model.n_trees == 6

        rc = main([
            "evaluate", "--data", str(fleet_csv),
            "--model-file", str(ckpt), "--far", "0.05", "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FDR" in out and "FAR" in out

    def test_train_bundles_scaler_and_selection(self, fleet_csv, tmp_path):
        """The checkpoint must carry the preprocessing that fed the model,
        so evaluate/monitor/serve never refit a scaler on judged data."""
        from repro.features.scaling import MinMaxScaler
        from repro.features.selection import FeatureSelection

        ckpt = tmp_path / "orf.npz"
        rc = main([
            "train", "--data", str(fleet_csv), "--model", "orf",
            "--trees", "4", "--seed", "1", "-o", str(ckpt),
        ])
        assert rc == 0
        bundle = load_bundle(ckpt)
        assert isinstance(bundle["scaler"], MinMaxScaler)
        assert isinstance(bundle["selection"], FeatureSelection)
        assert bundle["model"].n_trees == 4

    def test_rf_train(self, fleet_csv, tmp_path):
        ckpt = tmp_path / "rf.npz"
        rc = main([
            "train", "--data", str(fleet_csv), "--model", "rf",
            "--trees", "5", "--seed", "1", "-o", str(ckpt),
        ])
        assert rc == 0
        assert load_model(ckpt).n_trees == 5

    def test_svm_not_checkpointable(self, fleet_csv, tmp_path):
        rc = main([
            "train", "--data", str(fleet_csv), "--model", "svm",
            "--seed", "1", "-o", str(tmp_path / "svm.npz"),
        ])
        assert rc == 2


class TestMonitor:
    def test_replay_prints_summary(self, fleet_csv, tmp_path, capsys):
        ckpt = tmp_path / "orf.npz"
        main([
            "train", "--data", str(fleet_csv), "--model", "orf",
            "--trees", "5", "--seed", "1", "-o", str(ckpt),
        ])
        capsys.readouterr()
        rc = main([
            "monitor", "--data", str(fleet_csv),
            "--model-file", str(ckpt), "--threshold", "0.6",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# processed" in out

    def test_monitor_counts_silent_death_days(
        self, fleet_csv, tmp_path, capsys, monkeypatch
    ):
        # regression: a drive whose fail_day has no SMART row (dead disks
        # often report nothing on their death day) was never flushed, so
        # its queued positives leaked and the failure went uncounted
        import dataclasses
        import re

        import repro.cli as cli_mod

        ckpt = tmp_path / "orf.npz"
        main([
            "train", "--data", str(fleet_csv), "--model", "orf",
            "--trees", "4", "--seed", "1", "-o", str(ckpt),
        ])
        ds = read_backblaze_csv(fleet_csv)
        drives = list(ds.drives)
        idx = next(i for i, d in enumerate(drives) if d.failed)
        drives[idx] = dataclasses.replace(
            drives[idx], fail_day=drives[idx].last_observed_day + 3
        )
        tampered = dataclasses.replace(ds, drives=drives)
        monkeypatch.setattr(cli_mod, "_load_dataset", lambda path: tampered)
        capsys.readouterr()
        rc = main([
            "monitor", "--data", str(fleet_csv),
            "--model-file", str(ckpt), "--threshold", "0.6",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        n_failed = sum(1 for d in tampered.drives if d.failed)
        m = re.search(r"(\d+) failures", out)
        assert m is not None and int(m.group(1)) == n_failed

    def test_monitor_rejects_offline_checkpoint(self, fleet_csv, tmp_path):
        ckpt = tmp_path / "rf.npz"
        main([
            "train", "--data", str(fleet_csv), "--model", "rf",
            "--trees", "3", "--seed", "1", "-o", str(ckpt),
        ])
        rc = main([
            "monitor", "--data", str(fleet_csv), "--model-file", str(ckpt),
        ])
        assert rc == 2


class TestServe:
    def test_serve_replays_fleet(self, fleet_csv, tmp_path, capsys):
        ckpt = tmp_path / "orf.npz"
        main([
            "train", "--data", str(fleet_csv), "--model", "orf",
            "--trees", "5", "--seed", "1", "-o", str(ckpt),
        ])
        capsys.readouterr()
        ckpt_dir = tmp_path / "ckpts"
        rc = main([
            "serve", "--data", str(fleet_csv), "--model-file", str(ckpt),
            "--shards", "2", "--threshold", "0.6", "--mode", "batch",
            "--batch-size", "512", "--digest-every", "2000",
            "--checkpoint-dir", str(ckpt_dir), "--checkpoint-every", "2000",
            "--dump-metrics",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# served" in out
        assert "2 shard(s)" in out
        assert "# digest:" in out
        assert "repro_fleet_samples_total" in out
        assert (ckpt_dir / "LATEST").exists()

    def test_serve_fault_rate_quarantines_without_dying(
        self, fleet_csv, tmp_path, capsys
    ):
        # chaos drill: salt the stream with malformed events; tolerant
        # serving must finish the replay and account for every rejection
        ckpt = tmp_path / "orf.npz"
        main([
            "train", "--data", str(fleet_csv), "--model", "orf",
            "--trees", "4", "--seed", "1", "-o", str(ckpt),
        ])
        capsys.readouterr()
        rc = main([
            "serve", "--data", str(fleet_csv), "--model-file", str(ckpt),
            "--shards", "2", "--threshold", "0.6",
            "--fault-rate", "0.01", "--fault-seed", "7",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# served" in out
        import re

        m = re.search(r"# quarantined: (\d+)", out)
        assert m is not None and int(m.group(1)) > 0
        assert "# degraded shards: none" in out

    def test_serve_strict_raises_on_salted_stream(self, fleet_csv, tmp_path):
        ckpt = tmp_path / "orf.npz"
        main([
            "train", "--data", str(fleet_csv), "--model", "orf",
            "--trees", "4", "--seed", "1", "-o", str(ckpt),
        ])
        with pytest.raises(ValueError, match="no shard was mutated"):
            main([
                "serve", "--data", str(fleet_csv), "--model-file", str(ckpt),
                "--strict", "--fault-rate", "0.01", "--fault-seed", "7",
            ])

    def test_serve_rejects_offline_checkpoint(self, fleet_csv, tmp_path):
        ckpt = tmp_path / "rf.npz"
        main([
            "train", "--data", str(fleet_csv), "--model", "rf",
            "--trees", "3", "--seed", "1", "-o", str(ckpt),
        ])
        rc = main([
            "serve", "--data", str(fleet_csv), "--model-file", str(ckpt),
        ])
        assert rc == 2


class TestTraceReport:
    def _serve_traced(self, fleet_csv, tmp_path, extra):
        ckpt = tmp_path / "orf.npz"
        main([
            "train", "--data", str(fleet_csv), "--model", "orf",
            "--trees", "4", "--seed", "1", "-o", str(ckpt),
        ])
        return main([
            "serve", "--data", str(fleet_csv), "--model-file", str(ckpt),
            "--shards", "2", "--threshold", "0.6", "--batch-size", "256",
            "--digest-every", "0", *extra,
        ])

    def test_serve_trace_prints_stage_tables(self, fleet_csv, tmp_path, capsys):
        rc = self._serve_traced(fleet_csv, tmp_path, ["--trace"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-stage latency" in out
        assert "slowest" in out
        for stage in ("fleet.ingest", "fleet.shards", "forest.fit_score"):
            assert stage in out, stage

    def test_serve_trace_feeds_stage_metrics(self, fleet_csv, tmp_path, capsys):
        rc = self._serve_traced(
            fleet_csv, tmp_path, ["--trace", "--dump-metrics"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert 'repro_stage_latency_seconds_count{stage="fleet.ingest"}' in out
        assert 'repro_stage_items_total{stage="fleet.ingest"}' in out

    def test_serve_untraced_registers_no_stage_metrics(
        self, fleet_csv, tmp_path, capsys
    ):
        rc = self._serve_traced(fleet_csv, tmp_path, ["--dump-metrics"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro_stage_latency_seconds" not in out

    def test_trace_out_round_trips_through_trace_report(
        self, fleet_csv, tmp_path, capsys
    ):
        trace = tmp_path / "trace.json"
        rc = self._serve_traced(
            fleet_csv, tmp_path, ["--trace-out", str(trace)]
        )
        assert rc == 0
        assert trace.exists()
        capsys.readouterr()

        rc = main(["trace-report", str(trace), "--slowest", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-stage latency" in out
        assert "slowest 5 spans" in out
        assert "fleet.ingest" in out

    def test_trace_report_missing_file_errors(self, tmp_path, capsys):
        rc = main(["trace-report", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_trace_report_rejects_bad_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": 99, "spans": []}')
        rc = main(["trace-report", str(bad)])
        assert rc == 2
        assert "unsupported trace format" in capsys.readouterr().err


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_model_errors(self, fleet_csv):
        with pytest.raises(SystemExit):
            main([
                "train", "--data", str(fleet_csv), "--model", "magic",
                "-o", "x.npz",
            ])


class TestExperiment:
    def test_monthly_experiment(self, fleet_csv, capsys):
        from repro.cli import main as cli_main

        rc = cli_main([
            "experiment", "--data", str(fleet_csv), "--kind", "monthly",
            "--models", "orf", "--seed", "1", "--chunk-size", "500",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "ORF" in out and "FDR(%)" in out

    def test_longterm_experiment(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        # the longterm protocol needs failures inside the warm-up window,
        # so use a bigger fleet than the shared fixture
        big_csv = tmp_path / "big.csv"
        rc = cli_main([
            "generate", "--spec", "stb", "--scale", "0.2", "--months", "10",
            "--stride", "2", "--seed", "5", "-o", str(big_csv),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = cli_main([
            "experiment", "--data", str(big_csv), "--kind", "longterm",
            "--warmup", "4", "--seed", "1", "--chunk-size", "500",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "long-term FAR(%)" in out
        assert "no_update" in out


class TestGateway:
    def test_gateway_serves_over_tcp(self, fleet_csv, tmp_path, capsys):
        """End-to-end: train → `repro gateway` in a thread → real client
        traffic → authenticated drain → final checkpoint on disk."""
        import threading

        from repro.gateway import GatewayClient

        ckpt = tmp_path / "orf.npz"
        main([
            "train", "--data", str(fleet_csv), "--model", "orf",
            "--trees", "5", "--seed", "1", "-o", str(ckpt),
        ])
        capsys.readouterr()
        port_file = tmp_path / "gateway.port"
        ckpt_dir = tmp_path / "gw-ckpts"
        server_thread = threading.Thread(
            target=main,
            args=([
                "gateway", "--model-file", str(ckpt), "--port", "0",
                "--port-file", str(port_file), "--admin-token", "tok",
                "--shards", "2", "--threshold", "0.6",
                "--checkpoint-dir", str(ckpt_dir),
                "--checkpoint-every", "100000", "--dump-metrics",
            ],),
            daemon=True,
        )
        server_thread.start()
        # join(timeout) doubles as a clock-free poll interval
        for _ in range(3000):
            if port_file.exists() and port_file.read_text().strip():
                break
            server_thread.join(0.01)
            assert server_thread.is_alive(), "gateway exited before binding"
        else:
            pytest.fail("gateway never wrote its port file")
        port = int(port_file.read_text())

        n_features = load_bundle(str(ckpt))["model"].n_features
        rng = np.random.default_rng(0)
        events = [
            {
                "disk_id": i % 5,
                "x": [float(v) for v in rng.normal(size=n_features)],
                "failed": False,
                "tag": i,
            }
            for i in range(64)
        ]
        with GatewayClient(
            "127.0.0.1", port, connect_retries=100
        ) as client:
            result = client.ingest(events)
            assert result.ok and result.accepted == 64
            assert client.healthz()["status"] == "serving"
            assert client.digest()["events"] == 64
            assert "repro_gateway_ingested_events_total 64" in client.metrics()
            with pytest.raises(Exception):
                client.drain("not-the-token")
            summary = client.drain("tok")
        assert summary["status"] == "drained"
        assert summary["events"] == 64
        assert summary["checkpoint"] is not None

        server_thread.join(timeout=60)
        assert not server_thread.is_alive()
        out = capsys.readouterr().out
        assert "gateway listening on" in out
        assert "# gateway served 64 samples across 2 shard(s)" in out
        assert "# final checkpoint:" in out
        assert "repro_gateway_requests_total" in out  # --dump-metrics
        assert (ckpt_dir / "LATEST").exists()

    def test_gateway_rejects_offline_checkpoint(self, fleet_csv, tmp_path):
        ckpt = tmp_path / "rf.npz"
        main([
            "train", "--data", str(fleet_csv), "--model", "rf",
            "--trees", "3", "--seed", "1", "-o", str(ckpt),
        ])
        rc = main(["gateway", "--model-file", str(ckpt)])
        assert rc == 2
