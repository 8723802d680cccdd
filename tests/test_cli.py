"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestCubeShorthand:
    """``--cube`` and a served ``{"cube": n}`` build one deck rule
    (:func:`repro.sweep.input.cube_deck`); ``(mk, mmi)`` as recorded
    before the rule was shared."""

    @pytest.mark.parametrize("n, sn, mk, mmi", [
        (16, 6, 16, 3), (16, 4, 16, 3), (50, 6, 10, 3), (50, 8, 10, 1),
        (7, 4, 7, 3), (13, 2, 13, 1), (12, 6, 12, 3),
    ])
    def test_mk_and_mmi_pinned(self, n, sn, mk, mmi):
        from repro.cli import _build_deck
        from repro.serve.decks import deck_from_request

        args = build_parser().parse_args(
            ["solve", "--cube", str(n), "--sn", str(sn)]
        )
        cli = _build_deck(args)
        served = deck_from_request({"cube": n, "sn": sn})
        assert (cli.mk, cli.mmi) == (served.mk, served.mmi) == (mk, mmi)
        # each caller keeps its own defaults
        assert not cli.fixup and served.fixup
        assert (served.nm, served.iterations) == (4, 12)


class TestSolve:
    def test_serial_engine(self, capsys):
        out = run(capsys, "solve", "--cube", "6", "--sn", "4", "--nm", "2",
                  "--iterations", "2", "--engine", "serial")
        assert "engine=serial" in out
        assert "scalar flux" in out

    def test_all_engines_agree(self, capsys):
        outs = {}
        for engine in ("serial", "tile", "kba", "cell"):
            out = run(capsys, "solve", "--cube", "6", "--sn", "4", "--nm", "1",
                      "--iterations", "2", "--engine", engine)
            flux_line = [l for l in out.splitlines() if "scalar flux" in l][0]
            outs[engine] = flux_line.split("total=")[1]
        assert len(set(outs.values())) == 1, outs

    def test_fixup_flag(self, capsys):
        out = run(capsys, "solve", "--cube", "5", "--sn", "2", "--nm", "1",
                  "--iterations", "1", "--fixup")
        assert "fixups=" in out

    def test_json_output(self, capsys):
        import json

        out = run(capsys, "solve", "--cube", "6", "--sn", "4", "--nm", "1",
                  "--iterations", "2", "--json")
        doc = json.loads(out)
        assert doc["engine"] == "serial"
        assert doc["deck"]["shape"] == [6, 6, 6]
        labels = [r["label"] for r in doc["rows"]]
        assert "flux total" in labels and "leakage" in labels

    def test_trace_flag_exports_cell_run(self, capsys, tmp_path):
        import json

        path = tmp_path / "run.json"
        out = run(capsys, "solve", "--cube", "6", "--sn", "4", "--nm", "1",
                  "--iterations", "1", "--engine", "cell",
                  "--trace", str(path))
        assert "scalar flux" in out
        doc = json.loads(path.read_text())
        assert any(e.get("name") == "KernelExec" for e in doc["traceEvents"])

    def test_trace_flag_requires_cell_engine(self, capsys, tmp_path):
        assert main(["solve", "--cube", "6", "--trace",
                     str(tmp_path / "x.json")]) == 2
        assert "requires --engine cell" in capsys.readouterr().err

    def test_json_reports_host_perf(self, capsys):
        import json

        doc = json.loads(run(capsys, "solve", "--cube", "6", "--sn", "4",
                             "--nm", "1", "--iterations", "1", "--json"))
        perf = doc["perf"]
        assert perf["host_wall_seconds"] > 0
        assert perf["workers"] == 1
        assert perf["host_cpus"] >= 1

    def test_workers_flag_runs_parallel_cell_solve(self, capsys):
        import json

        serial = json.loads(run(capsys, "solve", "--cube", "6", "--sn", "4",
                                "--nm", "1", "--iterations", "1",
                                "--engine", "cell", "--json"))
        parallel = json.loads(run(capsys, "solve", "--cube", "6", "--sn", "4",
                                  "--nm", "1", "--iterations", "1",
                                  "--engine", "cell", "--workers", "2",
                                  "--json"))
        assert parallel["perf"]["workers"] == 2
        assert serial["rows"] == parallel["rows"]

    def test_workers_flag_requires_cell_engine(self, capsys):
        assert main(["solve", "--cube", "6", "--workers", "2"]) == 2
        assert "requires --engine cell" in capsys.readouterr().err

    def test_isa_flag_matches_plain_cell_solve(self, capsys):
        import json

        from repro.cell.isa_compile import clear_cache

        clear_cache()  # the compile block counts this solve's compiles
        plain = json.loads(run(capsys, "solve", "--cube", "6", "--sn", "4",
                               "--nm", "1", "--iterations", "1",
                               "--engine", "cell", "--json"))
        isa = json.loads(run(capsys, "solve", "--cube", "6", "--sn", "4",
                             "--nm", "1", "--iterations", "1",
                             "--engine", "cell", "--isa", "--json"))
        assert isa["rows"] == plain["rows"]
        compile_ = isa["compile"]
        assert compile_["isa_kernel"] is True
        assert compile_["compile_isa"] is True
        assert compile_["batched_calls"] > 0
        assert compile_["streams_compiled"] > 0
        # the optimizer pipeline works: folding/DCE never adds ops, and
        # the scratch pool actually reuses slots
        assert compile_["ops_after"] <= compile_["ops_before"]
        assert compile_["slots_reused"] > 0
        assert compile_["cache"]["entries"] > 0
        # the plain cell solve reports the block too, just disengaged
        assert plain["compile"]["isa_kernel"] is False
        assert plain["compile"]["batched_calls"] == 0

    def test_isa_flag_requires_cell_engine(self, capsys):
        assert main(["solve", "--cube", "6", "--isa"]) == 2
        assert "requires --engine cell" in capsys.readouterr().err

    def test_cluster_local_transport_runs_functional_solve(self, capsys):
        out = run(capsys, "cluster", "--cube", "6", "--sn", "4", "--nm", "1",
                  "--iterations", "1", "-p", "2", "-q", "1",
                  "--transport", "local")
        assert "cluster 2x1 transport=local engine=cell" in out
        assert "scalar flux" in out

    def test_cluster_transport_runs_socket_solve(self, capsys):
        out = run(capsys, "cluster", "--cube", "8", "--sn", "4", "--nm", "1",
                  "--iterations", "1", "-p", "1", "-q", "2",
                  "--transport", "socket", "--engine", "tile")
        assert "transport=socket" in out
        assert "flux sha256:" in out
        assert "overlap ratio" in out

    def test_cluster_transport_json(self, capsys):
        import json

        out = run(capsys, "cluster", "--cube", "8", "--sn", "4", "--nm", "1",
                  "--iterations", "2", "-p", "2", "-q", "2",
                  "--transport", "local", "--engine", "tile", "--json")
        doc = json.loads(out)
        cluster = doc["cluster"]
        assert cluster["transport"] == "local"
        assert cluster["grid"] == [2, 2] and cluster["ranks"] == 4
        assert len(cluster["octant_walls_s"]) == 8
        assert 0.0 <= cluster["overlap_ratio"] <= 1.0
        assert cluster["msgs_sent"] > 0 and cluster["bytes_sent"] > 0
        assert len(cluster["flux_sha256"]) == 64
        assert len(cluster["per_rank"]) == 4
        labels = [r["label"] for r in doc["rows"]]
        assert "flux total" in labels and "leakage" in labels
        assert doc["deck"]["shape"] == [8, 8, 8]

    def test_metrics_flag_prints_attribution_table(self, capsys):
        out = run(capsys, "solve", "--cube", "6", "--sn", "4", "--nm", "2",
                  "--iterations", "1", "--engine", "cell", "--metrics")
        assert "where the cycles went" in out
        assert "SPE0" in out and "compute" in out and "idle" in out

    def test_metrics_flag_json_block_sums_exactly(self, capsys):
        import json

        out = run(capsys, "solve", "--cube", "6", "--sn", "4", "--nm", "2",
                  "--iterations", "1", "--engine", "cell", "--metrics",
                  "--json")
        doc = json.loads(out)
        att = doc["metrics"]["cycle_attribution"]
        assert sum(att["bucket_totals_ticks"].values()) == att["total_ticks"]
        assert att["total_ticks"] == att["num_spes"] * att["span_ticks"]
        assert doc["metrics"]["registry"]["counters"]["kernel.cells"] > 0

    def test_metrics_flag_requires_cell_engine(self, capsys):
        assert main(["solve", "--cube", "6", "--metrics"]) == 2
        assert "requires --engine cell" in capsys.readouterr().err

    def test_progress_flag_requires_cell_engine(self, capsys):
        assert main(["solve", "--cube", "6", "--progress"]) == 2
        assert "requires --engine cell" in capsys.readouterr().err

    def test_progress_flag_emits_heartbeat(self, capsys):
        assert main(["solve", "--cube", "6", "--sn", "4", "--nm", "2",
                     "--iterations", "1", "--engine", "cell",
                     "--progress"]) == 0
        err = capsys.readouterr().err
        assert "units" in err and "100.0%" in err


class TestMetricsCommand:
    def test_table_and_hot_counters(self, capsys):
        out = run(capsys, "metrics", "--cube", "6", "--sn", "4", "--nm", "2",
                  "--iterations", "1")
        assert "where the cycles went" in out
        assert "hot counters" in out
        assert "dma.commands" in out

    def test_json_identical_across_workers(self, capsys):
        import json

        docs = []
        for workers in ("1", "2"):
            out = run(capsys, "metrics", "--cube", "6", "--sn", "4",
                      "--nm", "2", "--iterations", "1",
                      "--workers", workers, "--json")
            docs.append(json.loads(out))
        assert docs[0]["registry"] == docs[1]["registry"]
        assert docs[0]["cycle_attribution"] == docs[1]["cycle_attribution"]


class TestFigures:
    def test_ladder(self, capsys):
        out = run(capsys, "ladder")
        assert "ppe-gcc" in out and "ls-poke-sync" in out

    def test_ladder_non_benchmark_size_omits_paper_column(self, capsys):
        out = run(capsys, "ladder", "--cube", "20")
        assert "20^3" in out

    def test_kernel(self, capsys):
        out = run(capsys, "kernel")
        assert "DP+fixup" in out and "SP" in out

    def test_kernel_json(self, capsys):
        import json

        doc = json.loads(run(capsys, "kernel", "--json"))
        names = [v["name"] for v in doc["variants"]]
        assert names == ["DP", "DP+fixup", "SP"]
        assert all(0 < v["efficiency"] <= 1 for v in doc["variants"])
        reports = doc["compile"]["pipeline_reports"]
        assert reports["simulated"] + reports["cache_hits"] == 3

    def test_trace_command(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        out = run(capsys, "trace", "--cube", "6", "--sn", "4", "--nm", "1",
                  "--iterations", "1", "--out", str(path))
        assert "sanitizer: 0 hazards" in out
        assert "overlap potential" in out
        doc = json.loads(path.read_text())
        assert doc["otherData"]["total_cycles"] > 0

    def test_trace_merge(self, capsys, tmp_path):
        """``trace --merge`` folds two documents into ``--out``: every
        event kept, each input re-homed to its own block of pids."""
        import json

        paths = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"traceEvents": [
                {"name": "X", "ph": "X", "pid": 7, "tid": 0, "ts": 0,
                 "dur": 1},
                {"name": "Y", "ph": "i", "pid": 9, "tid": 1, "ts": 2},
            ]}))
            paths.append(str(path))
        out_path = tmp_path / "merged.json"
        out = run(capsys, "trace", "--merge", *paths, "--out", str(out_path))
        merged = json.loads(out_path.read_text())
        events = merged["traceEvents"]
        # four input events plus one process_name record per input
        assert len(events) == 6
        assert "merged 2 documents, 6 events" in out
        assert sorted({ev["pid"] for ev in events}) == [0, 1, 1000, 1001]
        assert merged["otherData"]["merged_from"] == ["a", "b"]

    def test_trace_command_without_out(self, capsys):
        out = run(capsys, "trace", "--cube", "5", "--sn", "2", "--nm", "1",
                  "--iterations", "1")
        assert "sanitizer: 0 hazards" in out
        assert "wrote" not in out

    def test_grind(self, capsys):
        out = run(capsys, "grind", "--min-cube", "10", "--max-cube", "30")
        assert "plateau" in out

    def test_projections(self, capsys):
        out = run(capsys, "projections")
        assert "distributed-scheduling" in out

    def test_processors(self, capsys):
        out = run(capsys, "processors")
        assert "Power5" in out and "faster than" in out

    def test_bounds(self, capsys):
        out = run(capsys, "bounds")
        assert "bandwidth bound" in out and "DMA traffic" in out

    def test_cluster(self, capsys):
        out = run(capsys, "cluster")
        assert "speedup" in out

    def test_roofline(self, capsys):
        out = run(capsys, "roofline")
        assert "memory-bound" in out
        assert "ridge" in out

    def test_roofline_host(self, capsys):
        """The host's own bound on the line kernel: runs, and prints the
        floor and both kernels against it (no wall-clock assertion)."""
        from repro.perf.host_roofline import LABEL_WIDTH

        out = run(capsys, "roofline", "--host", "--cube", "8", "--fixup")
        rows = {line[:LABEL_WIDTH].strip(): line for line in out.splitlines()}
        for label in ("dispatch floor", "reference kernel",
                      "compiled ISA, clean lines",
                      "compiled ISA, every line fixed up"):
            assert rows[label].count(" us") == 4, rows[label]
        assert "memory-bound" not in out

    def test_transient(self, capsys):
        out = run(capsys, "transient", "--cube", "5", "--sn", "2", "--nm", "1",
                  "--iterations", "6", "--steps", "3")
        assert "steady-state" in out
        assert out.count("t=") == 3

    def test_deck_file_flag(self, capsys, tmp_path):
        deck_path = tmp_path / "t.deck"
        deck_path.write_text(
            "nx=6\nny=6\nnz=6\nsn=4\nnm=1\niterations=2\nmk=3\nmmi=3\n"
        )
        out = run(capsys, "solve", "--deck", str(deck_path))
        assert "deck=(6, 6, 6)" in out


class TestParser:
    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_sn_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--sn", "5"])

    def test_bench_subcommand_is_gone(self):
        # host time is measured by benchmarks/suite, gated by compare.py
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "bench" not in build_parser().format_help()

    @pytest.mark.parametrize("argv", [
        ["solve", "--engine", "cell", "--isa", "--backend", "numpy"],
        ["cluster", "--transport", "mpi"],
    ], ids=["solve-backend", "cluster-mpi"])
    def test_deleted_backend_and_mpi_choices_are_gone(self, argv):
        # compiled ISA programs replay on numpy only; ranks talk over
        # the local or socket transport only
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"


class TestMetricsPrometheus:
    def test_prometheus_format(self, capsys):
        out = run(capsys, "metrics", "--cube", "6", "--sn", "4", "--nm", "1",
                  "--iterations", "1", "--format", "prometheus")
        assert "# TYPE repro_kernel_cells counter" in out
        assert "# TYPE repro_spe0_compute_ticks counter" in out
        # well-formed exposition: every non-comment line is `name value`
        for line in out.splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.split()
            float(value)


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8272
        assert args.pool == "keep" and args.workers == 1
        assert args.max_queue == 64 and args.max_concurrent == 2

    def test_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--pool", "fresh", "--max-queue", "4"]
        )
        assert args.port == 0 and args.pool == "fresh"
        assert args.max_queue == 4
