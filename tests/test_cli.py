import re

import numpy as np
import pytest

from lrhankel import SvdConvergenceError, cli
from lrhankel.cli import main
from lrhankel.csvio import read_signal_file, sample_table, write_csv


def read_summary(path):
    out = {}
    for line in path.read_text().splitlines()[1:]:
        key, _, value = line.partition(",")
        out[key] = value
    return out


def run(*argv):
    return main([str(a) for a in argv])


class TestSolve:
    def test_fully_observed_rank1(self, tmp_path):
        out = tmp_path / "out"
        assert run("solve", "--n", 8, "--rank", 1, "--samples", 15, "--seed", 2, "--out", out) == 0
        summary = read_summary(out / "summary.csv")
        assert summary["converged"] == "true"
        assert float(summary["relative_error"]) <= 1e-6
        assert summary["frequency_extraction"] == "ok"
        assert (out / "recovered.csv").exists()
        assert (out / "history.csv").exists()

    def test_bit_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("solve", "--n", 64, "--rank", 3, "--samples", 40, "--seed", 0, "--out", out) == 0
        for name in ("recovered.csv", "history.csv", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_file_mode_matches_synthetic_mode(self, tmp_path):
        inst, synth_out, file_out = tmp_path / "i", tmp_path / "s", tmp_path / "f"
        assert run("synth", "--n", 16, "--rank", 2, "--samples", 14, "--seed", 3, "--out", inst) == 0
        assert run("solve", "--n", 16, "--rank", 2, "--samples", 14, "--seed", 3, "--out", synth_out) == 0
        assert run(
            "solve", "--n", 16, "--rank", 2, "--seed", 3,
            "--obs-file", inst / "observations.csv",
            "--signal-file", inst / "signal.csv",
            "--out", file_out,
        ) == 0
        assert (synth_out / "recovered.csv").read_bytes() == (file_out / "recovered.csv").read_bytes()

    def test_missing_input_file_no_partial_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = run("solve", "--n", 16, "--rank", 2, "--obs-file", tmp_path / "nope.csv", "--out", out)
        assert code == 2
        assert not out.exists()

    def test_rank_outside_bounds_no_partial_outputs(self, tmp_path, capsys):
        out = tmp_path / "out"
        for rank in (0, 8, 9):
            assert run("solve", "--n", 8, "--rank", rank, "--samples", 5, "--out", out) == 1
            assert capsys.readouterr().err.startswith("usage error: --rank must lie in [1, 7]")
            assert not out.exists()

    def test_malformed_observation_file(self, tmp_path, capsys):
        bad = tmp_path / "obs.csv"
        # n=64 would take the dense rank projection, n=300 the Lanczos one
        for n, row in ((8, "1,broken,0"), (64, "1,nan,0"), (300, "1,0,inf")):
            bad.write_text(f"t,re,im\n0,1,0\n{row}\n")
            code = run("solve", "--n", n, "--rank", 1, "--obs-file", bad, "--out", tmp_path / "o")
            assert code == 2
            assert f"{bad}:3:" in capsys.readouterr().err

    def test_strict_nonconvergence_exit_code(self, tmp_path):
        code = run(
            "solve", "--n", 24, "--rank", 3, "--samples", 20, "--seed", 1,
            "--max-iter", 1, "--strict", "--out", tmp_path / "o",
        )
        assert code == 3
        # outputs still written, convergence reported there
        assert read_summary(tmp_path / "o" / "summary.csv")["converged"] == "false"

    def test_nonstrict_nonconvergence_is_reported_not_fatal(self, tmp_path):
        code = run(
            "solve", "--n", 24, "--rank", 3, "--samples", 20, "--seed", 1,
            "--max-iter", 1, "--out", tmp_path / "o",
        )
        assert code == 0
        assert read_summary(tmp_path / "o" / "summary.csv")["converged"] == "false"

    def test_bound_and_accelerated_flags(self, tmp_path):
        out = tmp_path / "o"
        code = run(
            "solve", "--n", 16, "--rank", 2, "--samples", 14, "--seed", 3,
            "--accelerated", "--bound", 100.0, "--out", out,
        )
        assert code == 0
        assert read_summary(out / "summary.csv")["converged"] == "true"

    def test_zero_signal_file_is_input_error_before_solve(self, tmp_path, capsys, monkeypatch):
        inst, out = tmp_path / "inst", tmp_path / "out"
        assert run("synth", "--n", 8, "--rank", 1, "--samples", 10, "--out", inst) == 0
        zero = tmp_path / "zero.csv"
        zero.write_text("t,re,im\n" + "".join(f"{t},0,0\n" for t in range(15)))

        def refuse(*args, **kwargs):
            raise AssertionError("solved before checking the signal file")

        monkeypatch.setattr(cli, "solve", refuse)
        code = run("solve", "--n", 8, "--rank", 1, "--obs-file", inst / "observations.csv",
                   "--signal-file", zero, "--out", out)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"input error: {zero}: ")
        assert not out.exists()

    def test_signal_file_of_wrong_length_before_solve(self, tmp_path, capsys):
        inst, longer, out = tmp_path / "inst", tmp_path / "longer", tmp_path / "out"
        assert run("synth", "--n", 8, "--rank", 1, "--samples", 10, "--out", inst) == 0
        assert run("synth", "--n", 10, "--rank", 1, "--samples", 10, "--out", longer) == 0
        signal = longer / "signal.csv"
        code = run("solve", "--n", 8, "--rank", 1, "--obs-file", inst / "observations.csv",
                   "--signal-file", signal, "--out", out)
        assert code == 2
        assert capsys.readouterr().err == f"input error: {signal}: signal length 19 does not match n=8\n"
        assert not out.exists()

    @pytest.mark.parametrize("which", ["obs", "signal"])
    @pytest.mark.parametrize("text, message", [
        ("t,re,im\n0,1,0\n1,2\n", ":3: expected 3 comma-separated fields, got 2"),
        ("t,re,im\n0,1,0\n1,2,0,0\n", ":3: expected 3 comma-separated fields, got 4"),
        ("t,re,im\n", ": file contains no "),
    ])
    def test_malformed_rows_and_header_only_files(self, tmp_path, capsys, which, text, message):
        inst, out, bad = tmp_path / "inst", tmp_path / "out", tmp_path / "bad.csv"
        assert run("synth", "--n", 8, "--rank", 1, "--samples", 10, "--out", inst) == 0
        bad.write_text(text)
        obs, signal = (bad, inst / "signal.csv") if which == "obs" else (inst / "observations.csv", bad)
        code = run("solve", "--n", 8, "--rank", 1, "--obs-file", obs, "--signal-file", signal, "--out", out)
        assert code == 2
        assert capsys.readouterr().err.startswith(f"input error: {bad}{message}")
        assert not out.exists()

    def test_unidentifiable_frequencies_are_reported_not_fatal(self, tmp_path):
        # a fully observed rank-1 signal solved at rank 2: H(z_hat) has
        # numerical rank 1, so the shift pencil cannot give two frequencies
        obs, out = tmp_path / "obs.csv", tmp_path / "o"
        write_csv(obs, *sample_table(range(15), np.exp(2j * np.pi * 0.1 * np.arange(15))))
        assert run("solve", "--n", 8, "--rank", 2, "--obs-file", obs, "--out", out) == 0
        summary = read_summary(out / "summary.csv")
        assert summary["frequency_extraction"] == "failed"
        assert not any(key.startswith("freq_") for key in summary)

    @pytest.mark.parametrize("error", [
        SvdConvergenceError("Lanczos stalled"),
        np.linalg.LinAlgError("SVD did not converge"),
    ])
    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch, error):
        def failing_solve(obs, config):
            raise error

        monkeypatch.setattr(cli, "solve", failing_solve)
        code = run("solve", "--n", 8, "--rank", 1, "--samples", 10, "--out", tmp_path / "o")
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith(f"numerical error: {error}")
        assert "Traceback" not in err

    def test_numerical_failure_after_solve_leaves_no_outputs(self, tmp_path, capsys, monkeypatch):
        def failing_extraction(z_hat, order):
            raise np.linalg.LinAlgError("eigenvalues did not converge")

        monkeypatch.setattr(cli, "extract_frequencies", failing_extraction)
        out = tmp_path / "o"
        assert run("solve", "--n", 8, "--rank", 1, "--samples", 10, "--out", out) == 4
        err = capsys.readouterr().err
        assert err.startswith("numerical error: eigenvalues did not converge")
        assert "Traceback" not in err
        assert not out.exists()


class TestUsage:
    def test_missing_required_flag(self, tmp_path):
        assert run("solve", "--rank", 2, "--out", tmp_path) == 1

    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            run("--help")
        assert info.value.code == 0
        assert "solve" in capsys.readouterr().out

    def test_invalid_step_size(self, tmp_path):
        assert run("solve", "--n", 8, "--rank", 1, "--samples", 5, "--delta1", "1.5",
                   "--out", tmp_path) == 1


    @pytest.mark.parametrize("argv, message", [
        (("synth", "--n", 8, "--rank", 8, "--samples", 5), "--rank must lie in [1, 7]"),
        (("synth", "--n", 8, "--rank", 9, "--samples", 5), "--rank must lie in [1, 7]"),
        (("compare", "--n", 8, "--rank", 9, "--samples", 5), "--rank must lie in [1, 8]"),
        (("bench", "--case", "8,9,5", "--repeats", 1), "--case rank must lie in [1, 8]"),
        (("bench", "--case", "16,1,10", "--case", "8,0,5"), "--case rank must lie in [1, 8]"),
        (("solve", "--n", 1, "--rank", 1, "--samples", 1), "--n must be at least 2, got 1"),
        (("synth", "--n", 1, "--rank", 1, "--samples", 1), "--n must be at least 2, got 1"),
        (("compare", "--n", 0, "--rank", 1, "--samples", 1), "--n must be at least 2, got 0"),
        (("phase", "--n", 1, "--rank-values", 1, "--samples-values", 1, "--trials", 1),
         "--n must be at least 2, got 1"),
        (("bench", "--case", "1,1,1"), "n of --case 1,1,1 must be at least 2, got 1"),
        (("solve", "--n", 8, "--rank", 1, "--samples", 16), "--samples must lie in [1, 15] for --n 8, got 16"),
        (("synth", "--n", 8, "--rank", 1, "--samples", 0), "--samples must lie in [1, 15] for --n 8, got 0"),
        (("compare", "--n", 8, "--rank", 1, "--samples", 40), "--samples must lie in [1, 15] for --n 8, got 40"),
        (("bench", "--case", "8,1,40"), "--case samples must lie in [1, 15] for --case 8,1,40, got 40"),
        (("phase", "--n", 8, "--rank-values", "1,9", "--samples-values", 8, "--trials", 1),
         "--rank-values must lie in [1, 8] for --n 8, got 9"),
        (("phase", "--n", 8, "--rank-values", 0, "--samples-values", 8, "--trials", 1),
         "--rank-values must lie in [1, 8] for --n 8, got 0"),
        (("phase", "--n", 8, "--rank-values", 1, "--samples-values", "8,40", "--trials", 1),
         "--samples-values must lie in [1, 15] for --n 8, got 40"),
        (("phase", "--n", 8, "--rank-values", 1, "--samples-values", 8, "--trials", 0),
         "--trials must be at least 1, got 0"),
        (("bench", "--case", "8,1,5", "--repeats", 0), "--repeats must be at least 1, got 0"),
        (("synth", "--n", 8, "--rank", 1, "--samples", 5, "--seed", -1), "--seed must be at least 0, got -1"),
        (("solve", "--n", 8, "--rank", 1, "--samples", 5, "--delta1", 1.5),
         "--delta1 must lie strictly in (0, 1), got 1.5"),
        (("phase", "--n", 8, "--rank-values", 1, "--samples-values", 8, "--delta2", 0),
         "--delta2 must lie strictly in (0, 1), got 0.0"),
        (("bench", "--case", "8,1,5", "--tol", 0), "--tol must be positive and finite, got 0.0"),
        (("solve", "--n", 8, "--rank", 1, "--samples", 5, "--tol", "inf"),
         "--tol must be positive and finite, got inf"),
        (("compare", "--n", 8, "--rank", 1, "--samples", 5, "--max-iter", 0),
         "--max-iter must be at least 1, got 0"),
        (("solve", "--n", 8, "--rank", 1, "--samples", 5, "--bound", -1),
         "--bound must be positive, got -1.0"),
    ], ids=["synth-rank-n", "synth-rank-n+1", "compare", "bench", "bench-second-case",
            "solve-n-1", "synth-n-1", "compare-n-0", "phase-n-1", "bench-n-1",
            "solve-samples", "synth-samples-0", "compare-samples", "bench-samples",
            "phase-rank-values", "phase-rank-values-0", "phase-samples-values", "phase-trials",
            "bench-repeats", "synth-seed", "solve-delta1", "phase-delta2", "bench-tol", "solve-tol-inf",
            "compare-max-iter",
            "solve-bound"])
    def test_rank_outside_bounds_before_synthesis(self, tmp_path, capsys, monkeypatch, argv, message):
        def refuse(*args, **kwargs):
            raise AssertionError("synthesized before the rank check")

        for name in ("make_instance", "run_bench", "run_compare", "run_phase", "solve"):
            monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 1
        assert capsys.readouterr().err.startswith(f"usage error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        *(("synth", f) for f in ("--delta1", "--delta2", "--tol", "--max-iter", "--accelerated",
                                 "--bound", "--threads", "--strict")),
        *(("phase", f) for f in ("--rank", "--samples", "--strict")),
        *(("bench", f) for f in ("--n", "--rank", "--samples", "--threads", "--strict")),
        ("compare", "--threads"),
        ("compare", "--accelerated"),
        ("solve", "--threads"),
    ])
    def test_flag_not_read_by_command_is_rejected(self, tmp_path, capsys, command, flag):
        base = {
            "synth": ("--n", 8, "--rank", 1, "--samples", 5),
            "phase": ("--n", 8, "--rank-values", 1, "--samples-values", 8, "--trials", 1),
            "bench": ("--case", "8,1,5", "--repeats", 1),
            "compare": ("--n", 8, "--rank", 1, "--samples", 5),
            "solve": ("--n", 8, "--rank", 1, "--samples", 5),
        }[command]
        value = () if flag in ("--accelerated", "--strict") else (2,)
        out = tmp_path / "out"
        assert run(command, *base, flag, *value, "--out", out) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(SystemExit):
            run(command, "--help")
        assert not re.search(re.escape(flag) + r"(?![\w-])", capsys.readouterr().out)

    @pytest.mark.parametrize("flags, message", [
        (("--samples", 12, "--signal-file", "inst/signal.csv"), "--signal-file needs --obs-file"),
        (("--samples", 12, "--signal-file", "absent.csv"), "--signal-file needs --obs-file"),
        (("--samples", 12, "--obs-file", "inst/observations.csv"), "--samples does not apply with --obs-file"),
    ], ids=["signal-without-obs", "absent-signal-without-obs", "samples-with-obs"])
    def test_solve_flag_pair_ignored_is_rejected(self, tmp_path, capsys, monkeypatch, flags, message):
        assert run("synth", "--n", 16, "--rank", 2, "--samples", 12, "--out", tmp_path / "inst") == 0

        def refuse(*args, **kwargs):
            raise AssertionError("read an input file before rejecting the flags")

        for name in ("read_observation_file", "read_signal_file", "make_instance"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.chdir(tmp_path)
        assert run("solve", "--n", 16, "--rank", 2, *flags, "--out", "out") == 1
        assert capsys.readouterr().err.startswith(f"usage error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("threads", [-2, 0])
    def test_threads_below_one_before_any_trial(self, tmp_path, capsys, monkeypatch, threads):
        def refuse(*args, **kwargs):
            raise AssertionError("ran trials before checking --threads")

        monkeypatch.setattr(cli, "run_phase", refuse)
        out = tmp_path / "out"
        code = run("phase", "--n", 8, "--rank-values", 1, "--samples-values", 8, "--trials", 2,
                   "--threads", threads, "--out", out)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"usage error: --threads must be at least 1, got {threads}")
        assert not (out / "phase.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (("bench", "--case", "8,1"), "argument --case: expected n,rank,samples, got '8,1'"),
        (("bench", "--case", "8,x,5"), "argument --case: expected n,rank,samples, got '8,x,5'"),
        (("phase", "--n", 8, "--rank-values", "a,b", "--samples-values", 8),
         "argument --rank-values: expected comma-separated integers, got 'a,b'"),
        (("phase", "--n", 8, "--rank-values", 1, "--samples-values", ","),
         "argument --samples-values: expected comma-separated integers, got ','"),
    ], ids=["case-two-fields", "case-not-int", "rank-values-not-int", "samples-values-empty"])
    def test_converter_message_is_its_own(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()

    def test_internal_value_error_is_not_a_usage_error(self, tmp_path, monkeypatch):
        def broken_solve(obs, config):
            raise ValueError("internal invariant broken")

        monkeypatch.setattr(cli, "solve", broken_solve)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="internal invariant broken"):
            run("solve", "--n", 8, "--rank", 1, "--samples", 10, "--out", out)
        assert not out.exists()


class TestConfigPrecedence:
    def test_config_supplies_missing_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=8\nrank=1\nsamples=15\nseed=2\n")
        assert run("solve", "--config", cfg, "--out", tmp_path / "o") == 0
        assert read_summary(tmp_path / "o" / "summary.csv")["n"] == "8"

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=8\nrank=1\nsamples=15\nseed=2\nmax_iter=1\n")
        out = tmp_path / "o"
        assert run("solve", "--config", cfg, "--max-iter", 500, "--out", out) == 0
        assert read_summary(out / "summary.csv")["converged"] == "true"

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobs=3\n")
        assert run("solve", "--config", cfg, "--out", tmp_path / "o") == 1

    @pytest.mark.parametrize("line, code, message", [
        ("max_iter=abc", 2, "input error: {cfg}: key max_iter: "),
        ("accelerated=maybe", 2, "input error: {cfg}: key accelerated: "),
        ("delta1=x", 2, "input error: {cfg}: key delta1: "),
        ("rank_values=,", 2, "input error: {cfg}: key rank_values: expected comma-separated integers"),
        # a value that parses but is out of range is a usage error that names its flag
        pytest.param("tol=-1", 1, "usage error: --tol must be positive and finite, got -1.0",
                     id="tol=-1-1-usage error: tol must be positive"),
        ("seed=-1", 1, "usage error: --seed must be at least 0, got -1"),
        ("delta1=1.5", 1, "usage error: --delta1 must lie strictly in (0, 1), got 1.5"),
    ])
    def test_bad_config_value_before_any_output(self, tmp_path, capsys, line, code, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n=8\nrank=1\nsamples=15\n{line}\n")
        out = tmp_path / "o"
        assert run("solve", "--config", cfg, "--out", out) == code
        assert capsys.readouterr().err.startswith(message.format(cfg=cfg))
        assert not out.exists()

    def test_config_key_given_twice_is_an_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=8\nrank=1\nsamples=15\ntol=1e-4\ntol=0.5\n")
        out = tmp_path / "o"
        assert run("solve", "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err == f"input error: {cfg}:5: key tol is set again; line 4 set it first\n"
        assert not out.exists()

    def test_config_empty_key_is_an_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=16\n=5\n")
        out = tmp_path / "o"
        assert run("solve", "--config", cfg, "--out", out) == 2
        assert capsys.readouterr().err == f"input error: {cfg}:2: empty key\n"
        assert not out.exists()

    def test_config_accelerated_matches_the_flag(self, tmp_path):
        base = ("solve", "--n", 16, "--rank", 2, "--samples", 14, "--seed", 3)
        assert run(*base, "--out", tmp_path / "plain") == 0
        assert run(*base, "--accelerated", "--out", tmp_path / "accel") == 0
        plain, accel = ((tmp_path / d / "history.csv").read_bytes() for d in ("plain", "accel"))
        assert plain != accel
        for value, expected in (("yes", accel), ("1", accel), ("no", plain)):
            cfg, out = tmp_path / f"{value}.cfg", tmp_path / f"config-{value}"
            cfg.write_text(f"accelerated={value}\n")
            assert run(*base, "--config", cfg, "--out", out) == 0
            assert (out / "history.csv").read_bytes() == expected

    def test_missing_config_file(self, tmp_path):
        assert run("solve", "--config", tmp_path / "none.cfg", "--out", tmp_path / "o") == 2


class TestSynth:
    def test_outputs_are_consistent(self, tmp_path):
        out = tmp_path / "inst"
        assert run("synth", "--n", 10, "--rank", 2, "--samples", 9, "--seed", 4, "--out", out) == 0
        x = read_signal_file(out / "signal.csv")
        assert len(x) == 19
        obs_lines = (out / "observations.csv").read_text().splitlines()
        assert len(obs_lines) == 10
        model_lines = (out / "model.csv").read_text().splitlines()
        assert len(model_lines) == 3

    def test_out_that_is_a_file_is_an_output_error(self, tmp_path, capsys):
        out = tmp_path / "afile"
        out.write_text("kept\n")
        assert run("synth", "--n", 8, "--rank", 1, "--samples", 5, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and str(out) in err
        assert "Traceback" not in err
        assert out.read_text() == "kept\n"


class TestPhase:
    def test_deterministic_across_workers(self, tmp_path):
        outputs = []
        for threads, name in ((1, "a"), (4, "b")):
            out = tmp_path / name
            assert run(
                "phase", "--n", 16, "--rank-values", "1,2", "--samples-values", "8,31",
                "--trials", 4, "--seed", 11, "--threads", threads, "--out", out,
            ) == 0
            outputs.append((out / "phase.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_csv_shape(self, tmp_path):
        out = tmp_path / "p"
        assert run(
            "phase", "--n", 16, "--rank-values", "1", "--samples-values", "31",
            "--trials", 3, "--seed", 0, "--threads", 1, "--out", out,
        ) == 0
        lines = (out / "phase.csv").read_text().splitlines()
        assert lines[0] == "rank,samples,trials,successes,success_rate"
        assert lines[1] == "1,31,3,3,1"


class TestBench:
    def test_rows_written(self, tmp_path):
        out = tmp_path / "b"
        assert run("bench", "--case", "16,1,10", "--case", "24,2,16", "--repeats", 1,
                   "--out", out) == 0
        lines = (out / "bench.csv").read_text().splitlines()
        assert lines[0] == "n,rank,samples,elapsed_seconds,iterations,factor_bytes"
        assert len(lines) == 3
        assert lines[1].startswith("16,1,10,")


class TestCompare:
    def test_strict_nonconvergence_still_writes_both_tables(self, tmp_path, capsys):
        out = tmp_path / "c"
        code = run("compare", "--n", 32, "--rank", 2, "--samples", 24, "--seed", 3,
                   "--max-iter", 1, "--strict", "--out", out)
        assert code == 3
        assert capsys.readouterr().err == "at least one solver did not converge within max_iter\n"
        assert len((out / "compare.csv").read_text().splitlines()) == 3
        summary = read_summary(out / "compare_summary.csv")
        assert summary["plain_converged"] == summary["accel_converged"] == "false"

    def test_aligned_logs_and_summary(self, tmp_path):
        out = tmp_path / "c"
        assert run("compare", "--n", 32, "--rank", 2, "--samples", 24, "--seed", 3,
                   "--out", out) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["iteration", "plain_objective", "plain_relchange",
                          "accel_objective", "accel_relchange"]
        first = lines[1].split(",")
        assert first[1] == first[3]  # both solvers start from the same objective
        summary = read_summary(out / "compare_summary.csv")
        assert summary["plain_converged"] == "true"
        assert summary["accel_converged"] == "true"
        assert int(summary["accel_iterations"]) <= int(summary["plain_iterations"])
