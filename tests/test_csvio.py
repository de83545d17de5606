import re

import numpy as np
import pytest

from lrhankel import ObservationSet
from lrhankel.csvio import (
    InputFileError,
    fmt_float,
    read_config_file,
    read_observation_file,
    read_signal_file,
    sample_table,
    write_csv,
)


class TestFloatFormat:
    def test_round_trips_exactly(self):
        rng = np.random.default_rng(0)
        for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
            assert float(fmt_float(x)) == x

    def test_special_values(self):
        assert fmt_float(0.0) == "0"
        assert float(fmt_float(1 / 3)) == 1 / 3


class TestSignalFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        path = tmp_path / "signal.csv"
        write_csv(path, *sample_table(range(len(x)), x))
        assert np.array_equal(read_signal_file(path), x)

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "signal.csv"
        write_csv(path, *sample_table(range(3), np.zeros(3)))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFileError, match="no such file"):
            read_signal_file(tmp_path / "absent.csv")

    def test_even_length_rejected(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("t,re,im\n0,1,0\n1,2,0\n2,3,0\n3,4,0\n")
        with pytest.raises(InputFileError, match="odd"):
            read_signal_file(path)

    def test_gap_in_indices_rejected(self, tmp_path):
        path = tmp_path / "signal.csv"
        path.write_text("t,re,im\n0,1,0\n2,2,0\n3,3,0\n")
        with pytest.raises(InputFileError, match=":3:"):
            read_signal_file(path)

    def test_reads_past_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "signal.csv"
        for text in ("t,re,im\n0,1,0\n1,2,0\n2,3,0\n", "0,1,0\n1,2,0\n2,3,0\n"):
            path.write_text(text, encoding="utf-8-sig")
            assert np.array_equal(read_signal_file(path), [1, 2, 3])

    def test_malformed_field_reports_line(self, tmp_path):
        path = tmp_path / "signal.csv"
        for row in ("1,oops,0", "1,nan,0", "1,0,inf", "1,-inf,nan"):
            path.write_text(f"t,re,im\n0,1,0\n{row}\n2,3,0\n")
            with pytest.raises(InputFileError, match=":3:"):
                read_signal_file(path)


class TestObservationFiles:
    def test_round_trip(self, tmp_path):
        obs = ObservationSet(5, [0, 3, 8], [1 + 2j, -0.5, 3j])
        path = tmp_path / "obs.csv"
        write_csv(path, *sample_table(obs.indices, obs.values))
        back = read_observation_file(path, 5)
        assert np.array_equal(back.indices, obs.indices)
        assert np.array_equal(back.values, obs.values)

    def test_reads_past_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "obs.csv"
        for text in ("t,re,im\n0,1,0\n3,2,0\n", "0,1,0\n3,2,0\n"):
            path.write_text(text, encoding="utf-8-sig")
            obs = read_observation_file(path, 5)
            assert np.array_equal(obs.indices, [0, 3]) and np.array_equal(obs.values, [1, 2])

    def test_out_of_range_index(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,re,im\n0,1,0\n9,1,0\n")
        with pytest.raises(InputFileError, match="outside"):
            read_observation_file(path, 5)

    def test_non_increasing_indices(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("t,re,im\n3,1,0\n3,1,0\n")
        with pytest.raises(InputFileError, match="increasing"):
            read_observation_file(path, 5)


class TestConfigFiles:
    def test_parses_and_ignores_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# sweep setup\nn = 64\ntol=1e-5\n\naccelerated=true\n")
        assert read_config_file(path) == {"n": "64", "tol": "1e-5", "accelerated": "true"}

    def test_reads_past_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n=64\ntol=1e-5\n", encoding="utf-8-sig")
        assert read_config_file(path) == {"n": "64", "tol": "1e-5"}

    def test_rejects_a_key_given_twice(self, tmp_path):
        # the last value used to win silently: tol read 0.5 here
        path = tmp_path / "run.cfg"
        path.write_text("tol=1e-4\n# looser\n tol = 0.5\n")
        with pytest.raises(InputFileError, match=f"^{re.escape(str(path))}:3: key tol is set again; line 1 set it first$"):
            read_config_file(path)

    @pytest.mark.parametrize("line", ["=5", "  = "])
    def test_rejects_an_empty_key(self, tmp_path, line):
        # "=5" used to read as the key "", which the CLI then reported as an unknown key with no name
        path = tmp_path / "run.cfg"
        path.write_text(f"n=16\n{line}\n")
        with pytest.raises(InputFileError, match=f"^{re.escape(str(path))}:2: empty key$"):
            read_config_file(path)

    def test_rejects_lines_without_equals(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n 64\n")
        with pytest.raises(InputFileError, match="key=value"):
            read_config_file(path)
