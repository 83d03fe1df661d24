"""End-to-end tests of the command-line front end: parsing, exit codes,
output formats, determinism, and the monotonicity certificate."""

import argparse
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from lacunary_asym import DomainError, __version__, certify_absolute_monotonicity, cli, eval_exact
from lacunary_asym.cli import (
    COMPARE_FIELDS,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_TOLERANCE,
    EXIT_USAGE,
    RunConfig,
    UsageError,
    parse_config,
    run,
)
from lacunary_asym.numerics import parse_real, require_y
from test_boundary_table import Y_ROWS, cli_text


def render(argv):
    config = parse_config(argv)
    buf = io.StringIO()
    status = run(config, buf)
    return status, buf.getvalue()


class TestParsing:
    def test_rational_and_decimal_y(self):
        assert parse_config(["eval", "--y", "4/3", "--n", "3"]).y == Fraction(4, 3)
        assert parse_config(["eval", "--y", "2.5", "--n", "3"]).y == Fraction(5, 2)

    def test_ctx_is_built_once_per_config(self):
        cfg = parse_config(["eval", "--y", "2", "--n", "3", "--bits", "200"])
        assert cfg.ctx is cfg.ctx and cfg.ctx.bits == 200

    def test_y_must_exceed_1(self):
        for bad in ("1", "0.5", "-2", "7/8"):
            with pytest.raises(UsageError, match="y must exceed 1"):
                parse_config(["eval", "--y", bad, "--n", "3"])

    def test_unparseable_y(self):
        with pytest.raises(UsageError, match="cannot parse"):
            parse_config(["eval", "--y", "two", "--n", "3"])

    def test_n_list(self):
        cfg = parse_config(["eval", "--y", "2", "--n", "5,3,5"])
        assert cfg.n_values == (3, 5)

    def test_geometric_grid(self):
        cfg = parse_config(["solve", "--y", "2", "--n-from", "10", "--n-to", "1000"])
        assert cfg.n_values == (10, 100, 1000)
        cfg = parse_config(
            ["solve", "--y", "2", "--n-from", "5", "--n-to", "50", "--n-factor", "3"]
        )
        assert cfg.n_values == (5, 15, 45)

    def test_grid_and_list_are_exclusive(self):
        with pytest.raises(UsageError, match="mutually exclusive"):
            parse_config(["eval", "--y", "2", "--n", "3", "--n-from", "1", "--n-to", "9"])

    def test_half_open_range_rejected(self):
        with pytest.raises(UsageError, match="together"):
            parse_config(["eval", "--y", "2", "--n-from", "3"])

    def test_missing_n_spec(self):
        with pytest.raises(UsageError, match="required"):
            parse_config(["eval", "--y", "2"])

    def test_bad_n_list(self):
        with pytest.raises(UsageError, match="bad --n list"):
            parse_config(["eval", "--y", "2", "--n", "3,x"])

    def test_factor_must_exceed_1(self):
        with pytest.raises(UsageError, match="factor"):
            parse_config(
                ["eval", "--y", "2", "--n-from", "1", "--n-to", "9", "--n-factor", "1.0"]
            )

    def test_floor_is_1_except_quadcheck(self):
        with pytest.raises(UsageError, match="minimum 1"):
            parse_config(["eval", "--y", "2", "--n", "0"])
        cfg = parse_config(["quadcheck", "--y", "2", "--n", "0"])
        assert cfg.n_values == (0,)

    def test_bits_floor(self):
        with pytest.raises(UsageError, match="53"):
            parse_config(["eval", "--y", "2", "--n", "3", "--bits", "32"])

    def test_monotone_args(self):
        cfg = parse_config(["monotone", "--y", "2", "--N", "5", "--R", "3"])
        assert (cfg.N, cfg.R) == (5, 3)
        assert cfg.output_format == "json"
        with pytest.raises(UsageError, match="non-negative"):
            parse_config(["monotone", "--y", "2", "--N", "-1", "--R", "0"])

    def test_monotone_rejects_csv(self):
        with pytest.raises(SystemExit):
            parse_config(["monotone", "--y", "2", "--N", "1", "--R", "1", "--format", "csv"])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            parse_config(["frobnicate", "--y", "2"])


# every --y text of the boundary table's rows, and three more
Y_TEXTS = [(key, cli_text(y)) for key, y in Y_ROWS if cli_text(y) is not None]
Y_TEXTS += [(text, text) for text in ("1.50", "7/4", "1e+3e6")]


@pytest.mark.parametrize("text", [text for _, text in Y_TEXTS], ids=[key for key, _ in Y_TEXTS])
def test_cli_reads_y_as_the_library_does(text):
    try:
        y = parse_config(["eval", f"--y={text}", "--n", "3"]).y
    except UsageError:
        with pytest.raises(DomainError):
            require_y(text)
    else:
        assert repr(y) == repr(parse_real(text))


class TestCommandTable:
    def test_parser_is_built_once(self, monkeypatch, capsys):
        def refuse(self, *args, **kwargs):
            raise AssertionError("ArgumentParser built again")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        assert parse_config(["eval", "--y", "2", "--n", "3,5"]).n_values == (3, 5)
        assert cli.main(["monotone", "--y", "2", "--N", "1", "--R", "1"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["certificate"]["N"] == 1

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name, command in cli._COMMANDS.items():
            assert re.search(rf"^ +{name} +{re.escape(command.help)}$", out, re.M), name

    def test_monotone_accepts_and_echoes_bits(self):
        _, out = render(["monotone", "--y", "2", "--N", "1", "--R", "1", "--bits", "64"])
        assert json.loads(out)["config"]["bits"] == 64


class TestBitsResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(cli.BITS_ENV_VAR, raising=False)
        assert parse_config(["eval", "--y", "2", "--n", "3"]).bits == cli.DEFAULT_BITS

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv(cli.BITS_ENV_VAR, "96")
        assert parse_config(["eval", "--y", "2", "--n", "3"]).bits == 96

    def test_flag_beats_env(self, monkeypatch):
        monkeypatch.setenv(cli.BITS_ENV_VAR, "96")
        cfg = parse_config(["eval", "--y", "2", "--n", "3", "--bits", "160"])
        assert cfg.bits == 160

    def test_bad_env(self, monkeypatch):
        for bad in ("lots", "9" * 100_000):  # the echo of the second is cut short
            monkeypatch.setenv(cli.BITS_ENV_VAR, bad)
            with pytest.raises(UsageError, match=cli.BITS_ENV_VAR) as exc:
                parse_config(["eval", "--y", "2", "--n", "3"])
            assert len(str(exc.value)) < 200

    def test_cap(self, monkeypatch):
        # every layer's cost grows with the precision; 10^6 bits ran past 60 s
        cap = cli.PRECISION_BITS_CAP
        assert parse_config(["eval", "--y", "2", "--n", "3", "--bits", str(cap)]).bits == cap
        monkeypatch.setenv(cli.BITS_ENV_VAR, str(cap + 1))
        with pytest.raises(UsageError, match=str(cap)):
            parse_config(["eval", "--y", "2", "--n", "3"])
        assert cli.main(["eval", "--y", "2", "--n", "3"]) == cli.EXIT_USAGE


class TestFormatReal:
    def test_fixed_window(self):
        with mp.workprec(160):
            assert cli._format_real(mpf("1e6"), 36) == "1000000.0"
            assert cli._format_real(mpf("0.00012345"), 8) == "0.00012345"
            assert cli._format_real(mpf(2) / 3, 10) == "0.6666666667"
            assert cli._format_real(mpf("-42.5"), 10) == "-42.5"

    def test_scientific_outside_window(self):
        with mp.workprec(160):
            assert "e" in cli._format_real(mpf("1e7"), 10)
            assert "e" in cli._format_real(mpf("1e-5"), 10)
            assert "e" in cli._format_real(mpf("3.2e40"), 10)

    def test_specials(self):
        assert cli._format_real(mpf(0), 10) == "0.0"
        assert cli._format_real(mpf("nan"), 10) == "nan"
        assert cli._format_real(mpf("inf"), 10) == "inf"
        assert cli._format_real(mpf("-inf"), 10) == "-inf"

    def test_sig_digits(self):
        assert cli._sig_digits(128) == 36
        assert cli._sig_digits(53) == 13


class TestCommands:
    def test_eval_table(self):
        status, out = render(["eval", "--y", "2", "--n", "3,5"])
        assert status == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == ["n", "y", "log_f", "terms_used", "omitted_tail_bound"]
        assert len(lines) == 3
        assert not any(line != line.rstrip() for line in lines)

    def test_eval_csv_values(self):
        status, out = render(["eval", "--y", "2", "--n", "5", "--format", "csv"])
        assert status == EXIT_OK
        header, row = out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["n"] == "5"
        # ln(12625/1024) to 36 digits starts like this
        assert cells["log_f"].startswith("2.5119624")

    def test_solve_csv(self):
        status, out = render(["solve", "--y", "2", "--n", "10", "--format", "csv"])
        assert status == EXIT_OK
        header, row = out.splitlines()
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["w"].startswith("1.73286795139986327")
        assert cells["r"].startswith("1.57259822145192937")
        with mp.workprec(200):
            gap = mpf(cells["w"]) - mpf(cells["r"])
            reported = mpf(cells["w_minus_r"])
            assert abs(gap - reported) <= mpf("1e-34")

    def test_approx_allows_huge_n(self):
        status, out = render(
            ["approx", "--y", "2", "--n", "1000000000", "--format", "csv"]
        )
        assert status == EXIT_OK
        assert len(out.splitlines()) == 2

    def test_compare_header_and_json(self):
        status, out = render(
            ["compare", "--y", "2", "--n", "10,100", "--format", "csv"]
        )
        assert status == EXIT_OK
        assert out.splitlines()[0] == ",".join(COMPARE_FIELDS)
        status, out = render(
            ["compare", "--y", "2", "--n", "10,100", "--format", "json"]
        )
        assert status == EXIT_OK
        payload = json.loads(out)
        assert set(payload) == {"config", "rows", "tool_version"}
        assert payload["config"]["command"] == "compare"
        assert payload["config"]["n"] == [10, 100]
        assert [r["n"] for r in payload["rows"]] == ["10", "100"]
        assert set(payload["rows"][0]) == set(COMPARE_FIELDS)

    def test_quadcheck_ok(self):
        status, out = render(
            ["quadcheck", "--y", "2", "--n", "0,1,5", "--format", "csv"]
        )
        assert status == EXIT_OK
        rows = out.splitlines()[1:]
        assert len(rows) == 3
        assert all(row.endswith(",ok") for row in rows)

    def test_quadcheck_low_precision_fails_tolerance(self):
        # at 53 bits the final rounding alone (~1e-16 relative) dwarfs the
        # 1e-20 gate; y = 5/3 keeps f_n off the dyadic grid so the rounding
        # actually shows
        status, out = render(
            ["quadcheck", "--y", "5/3", "--n", "8", "--bits", "53", "--format", "csv"]
        )
        assert status == EXIT_TOLERANCE
        assert out.splitlines()[1].endswith(",FAIL")

    def test_quadcheck_cap_is_domain_error(self, capsys):
        code = cli.main(["quadcheck", "--y", "2", "--n", "70"])
        assert code == EXIT_DOMAIN
        assert "quad-cap" in capsys.readouterr().err


class TestMonotoneCommand:
    def test_certificate_5_3(self):
        status, out = render(["monotone", "--y", "2", "--N", "5", "--R", "3"])
        assert status == EXIT_OK
        payload = json.loads(out)
        cert = payload["certificate"]
        assert cert["N"] == 5 and cert["R"] == 3
        assert len(cert["entries"]) == 24
        assert cert["entries"][0] == {"n": 0, "r": 0, "value": "1/1"}
        assert cert["verified_against_telescoping"] is True
        assert cert["all_positive"] is True
        by_key = {(e["n"], e["r"]): e["value"] for e in cert["entries"]}
        assert by_key[(5, 0)] == "12625/1024"
        assert by_key[(1, 1)] == "3/2"

    def test_trivial_certificate(self):
        status, out = render(["monotone", "--y", "2", "--N", "0", "--R", "0"])
        assert status == EXIT_OK
        cert = json.loads(out)["certificate"]
        assert cert["entries"] == [{"n": 0, "r": 0, "value": "1/1"}]

    def test_entries_beyond_int_str_limit(self):
        # f_70(1/100) has the 4831-digit denominator 100^C(70,2), past the
        # interpreter's default int-to-str limit of 4300 digits
        status, out = render(["monotone", "--y", "100", "--N", "70", "--R", "0"])
        assert status == EXIT_OK
        printed = [e["value"] for e in json.loads(out)["certificate"]["entries"]]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            values = [eval_exact(n, 100) for n in range(71)]
            want = [f"{v.numerator}/{v.denominator}" for v in values]
        finally:
            sys.set_int_max_str_digits(limit)
        assert printed == want
        assert len(want[-1]) > 4300

    @pytest.mark.parametrize("y, N, R", [("2", 0, 0), ("3/2", 5, 3), ("1.00123", 4, 4)])
    def test_output_is_json_dumps_of_the_certificate(self, y, N, R):
        argv = ["monotone", "--y", y, "--N", str(N), "--R", str(R)]
        status, out = render(argv)
        assert status == EXIT_OK
        config = parse_config(argv)
        cert = certify_absolute_monotonicity(N, R, config.y)
        entries = [
            {"n": e.n, "r": e.r, "value": f"{e.value.numerator}/{e.value.denominator}"}
            for e in cert.entries
        ]
        config_echo = {"command": "monotone", "y": y, "bits": config.bits, "format": "json"}
        certificate = {"y": y, "N": N, "R": R, "entries": entries}
        payload = {
            "config": {**config_echo, "N": N, "R": R},
            "certificate": {**certificate, "verified_against_telescoping": True, "all_positive": True},
            "tool_version": __version__,
        }
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_config_echo_carries_N_R(self):
        _, out = render(["monotone", "--y", "3/2", "--N", "2", "--R", "1"])
        payload = json.loads(out)
        assert payload["config"]["N"] == 2
        assert payload["config"]["R"] == 1
        assert payload["config"]["y"] == "3/2"


class TestDeterminismAndIO:
    def test_byte_identical_reruns(self):
        argv = ["compare", "--y", "4/3", "--n", "2,20,200", "--format", "csv"]
        _, first = render(argv)
        _, second = render(argv)
        assert first == second

    def test_json_stable(self):
        argv = ["approx", "--y", "2", "--n-from", "10", "--n-to", "10000"]
        a = render(argv + ["--format", "json"])[1]
        b = render(argv + ["--format", "json"])[1]
        assert a == b

    def test_out_file_has_lf_endings(self, tmp_path):
        target = tmp_path / "rows.csv"
        code = cli.main(
            ["eval", "--y", "2", "--n", "3,4", "--format", "csv", "--out", str(target)]
        )
        assert code == EXIT_OK
        raw = target.read_bytes()
        assert b"\r" not in raw
        assert raw.count(b"\n") == 3

    def test_refused_run_leaves_the_out_file_as_it_was(self, tmp_path, capsys):
        # the file used to be opened, so emptied, before the run was refused
        target = tmp_path / "keep.csv"
        target.write_text("kept\n")
        y = "1." + "0" * 60 + "1"
        code = cli.main(["eval", "--y", y, "--n", "10000000", "--out", str(target)])
        assert code == EXIT_DOMAIN
        assert target.read_text() == "kept\n"
        assert "walk-terms-exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["a-directory", "no-such-folder/rows.csv"])
    def test_unwritable_out_is_one_error_line(self, tmp_path, capsys, where):
        # used to raise a raw IsADirectoryError or FileNotFoundError
        (tmp_path / "a-directory").mkdir()
        code = cli.main(["eval", "--y", "2", "--n", "3", "--out", str(tmp_path / where)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_main_usage_error_exit_2(self, capsys):
        code = cli.main(["eval", "--y", "1", "--n", "3"])
        assert code == EXIT_USAGE
        assert "y must exceed 1" in capsys.readouterr().err

    def test_main_ok_exit_0(self, capsys):
        code = cli.main(["solve", "--y", "2", "--n", "7"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0].startswith("n")

    def test_closed_pipe_exits_quietly(self):
        # `lacunary-asym compare ... | head -1`: the reader is gone before the
        # rows are written; the console entry point must not print a traceback
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        argv = ["compare", "--y", "2", "--n-from", "10", "--n-to", "1000000"]
        script = "from lacunary_asym.cli import entrypoint; entrypoint()"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-c", script, *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": path},
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 1

    def test_higher_bits_give_longer_digits(self):
        _, out64 = render(["solve", "--y", "2", "--n", "10", "--bits", "64", "--format", "csv"])
        _, out256 = render(["solve", "--y", "2", "--n", "10", "--bits", "256", "--format", "csv"])
        w64 = out64.splitlines()[1].split(",")[2]
        w256 = out256.splitlines()[1].split(",")[2]
        assert len(w256) > len(w64)
        assert w256.startswith(w64[:10])


class TestRunConfig:
    def test_ctx_property(self):
        cfg = RunConfig(
            command="eval",
            y_raw="2",
            y=Fraction(2),
            n_values=(3,),
            bits=192,
            output_format="table",
            output_path=None,
        )
        assert cfg.ctx.bits == 192


# SHA-256 of the output bytes, recorded before the row builders were
# merged into one table; y = 1.00123 keeps y off the dyadic grid, so a
# change of rounding in the y cell would show.
GOLDEN_CASES = [
    ("eval", "3/2", "10,1000,1000000000000000"),
    ("eval", "1.00123", "10,1000,100000"),
    ("solve", "3/2", "1,10,100000,1000000000000000"),
    ("solve", "1.00123", "1,10,100000,1000000000000000"),
    ("approx", "3/2", "1,10,100000,1000000000000000"),
    ("approx", "1.00123", "1,10,100000,1000000000000000"),
    ("compare", "3/2", "10,1000,1000000000000000"),
    ("compare", "1.00123", "10,1000,100000"),
    ("quadcheck", "3/2", "0,1,5,20,40"),
    ("quadcheck", "1.00123", "0,5,20"),
]

GOLDEN_DIGESTS = {
    "eval-3/2-table": "b0380e9f6b1b4850a6261b9f27f73d7a8349f68b5e9deaa3cbd96137a3eceb8f",
    "eval-3/2-csv": "a823d8def878e9c0c5df63c4257512bffb3707cd47991c63a2ac982add25b11a",
    "eval-3/2-json": "f4928f0957a5d7dfd1a9a4607abcf031ce0165e86ce2848574628e5d3909edec",
    "eval-1.00123-table": "012f9ba33db3c55bdb657bb3b331e9211a5f7d03d7b0c66251442a0b48842051",
    "eval-1.00123-csv": "30179d388246b2906dabdb57ca913133aa1743d6413589c801df4d2d371882d6",
    "eval-1.00123-json": "dd561b1582f7bcbb5f55811711afcc62f2dc433d1cd1728bc84ca5151b3417e0",
    "solve-3/2-table": "253e60e089be8e828cdc54ead2cd0af2617702f16970a98ea35c3e9a5cfcbfa5",
    "solve-3/2-csv": "3c393e317d0896713a8cf99fa23735bfc02e14a54864db11df725e2474bfb48a",
    "solve-3/2-json": "cf5a144ebe12ea47f7f763585e0f84a7598a1fb46c0c3fea9c1c68372d4bd38e",
    "solve-1.00123-table": "d41fed4cf2840c719873d25f6f7d2583ec9342571efafb4daf5a8076c424c549",
    "solve-1.00123-csv": "2aa1303fe5da694741a3c5692f0e5005fdac6e4f08465fa04c1f0f91d815d9c3",
    "solve-1.00123-json": "6246610babb6de3c7d5ca8cfa5b85c931ae6c4492fc3fd3850ab6aa4ca291d27",
    "approx-3/2-table": "5d30c8843fdaffafcc663f89dc91e14fa25e0a2f359eecaf13f5224347e74ff0",
    "approx-3/2-csv": "723690fe334ac60c351f82d318cc76ca3219966cc63d49a3ef3bdb19eea29246",
    "approx-3/2-json": "d09524528a681267f334e3abe5b376813a6283cbd373a71f444ca3b219a2f3b6",
    "approx-1.00123-table": "8f1c72ffa789def4fb6ba6750d5fd72e9dd8c15dab984ad9833f1be0410feab5",
    "approx-1.00123-csv": "420575af68459f77ca774b275055566908142bbce08b0378d97ef9b91eb45efc",
    "approx-1.00123-json": "c9ff8d27d343057f3bfe9a1994ac85ab05c37e2e665488c8bfddd8e2ee3d9373",
    "compare-3/2-table": "934a5fbf39b845ff263b9739f95bb4687bd2545e3f30f4c5f999ab7a3bf43cb0",
    "compare-3/2-csv": "750cd3a8110d35ee577c80724c3dc31ed88aaa2968cee0a4b025fb48fe41709d",
    "compare-3/2-json": "d89e0e1c4d61ce836515ef3c9cdd784ca33ae2b324061009a32b6119a66c6208",
    "compare-1.00123-table": "949532d1493087fa42e18d48f623f797c5a550ced42a7504c7d02faeb148069f",
    "compare-1.00123-csv": "f081287f9558349679e4b4dd8dff22ffacfc4f2e0efa8790fda71f3529cd50ed",
    "compare-1.00123-json": "5e55ac396c3f5fb61ca6fade4836f978fbc3c64049f00409d1ec146aa00a89cb",
    "quadcheck-3/2-table": "8216f27b520c77c2d465adc8b060b917f7a7ab4a222cf14d49c2cd885611ca0c",
    "quadcheck-3/2-csv": "710d8b25e13f15076e312f958cb08bfb82760fa81f42b4a7cfc0dde5fba2a059",
    "quadcheck-3/2-json": "1dc1633785c44e0b6d72d60b61b3c9a1f0ffd4cd73e065b8e9801ac249c69465",
    "quadcheck-1.00123-table": "36a1abb61570ce47ad0160e762b9ae931aff648497bbc1166966e2f88c95e5fa",
    "quadcheck-1.00123-csv": "1fbc6ba42e53382f82a26bb41289e64f2a31a61e9f5abc1bb9b8880974b87703",
    "quadcheck-1.00123-json": "46c6f33f9798c478308f2af1b942536ea77a4a47e03f2c9ccbde02cff4dce478",
    "monotone-3/2-json": "3fb68a25e6e267bf5c3cb5255b544edc91d4c6dfacfdc818ddc3c1722e666e0d",
    "monotone-1.00123-json": "3f47c55c712f32b1b3fd26fc5a899bb5b51cbc0401b509c56fdedafaee98c9bd",
}


def _golden_params():
    for command, y, n in GOLDEN_CASES:
        for fmt in ("table", "csv", "json"):
            yield pytest.param(
                [command, "--y", y, "--n", n, "--format", fmt],
                id=f"{command}-{y}-{fmt}",
            )
    for y, N, R in (("3/2", "6", "4"), ("1.00123", "3", "2")):
        yield pytest.param(
            ["monotone", "--y", y, "--N", N, "--R", R], id=f"monotone-{y}-json"
        )


class TestGoldenBytes:
    @pytest.mark.parametrize("argv", _golden_params())
    def test_output_digest(self, argv, request):
        status, out = render(argv)
        assert status == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == GOLDEN_DIGESTS[request.node.callspec.id]


# Full 36-digit csv rows of eval close to y = 1, where the k-walk runs
# thousands of terms (17,265 at n = 1e5) and any drift in the float or
# log arithmetic of the walk would reach the printed digits.
NEAR_ONE_EVAL_ROWS = [
    (
        "1.0001",
        "100000",
        "100000,1.0001,31177.784456140104366020492158726324,17265,"
        "4.17875128510279514708707224125248168e+13506",
    ),
    (
        "1.01",
        "1000",
        "1000,1.01,312.817186168230353074567783346628897,260,"
        "8.69881428759824852141981214079994724e+101",
    ),
]


class TestNearOneEvalRows:
    @pytest.mark.parametrize(
        "y,n,row", NEAR_ONE_EVAL_ROWS, ids=[f"{y}-{n}" for y, n, _ in NEAR_ONE_EVAL_ROWS]
    )
    def test_csv_row(self, y, n, row):
        status, out = render(["eval", "--y", y, "--n", n, "--format", "csv"])
        assert status == EXIT_OK
        assert out == "n,y,log_f,terms_used,omitted_tail_bound\n" + row + "\n"


# Default-precision eval and compare output near y = 1, where the walk sums
# hundreds to tens of thousands of terms (41,805 at n = 1e5, y = 1.00001):
# a change in where the walk starts, in its rounding or in its stopping test
# that reached a printed digit, terms_used or omitted_tail_bound shows here.
NEAR_ONE_YS = ["1.01", "1.001", "1.0001", "1.00001"]
NEAR_ONE_NS = "1000,10000,100000"
NEAR_ONE_DIGESTS = {
    "eval-1.01-table": "5c99511174c48b3947e005e65d71f53d9f791cbad028f6a1c712a704c889555f",
    "eval-1.01-csv": "35310a3acd2b4b442e6ce4d5093e6247d4e0fe95d1b985922a07e25f335a73b6",
    "eval-1.01-json": "1d0ba3b7e333d673c20355873211d99fa5d4e42e761a2d2d0b0fb26792109b17",
    "eval-1.001-table": "09e8b24f2959917b0be3fc3f12146f107b22867cf27488e3d036e9446874cf0b",
    "eval-1.001-csv": "7ca75fed7ef8c54f44e17b6543a86d94aca71c79362bc3a7d373d9a5746f8177",
    "eval-1.001-json": "834928273839c603f0f9b06900f223722ff20146d7063f7190aa8a5c12407f2a",
    "eval-1.0001-table": "e4c31dda67e20c31e9525c78ee7461bdf71037f18d2966f7d68fec22d9582f90",
    "eval-1.0001-csv": "9188f4409cc563c7bc31359cb70d3a2630c89175c089476dcf7be7b499ab36e6",
    "eval-1.0001-json": "079d3e0d55226d3517e941c8911a4de7762dd73c4207a056bf17dc384082aa8b",
    "eval-1.00001-table": "eaa482028e1e838dad41418580886325c4b6b842a37e1e461f867d12aa421613",
    "eval-1.00001-csv": "6c3cdf147b11e00d44ab8cc693ef1efcaccd8c0c2ca2e2fbb5db95b5f531a014",
    "eval-1.00001-json": "a508ab7fa61f3ec861898ff2416bfdbfc2831b362830e5bb27a05202f80b0216",
    "compare-1.01-table": "dc2ba7590741722e13430c097360187930bad205c437cb5fcd99111bca22299f",
    "compare-1.01-csv": "f4ee7be2135d39ab571601e748951b322e7d04b9d438cab06c12a6d9f00bd57f",
    "compare-1.01-json": "02c5a27d11481d82619be683f0ed75c39c24dccefed9588814af4fd149530546",
    "compare-1.001-table": "bc3f933ea02d2a9013fb74afa713fc6c7e39eedafeff303c85cb811b121a1775",
    "compare-1.001-csv": "08bc257fbde1a63ae77648bc9eec244ca4a17ce8c1610e664f2e64d8135c2cb4",
    "compare-1.001-json": "c67bc5cc8bdc06f096b36b35fafc1bb07fe508eaa7aaddcdde8c1e37dbb02fd8",
    "compare-1.0001-table": "1ae04cafbd91f1281c24ce46c6e081484b92a21412e4ce8f025829822604ce7a",
    "compare-1.0001-csv": "0421d6d6d14c75ef0155a4a9f6c57e3de8d17be609ac7968771a9952b7b677c7",
    "compare-1.0001-json": "f974c60379be5dfcd61adcc001b859736f614e779eab523e48cc58ee0e6074f2",
    "compare-1.00001-table": "0df5bf462b0561b66bf943318f7ce3b15dadeebe8df5eb52999bb84bf1dce36c",
    "compare-1.00001-csv": "66b8c4e9e36c26b15643055ea91db08d58efa9065f0fd33536ea94a882143a46",
    "compare-1.00001-json": "5c0772574afe5c7e229910c8cb221dbd70f520c558a0f40b0ee680570d327405",
}


class TestNearOneGoldenBytes:
    @pytest.mark.parametrize(
        "command, y, fmt",
        [
            pytest.param(c, y, f, id=f"{c}-{y}-{f}")
            for c in ("eval", "compare")
            for y in NEAR_ONE_YS
            for f in ("table", "csv", "json")
        ],
    )
    def test_output_digest(self, command, y, fmt, request):
        status, out = render([command, "--y", y, "--n", NEAR_ONE_NS, "--format", fmt])
        assert status == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == NEAR_ONE_DIGESTS[request.node.callspec.id]
