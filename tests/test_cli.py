"""Command-line interface: subcommands, exit codes, deterministic output."""

import subprocess
import sys

import numpy as np

from hyperfir import (
    FilterState,
    Multivector,
    Signature,
    format_multivector,
    mu_bound,
    net_input,
    parse_multivector,
    save_state,
)
from hyperfir.cli import main


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "hyperfir.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


class TestAlgebraCommand:
    def test_product(self, capsys):
        # quaternion units: e1 * e2 = e12
        code = main(["algebra", "--op", "product", "0,2:[0, 1, 0, 0]", "0,2:[0, 0, 1, 0]"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert parse_multivector(out) == Multivector.basis_blade(Signature(0, 2), 0b11)

    def test_involution(self, capsys):
        code = main(["algebra", "--op", "involution", "0,2:[1, 2, 3, 4]"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert np.array_equal(parse_multivector(out).coeffs, [1.0, -2.0, -3.0, -4.0])

    def test_scalar(self, capsys):
        code = main(["algebra", "--op", "scalar", "0,2:[1, 2, 3, 4]", "0,2:[1, 0, 0, 0]"])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) == 1.0

    def test_operand_count_error(self, capsys):
        code = main(["algebra", "--op", "product", "0,2:[1, 0, 0, 0]"])
        assert code == 1

    def test_malformed_literal(self, capsys):
        assert main(["algebra", "--op", "involution", "nonsense"]) == 1


class TestBoundCommand:
    def test_prints_bound(self, tmp_path, capsys):
        sig = Signature(0, 2)
        state = FilterState(
            weights=(Multivector.scalar(sig, 1.0),),
            amplitudes=np.ones(4),
        )
        path = tmp_path / "state.txt"
        save_state(state, "identity", path)
        window = (Multivector.scalar(sig, 1.0),)
        code = main(["bound", "--state", str(path), format_multivector(window[0])])
        assert code == 0
        out = capsys.readouterr().out
        s = net_input(state.weights, window)
        from hyperfir import IDENTITY

        expect = mu_bound(window, s, IDENTITY, state.amplitudes)
        assert f"mu_bound: {expect:.17g}" in out

    def test_window_length_mismatch(self, tmp_path, capsys):
        sig = Signature(0, 2)
        state = FilterState(weights=(Multivector.scalar(sig, 1.0),) * 2, amplitudes=np.ones(4))
        path = tmp_path / "state.txt"
        save_state(state, "tanh", path)
        assert main(["bound", "--state", str(path), "0,2:[1, 0, 0, 0]"]) == 1

    def test_non_finite_amplitudes_exit_code(self, tmp_path, capsys):
        sig = Signature(0, 2)
        state = FilterState(weights=(Multivector.scalar(sig, 1.0),), amplitudes=np.ones(4))
        path = tmp_path / "state.txt"
        save_state(state, "tanh", path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1] + ["[nan, 1.0, inf, 1.0]"]) + "\n", encoding="utf-8")
        assert main(["bound", "--state", str(path), "0,2:[1, 0, 0, 0]"]) == 1
        assert "mu_bound" not in capsys.readouterr().out

    def test_missing_state_file(self, tmp_path, capsys):
        assert main(["bound", "--state", str(tmp_path / "absent.txt"), "0,2:[1, 0, 0, 0]"]) == 1


class TestTrainCommand:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = main([
            "train", "--p", "0", "--q", "2", "--taps", "2", "--steps", "50",
            "--signal", "ar4", "--seed", "3", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("step,E,mu_used,mu_bound,M,lambda_0")
        assert len(lines) == 51
        stdout = capsys.readouterr().out
        assert "final_mse:" in stdout and "diverged: false" in stdout

    def test_divergence_exit_code(self, tmp_path):
        out = tmp_path / "run.csv"
        code = main([
            "train", "--taps", "2", "--activation", "identity", "--mu", "50.0",
            "--signal", "ar4", "--steps", "200", "--seed", "0", "--out", str(out),
        ])
        assert code == 2

    def test_usage_error_exit_code(self):
        proc = run_cli("train", "--steps", "50")  # missing --out
        assert proc.returncode == 1
        proc = run_cli("train", "--algo", "nonsense", "--out", "x.csv")
        assert proc.returncode == 1

    def test_invalid_values_exit_code(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["train", "--steps", "0", "--out", str(out)]) == 1  # too short
        assert main(["train", "--p", "9", "--q", "9", "--out", str(out)]) == 1  # p+q cap

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "train", "--p", "0", "--q", "2", "--taps", "4", "--activation", "tanh",
            "--algo", "aashafa", "--rho", "0.01", "--steps", "120",
            "--signal", "teacher", "--scale", "2.0", "--seed", "9",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ra = run_cli(*args, "--out", str(a))
        rb = run_cli(*args, "--out", str(b))
        assert ra.returncode == 0 and rb.returncode == 0
        assert a.read_bytes() == b.read_bytes()
        assert ra.stdout == rb.stdout
