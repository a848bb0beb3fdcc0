"""Command-line interface: subcommands, exit codes, deterministic output."""

import hashlib
import subprocess
import sys

import numpy as np
import pytest

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

    @pytest.mark.parametrize("literal", ["0,1:[3,,4,]", "0,2:[1,,2,3,4]"])
    def test_empty_field_rejected(self, literal, capsys):
        assert main(["algebra", "--op", "modulus", literal]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "empty field" in captured.err


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

    def test_negative_step_exit_code(self, tmp_path, capsys):
        sig = Signature(0, 2)
        state = FilterState(weights=(Multivector.scalar(sig, 1.0),), amplitudes=np.ones(4))
        path = tmp_path / "state.txt"
        save_state(state, "tanh", path)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(["0,2,1,tanh,-5"] + lines[1:]) + "\n", encoding="utf-8")
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

    def test_lambda_ok_false_when_amplitude_bound_violated(self, tmp_path, capsys):
        # fixed mu = 50 drives the amplitude ratio far past 1 without diverging
        code = main([
            "train", "--p", "0", "--q", "3", "--taps", "3", "--mu", "50", "--signal", "ar4",
            "--steps", "400", "--seed", "5", "--out", str(tmp_path / "run.csv"),
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("max_lambda_ratio: "))
        assert float(lines[i].split(": ")[1]) > 1.0
        assert lines[i + 1] == "lambda_ok: false"
        assert "diverged: false" in lines

    def test_lambda_ok_true_on_default_run(self, tmp_path, capsys):
        assert main(["train", "--steps", "400", "--out", str(tmp_path / "run.csv")]) == 0
        lines = capsys.readouterr().out.splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("max_lambda_ratio: "))
        assert float(lines[i].split(": ")[1]) < 1.0
        assert lines[i + 1] == "lambda_ok: true"

    def test_usage_error_exit_code(self):
        proc = run_cli("train", "--steps", "50")  # missing --out
        assert proc.returncode == 1
        proc = run_cli("train", "--algo", "nonsense", "--out", "x.csv")
        assert proc.returncode == 1

    def test_invalid_values_exit_code(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["train", "--steps", "0", "--out", str(out)]) == 1  # too short
        assert main(["train", "--p", "9", "--q", "9", "--out", str(out)]) == 1  # p+q cap

    def test_teacher_shorter_than_its_taps_exit_code(self, tmp_path, capsys):
        # --steps 1 with one tap gives a 2-sample signal for a 4-tap teacher.
        out = tmp_path / "x.csv"
        assert main(["train", "--taps", "1", "--steps", "1", "--out", str(out)]) == 1
        assert "teacher_taps" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--signal", "ar4", "--noise", "nan"],
        ["--mu", "nan"],
        ["--algo", "aashafa", "--rho", "nan"],
        ["--scale", "nan"],
    ], ids=["noise", "mu", "rho", "scale"])
    def test_non_finite_values_exit_code(self, extra, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["train", "--steps", "20", "--out", str(out), *extra]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

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


#: sha256 of the CSV file and of stdout of `hyperfir train --steps 200 --taps 3`
#: at the default seed, per (p,q), algorithm and signal.  Recorded with numpy
#: 2.4.6 on x86-64 (AVX-512); numpy's vectorised tanh and the BLAS kernels
#: may round differently on other builds and CPUs.
TRAIN_DIGESTS = [
    ("0,1", "shafa", "ar4",
     "3f1a1a452ae5906841fa973f0777fadf1b0a7f4cd81e3f8337d1491d0bc93bdb",
     "e325b6b07410ee4f2ae066bd63d5b3e649d285f1205e42c0a24f3c3e5f914b58"),
    ("0,1", "shafa", "teacher",
     "01b4b81e6f04c570f62b982da836379d9a9aee7d65c9d2df4347c5f75954766f",
     "b126aaf0171863851c85de72757eae119e44efc112a30df8bdd550e55128d9bf"),
    ("0,1", "aashafa", "ar4",
     "cda64d53a4df85be40be42079c7592e7350e4b83d77c854f856890745712de00",
     "3ed31141151d7b2a3104a9c67c835b022d8dfda2520748114e7d73e6d5a391ad"),
    ("0,1", "aashafa", "teacher",
     "c6ef6c0f13ebec14ad1c9e681f87b75126c64baedcfca2c4a87194b094bb32c2",
     "60da164f2a10165c595a9cba1e1d04a30af388030f70dcc9d588829bb7b27771"),
    ("0,2", "shafa", "ar4",
     "197fc98181f8b51a835f7485253c67c9c49099e28836d32e8d2cdb1fbd65463d",
     "dc04fcbc735b2d1ab2b9f284b68b084fd52384b8b5a74860932b0d7a259ca37a"),
    ("0,2", "shafa", "teacher",
     "1fd272ca63c6aafd9d29251b380b370713a1a4b6af4989e922e613da998151db",
     "da22243eb8d5c90cdecf84703131eb100cc347faf73cb026d509e9234d1100d0"),
    ("0,2", "aashafa", "ar4",
     "111d27b3fdace656c103824e8f7970f3aff2715e6a095ec4726806c6999cd72e",
     "ff4982a9a392d8f0b33b85e8d8a1aa6949fd2938ce2f9716f89db0c9fe2902aa"),
    ("0,2", "aashafa", "teacher",
     "d625ad067820a0fa4c6f8666e61533659c83928ab17e1f38c85ed3dcc9fc7037",
     "06715d7ec05ef9cc8c44838feb999f039ffd514da02e19e247ae600c5183f1ed"),
    ("2,1", "shafa", "ar4",
     "745007f58f35ff29baf8304c1c4370d293bb4f598e105ffd5282d6ed3e434145",
     "62cd4084802ef0895cca6cb618b8ab6a3058c21b4538e755e82d2b1bd5a6b9f8"),
    ("2,1", "shafa", "teacher",
     "636fb3d7703b2175f0fe6fe9de74414f669339abbb83717a8e971019937e3cd4",
     "f2b551eb81f99ea5cae55104552b02194a3282d0ed5b5651ed91a1c043843ace"),
    ("2,1", "aashafa", "ar4",
     "36b8a35962d2e7005c7af3dedeafbc7ecefec3c2bcdce5824f916ab1c4938923",
     "774ac1a762867b6fcf2a1a06778d5c2f4ca8bcd03a2d013f2fb9342e9ef0e560"),
    ("2,1", "aashafa", "teacher",
     "f41a26e7c493622e165a6849574ae1a2b741dd9fd2e498cf8465360a04e12a47",
     "0ea6ba3e7d75f8396da0547afd99bf4563ed3561f2927ef2905aa9e481f1f3b9"),
    ("4,1", "shafa", "ar4",
     "0b83f019a5685486ea077e158284ca9bebbdf18d139967d9c592d8c3d1a0ccc7",
     "1d279b541664f295489057a1487592f365e841d0d8635c865b5bbe2f5650dbdb"),
    ("4,1", "shafa", "teacher",
     "aa8d07a449d6410e3b97a5215406d25625e2c2acabe7ac6b83ed9624e2ffe68d",
     "7dabd80de70ddec05b4b694021604e37e7e5915a3160211d2f118f3b0e781fd7"),
    ("4,1", "aashafa", "ar4",
     "c77e57cc88d2544fa5bdd2a351ecb58e7ae91b4ffc120c4543fefdd3c76a0e08",
     "b6a94a12041c2463b16ee6d706b98500637941ecb11ef56afd7985716d818362"),
    ("4,1", "aashafa", "teacher",
     "fa0dc3c22b59f730d394362d7e64bd88c3a401d4c913ca8760862600bc85a9fa",
     "e2656a8d034f8ff55a0dc08ed714ca2584d304a1c6313294dbe0b4234311d050"),
    ("0,6", "shafa", "teacher",
     "64e471eea0574776dafd6fd69d57a760b18025b0deeda31b4959fe64f9dd7224",
     "68457a092cefbe48c11d5993ab67e23cb0a7a95d5781fc0c9195fe329fb71c98"),
    ("0,6", "aashafa", "teacher",
     "ff7333ef7fabff9b3998d02fe6b797bc79f9a6bea054a0f3e20aee1f578f480f",
     "f4dcd66f7afb9c616006663053b1665de779395989b573baf0e82f929facb7b4"),
    ("3,0", "shafa", "teacher",
     "f2b26d00e0a84d5d4e12ba3f77311038a78bd8ac284f7c341bf9032ffaabc4a5",
     "bc231eb1f6b5c30e2226d8a42b2aac0735c592c59d59fac6757055d2bd9fa2d7"),
    ("3,0", "aashafa", "teacher",
     "d08be1f537d5517f286df4e980205ed2b40eff15d75eaf889c9445cee9f72925",
     "dec77363f9a7490cd59b5e2b3cc5a58fdb342b7cc3195284ede80379b492373a"),
]


@pytest.mark.parametrize("pq,algo,signal,csv_sha,stdout_sha", TRAIN_DIGESTS)
def test_train_output_bytes_pinned(pq, algo, signal, csv_sha, stdout_sha, tmp_path, capsys):
    # Any change to the arithmetic of a training row shows up in these bytes.
    p, q = pq.split(",")
    out = tmp_path / "run.csv"
    code = main(["train", "--p", p, "--q", q, "--algo", algo, "--signal", signal,
                 "--steps", "200", "--taps", "3", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha


#: (p,q, algo, signal, taps, steps, csv sha256, stdout sha256): more taps, an
#: eight-sample window at n = 6, and Cl(5,4) on the split product path.
TRAIN_DIGESTS_WIDE = [
    ("0,6", "shafa", "ar4", "4", "200",
     "10a5c7db416a70138229e1a2eed06ecd6ad85f8f8b51f1eaf2a978fb79cb86fb",
     "c4fcf76aed6acc28f16196e96c155620984080b43fc22681da178d1eda3fb9f8"),
    ("1,1", "aashafa", "teacher", "4", "200",
     "336ab1cd9a5ac0f0ddffea4613aa791916f37b4571524eaced72f6c6250c2f0a",
     "05cb04b5673a769e6ffd4690a6cd8df9a641f88f360d7a1f303f1a117938edeb"),
    ("5,4", "shafa", "ar4", "2", "40",
     "ca025ab0ed5660b708a964da7d5dc16970cd867319c3e8f6e31acb568b448303",
     "030a6a330741f6a9e20cf3ec5d2d83dd99df59e6204c7086d45a1d2feda40d4e"),
]


@pytest.mark.parametrize("pq,algo,signal,taps,steps,csv_sha,stdout_sha", TRAIN_DIGESTS_WIDE)
def test_train_output_bytes_pinned_wide(pq, algo, signal, taps, steps, csv_sha, stdout_sha, tmp_path, capsys):
    p, q = pq.split(",")
    out = tmp_path / "run.csv"
    code = main(["train", "--p", p, "--q", q, "--algo", algo, "--signal", signal,
                 "--steps", steps, "--taps", taps, "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
