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

from _util import square_sum_reference, window_energy_reference


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

    @pytest.mark.parametrize(
        "sig", [Signature(0, 1), Signature(0, 2), Signature(2, 1), Signature(4, 1), Signature(0, 6)], ids=str
    )
    def test_prints_the_fixed_order_modulus_of_the_window_energy(self, tmp_path, capsys, sig):
        # xx_modulus is |x~.x| with its squares added one at a time from the
        # first, as the printed mu_bound used it, and so depends on no BLAS
        # kernel; xx_scalar is the scalar part of the same x~.x.
        rng = np.random.default_rng(67)
        taps = 3
        state = FilterState(
            weights=tuple(Multivector(sig, rng.uniform(-1.0, 1.0, sig.dim)) for _ in range(taps)),
            amplitudes=rng.uniform(0.5, 1.5, sig.dim),
        )
        path = tmp_path / "state.txt"
        save_state(state, "tanh", path)
        for _ in range(5):
            window = tuple(
                Multivector(sig, rng.standard_normal(sig.dim) * 10.0 ** rng.uniform(-3.0, 3.0, sig.dim))
                for _ in range(taps)
            )
            assert main(["bound", "--state", str(path), *map(format_multivector, window)]) == 0
            fields = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
            xx = window_energy_reference(window)
            assert float(fields["xx_modulus"]) == np.sqrt(square_sum_reference(xx))
            assert float(fields["xx_scalar"]) == xx[0]

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

    @pytest.mark.parametrize("extra,names", [
        (["--seed", "-1"], ["seed"]),
        (["--scale", "1e-310"], ["scale 1e-310", "radius 1.25"]),
    ], ids=["seed", "scale"])
    def test_rejected_inputs_print_one_error_line(self, extra, names, tmp_path):
        # A negative seed used to fail inside numpy with a message naming no
        # field, and a scale too small for the teacher's rescaling to reach
        # its radius ended in a traceback: at 1e-310 the factor would
        # overflow a double.
        out = tmp_path / "x.csv"
        proc = run_cli("train", "--steps", "20", "--out", str(out), *extra)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("hyperfir: error: "), proc.stderr
        assert all(name in lines[0] for name in names), lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("scale", ["1e-62", "1e-300"])
    def test_tiny_scale_trains(self, scale, tmp_path, capsys):
        # The teacher's factor doubles until the radius is reached, past
        # 2^199 for these scales, and stops only where a double overflows.
        out = tmp_path / "x.csv"
        assert main(["train", "--steps", "20", "--scale", scale, "--out", str(out)]) == 0
        assert "rows: 20" in capsys.readouterr().out.splitlines()
        assert len(out.read_text().splitlines()) == 21

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
#: 2.4.6 and its OpenBLAS 0.3.31 on x86-64, and the same under the SkylakeX,
#: Haswell and Zen kernels: a training row sums its squares in a fixed order
#: and its gemvs take a layout those kernels round alike.  numpy's vectorised
#: tanh and the Sandybridge and Prescott gemv kernels round differently.  The
#: last field is the CSV digest a case was first recorded with, before the
#: training rows moved to right-multiplication matrices; it names the test, so
#: that re-recording a digest does not rename the test.
TRAIN_DIGESTS = [
    ("0,1", "shafa", "ar4",
     "c82ef64ce7a4e4a075c35a265397e4697cd069dd8445f7fafcd3686fa95fdd31",
     "e325b6b07410ee4f2ae066bd63d5b3e649d285f1205e42c0a24f3c3e5f914b58",
     "3f1a1a452ae5906841fa973f0777fadf1b0a7f4cd81e3f8337d1491d0bc93bdb"),
    ("0,1", "shafa", "teacher",
     "1b7657f0ab71ba35ec921fd9a39b8c6ff8aab9e854cc27277520e0692aa5d831",
     "c3964565d031fb536ee3747a50144eec3fecb193d9df2240234ecf74817cc3c3",
     "01b4b81e6f04c570f62b982da836379d9a9aee7d65c9d2df4347c5f75954766f"),
    ("0,1", "aashafa", "ar4",
     "9fcc41140f15bc0d5c92818a1cfa51a0e59781507a44f92472845e5d5784f2af",
     "4fb76344734bee151d50255b24083a6d2ece127332bf8cb67e07a58d2873190f",
     "cda64d53a4df85be40be42079c7592e7350e4b83d77c854f856890745712de00"),
    ("0,1", "aashafa", "teacher",
     "d0c32553006e894c92023351987a19e1d33839619933e427cb2fc5073d333eac",
     "60da164f2a10165c595a9cba1e1d04a30af388030f70dcc9d588829bb7b27771",
     "c6ef6c0f13ebec14ad1c9e681f87b75126c64baedcfca2c4a87194b094bb32c2"),
    ("0,2", "shafa", "ar4",
     "327ecc00a5b74118cc2055c93d336ee57c77f1cc3af009eae60c543bc8f90228",
     "a084f0b3d8c82833b095c1b2a244ce78ab2a8a72658c2a0ce19a2f89ce288660",
     "197fc98181f8b51a835f7485253c67c9c49099e28836d32e8d2cdb1fbd65463d"),
    ("0,2", "shafa", "teacher",
     "008656ed7db46e561ded5ad1a29204fdfe8963fbf40ce0a6e50319ec30e05f79",
     "8719d4f9e5228abf48dbbc52d3ee980bd46045dcb1e0857b702430e9d0afde4e",
     "1fd272ca63c6aafd9d29251b380b370713a1a4b6af4989e922e613da998151db"),
    ("0,2", "aashafa", "ar4",
     "0b14e0e088fc4fae1f7909cd70c2be7f5712e7ea77edb841e28cc8fa3382a683",
     "b299da5f89ed115dbff1ce132d63d8631eac7012c7605362e3a7ff87c9ce3269",
     "111d27b3fdace656c103824e8f7970f3aff2715e6a095ec4726806c6999cd72e"),
    ("0,2", "aashafa", "teacher",
     "c377ff4981bdb07fdc4f96941453a4673dbf3c86dc073cd0e659c267a8cd4076",
     "1aaf6be5937f1346d25dff81a9e3093094210ad6cddb5105b49472fbe2db2208",
     "d625ad067820a0fa4c6f8666e61533659c83928ab17e1f38c85ed3dcc9fc7037"),
    ("2,1", "shafa", "ar4",
     "70f3e69e537638615e1e26508478333a986d515af22cb0192d3160788ca618fa",
     "bfd50731b01a92aed9e881355412ff1d23363810544cc434105ede947432567f",
     "745007f58f35ff29baf8304c1c4370d293bb4f598e105ffd5282d6ed3e434145"),
    ("2,1", "shafa", "teacher",
     "18da37c52d35fcaafe3a950bef69d3eb8a67c68c93f5c079d3e0a9cd83eec906",
     "f1bb04b5bc43af83cb220a3918a9b5a12821c7ae2a3e089493e327549e8b53b0",
     "636fb3d7703b2175f0fe6fe9de74414f669339abbb83717a8e971019937e3cd4"),
    ("2,1", "aashafa", "ar4",
     "4fa50899071ea0900e6d8c591f20085fc5729f2715fac8205af380379b7f4d3a",
     "902c8ca965ce5ca5fe665660c06381b4e9e675c6494aa48fb6ca8f4486c17181",
     "36b8a35962d2e7005c7af3dedeafbc7ecefec3c2bcdce5824f916ab1c4938923"),
    ("2,1", "aashafa", "teacher",
     "3ade0116052b072ccaff9e46d2c39fb9ccc1a116a79a98c85ef2c2b11b0714fb",
     "21a15f2483581c29a58a43efc8e2104ceb320b62e345a3d366d10af7ad043cef",
     "f41a26e7c493622e165a6849574ae1a2b741dd9fd2e498cf8465360a04e12a47"),
    ("4,1", "shafa", "ar4",
     "abe36e579a3b6c696f68e803aee4f1e7940a3e0ef3657fbdfd91b25fb0a9ef6f",
     "1d279b541664f295489057a1487592f365e841d0d8635c865b5bbe2f5650dbdb",
     "0b83f019a5685486ea077e158284ca9bebbdf18d139967d9c592d8c3d1a0ccc7"),
    ("4,1", "shafa", "teacher",
     "3a52b3eff757759fa8f02d9ebdfdb32dd308694aa8ff62bdf471a84c634369aa",
     "3664b5f5c6dd4f2975bb2c2aa5cce7d8a34a966215fd934fb34b79dba74c5696",
     "aa8d07a449d6410e3b97a5215406d25625e2c2acabe7ac6b83ed9624e2ffe68d"),
    ("4,1", "aashafa", "ar4",
     "8ed5fcc2f8582452bbdf96cce83a1d28bf72f550b0bbc5bce516f3151ec80763",
     "83d0d372918a0ef864894515afa8a34fdd5fda28f0ca29cae55b4bd4fa21ab5b",
     "c77e57cc88d2544fa5bdd2a351ecb58e7ae91b4ffc120c4543fefdd3c76a0e08"),
    ("4,1", "aashafa", "teacher",
     "0954bd243677c2ce259a41cf0df9d327edd8ceb62aba587470c38ceb7df63018",
     "e6aad54f6d5174ae7567b16ad5f0d09629bbc07922d4a46d5ba2087b519ab6ae",
     "fa0dc3c22b59f730d394362d7e64bd88c3a401d4c913ca8760862600bc85a9fa"),
    ("0,6", "shafa", "teacher",
     "da0793d92a02e2cfdb9349f39427d8a1a21b08ee42f5e896f08711e11e43cf5f",
     "a01bb221a70f06390074fec2e19a33eca48cc45a2cb5f5794173fbf5b3423372",
     "64e471eea0574776dafd6fd69d57a760b18025b0deeda31b4959fe64f9dd7224"),
    ("0,6", "aashafa", "teacher",
     "feb9afdf006629309318751a55184e637ac4edacb8cbdfbd8896964ec014d606",
     "3daedb487760ab5ecefaed4617e409836c3b022d5d1df9302376cc4e6115d154",
     "ff7333ef7fabff9b3998d02fe6b797bc79f9a6bea054a0f3e20aee1f578f480f"),
    ("3,0", "shafa", "teacher",
     "6ec8dab747fce9c872dbecb684d90fab472b3efa8f0dcd9d482acdac25d936d5",
     "1b0e91b7bc4378d4eaf6b766e4478a28d6363149cf371a3ebd7a20ec62ad91a7",
     "f2b26d00e0a84d5d4e12ba3f77311038a78bd8ac284f7c341bf9032ffaabc4a5"),
    ("3,0", "aashafa", "teacher",
     "d2e393990f762224d3040126518765a15bd59b6a7c6b45cfe38dce304a5d39c2",
     "dec77363f9a7490cd59b5e2b3cc5a58fdb342b7cc3195284ede80379b492373a",
     "d08be1f537d5517f286df4e980205ed2b40eff15d75eaf889c9445cee9f72925"),
]


def _digest_cases(table):
    # One case per row of a digest table, named by its fields up to the
    # digests and then its first-recorded CSV digest.
    return [pytest.param(*case[:-1], id="-".join(case[:-3] + case[-1:])) for case in table]


@pytest.mark.parametrize("pq,algo,signal,csv_sha,stdout_sha", _digest_cases(TRAIN_DIGESTS))
def test_train_output_bytes_pinned(pq, algo, signal, csv_sha, stdout_sha, tmp_path, capsys):
    # Any change to the arithmetic of a training row shows up in these bytes.
    p, q = pq.split(",")
    out = tmp_path / "run.csv"
    code = main(["train", "--p", p, "--q", q, "--algo", algo, "--signal", signal,
                 "--steps", "200", "--taps", "3", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha


#: (p,q, algo, signal, taps, steps, csv sha256, stdout sha256, first-recorded
#: csv sha256): more taps, an eight-sample window at n = 6, and Cl(5,4), whose
#: dense products run as block products on the ideal frame.
TRAIN_DIGESTS_WIDE = [
    ("0,6", "shafa", "ar4", "4", "200",
     "9afa6164d6e11c709cbc8cb2527afd92f19f46d8ced361da45ef25913df77ef4",
     "11f59e8ec34e43b040788b395843a370232e9353650435792dd1b38d8313889d",
     "10a5c7db416a70138229e1a2eed06ecd6ad85f8f8b51f1eaf2a978fb79cb86fb"),
    ("1,1", "aashafa", "teacher", "4", "200",
     "7688f8ecc4d16854b8272505f528bd40b7418f9dc522e3d2594e666300091e03",
     "19e5c90192f4e4a72c1e9c4a1afebe364b50c03a8593eff55299d8cd8300fff3",
     "336ab1cd9a5ac0f0ddffea4613aa791916f37b4571524eaced72f6c6250c2f0a"),
    ("5,4", "shafa", "ar4", "2", "40",
     "24cdf422485a9e8fbb1c46e5d47aceb55e7ac8e953914909b27a0e89c6c042a0",
     "1dc1c842f90b46c56d0f15829a207a0a5851ee54f8aa406c9d9f22ca5aa19735",
     "ca025ab0ed5660b708a964da7d5dc16970cd867319c3e8f6e31acb568b448303"),
]


@pytest.mark.parametrize("pq,algo,signal,taps,steps,csv_sha,stdout_sha", _digest_cases(TRAIN_DIGESTS_WIDE))
def test_train_output_bytes_pinned_wide(pq, algo, signal, taps, steps, csv_sha, stdout_sha, tmp_path, capsys):
    p, q = pq.split(",")
    out = tmp_path / "run.csv"
    code = main(["train", "--p", p, "--q", q, "--algo", algo, "--signal", signal,
                 "--steps", steps, "--taps", taps, "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
