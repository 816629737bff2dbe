import pathlib
import shlex
import socket
import subprocess
import sys

import braidauth.braid as braid_module
import braidauth.protocol as P
import braidauth.wire as W
from braidauth.cli import _verifier_of, build_parser, main
from braidauth.netpair import VerifierServer
from braidauth.rng import DeterministicRng
from braidauth.sampling import SamplerConfig
from conftest import faulty_verifier_frames, one_frame_verifier


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------

def test_keygen_writes_deterministic_files(tmp_path, capsys):
    args = [
        "keygen", "--scheme", "1", "--n", "8", "--r", "2", "--s", "3",
        "--len", "16", "--seed", "7", "--out", str(tmp_path / "k"),
    ]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    first_pub = (tmp_path / "k.pub").read_text()
    first_sec = (tmp_path / "k.sec").read_text()
    assert first_pub.startswith("scheme = 1\nn = 8\nr = 2\ns = 3\nX = ")
    assert first_sec.startswith("scheme = 1\nn = 8\na = ")

    code, _, _ = run_cli(args, capsys)
    assert code == 0
    assert (tmp_path / "k.pub").read_text() == first_pub
    assert (tmp_path / "k.sec").read_text() == first_sec


def test_keygen_exponent_flags_are_two_spellings_for_either_scheme(tmp_path, capsys):
    for scheme, names in (("1", "rs"), ("2", "ef")):
        files = []
        for first, second in (("--r", "--s"), ("--e", "--f")):
            prefix = str(tmp_path / f"k{scheme}{first}")
            code, _, _ = run_cli(
                ["keygen", "--scheme", scheme, "--n", "8", first, "5", second, "7",
                 "--len", "16", "--seed", "1", "--out", prefix],
                capsys,
            )
            assert code == 0
            files.append([pathlib.Path(prefix + ext).read_text() for ext in (".pub", ".sec")])
        assert files[0] == files[1]
        assert f"\n{names[0]} = 5\n{names[1]} = 7\n" in files[0][0]


def test_keygen_rejects_bad_exponent(tmp_path, capsys):
    code, _, err = run_cli(
        ["keygen", "--scheme", "1", "--n", "8", "--r", "1", "--s", "3",
         "--len", "16", "--seed", "7", "--out", str(tmp_path / "k")],
        capsys,
    )
    assert code == 2
    assert "r must be an int >= 2" in err


def test_keygen_rejects_odd_n(tmp_path, capsys):
    code, _, err = run_cli(
        ["keygen", "--scheme", "2", "--n", "7", "--len", "16",
         "--seed", "7", "--out", str(tmp_path / "k")],
        capsys,
    )
    assert code == 2
    assert "even" in err


def test_key_commands_refuse_fewer_than_four_strands(tmp_path, capsys):
    # Two strands leave each strand block without a generator, so every key
    # braid would be the identity.
    for argv in (["keygen", "--out", str(tmp_path / "k")], ["run-local"]):
        code, _, err = run_cli([*argv, "--n", "2", "--len", "8", "--seed", "1"], capsys)
        assert code == 2
        assert err == "braidauth: n must be an even int >= 4, got 2\n"
    assert not list(tmp_path.iterdir())


def test_keygen_io_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["keygen", "--scheme", "1", "--n", "4", "--len", "8", "--seed", "1",
         "--out", str(tmp_path / "nosuchdir" / "k")],
        capsys,
    )
    assert code == 3
    assert "cannot write" in err


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    base = ["keygen", "--scheme", "1", "--n", "8", "--len", "16",
            "--seed", "1", "--out", str(tmp_path / "a")]
    run_cli(base, capsys)
    monkeypatch.setenv("BRAIDAUTH_SEED", "2")
    run_cli(["keygen", "--scheme", "1", "--n", "8", "--len", "16",
             "--seed", "1", "--out", str(tmp_path / "b")], capsys)
    monkeypatch.delenv("BRAIDAUTH_SEED")
    run_cli(["keygen", "--scheme", "1", "--n", "8", "--len", "16",
             "--seed", "2", "--out", str(tmp_path / "c")], capsys)
    a = (tmp_path / "a.pub").read_text()
    b = (tmp_path / "b.pub").read_text()
    c = (tmp_path / "c.pub").read_text()
    assert a != b
    assert b == c


def test_non_integer_seed_env_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BRAIDAUTH_SEED", "x1")
    code, _, err = run_cli(["keygen", "--n", "8", "--len", "16", "--out", str(tmp_path / "k")],
                           capsys)
    assert code == 2
    assert err == "braidauth: BRAIDAUTH_SEED must be an integer, got 'x1'\n"
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# run-local
# ---------------------------------------------------------------------------

def test_run_local_accepts_and_is_deterministic(capsys):
    args = ["run-local", "--scheme", "1", "--n", "8", "--len", "16",
            "--rounds", "3", "--seed", "5"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    lines = out1.strip().splitlines()
    assert lines[-1] == "ACCEPTED"
    assert len(lines) == 4
    assert all(line.endswith("verdict=1") for line in lines[:-1])
    code, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_run_local_scheme2(capsys):
    code, out, _ = run_cli(
        ["run-local", "--scheme", "2", "--n", "8", "--e", "2", "--f", "3",
         "--len", "16", "--rounds", "5", "--seed", "5"],
        capsys,
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "ACCEPTED"
    assert len(out.strip().splitlines()) == 6


def test_run_local_rejects_zero_rounds(capsys):
    code, _, err = run_cli(
        ["run-local", "--scheme", "1", "--n", "4", "--len", "8",
         "--rounds", "0", "--seed", "5"],
        capsys,
    )
    assert code == 2
    assert err == "braidauth: rounds must be an int >= 1, got 0\n"


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

def test_attack_rejects_bad_trials_and_bound(capsys):
    for argv, message in (
        (["--strategy", "random", "--n", "4", "--len", "8", "--trials", "0"],
         "trials must be an int >= 1, got 0"),
        (["--strategy", "root", "--n", "3", "--len", "2", "--bound", "-1"],
         "root_bound must be an int >= 0, got -1"),
    ):
        code, _, err = run_cli(["attack", *argv], capsys)
        assert code == 2
        assert err == f"braidauth: {message}\n"


def test_attack_random_strategy(capsys):
    code, out, _ = run_cli(
        ["attack", "--strategy", "random", "--trials", "50", "--n", "8",
         "--len", "16", "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert "random" in out
    assert " 50 " in out.replace("\n", " ")
    row = [line for line in out.splitlines() if "random" in line][0]
    assert row.split()[2] == "0"


def test_attack_root_toy_parameters(capsys):
    code, out, _ = run_cli(
        ["attack", "--strategy", "root", "--n", "3", "--len", "2",
         "--trials", "20", "--seed", "5"],
        capsys,
    )
    assert code == 0
    row = [line for line in out.splitlines() if "root" in line][0]
    columns = row.split()
    assert columns[1] == "20" and columns[2] == "20"
    assert "n=3 L=2" in out


def test_attack_split_strategy(capsys):
    code, out, _ = run_cli(
        ["attack", "--strategy", "split", "--n", "8", "--len", "16",
         "--trials", "10", "--seed", "5"],
        capsys,
    )
    assert code == 0
    row = [line for line in out.splitlines() if line.startswith("split")][0]
    assert row.split()[1:3] == ["10", "10"]


def test_attack_report_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code, _, _ = run_cli(
        ["attack", "--strategy", "replay", "--trials", "20", "--n", "8",
         "--len", "16", "--seed", "3", "--report-out", str(out_path)],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    assert "strategy = replay" in text
    assert "successes = 0" in text


# ---------------------------------------------------------------------------
# prove / verify-serve over localhost
# ---------------------------------------------------------------------------

def test_prove_against_served_verifier(tmp_path, capsys):
    run_cli(
        ["keygen", "--scheme", "1", "--n", "8", "--r", "2", "--s", "2",
         "--len", "16", "--seed", "9", "--out", str(tmp_path / "k")],
        capsys,
    )
    run_cli(
        ["keygen", "--scheme", "1", "--n", "8", "--r", "2", "--s", "2",
         "--len", "16", "--seed", "10", "--out", str(tmp_path / "other")],
        capsys,
    )
    server = VerifierServer(rounds=2, word_length=16, seed=4)
    server.start()
    host, port = server.address
    try:
        code, out, _ = run_cli(
            ["prove", "--pub", str(tmp_path / "k.pub"), "--sec", str(tmp_path / "k.sec"),
             "--host", host, "--port", str(port)],
            capsys,
        )
        assert code == 0
        assert out.strip().splitlines()[-1] == "ACCEPTED"

        code, out, _ = run_cli(
            ["prove", "--pub", str(tmp_path / "k.pub"), "--sec", str(tmp_path / "other.sec"),
             "--host", host, "--port", str(port)],
            capsys,
        )
        assert code == 1
        assert out.strip().splitlines()[-1] == "REJECTED"

        code, _, err = run_cli(
            ["prove", "--pub", str(tmp_path / "k.pub"), "--sec", str(tmp_path / "missing"),
             "--host", host, "--port", str(port)],
            capsys,
        )
        assert code == 3
    finally:
        server.stop()


def test_prove_network_failure_exit_code(tmp_path, capsys):
    run_cli(
        ["keygen", "--scheme", "1", "--n", "4", "--len", "8", "--seed", "9",
         "--out", str(tmp_path / "k")],
        capsys,
    )
    # a closed port: connection refused
    code, _, err = run_cli(
        ["prove", "--pub", str(tmp_path / "k.pub"), "--sec", str(tmp_path / "k.sec"),
         "--host", "127.0.0.1", "--port", "1"],
        capsys,
    )
    assert code == 4


def test_prove_refuses_malformed_key_files_as_usage_errors(tmp_path, capsys):
    run_cli(
        ["keygen", "--scheme", "1", "--n", "8", "--len", "16", "--seed", "9",
         "--out", str(tmp_path / "k")],
        capsys,
    )
    good = (tmp_path / "k.pub").read_text()
    x_line = next(line for line in good.splitlines() if line.startswith("X = "))
    for bad in (good.replace("n = 8", "n = eight"), good.replace(x_line, "X = not-hex")):
        (tmp_path / "bad.pub").write_text(bad)
        # The key files are read before any connection, so the port is never dialed.
        code, _, err = run_cli(
            ["prove", "--pub", str(tmp_path / "bad.pub"), "--sec", str(tmp_path / "k.sec"),
             "--port", "1"],
            capsys,
        )
        assert code == 2
        assert err.startswith("braidauth: ")


def test_prove_exits_4_when_the_verifier_breaks_the_protocol(tmp_path, capsys):
    run_cli(
        ["keygen", "--scheme", "1", "--n", "8", "--len", "16", "--seed", "9",
         "--out", str(tmp_path / "k")],
        capsys,
    )
    for msg_type, payload in faulty_verifier_frames():
        host, port = one_frame_verifier(msg_type, payload)
        code, _, err = run_cli(
            ["prove", "--pub", str(tmp_path / "k.pub"), "--sec", str(tmp_path / "k.sec"),
             "--host", host, "--port", str(port)],
            capsys,
        )
        assert code == 4
        assert err.startswith("braidauth: bad frame from verifier: ")


def test_scheme_mismatch_is_network_error(tmp_path, capsys):
    run_cli(
        ["keygen", "--scheme", "1", "--n", "8", "--len", "16", "--seed", "9",
         "--out", str(tmp_path / "k")],
        capsys,
    )
    server = VerifierServer(rounds=1, word_length=8, seed=4, expect_scheme=2)
    server.start()
    host, port = server.address
    try:
        code, _, err = run_cli(
            ["prove", "--pub", str(tmp_path / "k.pub"), "--sec", str(tmp_path / "k.sec"),
             "--host", host, "--port", str(port)],
            capsys,
        )
        assert code == 4
        assert "error" in err
    finally:
        server.stop()


def first_challenge(serve_args, hello):
    """The first CHALLENGE payload a verifier configured as by
    ``verify-serve <serve_args>`` sends in answer to ``hello``."""
    server = _verifier_of(build_parser().parse_args(["verify-serve", *serve_args]))
    server.start()
    try:
        with socket.create_connection(server.address, timeout=10) as conn:
            W.send_frame(conn, W.MSG_HELLO, hello)
            msg_type, payload = W.recv_frame(conn)
    finally:
        server.stop()
    assert msg_type == W.MSG_CHALLENGE
    return payload


def test_verify_serve_refuses_bad_sampler_settings_before_listening(capsys):
    # --max-sessions 0 ends the listener at once, so a verifier that did
    # start would exit 0 here instead of hanging.
    for bad in (["--len", "-1"], ["--len", "0"], ["--len", "7"], ["--max-sessions", "-1"],
                ["--port", "70000"], ["--rounds", "65536"]):
        code, out, err = run_cli(["verify-serve", "--max-sessions", "0", *bad], capsys)
        assert code == 2
        assert "listening" not in out and "must be" in err


def test_verify_serve_challenges_differ_across_restarts_unless_seeded(monkeypatch):
    monkeypatch.delenv("BRAIDAUTH_SEED", raising=False)
    cfg = SamplerConfig(n=8, word_length=16, min_canonical_length=2, seed=3)
    hello = W.pack_hello(P.keygen1(cfg, 2, 2, DeterministicRng(3, "kg")).public)
    assert first_challenge([], hello) != first_challenge([], hello)
    assert first_challenge(["--seed", "5"], hello) == first_challenge(["--seed", "5"], hello)


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def test_selftest_passes(capsys):
    code, out, _ = run_cli(["selftest", "--n", "4", "--seed", "1"], capsys)
    assert code == 0
    assert "selftest passed" in out
    assert out.count("ok  ") == 18


def test_selftest_catches_a_broken_normalize(capsys, monkeypatch):
    # a mutated normalize that silently drops the last letter must be caught
    # by the relation-invariance property
    real_normalize = braid_module.normalize

    def broken(word):
        if len(word.letters) > 3:
            word = braid_module.BraidWord(word.n, word.letters[:-1])
        return real_normalize(word)

    monkeypatch.setattr(braid_module, "normalize", broken)
    monkeypatch.setattr("braidauth.selftest.B.normalize", broken, raising=False)
    code, out, _ = run_cli(["selftest", "--n", "4", "--seed", "1"], capsys)
    assert code == 1
    assert "FAIL relation-invariance" in out


def test_readme_cli_examples_parse():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    examples = [line for line in block.splitlines() if line.startswith("braidauth ")]
    assert examples
    for line in examples:
        build_parser().parse_args(shlex.split(line)[1:])


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

def test_module_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "braidauth", "run-local", "--scheme", "1",
         "--n", "4", "--len", "8", "--seed", "3"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().splitlines()[-1] == "ACCEPTED"


def test_usage_error_exit_code():
    for argv in (["keygen"], ["selftest", "--n", "4,x"], ["selftest", "--n", "1"],
                 ["keygen", "--out", "k", "--minlen", "3"],
                 ["attack", "--strategy", "random-digest"]):
        proc = subprocess.run(
            [sys.executable, "-m", "braidauth", *argv],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2
        assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
