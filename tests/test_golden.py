"""Golden digests of ``simulate`` output: the seed -> output contract.

Every other determinism test compares the code with itself; these pin the
bytes.  A change that shifts the random stream (the bit generator, words
per trial, their order) or the sampling rule changes a digest.  The traced
sizes sit on both sides of the 65 536-trial chunk boundary and past the
second one; the counts-only sizes span 3 chunks (the last one partial) and
16 chunks, so they pin the multi-chunk counts path.  The remaining digests
pin the output of the commands that print the protocol's constants and its
basis and frame views; the call digests pin exit code, stdout and stderr
together, in every format and for failing calls.
"""

import hashlib

import pytest

from wigner_lab.cli import main

SEED = "2018"
SETTINGS = {
    "alternating": ["--policy", "alternating"],
    "biased:0.17": ["--policy", "biased:0.17"],
    "analytic": ["--mode", "analytic"],
}

# (setting, n) -> (sha256 of the --trace CSV, sha256 of the --format json stdout)
GOLDEN = {
    ("alternating", 65_535): (
        "628a4f3233465e7ab7d035572d8a20e530d562abc4a4a6b9524e34ddab64e6d8",
        "cdeb4468fb4e9d2fa8e8f6d82cb4499e7bf45647cb7afa50d0a907a2f331d879",
    ),
    ("alternating", 65_536): (
        "7568f0499bb10255bc089c7f5dbeebbd844d30a06db91ddaa0de532ee48dcc24",
        "69f10499304c7f043655a059175038fc6c90508c8b10eb300f47aff9b30fe308",
    ),
    ("alternating", 65_537): (
        "05ec18615d702313aa0d984d7814fbd1f875d37e2e12a4155b566255f9d40c8f",
        "8ebbe3360e1ac8c78701331b1ff6adffff3d97fc568b037f4566539982c3274c",
    ),
    ("alternating", 141_000): (
        "b8aa77d88e8428a67806201245f390c119f7b96b14ac8d4d2938bc0fbfe1faf8",
        "a2b079755c54d4cdd5db791030fa549d91641a56f5527700ff1fad382aaabb19",
    ),
    ("biased:0.17", 65_535): (
        "2707ab4911e808e799f65e898beabd9572e6768f0b3343af430ef2eedaa56e81",
        "2e8fccc8129d78a2d5fe93455c8d51eaa254ee9cc84e62a76765bd4da41735bc",
    ),
    ("biased:0.17", 65_536): (
        "8f6cc6f25eb5ac7abe2120436c03940a09e48e27177b262f1a8b5253ea647719",
        "8c3f09259c8fe873d8a303672a291a1ce56ba47fc3ba676851cac68f83bf378f",
    ),
    ("biased:0.17", 65_537): (
        "f62fd06d7569369058a6b37b51daa05b33a101ecfc6436690dbffd51d1fcb773",
        "3606bc9b42a96e81902a35df76d9ca1ab025de407cbb1dd8b45fccded06e4630",
    ),
    ("biased:0.17", 141_000): (
        "d464827dba65039c70b1b08baeb8be7fa1afe7371ae20f7a7d60450535968e45",
        "98bc573f8c52867edaa36dec92f529d997e20847284a4cfcf1f671ba38431497",
    ),
    ("analytic", 65_535): (
        "29417a16bb570376c33e2717ccd2b15985d145102df29f4c1b9edfeb7eab42c2",
        "9d58d6dd1b75a27cd11ecce45e986c72598a997e9c8b9e5e40316966977ee03b",
    ),
    ("analytic", 65_536): (
        "c3e2d01bcbcb750d8f2239e90440b97a579be43c19f86ac2699953d94a2f862a",
        "cd73e62b73dcf048e381c02e8dcc8fcceb0f560e1ab52153c58c7a29cad7026c",
    ),
    ("analytic", 65_537): (
        "62db963ba299496ddbcef13500ed32ea4673fe61e4b69c0f8fbe9bad45fefe8f",
        "0d580de5e2ada7593db3087de12ac0c2f114ca755e38b03d2a9603fd56b33ff4",
    ),
    ("analytic", 141_000): (
        "513ea7228811b5cdbb6030d3fe47f4ac652ecdb7b511c3374738d6373f8dadb0",
        "7379c959451fd584f658fe2062063bb06ac67c28f398b1d302d409b79056b072",
    ),
}


@pytest.mark.parametrize("setting, n", sorted(GOLDEN))
def test_trace_and_json_digests(capsys, tmp_path, setting, n):
    path = tmp_path / "trace.csv"
    argv = ["simulate", "-n", str(n), "--seed", SEED, *SETTINGS[setting], "--format", "json", "--trace", str(path)]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    trace_digest, json_digest = GOLDEN[(setting, n)]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == trace_digest
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == json_digest


COUNTS_SETTINGS = {
    "correct": ["--policy", "correct", "--check"],
    "uniform": ["--policy", "uniform", "--check"],
    "biased:0.17": ["--policy", "biased:0.17", "--check"],
    "alternating": ["--policy", "alternating"],
    "analytic": ["--mode", "analytic", "--check"],
}

# (setting, n) -> sha256 of the --format json stdout, without --trace
COUNTS_GOLDEN = {
    ("correct", 196_609): "986026e154f3c97b3173512bd5d8a9311942e5cdff88be3fe893df68322d4514",
    ("correct", 1_000_003): "a821e933a3e20888e3f8e0137927b96fe99b9ac3646cce06b45dce65dd491440",
    ("uniform", 196_609): "af39c5abe49ea7b8b0bf5474f4cbcabff2cb90b5fe82606550fdd6550d6f916c",
    ("uniform", 1_000_003): "0374d132993a95347b4e3c59cf28474ff0d1019a827e65074a187f45126f9013",
    ("biased:0.17", 196_609): "90a61e297bec1d6018dde4ddab5ad86b5e477eece3608ccc54f671e3a757d7b4",
    ("biased:0.17", 1_000_003): "eda24a0bc1ea51cdde707bb6de7596b05af574fddaf1544e88d73a0e3af3373d",
    ("alternating", 196_609): "a6a6763faec59c7355e03558fd7fc6018422390380af05fbb46bdb8493fea7c5",
    ("alternating", 1_000_003): "7d2ead1c867ee8f87ea32620698f6c1844b0a60ee09df4b9c2221f84f1766664",
    ("analytic", 196_609): "87ea509c407bd9c67c5e3d11fdc6d1df2bf444201a216f28bd8cb4c9534ff07b",
    ("analytic", 1_000_003): "52c8a24122c187fae6faddaca2aeab4e182f509674476aa5388d18c992ea3a2e",
}


@pytest.mark.parametrize("setting, n", sorted(COUNTS_GOLDEN))
def test_counts_json_digests(capsys, setting, n):
    argv = ["simulate", "-n", str(n), "--seed", SEED, *COUNTS_SETTINGS[setting], "--format", "json"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == COUNTS_GOLDEN[(setting, n)]


# argv -> sha256 of stdout; every command exits 0
COMMAND_GOLDEN = {
    ("verify", "--format", "json"): "77967b05a1660dcb03fa2a4e557630d5e60868172de7f3dcfcd1fb19592c523c",
    ("verify", "--format", "csv"): "2c037b7d170faf4f6cfd31135dfa7d462d2628d98abb770a7b6ab089ca687d28",
    ("verify",): "a3cc77f9f43ed4e9e7d8de5542b9f24ab96c758f7ca52dfc69a3eb8079672222",
    ("audit", "psi_AB", "--format", "json"): "290989ce105234bdca11321dc0f54770e94345347f630aad7d85717252f4e9d9",
    ("audit", "psi_ABht", "--format", "json"): "956e8f22c9ddb26172a5f7ef296eebe129afb031ce8e1c98d7fed11ceffbf024",
    ("audit", "psi_ABth", "--format", "json"): "cf429b6c009ed438020931082f14f999688f0b5af59eb60c052b96a915e1f3cb",
    ("states", "psi_AB", "--basis", "charlie", "--format", "json"): (
        "6f98e9fcfb4ee6539b89acb2efaced2e04de755533ffb2e31d1db19fa8818d0a"
    ),
    ("states", "psi_ABht", "--basis", "computational", "--format", "json"): (
        "98070137efae475a6e7d862a1b4142459c06a6d2006dfb9dd300e6342654f29c"
    ),
    # the substitution-frame views of every two-qubit named state
    ("states", "psi_AB", "--frame", "bs", "--format", "json"): (
        "1ebd1bed4a5300b0e24297a037c5ff51bd573fb124dd1a61f1843a2ec03e5f54"
    ),
    ("states", "psi_AB", "--frame", "as", "--format", "json"): (
        "726f42d3f14014e94d67bc62d5ea92a0690101fb3854fbf76b3deff2c7cecbc2"
    ),
    ("states", "psi_h0", "--frame", "bs", "--format", "json"): (
        "c9cf3d7996a7780b92c8767a9b1cf89eab7c65a9459889807932e1b28b4c9e44"
    ),
    ("states", "psi_h0", "--frame", "as", "--format", "json"): (
        "635024fca89886d870d3aac0a6f1e456297aacd93805aa98e7e7af0863b384ac"
    ),
    ("states", "psi_t01", "--frame", "bs", "--format", "json"): (
        "92f78d257cea664a2b53c16e9a78b7f5cef2cde94c5ecf6aee5b636f075d6b6a"
    ),
    ("states", "psi_t01", "--frame", "as", "--format", "json"): (
        "37b4017160e9c9dca3ebae0682b9419c9812dac6e9497f5af62d3b47ae501775"
    ),
    ("states", "psi_ABht", "--frame", "bs", "--format", "json"): (
        "b4166c1a02caaf32da013710adc7a3ee924d73a9de7ee1250f51fb53ad691306"
    ),
    ("states", "psi_ABht", "--frame", "as", "--format", "json"): (
        "6acb0928f30eb77e1ddd76ca8de95484746e1dd1b4a41d0cb79ed85fa237906a"
    ),
    ("states", "psi_ABth", "--frame", "bs", "--format", "json"): (
        "7b2f1c4730996b73f2d0ff9159687c475467bb8206dcc287152ae3a59f522df5"
    ),
    ("states", "psi_ABth", "--frame", "as", "--format", "json"): (
        "876613a7953373c604dd270a20c37cd6c6e268ae3c1f4d3759c896b97bc8912d"
    ),
    ("table", "--policy", "correct"): "863060d0a18d22c34fe09f7fe642851ae43feb74acb2e34c6cf5c2fc6e1cf04a",
    ("table", "--policy", "uniform"): "c2c38c894601fac90f2fd943a754a6f2b92ca4487aab46c41b9f3c88fbc6686a",
    ("table", "--policy", "biased:0.17"): "eac475257c9b71477068e61911dd0d35c725d777a602ea2c693bc344b96d9b3e",
    # the psi_t01 rows use p_t = 1 - P_HEADS, the value the aggregate uses
    ("table", "--policy", "correct", "--format", "json"): (
        "9949bafe0d3fd22a2fd728a4b538f9b10cc2da92640985fed6f4ec56cb5f235c"
    ),
    ("table", "--policy", "correct", "--format", "csv"): (
        "17b7c6b6250428457c3b0a12378b5815706c23ccabed475d4887819a52c1724b"
    ),
    ("table", "--policy", "uniform", "--format", "json"): (
        "4302f79d7037aa1b50bb7709a50fccaa089af812c1192478bdcea5720868782a"
    ),
    ("table", "--policy", "uniform", "--format", "csv"): (
        "278b792e659469cfa533fb660b67f4a0814931f3c2d0c0536356696fe80dfac5"
    ),
    ("table", "--policy", "biased:0.17", "--format", "json"): (
        "7633da403b4c7196ab3f3daf5c1cd653e733fa17a6cade5a8d1835a7366be6be"
    ),
    ("table", "--policy", "biased:0.17", "--format", "csv"): (
        "3e9b6ef167865e35971881e14a09c472bcc62a25e4b7174f31bbb9f559df2562"
    ),
}


@pytest.mark.parametrize("argv", sorted(COMMAND_GOLDEN), ids=" ".join)
def test_command_digests(capsys, argv):
    assert main(list(argv)) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == COMMAND_GOLDEN[argv]


def call_digest(argv, capsys, monkeypatch, tmp_path):
    """sha256 over one call's exit code, stdout and stderr, and the bytes of
    the ``--out`` file when there is one; run in ``tmp_path``, so a relative
    ``--out`` path appears the same in any checkout."""
    monkeypatch.chdir(tmp_path)
    code = main(list(argv))
    captured = capsys.readouterr()
    written = (tmp_path / argv[argv.index("--out") + 1]).read_text(encoding="utf-8") if "--out" in argv else ""
    return hashlib.sha256(f"{code}\0{captured.out}\0{captured.err}\0{written}".encode("utf-8")).hexdigest()


# argv -> call_digest; the pretty and csv output, the failing checks and the
# synth calls that COMMAND_GOLDEN, which holds exit-0 stdout only, leaves out
CALL_GOLDEN = {
    ("states", "psi_A"): "f29f730a4f848c24f42059e47db0ce20c0176ac2c267ff5bfdea924b4c90c81e",
    ("states", "psi_AB"): "a061895713513d3fdcd77482b65c319c38668b724bdf0cc2ab689ddd7fc224f8",
    ("states", "psi_AB", "--basis", "charlie"): "5cf133c118819585aec5ebb476bfb5ba6256020a29dc1e69385c9431a16c5281",
    ("states", "psi_ABht", "--frame", "bs"): "b46869b95929f432f9ce6add4c1fca8bf5ad3127c74f786087480e8148d77cc7",
    ("states", "psi_ABth", "--frame", "as"): "780077047e177f2e4116915c1e2384a03f82673f3b84d008a1c8ea6bd1343a9a",
    ("audit", "psi_AB"): "303a4615f7d754dbefbb7ee76797bbf5fcedceb18340148df48b8f2dd3b65b0c",
    ("audit", "psi_ABht"): "7925decd33b1467eb8e90c98b29d1dd443c515628c4b7ce9f48e8a87f1195776",
    ("audit", "psi_ABth"): "db106948efd2cf6654aa8eb373783992dcfa185217807469f4c7b966f9690987",
    ("simulate", "-n", "1000", "--seed", "2018"): "702bffb774e85c097d818df21c8b916eb4b52600c0bf2eeb6cf726c12325113a",
    ("simulate", "-n", "1000", "--seed", "2018", "--check"): (
        "29a2bd427007232c7b3e69b8d64b94fd90230af19fb325fb08141644960554da"
    ),
    ("states", "psi_A", "--format", "csv"): "22243819f5b47b69ccab9b8ea3ba3578eb6d56d23c3f5e38db19acc012857b24",
    ("states", "psi_AB", "--format", "csv"): "57030677d02053903e8314a42a172df821942edc6932ad9f8093bd7763fa8dbf",
    ("states", "psi_AB", "--basis", "charlie", "--format", "csv"): (
        "fe75803cf148c88dae73ca8a297d69b26c72eeb325c52f16a9946c2b6c75bd63"
    ),
    ("states", "psi_ABht", "--frame", "bs", "--format", "csv"): (
        "a43e0d0d3ba237a392dc06ac603fb4cc656c08779340ec523dcf39c33ce021f7"
    ),
    ("states", "psi_ABth", "--frame", "as", "--format", "csv"): (
        "2b624dde7b879651a4fcb1c9fae10712e0d4c2b70e05b7fcb168c6c7f5d5a6fa"
    ),
    ("audit", "psi_AB", "--format", "csv"): "dfe07ae04de1421e8fdb044ae5af7f1c609c203ea2e9d176fc2e799ea5d9ce27",
    ("audit", "psi_ABht", "--format", "csv"): "9e6623283d3cc42e568f01f14391d6ef7043ef04530a6260d02fedc517c77d3f",
    ("audit", "psi_ABth", "--format", "csv"): "d09784a84b4869213b682c56e542b516b373aae98ad3b4c4c91eafc7ac85c42d",
    ("simulate", "-n", "1000", "--seed", "2018", "--format", "csv"): (
        "783b36f31373dfc9a2a4229a352e946f5aa3ad091507e7d266bb82ba2b7b0ca3"
    ),
    ("simulate", "-n", "1000", "--seed", "2018", "--check", "--format", "csv"): (
        "783b36f31373dfc9a2a4229a352e946f5aa3ad091507e7d266bb82ba2b7b0ca3"
    ),
    ("simulate", "-n", "0", "--check"): "733c2c45e58fc1e3b0f9e8e09877f540061711bc3b980e322ae2f5bbe40a19b8",
    # at tol 0 all checks but evolution_heads fail: exit 1
    ("verify", "--tol", "0"): "440a92652aae857a967a1dc6a9e74724c68fc591d834829cde6747752fc85d86",
    ("verify", "--tol", "0", "--format", "json"): "641d9603b055b172acbba5ec5bdcd346b4ef6930bcf7d28e654e31e706a14f07",
    ("verify", "--tol", "0", "--format", "csv"): "43ff0ecc64c98f1e593ec015f323e713831757dafcc3f97d0a5eedf68820180a",
    ("synth", "psi_h0", "--to-e0"): "583b83182a84f288815979c823625d45a2dfc1fbf6a86084dd979ea8bc7bc5e1",
    ("synth", "psi_h0", "--to-e0", "--out", "u.json"): (
        "3448c7cf869f904b43bd90ff0c14b63c2f5c894a9a4562bf825957b85ba7a0c3"
    ),
    ("synth", "psi_AB", "--from-e0"): "543bf60af3446ed674503abfabb9f23bf135e9422a81fe99d76abc48ddbc4be3",
    ("synth", "psi_AB", "--from-e0", "--out", "u.json"): (
        "a1c48d814e56e1492868f14452c47624ca7e0e55c4abad72e69c2f90f7a0855b"
    ),
}


@pytest.mark.parametrize("argv", sorted(CALL_GOLDEN), ids=" ".join)
def test_call_digests(capsys, monkeypatch, tmp_path, argv):
    assert call_digest(argv, capsys, monkeypatch, tmp_path) == CALL_GOLDEN[argv]
