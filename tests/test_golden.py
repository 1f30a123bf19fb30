"""Golden digests of ``simulate`` output: the seed -> output contract.

Every other determinism test compares the code with itself; these pin the
bytes.  A change that shifts the random stream (chunk size, uniforms per
trial, their order) or the sampling rule changes a digest.  The traced
sizes sit on both sides of the 65 536-trial chunk boundary and past the
second one; the counts-only sizes span 3 chunks (the last one partial) and
16 chunks, so they pin the multi-chunk counts path.  The remaining digests
pin the output of the commands that print the protocol's constants, its
basis and frame views, and the help of ``simulate``; the call digests pin
exit code, stdout and stderr together, in every format and for failing
calls.
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
        "1862fba3fd63d6f0671957df8a22e42e405a7b58db8d87daad8eb4d9421b029e",
        "bff53b2c96a0d36a46387997e634123b8c24e4bf63ac2eee72e4f01bf7aaf80c",
    ),
    ("alternating", 65_536): (
        "e68c7e9b1a9b7be6830e6192135c681ebb504a06a66dc765e7cc91e3c6d334bc",
        "a377bf1106afcc94d9d28489602f1e518b265e4f9a1fe9102e2f92a5709137b5",
    ),
    ("alternating", 65_537): (
        "65fec6e83d302fc3f0f045f1062d4b86bc5ca5eeee2e02dd3920203814c57a1f",
        "79a1559600ab619d6f510f48650b5eb2278ba2e136e39781b53c3e3ac4e6b8a1",
    ),
    ("alternating", 141_000): (
        "669bc2685e69d30d62b9a64899a1ab93f71df01051830886022f93c2e2049763",
        "7aced086fca5aefecbd599c545445d5fb402624eccb9e75f7fd96c17d796a627",
    ),
    ("biased:0.17", 65_535): (
        "8466d860630d4e1cfcdba177428fa67e8ed6dc54bd6c790dcdab104a81bde5cf",
        "a0f48551ecbad0e2fe017d2ae238be8a9cbf9d19c262a6a32ba12e528c20de64",
    ),
    ("biased:0.17", 65_536): (
        "e9991c3d438d93857b0c2220449ee3fdb5879813d953658f6f58cbb572db3fd3",
        "4d68cad040ed7c641e906a2bbdd5ef1f4ba5b7e54a9d69cf182194d792b1e18d",
    ),
    ("biased:0.17", 65_537): (
        "62b204e32d07ed7d440a2b75c57dcf39520dceaa6f3b0d7a9ece053b1901000d",
        "efa0ce8d70cde76a0d9e385f09013b72021cad50607597282911f146347432a9",
    ),
    ("biased:0.17", 141_000): (
        "de736d2ec28328900e4850bfc8c064d9ad65fc7a9be3e812f249ce35bba11d67",
        "2ab2c3dee806480c734d0711ea270151ea9d668ebb686765c2c3d8edd07347ec",
    ),
    ("analytic", 65_535): (
        "cd1767f2d1e9e8d455fbc307b70b39a8c56fecf9db53d95123d874b003aba2b6",
        "4547d1d703e5ffe9cadbf398f3faf6d137d8769c3ba742d4d3bf8cef9e457a57",
    ),
    ("analytic", 65_536): (
        "fa111c8da115fd6e773159f451da3222016d6817ef8a773f87898d950b1d7996",
        "918f761ea00e19c1556f1ee218ad85752e52da3387dbefa2b3722ec6c77c32dd",
    ),
    ("analytic", 65_537): (
        "e3ec75844c36198867878eb0ef54db8fd39cefef87e7c05245ffdd180a211a77",
        "c439d10de8754627fa8df980621dbd19bd5f004cc4df7000d255aed7a7828470",
    ),
    ("analytic", 141_000): (
        "a49163f297e23ab9e3825e074f2fc597480c402f8d13293192c1c83640b2947f",
        "8c0abd501bbfcdbe931f2363346422165e9ad94b51f47cdfde985b152dc24ef4",
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
    ("correct", 196_609): "9f13e15bd3769284317a460e3e44f4c90631c195bc1442745fb3a0250c7b2115",
    ("correct", 1_000_003): "fd480d48be580c2626c65716feec5e48f705edf7e94b7fc1675cb5c0ff7fde7d",
    ("uniform", 196_609): "abba62333400f051ed4819406d05e0dabc9b7d476311f9d1f140bab77d6c97e3",
    ("uniform", 1_000_003): "e6f828178aadd8ea9306a5de6a183168f22229b85d600360095cba30e7183e43",
    ("biased:0.17", 196_609): "03ecb8643d196ddf4ea29c1542f5ff1842040e9df95dd43b83f6d108acf1bd80",
    ("biased:0.17", 1_000_003): "87f091e02f1e89a9f9271bed542f0e1b4943f07ac2a4b6fc39f690eeefe8d975",
    ("alternating", 196_609): "7c87e1675de54d59343ba2c086a89042adf0c659c28686ed86435e8e436809f6",
    ("alternating", 1_000_003): "0e182ccdfbdcb8c1e8ce4ce6cdece6f29bd57b361d8c4f01780150504a5189eb",
    ("analytic", 196_609): "d5096e12214c74d7036ca04b2168ea531e8b4479f3ba68a7eb64be0ebf8bd55d",
    ("analytic", 1_000_003): "9a91303d093cfb64566d65866cec0151eeee1b23ef5a39b3e4ec27661ae63c5b",
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


# sha256 of ``simulate --help`` at 80 columns; Python 3.10 heads the options
# "optional arguments:", later versions "options:", so the heading is read
# in the later spelling
SIMULATE_HELP_GOLDEN = "56bcb1639122867a8d164c00051b0be10f4aef5b98983c2325e55b10cbad075c"


def test_simulate_help_digest(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    stdout = capsys.readouterr().out.replace("\noptional arguments:\n", "\noptions:\n")
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == SIMULATE_HELP_GOLDEN


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
    ("simulate", "-n", "1000", "--seed", "2018"): "3284fdf711f48bb95c2f6fa94ba4880d894b0fba15237b7b019a0aaf0f77f0e4",
    ("simulate", "-n", "1000", "--seed", "2018", "--check"): (
        "ad92fea86c659e23a65f058ba3d6016c245c009758e24c61115869064c41ef9e"
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
        "b1e828122c50c22f0a446690ec6c4f3b56900ea34df70e202aea95c12c39b0b1"
    ),
    ("simulate", "-n", "1000", "--seed", "2018", "--check", "--format", "csv"): (
        "b1e828122c50c22f0a446690ec6c4f3b56900ea34df70e202aea95c12c39b0b1"
    ),
    ("simulate", "-n", "0", "--check"): "733c2c45e58fc1e3b0f9e8e09877f540061711bc3b980e322ae2f5bbe40a19b8",
    # at tol 0 all checks but evolution_heads fail: exit 1
    ("verify", "--tol", "0"): "440a92652aae857a967a1dc6a9e74724c68fc591d834829cde6747752fc85d86",
    ("verify", "--tol", "0", "--format", "json"): "641d9603b055b172acbba5ec5bdcd346b4ef6930bcf7d28e654e31e706a14f07",
    ("verify", "--tol", "0", "--format", "csv"): "43ff0ecc64c98f1e593ec015f323e713831757dafcc3f97d0a5eedf68820180a",
    ("synth", "psi_h0", "--to-e0"): "4f0bc04d3417859ccb39e7b4e55be35ec4bd2481c35dde170d70d467bf931c39",
    ("synth", "psi_h0", "--to-e0", "--out", "u.json"): (
        "12812e8c2074e23d423c5ba54910474bfd00e3cc4e2406bc58b06fad104cc2d5"
    ),
    ("synth", "psi_AB", "--from-e0"): "1d46d853c022047d4a4aacb7459cb76639dea1979c4b55eb5f5c74a4ac0f06c2",
    ("synth", "psi_AB", "--from-e0", "--out", "u.json"): (
        "be9a759e08d07313ab1a1aebd8b2ea7678b041596bf83507d6e5852ad4d21725"
    ),
}


@pytest.mark.parametrize("argv", sorted(CALL_GOLDEN), ids=" ".join)
def test_call_digests(capsys, monkeypatch, tmp_path, argv):
    assert call_digest(argv, capsys, monkeypatch, tmp_path) == CALL_GOLDEN[argv]
