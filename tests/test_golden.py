"""Golden digests of ``simulate`` output: the seed -> output contract.

Every other determinism test compares the code with itself; these pin the
bytes.  A change that shifts the random stream (chunk size, uniforms per
trial, their order) or the sampling rule changes a digest.  The traced
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
        "852b0f87d29ed354b27464763f70605fd30b532ea773166067f5dec30e8c1a29",
        "06e8a6ff90371fa3b90dec6df9aaf1ec8d2c0de0f3a4d643e281b0668be81462",
    ),
    ("alternating", 65_536): (
        "d23a2e2194e812bb3557eaf3800468662204dfb81b65bb786c4915bac9bc5fd2",
        "99ab1d0183dc99bf2d150c62d6ff32dba46a3f8ef723639c9fb72980d586f8c6",
    ),
    ("alternating", 65_537): (
        "cd1107151f91efa5ffb7b7ad38dd583504fb8b6b753db6b5edbe34543520d3cd",
        "6f19c56a3ca895691f9635d27f8ddd15dc1a0f4491895aef5db038ff3b73d126",
    ),
    ("alternating", 141_000): (
        "04bed5ba9982c58a0c578511208916053795c58fc20607afba46f693c940410c",
        "4d6a10cca07006c489f4e819df0c3b62d015c1db2f00ae0f7b7c0e1051b13112",
    ),
    ("biased:0.17", 65_535): (
        "d8969ae27b801fccfb4d3e661a01cb081d757eeff1b08067ca2993cbc946f260",
        "38b2b1937e518e80d850ed2f9fec02ddbbbde1da5bd54704abf00cd155df21f6",
    ),
    ("biased:0.17", 65_536): (
        "0f9d956614558b72dbcb62092693e91b1f17967145a9b49ce8a5095511d99ad5",
        "060b37d08e755cd42598e48befd2262a2bae845e87d3683dcba8d15a187c96c9",
    ),
    ("biased:0.17", 65_537): (
        "685f6b70df139530ccf41f1bd209436ddceb07e2f0897b7e93d1f84e858d1d72",
        "cd25c3f4d22ee62ce11afe3f6f0032fb1417a482adea8c663463237e73d5568f",
    ),
    ("biased:0.17", 141_000): (
        "82bca0ed2e25ea3cc856cf23afeb79bc011d1ce15fdd2fb1c4b956633d403e08",
        "6e28667ca2967d51f8919c7b7c0229f39101cc59d9cfcc54c1a4585d2d48f161",
    ),
    ("analytic", 65_535): (
        "3a9423cd2fa34dc80299d5976648239458e93c40e18e26c01027a655100dd59b",
        "c09e554b5a8b1e782f20a8215d4e62e08766536c9fbf7d724f1f94accd4e4bb3",
    ),
    ("analytic", 65_536): (
        "29e885fbe5cafbd5a1436cad79d62e29ed517a196401641b208f1d569f7435e9",
        "12278b47fa1c548e490053f3724f2d4ae6dd86b9149180537c142ed3543a78bb",
    ),
    ("analytic", 65_537): (
        "01297c7e26ec7c0d4cc4c42bdbf4f078a9221c5e0356ac0c171b3a013f5e5a0a",
        "e072ce5188efe3c509b88b46fb509c13943640ee6dc990d31449f497f6d5ad4f",
    ),
    ("analytic", 141_000): (
        "8234678bc319cd9fc16b84819ba0c830a16bb01901c848d78150455159555e59",
        "8cd6a65b8ab8f8f176b5e135899a8ebcc3bcb110c5d687fdf3fe87b3c74d1395",
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
    ("correct", 196_609): "97755d0bafb57955cf6c4a564b6ed258dbf84e5f1fdd2b56cff09d46bcec8514",
    ("correct", 1_000_003): "7c7d65c51451d6434b90d6f467857cffd7b924ec3dd26986fe5f5025a1270450",
    ("uniform", 196_609): "bbb0e8bfac5738059caa5e97faae969dbb767b4d1ec2eb3a6c53e7c4aacc2c54",
    ("uniform", 1_000_003): "3b71f7b528da6aa66a9464acfb8d19744f69b3c8782c9d97e043510bdd800e6d",
    ("biased:0.17", 196_609): "945f27eca9d209a08d22eef49605a1e90b72808f89cae04221dfb29ceedcc7a1",
    ("biased:0.17", 1_000_003): "192dfb34e755d8f61c4359e0dfa5ecc6ddbc30baccb53a13c9791c67f221606d",
    ("alternating", 196_609): "1437c0d2f67664a0f833df2bb3c46e4102d681a1d6a8d7b24dce740484424628",
    ("alternating", 1_000_003): "8d1c5e31552e4362b933462b0ca4afb74f3d58a40a87dd6d1cabadafaf971bc4",
    ("analytic", 196_609): "187be27af9b2d36cb96ebed8aad69e667aeed8aed285a2fb6a5182d8794180c6",
    ("analytic", 1_000_003): "cf81ecfe82a367cffe5f6fcf50e8df30cee8e913ccced1c6e30680a301777aef",
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
    ("simulate", "-n", "1000", "--seed", "2018"): "8fba499385f0bea097e1e68feca36d3b2588a20a0388216c82404066bbfedce5",
    ("simulate", "-n", "1000", "--seed", "2018", "--check"): (
        "28dd068e416dba1f6da996e659e51077d47a08131dda8df0487eb32458cc5ff9"
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
        "1e1b5858a07124400142ab1a3aae19edc8ced5e04642d1d57e680a303712f9f0"
    ),
    ("simulate", "-n", "1000", "--seed", "2018", "--check", "--format", "csv"): (
        "1e1b5858a07124400142ab1a3aae19edc8ced5e04642d1d57e680a303712f9f0"
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
