"""Golden seed -> bytes fixture.

Runs a small CLI study in-process at fixed seeds (generate pa, pah, patch
and dpah; rank the three with a minority; sample with all five strategies
and spread on each) and compares the sha256 of every output file with the
digests recorded below, so any change to what a seed produces shows up as a
named mismatch.  The order-assumed trace that ``trace_from_graph`` builds
for each network is written and checked the same way.

Fit and select outputs (``_selection.csv``, ``_comparisons.csv``) are left
out: they go through ``np.log``/``np.exp``, whose SIMD paths are not
bit-stable across CPUs; acceptance 03 and 09 cover them.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from graphmix.cli import main
from graphmix.inference import trace_from_graph
from graphmix.netio import read_network, write_trace

NETWORKS = {
    "pa": ["--model", "pa", "--n", "600", "--m", "2", "--seed", "11"],
    "pah": ["--model", "pah", "--n", "600", "--m", "2", "--fm", "0.3", "--h", "0.8", "--seed", "12"],
    "patch": ["--model", "patch", "--n", "600", "--m", "3", "--fm", "0.3", "--h", "0.8",
              "--ptc", "0.5", "--seed", "13"],
    "dpah": ["--model", "dpah", "--n", "200", "--d", "0.03", "--fm", "0.3", "--h", "0.8", "--seed", "14"],
}

GOLDEN = {
    "dpah-ic_config.txt": "3dd62c431c3e9edd063c411a435a71941423ba04749e33da4617417dc9381631",
    "dpah-ic_equality.csv": "8440258111d1eaeae49d462696c5cc6fe816841f3b1f7c9f4abb8385195f34bf",
    "dpah-ic_series.csv": "dc530bcbdea469d1182d4df47612a63b85fd0d4e39dd7a9d4919cab12afc81d9",
    "dpah-ic_summary.csv": "c55357e842e76ea1a0734eba0b05e8272d51edcf197ca7604bffc9b504629456",
    "dpah-order_trace.csv": "17913889176eb026e5df9991e444bf776d593ee69ad739ac337dfd5bb28800ae",
    "dpah-rank-degree_config.txt": "daf64d94d61952b8e3850ba432f16ad374d723970405b81e3714af8eb74fb38f",
    "dpah-rank-degree_visibility.csv": "4e106d61e5db7f0b726ef8cd01f54d46d8add9468692d7517748fb8fd233351a",
    "dpah-rank-indegree_config.txt": "29ade227fba1e80519e368c3d8ca84025a76f83bdf983b493d259aef9c97adca",
    "dpah-rank-indegree_visibility.csv": "1bab894d60eb7fde38e6c7ee797cac2c006491d87de0bf18314a1c4a3f6dc93d",
    "dpah-rank-pagerank_config.txt": "ea4ee266c8e44101372784f3bee5888dd70e4f5042a3801f21bbb0df14874ac2",
    "dpah-rank-pagerank_visibility.csv": "09adc6c777ead73245e7806ba3aa841460449756d81f825b44a24d1baa3d7e6a",
    "dpah-sample_bias.csv": "51e47ce225a61f14c611ed0c6c107df2ce0ef1c4a6d3c63e738d0fb393f45875",
    "dpah-sample_bias_reps.csv": "5d3e35b628bc1f4bc904ec3c56c9d076b631b7405115c09a78726b0a846ffd02",
    "dpah-sample_config.txt": "435d43c1c0e0cc85f272c938851cdd2f00d0c73cf519f51db7acb290841ca8ab",
    "dpah-threshold_config.txt": "4e451cc9db6929102c1fc89de28b42a148fb51ffcc357d6dd802f34ff56873d1",
    "dpah-threshold_equality.csv": "8bc43665e95a83234cce19b8b0b35e696eeb196f68a4977a147678a3e55b670f",
    "dpah-threshold_series.csv": "1bc597e21dbaf14819ee749818abd9f1267755fb3a4cb74177732b51a3750690",
    "dpah-threshold_summary.csv": "6ed30f4ff5009461ccb6b6f2169dae92801d6456a4e7e4689a16ff60795e8cb4",
    "dpah_config.txt": "dbcee7071f8be029d3e22ece32776aea7b487848f6773a93242a7bff6bf46a06",
    "dpah_edges.csv": "1e012b4680eecc6f98f0a4b4289de98767992eedb7183ad410c551cfeffb6490",
    "dpah_nodes.csv": "1a99c47e5975a61a0149c377ce526dfb1c7d17a063ed71e1972012d7222cefe4",
    "dpah_trace.csv": "0599cef62b9008727323b461284eae1d734ef3efadbab35e1787b4844e4d648b",
    "pa-ic_config.txt": "5c0bb8cbfd05bf065ce408ee372aa7d32917d8a98e35b8ff7b07c76131f920bb",
    "pa-ic_equality.csv": "7cb293fa49caa1c87c6767dc1513040fc0ee4340f10465888e2ca6b0559b4206",
    "pa-ic_series.csv": "d2e3e32f08fc017644d5f5d4e649ef9abe04e1f1ada0791e76e4f417f58d5039",
    "pa-ic_summary.csv": "ed42c755a0129ab9d3a4524523322d5e53adbbebfb33489793ab00ced7602ffc",
    "pa-order_trace.csv": "6553a43c8fa6cf039d3c13832f3a3456abd736f07e1631179e31ebe70e16b8a0",
    "pa-sample_bias.csv": "4b70f8d52951fea7d51e2c6dc68fb77b740ebd42f09073c47b67ea7f94ac8ed0",
    "pa-sample_bias_reps.csv": "de36babf217ad61f2b65baa2ff4ecf39abf458c317e0b520a10c87a2a777baee",
    "pa-sample_config.txt": "1a7f1faa2c980c32949d77cbfed20b8efb7d37a9eb7fce2bedd4de62c7ebba25",
    "pa-threshold_config.txt": "d9eecfdf75ed0291c6e9c8fdb7b71ec4137554196357042ef2f3f43615e3b966",
    "pa-threshold_equality.csv": "3a66894d622485dbcc6786b1f0b66d405c9335acf58147e0fc5349c04655812a",
    "pa-threshold_series.csv": "f63071f4152be79d81aa0027c5a29d350db620e1f1133caa10476d328398b606",
    "pa-threshold_summary.csv": "bd37a27ecc78689f7a60cf2c8f36f4464043cac3db404689004d411176b3fac2",
    "pa_config.txt": "83e681de0b56bf75dea377fc486223b44b7a1056349a94646202881d0e4fa896",
    "pa_edges.csv": "d349725c4764af81a34da0ca74d348c406253634b64bf229852c6b127770b5a4",
    "pa_nodes.csv": "44009789a4a85d8c4e960d65679cc03651159cd9cb1fcfe2a4ed41a66650243e",
    "pa_trace.csv": "68d200fc8e146d70432936e9aa7fae1e6fd6dc228a92bf288964f1b2da8cad82",
    "pah-ic_config.txt": "71e0c6ca3fcf3fcea9e2b295ac64ce4195ef71ec6229e3d2469e01b31eee80da",
    "pah-ic_equality.csv": "29abb3d181037851f4571852f4f7087427e3b9a52d216c234e88fa224ea73498",
    "pah-ic_series.csv": "315485bb58d37985a21d06f63e8931d236f6d34b91fb099c5d2aeb571fbd03d9",
    "pah-ic_summary.csv": "620e3a9b5da4a6993160a3d833d1311c7028a78044d9b2f5e7c0d07e6f8fb126",
    "pah-order_trace.csv": "e83b2179a61745c404b42182c4a60e5d5b7a6e09c5df5449e4f797ca86931840",
    "pah-rank-degree_config.txt": "c835a34238ad4e0edbaf9e55a58c54efe3b10dadb842795d7bdd302458cd3ea7",
    "pah-rank-degree_visibility.csv": "5e78efe01efbe48f2d7c21aa9bb828cfe2e7d7b0588c5b2cfb46620028a8ded4",
    "pah-rank-pagerank_config.txt": "8257a0b20e00cb62eddcabf4b49e318a83b8c92bc50245fa8569724354f198d4",
    "pah-rank-pagerank_visibility.csv": "8ed676aa47ed99d4ae051504fcb06bf4e95cc7eb9dc058955bb94a59a57d3d72",
    "pah-sample_bias.csv": "a11f061e1468bba4e7fbd53977d6e6822b31fbb02cd86ba927fc06959968e61f",
    "pah-sample_bias_reps.csv": "f1e96d333b08c609a7b9c099247f8bdf96622433f1afd33191b9e1f79efe064b",
    "pah-sample_config.txt": "c33af214d2c8ebe3a5e5caca98a2bce655fb66595fe8807e0fe5da4e5d9a322b",
    "pah-threshold_config.txt": "20f49d146512cac04eec4e0d6cc899d2a96f34547e9406b08e736490fe7ed304",
    "pah-threshold_equality.csv": "6eb7a3254aa235ab76435d74098c2e653d0a9d3485bfbae46d93ccded8c7d572",
    "pah-threshold_series.csv": "a5556d36436389fd9dd20233e5ba0383febafd7ff17b4944086cea181990c385",
    "pah-threshold_summary.csv": "fc20306f7921c11b67d86d2364d9b5214224fdfd05cfa2c3f54ff9d2ad1a52f1",
    "pah_config.txt": "1adde75e5499d1be4b929f6f3e73456cee2eb639de42e557806f46747a6d547d",
    "pah_edges.csv": "f0dcaa90e9bbf1dbabddd69d75075b7f50bd4dcb305aca2788c02d3b9093a754",
    "pah_nodes.csv": "e1c11829b8148c105fa84026233db0fcff4f943d8661a47e75e8034194750c9b",
    "pah_trace.csv": "67ab41f65d76c915313d24d10264e4d029bf58845a196e219bb4b9379c1f76ee",
    "patch-ic_config.txt": "e39775cf0bc54227002519284150658f0bb333768c93a26ca4ea7035b9c5be0c",
    "patch-ic_equality.csv": "39846d9a6a892f0f9c7a3491773c9043951d581f4f27b89a250fadcedb667577",
    "patch-ic_series.csv": "0972ebc317dd2199caf38a211e20b48377a311683a2c8dd753c2210078394ee4",
    "patch-ic_summary.csv": "2feff165713289a4548bb0725c33ae893ab67c3e3ef06ea49641ef562dc4d042",
    "patch-order_trace.csv": "52dcab9d6bcab62ddbc82f1fce56407e59ac6769e3a0780c07a3208db519be3b",
    "patch-rank-degree_config.txt": "91718353c6b55c7740e8cd102d11f0cf3093ed95a15cf4d8cb3ab30e654d9883",
    "patch-rank-degree_visibility.csv": "63fa5d5c3fe38d97e2f8648eddb72974d389bcad65d09f6778a30199fc3c835d",
    "patch-rank-pagerank_config.txt": "c53dd386da8720b6798df297838b96a25a05237ffc5afafb61e466d81aad52d6",
    "patch-rank-pagerank_visibility.csv": "fc699c87e0cd9ecb54b80a95a058853a849d004613cd2975b1a217610a7a0607",
    "patch-sample_bias.csv": "b376df3c4ae689106b7deba5ec8850f608ea153b2a04001f88462f671582b81a",
    "patch-sample_bias_reps.csv": "f7d385c6f1b333f0a2557908b497865f8614c5eadedcac7b26f6f63cdde9db2f",
    "patch-sample_config.txt": "eafde7f2e9bddd7eee39adbe01157a287fbf8c2a4aa9c0b0253ffc47ca660ae3",
    "patch-threshold_config.txt": "eecc858937c72cb6af1c91199f135df37f1db5938b5165ce0abc4e39981f7371",
    "patch-threshold_equality.csv": "73d930bc4fc527525e134b8d86dde58bf0fe4fb621e9d042126877f2f8959a42",
    "patch-threshold_series.csv": "81e526c99514ea38e918c9df594e353f4c91696a97381b0152e5d6d235cb1384",
    "patch-threshold_summary.csv": "92a8793ae672f7404cc746e24499b02c6074c2c17ad00c7a01431bfb2ce06c6f",
    "patch_config.txt": "274e2ad7ee067ffbe9946688553aa4cd5237ca613c7c444a94b24888a759c015",
    "patch_edges.csv": "fcb3ff37d35a2a40a6ea5ab83aa76c8198f0039cb912f6931c1ae4264047c45a",
    "patch_nodes.csv": "8d432ef1f2ff827ba951e0dd0660a6dc99ace885cca29af57efed2e214f961e8",
    "patch_trace.csv": "bdee3312df66072d98c4aa544a435129961afab6d8aaae039e9339ee9db529ec",
}


def _run(*argv: str) -> None:
    assert main([*argv, "--out", "."]) == 0, argv


def _study() -> None:
    for name, gen_args in NETWORKS.items():
        directed = name == "dpah"
        net = ["--network", name] + (["--directed"] if directed else [])
        _run("generate", *gen_args, "--prefix", name)
        # pa has no minority class, and visibility needs both classes
        ranks = () if name == "pa" else ("degree", "pagerank") + (("indegree",) if directed else ())
        for metric in ranks:
            _run("rank", *net, "--metric", metric, "--prefix", f"{name}-rank-{metric}")
        _run("sample", *net, "--budgets", "20,60", "--reps", "5", "--seed", "3", "--prefix", f"{name}-sample")
        _run("spread", *net, "--mode", "ic", "--p-in", "0.4", "--p-out", "0.2",
             "--seed-condition", "uniform", "--seed-count", "5", "--seed", "4", "--prefix", f"{name}-ic")
        _run("spread", *net, "--mode", "threshold", "--theta", "0.3",
             "--seed-condition", "top-degree", "--seed-count", "6", "--prefix", f"{name}-threshold")
        g = read_network(name, directed=directed)
        write_trace(trace_from_graph(g, seed=5), f"{name}-order_trace.csv")


def digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def test_cli_outputs_match_recorded_digests(tmp_path, monkeypatch):
    # relative paths keep the --out/--network values in *_config.txt stable
    monkeypatch.chdir(tmp_path)
    _study()
    got = digests(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    changed = sorted(name for name in GOLDEN if got[name] != GOLDEN[name])
    assert not changed, f"outputs differ from the recorded seeds: {changed}"
