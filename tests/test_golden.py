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
    "dpah-ic_equality.csv": "5dc78d3e2dc2301301ca7461e6de3f762c7dc73459079873d48a5dbc7fbe349f",
    "dpah-ic_series.csv": "614c1b458723fae3f9ed6dca88a2239f406b8e3e727c265c82978e25b996d3f4",
    "dpah-ic_summary.csv": "c84a9b0de0981ab44ed87d1697e8541ef0d48a6c9c8d8429624b326120cc6adf",
    "dpah-order_trace.csv": "c3bae30f36f478b7231ece86865915a612bce6cf76b34c024408256f823286b8",
    "dpah-rank-degree_config.txt": "daf64d94d61952b8e3850ba432f16ad374d723970405b81e3714af8eb74fb38f",
    "dpah-rank-degree_visibility.csv": "c9c4396dd7d66fb494c494b7919c3a63ce1791e49a67ad095be8c0b80b630c86",
    "dpah-rank-indegree_config.txt": "29ade227fba1e80519e368c3d8ca84025a76f83bdf983b493d259aef9c97adca",
    "dpah-rank-indegree_visibility.csv": "0643735ae49e2e700236812e853f08b194ca184e9816eff56dccb52be55e5bc9",
    "dpah-rank-pagerank_config.txt": "ea4ee266c8e44101372784f3bee5888dd70e4f5042a3801f21bbb0df14874ac2",
    "dpah-rank-pagerank_visibility.csv": "83752dc60daabcd14c5790a8cb86c28d6e297ed0f1b6964c7d126431fd437597",
    "dpah-sample_bias.csv": "6af9a5573932551d74e8aa5de8daae697d8dc3dcad50f47c05f007b7aa456219",
    "dpah-sample_bias_reps.csv": "3f5a2a1289ad4d97dda4230e0673eb24b08587691a3b4512016620cf7afb5a8f",
    "dpah-sample_config.txt": "435d43c1c0e0cc85f272c938851cdd2f00d0c73cf519f51db7acb290841ca8ab",
    "dpah-threshold_config.txt": "4e451cc9db6929102c1fc89de28b42a148fb51ffcc357d6dd802f34ff56873d1",
    "dpah-threshold_equality.csv": "251e21a259234023797f194b88c3d410343489171cd1cda3918464c8136890a3",
    "dpah-threshold_series.csv": "1796caa8e3786b4410741228b9e55f6f1ccc4a5385e8977a056cf2993bda5469",
    "dpah-threshold_summary.csv": "fcb41f0a63c49dcc9183eadd2aba5dce28a8ae818bbfa6dfe965e35d95daf097",
    "dpah_config.txt": "dbcee7071f8be029d3e22ece32776aea7b487848f6773a93242a7bff6bf46a06",
    "dpah_edges.csv": "360c363cd74b5fcc4d84ec7c5273e0fbe400a1453cf6c0c89f4ec8026d4c5f11",
    "dpah_nodes.csv": "1a99c47e5975a61a0149c377ce526dfb1c7d17a063ed71e1972012d7222cefe4",
    "dpah_trace.csv": "dbd793ce0ed87827da202134adadc9b1407ba03c61be369c1008c688ed8f9005",
    "pa-ic_config.txt": "5c0bb8cbfd05bf065ce408ee372aa7d32917d8a98e35b8ff7b07c76131f920bb",
    "pa-ic_equality.csv": "c4c1c21a75bc92bd4a2044465156363b9ae00bf5b2327e1786971106bf966f40",
    "pa-ic_series.csv": "d4b43ef14f5d94c2737d8b76253476bd6c055329433e94076f6affc2db22aca8",
    "pa-ic_summary.csv": "001af3818ab224116ede29fe0318191b3bddd0ccba63e7db8825eb13b32e416c",
    "pa-order_trace.csv": "701dac0256ccc9451d2a04ebc32dbef8c37da9fbeaf9fa4872fe7de3ce416e8c",
    "pa-sample_bias.csv": "6797e4bd4bbfc33e4fea7eaef17e0e46ca6ae0debf906fac59db3412baa50657",
    "pa-sample_bias_reps.csv": "5e8d8278898c6f048128a6cf9ecaefc04a376d2dfb56ee3ae75b2aacdc8ab5e9",
    "pa-sample_config.txt": "1a7f1faa2c980c32949d77cbfed20b8efb7d37a9eb7fce2bedd4de62c7ebba25",
    "pa-threshold_config.txt": "d9eecfdf75ed0291c6e9c8fdb7b71ec4137554196357042ef2f3f43615e3b966",
    "pa-threshold_equality.csv": "46865951413159b533fcd639cac28307fc640d327ed1049d08660d9f3e19bee4",
    "pa-threshold_series.csv": "da39b9f5f0e63a7127faddec3b9391e06141d3acd6fc1d73162c0c5c26f38f8a",
    "pa-threshold_summary.csv": "9da717e91d017fb32cfb771d9e2c9c94d544339c1e235d31415577e7a8df7228",
    "pa_config.txt": "83e681de0b56bf75dea377fc486223b44b7a1056349a94646202881d0e4fa896",
    "pa_edges.csv": "517229901d478eb4c5db0e50b5b959ce881f4cdb23b0df54c2cf9ac4371eb364",
    "pa_nodes.csv": "44009789a4a85d8c4e960d65679cc03651159cd9cb1fcfe2a4ed41a66650243e",
    "pa_trace.csv": "da69393e2f68ddb2f0d88f99fe39b324a9d0d533d68646ec5fea608ee105fadd",
    "pah-ic_config.txt": "71e0c6ca3fcf3fcea9e2b295ac64ce4195ef71ec6229e3d2469e01b31eee80da",
    "pah-ic_equality.csv": "89344a02d934847407b8258431ad3ba9b59c813d3cb355961e65c74227356247",
    "pah-ic_series.csv": "08973b1c71b34d68347ae4246f8c2aa173af7df13a30bec1c3b75010013f83ef",
    "pah-ic_summary.csv": "50c75f11d6d4ce96fc478ea067cdcfb1d77dfb4d45e5e6d4546587cd3f156e6e",
    "pah-order_trace.csv": "ea285945aaf7b6419c81a8b691c99f56d3925c2e5d4da0a501eaaea16012bc8c",
    "pah-rank-degree_config.txt": "c835a34238ad4e0edbaf9e55a58c54efe3b10dadb842795d7bdd302458cd3ea7",
    "pah-rank-degree_visibility.csv": "7767f44fb5e6141a2b06eb0cbbfc370112fcaabe9df399c6c88deb290a26d653",
    "pah-rank-pagerank_config.txt": "8257a0b20e00cb62eddcabf4b49e318a83b8c92bc50245fa8569724354f198d4",
    "pah-rank-pagerank_visibility.csv": "79d9107053a91d55e51ba2b333cdca5cfa814b10bc50a8f8a06d24fbc4b46d7a",
    "pah-sample_bias.csv": "58e867ed61136f8269fd1d749f3617bdf3e96088ee3bffbe458d20ef5fef03bd",
    "pah-sample_bias_reps.csv": "578f8c2f9392056ba738ecae4270059e427712480ce34b4e7c2f741440f62a5a",
    "pah-sample_config.txt": "c33af214d2c8ebe3a5e5caca98a2bce655fb66595fe8807e0fe5da4e5d9a322b",
    "pah-threshold_config.txt": "20f49d146512cac04eec4e0d6cc899d2a96f34547e9406b08e736490fe7ed304",
    "pah-threshold_equality.csv": "2a8460a00eba4598835649fd2de72bd930cc470c36690cb72e85651147e319b0",
    "pah-threshold_series.csv": "c45175f27967e20c82423fdc40910bfa9d99dbc33e3f26a8c78486e6197c4148",
    "pah-threshold_summary.csv": "23b8aa2ebea7419c3a681b58db5f973a19ac9aa868ba2abbace8e230e13be985",
    "pah_config.txt": "1adde75e5499d1be4b929f6f3e73456cee2eb639de42e557806f46747a6d547d",
    "pah_edges.csv": "6a9a413c0ee68af6ccea420a3807073920d59010c0b8c89e43dfac86de2568f2",
    "pah_nodes.csv": "e1c11829b8148c105fa84026233db0fcff4f943d8661a47e75e8034194750c9b",
    "pah_trace.csv": "dc5e1118e6048f4b6ac9e8c4feaf463c1a6f4383180f834a900ca06911677f1e",
    "patch-ic_config.txt": "e39775cf0bc54227002519284150658f0bb333768c93a26ca4ea7035b9c5be0c",
    "patch-ic_equality.csv": "5dd4fff6ceab245266b2fefdb9c45f6f82afdb91b428405e2f8b63dc8f3fee69",
    "patch-ic_series.csv": "9bad3bfb87128083cdbcad4cd26c9b10e4834c243187f5cbd29b6785fa0b92dc",
    "patch-ic_summary.csv": "b5768a7a01ecbb4e1447deb0b06b233b2ea195c9616ca57e3bb3b5e9687ac777",
    "patch-order_trace.csv": "19e4c36c7e428e2c3a649b11ff9dab1e75d014012541886ba83097e8cbdbc1d2",
    "patch-rank-degree_config.txt": "91718353c6b55c7740e8cd102d11f0cf3093ed95a15cf4d8cb3ab30e654d9883",
    "patch-rank-degree_visibility.csv": "af8a302957b78265b82828f1cc0159a773f5f4d1edf8e1cd468c25d57f83c38b",
    "patch-rank-pagerank_config.txt": "c53dd386da8720b6798df297838b96a25a05237ffc5afafb61e466d81aad52d6",
    "patch-rank-pagerank_visibility.csv": "65980cd7990150c945d2ad5a24284efed851d46558a393965936849451129e4d",
    "patch-sample_bias.csv": "2ba56e0076f3a6450bbf1bf1b0345c5841c9b3e29fbbd27196b20622e54629bb",
    "patch-sample_bias_reps.csv": "6d9c1c5d43eb832cd35078604bde9ddf85d6a2920a1fba3681ed2d271e29ab33",
    "patch-sample_config.txt": "eafde7f2e9bddd7eee39adbe01157a287fbf8c2a4aa9c0b0253ffc47ca660ae3",
    "patch-threshold_config.txt": "eecc858937c72cb6af1c91199f135df37f1db5938b5165ce0abc4e39981f7371",
    "patch-threshold_equality.csv": "aee3f59097c88f0bcc12a86f420104c8a6cf3336c0ef3082ad2019bc31b9fddb",
    "patch-threshold_series.csv": "11b2c9fc6201516d28025519ea48c88e0a5b219ddbd2f62dd2d4f4bd0ffc3279",
    "patch-threshold_summary.csv": "6200169a4e5f11f79658e5225925745a0e78b45ae9f70e32a8997d396a76de05",
    "patch_config.txt": "274e2ad7ee067ffbe9946688553aa4cd5237ca613c7c444a94b24888a759c015",
    "patch_edges.csv": "d3865f57497549173764777623d7bc54d2df7a981720db75060fe0e82d0e09e4",
    "patch_nodes.csv": "8d432ef1f2ff827ba951e0dd0660a6dc99ace885cca29af57efed2e214f961e8",
    "patch_trace.csv": "f1c67d907a583c08b3dbb538d36ea0a8a3c9cebbe15134ac23d83e49ab482e1c",
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
