import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from polarnet.cli import main, wilson_interval


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


BUILD_CFG = {
    "receivers": [
        {"eps_tile": [0.5], "decode_set": [1, 2]},
        {"eps_tile": [0.0, 1.0], "decode_set": [1, 2]},
    ],
    "target": [0.75, 0.75],
    "N": 64,
    "k": 1,
    "split_eps": 0.1,
}

# A valid config for each subcommand.
COMMAND_CFGS = {
    "analyze": {"channel": {"type": "bec", "epsilon": 0.5}, "n": 4},
    "region": {"task": "mac", "channel": {"type": "bec", "epsilon": 0.25}},
    "build": BUILD_CFG,
    "simulate": dict(BUILD_CFG, trials=10),
}

ADDER2 = {"inputs": [2, 2], "outputs": 3,
          "kernel": [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]}
BSC_MAC = {"inputs": [2, 2], "outputs": 2,
           "kernel": [[0.9, 0.1], [0.1, 0.9], [0.1, 0.9], [0.9, 0.1]]}
BSC = {"inputs": [2], "outputs": 2, "kernel": [[0.9, 0.1], [0.1, 0.9]]}
HK_IC = {"inputs": [2, 2], "outputs": 6,
         "kernel": [[1 if y == (x1 + x2) * 2 + x2 else 0 for y in range(6)]
                    for x1 in range(2) for x2 in range(2)]}
# Valid configs the contract test mutates: every task of every command,
# all small (N <= 64, k <= 3, trials <= 256).
CONTRACT_BASES = [
    ("analyze", {"channel": {"type": "bec", "epsilon": 0.5}, "n": 4}),
    ("analyze", {"channel": BSC_MAC, "n": 3, "mode": "mc", "trials": 256}),
    ("analyze", {"mac": {"type": "parity-linked", "users": 2,
                         "eps_tile": [0.5]}, "path": "1^2 2^4 1^2"}),
    ("analyze", {"mac": ADDER2, "path": "1^2 2^2"}),
    ("region", {"task": "mac", "channel": ADDER2, "decode_set": [0, 1]}),
    ("region", {"task": "intersect", "channels": [ADDER2, BSC_MAC]}),
    ("region", {"task": "hk", "channel": HK_IC,
                "maps": [[[0, 1], [1, 0]], [[0, 1], [1, 0]]],
                "output_arities": [3, 2]}),
    ("region", {"task": "superposition", "channel_y1": BSC_MAC,
                "channel_y2": BSC_MAC, "p": [[0.5, 0.5], [0.7, 0.3]]}),
    ("region", {"task": "strong-interference", "channel_y": BSC_MAC,
                "channel_z": BSC_MAC, "grid_resolution": 3}),
    ("build", BUILD_CFG),
    ("build", dict(BUILD_CFG, N=16, k=3, delta_good=0.9, delta_bad=0.1)),
    ("simulate", dict(BUILD_CFG, N=32, k=2, trials=256, chunk=100)),
    ("analyze", {"channel": BSC, "n": 3, "trials": 64}),
]


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["analyze", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_malformed_config(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["analyze", "--config", str(p)]) == 2

    def test_missing_field(self, tmp_path):
        cfg = write(tmp_path, "c.json", {"n": 4})
        assert main(["analyze", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 2

    def test_precondition_error(self, tmp_path):
        cfg = dict(BUILD_CFG, target=[1.0, 1.0])
        path = write(tmp_path, "c.json", cfg)
        assert main(["build", "--config", path,
                     "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("grid", [1, 0, -1])
    def test_grid_resolution_below_two(self, tmp_path, grid):
        path = write(tmp_path, "c.json",
                     dict(CONTRACT_BASES[8][1], grid_resolution=grid))
        out = tmp_path / "out"
        assert main(["region", "--config", path, "--out-dir", str(out)]) == 3
        assert not out.exists()

    def test_three_receivers_of_one_user(self, tmp_path):
        cfg = dict(BUILD_CFG, receivers=BUILD_CFG["receivers"] + [
            {"eps_tile": [0.25], "decode_set": [1, 2]}])
        path = write(tmp_path, "c.json", cfg)
        assert main(["build", "--config", path,
                     "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("cfg", [
        dict(BUILD_CFG, N=0),
        dict(BUILD_CFG, N=2, k=0, receivers=[
            {"eps_tile": [0.5] * 4, "decode_set": [1, 2]},
            BUILD_CFG["receivers"][1]]),
    ], ids=["N-zero", "tile-longer-than-N"])
    def test_blocklength_precondition(self, tmp_path, cfg):
        path = write(tmp_path, "c.json", cfg)
        assert main(["build", "--config", path,
                     "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("tile,path", [
        ([0.5], "1^3 2^3"),
        ([0.5, 0.25], "1^1 2^1"),
        ([0.5], "1^2 2^2 3^2"),
    ], ids=["blocklength-not-power-of-two", "tile-longer-than-N",
            "user-count-differs"])
    def test_path_does_not_fit_parity_linked_mac(self, tmp_path, tile, path):
        cfg = write(tmp_path, "c.json", {
            "mac": {"type": "parity-linked", "users": 2, "eps_tile": tile},
            "path": path})
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out-dir", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("path", ["1^3 2^3", "1^2 2^2 3^2"],
                             ids=["blocklength-not-power-of-two",
                                  "user-count-differs"])
    def test_path_does_not_fit_adder_mac(self, tmp_path, path):
        # the 2-user binary adder is evaluated in its parity-linked form
        cfg = write(tmp_path, "c.json", {
            "mac": {"inputs": [2, 2], "outputs": 3,
                    "kernel": [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]},
            "path": path})
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out-dir", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("mac,path", [
        # 3-user adder: Adder3Evaluator
        ({"inputs": [2, 2, 2], "outputs": 4,
          "kernel": [[1 if y == bin(x).count("1") else 0 for y in range(4)]
                     for x in range(8)]}, "1^2 2^2"),
        # 2-user OR channel: BruteForceEvaluator
        ({"inputs": [2, 2], "outputs": 2,
          "kernel": [[1, 0], [0, 1], [0, 1], [0, 1]]}, "1^2 2^2 3^2"),
    ], ids=["adder3-two-user-path", "or-mac-three-user-path"])
    def test_path_user_count_differs_from_enumerated_mac(self, tmp_path, mac,
                                                         path):
        cfg = write(tmp_path, "c.json", {"mac": mac, "path": path})
        out = tmp_path / "out"
        assert main(["analyze", "--config", cfg, "--out-dir", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("cfg", [
        dict(BUILD_CFG, k=-1),
        dict(BUILD_CFG, N=512, k=2),   # its decoding order is cyclic
    ], ids=["negative-k", "cyclic-order"])
    def test_schedule_error(self, tmp_path, cfg):
        path = write(tmp_path, "c.json", cfg)
        assert main(["build", "--config", path,
                     "--out-dir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("extra", [{"chunk": 0}, {"chunk": -3},
                                       {"trials": 0}])
    def test_nonpositive_simulation_sizes(self, tmp_path, extra):
        path = write(tmp_path, "c.json", dict(BUILD_CFG, **extra))
        assert main(["simulate", "--config", path,
                     "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_nonpositive_threads(self, tmp_path, threads):
        path = write(tmp_path, "c.json", dict(BUILD_CFG, trials=10))
        out = tmp_path / "out"
        assert main(["simulate", "--config", path, "--threads", threads,
                     "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", sorted(COMMAND_CFGS))
    def test_nonpositive_threads_every_command(self, tmp_path, command,
                                               threads):
        path = write(tmp_path, "c.json", COMMAND_CFGS[command])
        out = tmp_path / "out"
        assert main([command, "--config", path, "--threads", threads,
                     "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    @pytest.mark.parametrize("command", sorted(COMMAND_CFGS))
    def test_seed_out_of_range_every_command(self, tmp_path, command, seed):
        path = write(tmp_path, "c.json", COMMAND_CFGS[command])
        out = tmp_path / "out"
        assert main([command, "--config", path, "--seed", seed,
                     "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--exact", "--mc"])
    @pytest.mark.parametrize("command", ["build", "region", "simulate"])
    def test_mode_flags_only_on_analyze(self, tmp_path, command, flag):
        path = write(tmp_path, "c.json", COMMAND_CFGS[command])
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", path, flag,
                  "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--exact", "--mc"])
    def test_mode_flags_rejected_on_path_config(self, tmp_path, flag):
        path = write(tmp_path, "c.json", {
            "mac": {"type": "parity-linked", "users": 2, "eps_tile": [0.5]},
            "path": "1^2 2^4 1^2",
        })
        out = tmp_path / "out"
        assert main(["analyze", "--config", path, flag,
                     "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--exact", "--mc"])
    def test_mode_flags_on_channel_config(self, tmp_path, flag):
        path = write(tmp_path, "c.json", dict(COMMAND_CFGS["analyze"],
                                              trials=100))
        assert main(["analyze", "--config", path, flag,
                     "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "bit_channels.csv").exists()

    @pytest.mark.parametrize("command,cfg", [
        ("build", dict(BUILD_CFG, receivers=[
            {"eps_tile": [0.5, 0.5, 0.5], "decode_set": [1, 2]},
            BUILD_CFG["receivers"][1]])),
        ("build", dict(BUILD_CFG, receivers=[
            {"eps_tile": [0.5]}, BUILD_CFG["receivers"][1]])),
        ("build", dict(BUILD_CFG, N="x")),
        ("simulate", dict(BUILD_CFG, trials="x")),
        ("analyze", {"mac": {"type": "parity-linked", "users": 2},
                     "path": "1^2 2^4 1^2"}),
        ("analyze", {"channel": {"type": "bec", "epsilon": 0.5}, "n": -1}),
        ("analyze", {"channel": {"type": "bec", "epsilon": 0.5}, "n": 3,
                     "mode": "mc", "trials": 0}),
        ("analyze", {"channel": {"type": "bec", "epsilon": 0.5}, "n": 3,
                     "mode": "bogus"}),
        ("analyze", {"channel": {"type": "bec", "epsilon": 0.5}, "n": 3,
                     "mode": 7}),
        ("analyze", None),
        ("build", dict(BUILD_CFG, receivers=True)),
        ("analyze", {"mac": ADDER2, "path": None}),
        ("analyze", {"channel": {"type": "bec", "epsilon": 0.5},
                     "n": math.inf}),
        ("analyze", {"channel": dict(BSC_MAC, outputs=-math.inf), "n": 3}),
        ("region", {"task": "intersect", "channels": False}),
        ("region", dict(CONTRACT_BASES[6][1], maps=[None, [[0, 1]]])),
        ("region", dict(CONTRACT_BASES[6][1], output_arities=[3, 2, 1])),
        ("build", dict(BUILD_CFG, N=64.9)),
        ("analyze", {"channel": {"type": "bec", "epsilon": 0.5}, "n": 2.7}),
        ("analyze", {"channel": {"type": "bec", "epsilon": 0.5}, "n": True}),
        ("simulate", dict(BUILD_CFG, trials=10, chunk=3.5)),
        ("region", dict(CONTRACT_BASES[8][1], grid_resolution=2.5)),
        ("analyze", {"mac": {"type": "parity-linked", "users": 2.5,
                             "eps_tile": [0.5]}, "path": "1^2 2^4 1^2"}),
        ("region", dict(CONTRACT_BASES[6][1], output_arities=[3, 2.5])),
        ("region", dict(CONTRACT_BASES[4][1], decode_set="ab")),
        ("region", dict(CONTRACT_BASES[4][1], decode_set=5)),
        ("region", dict(CONTRACT_BASES[4][1], decode_set=[0.5])),
        ("region", dict(CONTRACT_BASES[5][1], decode_set=[0, "1"])),
        ("build", dict(BUILD_CFG, receivers=[
            {"eps_tile": [0.5], "decode_set": [True, 2]},
            BUILD_CFG["receivers"][1]])),
        ("analyze", {"mac": ADDER2, "path": "1^2 1000000000^2"}),
        ("region", dict(CONTRACT_BASES[6][1],
                        maps=[[[0.5, 1], [1, 0]], [[0, 1], [1, 0]]])),
        ("region", dict(CONTRACT_BASES[6][1],
                        maps=[[[0, 1], [1, 0]], [[0, True], [1, 0]]])),
        ("analyze", {"channel": dict(BSC, inputs=[2.5], outputs=2.0),
                     "n": 2, "trials": 64}),
        ("analyze", {"channel": dict(BSC, outputs=2.5), "n": 2,
                     "trials": 64}),
        ("analyze", {"channel": dict(BSC, inputs="2"), "n": 2,
                     "trials": 64}),
    ], ids=["tile-length-3", "no-decode-set", "N-not-a-number",
            "trials-not-a-number", "mac-without-eps-tile", "negative-n",
            "no-mc-trials", "unknown-mode", "mode-not-a-string",
            "config-not-an-object", "receivers-not-a-list",
            "path-not-a-string", "n-infinite", "outputs-infinite",
            "channels-not-a-list", "map-not-a-table", "three-output-arities",
            "N-fractional", "n-fractional", "n-bool", "chunk-fractional",
            "grid-fractional", "users-fractional", "arity-fractional",
            "decode-set-string", "decode-set-number",
            "decode-set-fractional", "intersect-decode-set-string-entry",
            "build-decode-set-bool", "path-user-id-huge",
            "map-entry-fractional", "map-entry-bool", "inputs-fractional",
            "outputs-fractional", "inputs-string"])
    def test_bad_config_values(self, tmp_path, command, cfg):
        path = write(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out-dir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,cfg", [
        ("analyze", {"channel": {"type": "bec", "epsilon": 0.5}, "n": 40}),
        ("analyze", {"channel": BSC, "n": 10, "trials": 2**20}),
        ("analyze", {"mac": {"type": "parity-linked", "users": 2,
                             "eps_tile": [0.5]},
                     "path": "1^1073741824 2^1073741824"}),
        ("build", dict(BUILD_CFG, N=2**30)),
        ("build", dict(BUILD_CFG, k=40)),
    ], ids=["n", "trials", "path", "N", "k"])
    def test_size_past_cap(self, tmp_path, command, cfg):
        # each is refused before it allocates: the sizes need GiB to TiB
        path = write(tmp_path, "c.json", cfg)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out-dir", str(out)]) == 3
        assert not out.exists()

    def test_success(self, tmp_path):
        cfg = write(tmp_path, "c.json",
                    {"channel": {"type": "bec", "epsilon": 0.5}, "n": 4})
        assert main(["analyze", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        text = (tmp_path / "bit_channels.csv").read_text()
        assert text.splitlines()[0].endswith("config_hash,version")
        assert len(text.splitlines()) == 17


# Every number is small, so no draw asks for a large code or campaign.
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from([0.5, -0.5, 1.5, 2.0, 1e-12, math.nan, math.inf,
                     -math.inf]),
    st.sampled_from(["", "x", "2", "-1", "nan", "inf", "auto", "exact", "mc",
                     "mac", "hk", "bec", "erasure", "parity-linked", "1^4",
                     "1^2 2^2", "2^x", "0^3"]),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.sampled_from(["type", "epsilon", "users"]),
                    st.integers(-1, 3), max_size=2),
)


@st.composite
def mutated(draw, value):
    """``value`` with some of its entries dropped, replaced or added."""
    if draw(st.integers(0, 9)) == 0:
        return draw(JUNK)
    if isinstance(value, dict) and value:
        out = dict(value)
        for key in draw(st.lists(st.sampled_from(sorted(out)), max_size=3,
                                 unique=True)):
            action = draw(st.sampled_from(["drop", "junk", "deeper"]))
            if action == "drop":
                del out[key]
            else:
                out[key] = draw(JUNK if action == "junk" else mutated(out[key]))
        return out
    if isinstance(value, list) and value:
        out = list(value)
        j = draw(st.integers(0, len(out) - 1))
        action = draw(st.sampled_from(["drop", "junk", "deeper", "append"]))
        if action == "drop":
            del out[j]
        elif action == "append":
            out.append(draw(JUNK))
        else:
            out[j] = draw(JUNK if action == "junk" else mutated(out[j]))
        return out
    return draw(JUNK) if draw(st.booleans()) else value


@st.composite
def malformed_runs(draw):
    command, base = draw(st.sampled_from(CONTRACT_BASES))
    argv = [command, "--seed", str(draw(st.integers(-1, 3)))]
    if command == "analyze":
        argv += draw(st.sampled_from([[], ["--exact"], ["--mc"]]))
    return argv, draw(mutated(base))


class TestExitCodeContract:
    """Whatever the config, the CLI exits 0, 2 or 3 and raises nothing."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(malformed_runs())
    def test_malformed_configs(self, run):
        argv, cfg = run
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.json")
            with open(path, "w") as f:
                json.dump(cfg, f)
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = main(argv + ["--config", path,
                                  "--out-dir", os.path.join(tmp, "out")])
        assert rc in (0, 2, 3)


class TestOutputs:
    def test_analyze_conservation(self, tmp_path):
        cfg = write(tmp_path, "c.json",
                    {"channel": {"type": "bec", "epsilon": 0.5}, "n": 6})
        assert main(["analyze", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "bit_channels.csv").read_text().splitlines()[1:]
        total = sum(float(r.split(",")[1]) for r in rows)
        assert abs(total - 32.0) < 1e-9

    def test_path_profile(self, tmp_path):
        cfg = write(tmp_path, "c.json", {
            "mac": {"type": "parity-linked", "users": 2, "eps_tile": [0.5]},
            "path": "1^2 2^4 1^2",
        })
        assert main(["analyze", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "path_profile.csv").exists()

    def test_region_vertices(self, tmp_path):
        cfg = write(tmp_path, "c.json", {
            "task": "mac",
            "channel": {"inputs": [2, 2], "outputs": 3,
                        "kernel": [[1, 0, 0], [0, 1, 0],
                                   [0, 1, 0], [0, 0, 1]]},
        })
        assert main(["region", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "region.json").read_text())
        verts = [tuple(v) for v in doc["region"]["vertices"]]
        assert (0.5, 1.0) in verts and (1.0, 0.5) in verts

    def test_one_dimensional_region_vertices(self, tmp_path):
        cfg = write(tmp_path, "c.json", {
            "task": "mac", "channel": {"type": "bec", "epsilon": 0.25}})
        assert main(["region", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "region_vertices.csv").read_text().splitlines()
        assert rows[0] == "v1,config_hash,version"
        assert [r.split(",")[0] for r in rows[1:]] == ["-0.0", "0.75"]
        assert all(len(r.split(",")) == 3 for r in rows)

    def test_erasure_channel_region(self, tmp_path):
        cfg = write(tmp_path, "c.json", {
            "task": "mac", "channel": {"type": "erasure", "epsilon": 0.5}})
        assert main(["region", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "region.json").read_text())
        assert [q["bound"] for q in doc["region"]["inequalities"]] == [0.5]

    def test_build_and_simulate(self, tmp_path):
        cfg = write(tmp_path, "c.json", dict(BUILD_CFG, trials=100, chunk=32))
        assert main(["build", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "code_spec.json").exists()
        assert (tmp_path / "theorem_report.json").exists()
        assert main(["simulate", "--config", cfg, "--seed", "4",
                     "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "block_error.csv").read_text().splitlines()
        assert rows[0].startswith("receiver,user,errors,trials,ber")

    def test_repeat_runs_identical(self, tmp_path):
        cfg = write(tmp_path, "c.json", dict(BUILD_CFG, trials=100, chunk=32))
        outs = []
        for d in ("a", "b"):
            out = tmp_path / d
            assert main(["simulate", "--config", cfg, "--seed", "4",
                         "--out-dir", str(out)]) == 0
            outs.append((out / "block_error.csv").read_bytes())
        assert outs[0] == outs[1]


class TestWilson:
    def test_known_value(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.0370, abs=5e-4)

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(7, 50)
        assert lo < 7 / 50 < hi
