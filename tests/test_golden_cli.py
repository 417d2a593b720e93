"""Every file the CLI writes, pinned by sha256 on a fixed set of configs.

The digests were recorded before the CLI stopped re-parsing its own
JSON; a change to how outputs are assembled or encoded must reproduce
them byte for byte.  The configs cover ``analyze`` (BEC stats and a
parity-linked path profile), each ``region`` task, ``build`` at the
README config and the design-sweep point (N, k) = (1024, 3), and
``simulate`` at the Criterion 10 config.

Run this file as a script to print the digests of the current code.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from polarnet.cli import main

ADDER2 = {"inputs": [2, 2], "outputs": 3,
          "kernel": [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]}


def _bsc_mac(eps):
    """Two binary senders, output their XOR through a BSC(eps)."""
    return {"inputs": [2, 2], "outputs": 2,
            "kernel": [[[1 - eps, eps], [eps, 1 - eps]][x1 ^ x2]
                       for x1 in range(2) for x2 in range(2)]}


# the Han-Kobayashi test instance: Y = (X1 + X2, X2) on {0,1}^2
HK_IC = {"inputs": [2, 2], "outputs": 6,
         "kernel": [[1 if y == (x1 + x2) * 2 + x2 else 0 for y in range(6)]
                    for x1 in range(2) for x2 in range(2)]}

README_BUILD = {"receivers": [{"eps_tile": [0.5], "decode_set": [1, 2]},
                              {"eps_tile": [0.0, 1.0], "decode_set": [1, 2]}],
                "target": [0.75, 0.75], "N": 64, "k": 1, "split_eps": 0.1}

CONFIGS = {
    "analyze-bec": ("analyze", {"channel": {"type": "bec", "epsilon": 0.5},
                                "n": 6}),
    "analyze-path": ("analyze", {
        "mac": {"type": "parity-linked", "users": 2, "eps_tile": [0.5]},
        "path": "1^2 2^4 1^2"}),
    "region-mac": ("region", {"task": "mac", "channel": ADDER2}),
    "region-intersect": ("region", {"task": "intersect",
                                    "channels": [ADDER2, _bsc_mac(0.1)]}),
    "region-hk": ("region", {"task": "hk", "channel": HK_IC,
                             "maps": [[[0, 1], [1, 0]], [[0, 1], [1, 0]]],
                             "output_arities": [3, 2]}),
    "region-superposition": ("region", {
        "task": "superposition", "channel_y1": _bsc_mac(0.0),
        "channel_y2": _bsc_mac(0.1), "p": [[0.5, 0.5], [0.7, 0.3]]}),
    "region-strong-interference": ("region", {
        "task": "strong-interference", "channel_y": _bsc_mac(0.05),
        "channel_z": _bsc_mac(0.2), "grid_resolution": 5}),
    "build-readme": ("build", README_BUILD),
    "build-sweep-1024-3": ("build", {
        "receivers": [{"eps_tile": [0.3], "decode_set": [1, 2]},
                      {"eps_tile": [0.0, 0.6], "decode_set": [1, 2]}],
        "target": [0.85, 0.85], "N": 1024, "k": 3,
        "delta_good": 1 - 1e-4, "delta_bad": 0.1, "split_eps": 0.05}),
    "simulate-criterion10": ("simulate", dict(README_BUILD, trials=300,
                                              chunk=64)),
}


def run(name, root):
    """Run one config in-process under ``root``; {file name: sha256}."""
    command, cfg = CONFIGS[name]
    root = pathlib.Path(root)
    path = root / f"{name}.json"
    path.write_text(json.dumps(cfg))
    out = root / name
    assert main([command, "--config", str(path), "--seed", "11",
                 "--out-dir", str(out)]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.iterdir())}


SHA256 = {
    "analyze-bec": {
        "bit_channels.csv":
            "b92cfd4e4433e0923e8265c9f0a669ad84b59442f32ca0e2a3661d75ff9876c6",
    },
    "analyze-path": {
        "path_profile.csv":
            "6108da0b579bd302486f6ec82a7c82c43d665ba8375344180c9aad5785c209f1",
    },
    "build-readme": {
        "code_spec.json":
            "8be56ef22a208854a4322769882fc88a26e96a9a826196025cec2bf2f34df6b2",
        "theorem_report.json":
            "dc913872a653afc031d1d8d2eab1ac385cf75a604cfe9e0b31578b6d7fdbc359",
    },
    "build-sweep-1024-3": {
        "code_spec.json":
            "ef3329d9166915ae77f3a903d07ce3e71d8e0b79429e11e23ca688e0084befc2",
        "theorem_report.json":
            "7a8995f49406b896e9907a5921954386fb3cc265ed2837a6f24c414fa3ed8553",
    },
    "region-hk": {
        "region.json":
            "65c1940994191d72671c65f901ccca682b89f74ff8bdd8084e38c6f0b9bd1553",
        "region_vertices.csv":
            "1c3a5b4bfe7eed2e150b2a53cd1d99847787afb5fef5f4ce27f082cdfdddb87b",
    },
    "region-intersect": {
        "region.json":
            "8b354cee13c9615f41017dfc9b46d165ec99f0499c7ff6b2819cfe08c8ab74c0",
        "region_vertices.csv":
            "1e71bcc10b16c112d3b437544c4bf051c115bd15a5ff014928ac5f339980e7cc",
    },
    "region-mac": {
        "region.json":
            "47ee080fe35d3f95e421bddd937f2614cee7aee63e6b4fb239c33fc9a2d6b4cd",
        "region_vertices.csv":
            "da91c7849d1a91b74cb379ee65780614eb3b9744cfae67d3de1b174a4c2c52a9",
    },
    "region-strong-interference": {
        "region.json":
            "c1834db223331730038182170dd010b2458a9f0113126aad3b77255073430da2",
    },
    "region-superposition": {
        "region.json":
            "ac41e30c517240f0482691ef24fee69393c95de51b1944c04c2bc1a98011106c",
    },
    "simulate-criterion10": {
        "block_error.csv":
            "c3df807feb83ed220d663564956e00657d1770db4e2ebfa6eb2149869a8457c1",
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_digests(name, tmp_path):
    assert run(name, tmp_path) == SHA256[name]


if __name__ == "__main__":
    # with a directory argument, keep the output tree there for diffing
    root = sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp()
    pathlib.Path(root).mkdir(parents=True, exist_ok=True)
    for name in sorted(CONFIGS):
        with contextlib.redirect_stdout(io.StringIO()):
            digests = run(name, root)
        print(f'    "{name}": {{')
        for f, h in digests.items():
            print(f'        "{f}":\n            "{h}",')
        print("    },")
