"""Experiment command-line interface.

Subcommands: ``analyze`` (bit-channel stats / path rate profiles),
``region`` (rate-region polytopes incl. Han-Kobayashi and superposition
cases), ``build`` (compound code construction + achievability report),
``simulate`` (Monte-Carlo block-error campaigns; the ``errors`` column
of a user is its receiver's block-failure count, the trials in which
that receiver left some information bit of any user it decodes erased,
so every user of a receiver shows the same count).  All outputs are CSV
or JSON, deterministic byte-for-byte given (config, seed) regardless of
``--threads``; every row or document carries the config hash and the
package version.  A JSON document is the ``to_dict()`` of the code or
region it describes, stamped and encoded once.

Every subcommand takes ``--threads`` (only ``simulate`` runs threads);
only ``analyze`` takes ``--exact``/``--mc``, and only on a channel config.

Exit codes: 0 success, 2 configuration error (among them a config that
is not a JSON object, a field of the wrong type, an ``analyze``
``"mode"`` other than ``"auto"``, ``"exact"`` or ``"mc"``, ``--exact`` or
``--mc`` on a path config, ``--threads`` below 1 and ``--seed`` outside
[0, 2^64), and an integer field, decode-set, symbol-map or channel-size
entry that is not an int or an integral float), 3 precondition error
(among them a strong-interference ``grid_resolution`` below 2 and a
size past :data:`~polarnet.chains.SIZE_CAP_LOG2`).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .alignment import ScheduleError
from .channels import (
    DimensionError,
    DiscreteChannel,
    InputDistribution,
    KernelSizeError,
    UnsupportedChannelError,
    strict_int,
)
from .chains import (
    MonotonePath,
    NotFoundError,
    PreconditionError,
    path_rates,
)
from .codec import ReceiverSpec, build_code, simulate, theorem1_check
from .erasure import ParityLinkedErasureMAC
from .polar import (
    ConfigurationError,
    EstimatorConfig,
    synthesize_p2p,
    stats_to_csv,
)
from .regions import (
    RegionError,
    hk_region,
    intersect,
    mac_region,
    strong_interference_check,
    superposition_regions,
)


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def wilson_interval(errors: int, trials: int, z: float = 1.959963984540054):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ConfigurationError("trials must be positive")
    p = errors / trials
    den = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / den
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials**2)) / den
    return max(0.0, center - half), min(1.0, center + half)


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigurationError(f"config is missing required field {key!r}")
    return cfg[key]


def _value(cfg: dict, key: str, kind, default=None):
    """``kind(cfg[key])``; the field is required unless a default is given."""
    value = _require(cfg, key) if default is None else cfg.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, AttributeError, OverflowError) as e:
        raise ConfigurationError(f"bad value for {key!r}: {value!r}") from e


def _ints(values) -> tuple[int, ...]:
    """A list of integer fields, such as a decode set."""
    if not isinstance(values, list):
        raise TypeError(f"not a list: {values!r}")
    return tuple(map(strict_int, values))


def _decode_set(cfg: dict):
    """The optional ``"decode_set"`` of a region task; None decodes all."""
    if cfg.get("decode_set") is None:
        return None
    return _value(cfg, "decode_set", _ints)


def _list(cfg: dict, key: str) -> list:
    value = _require(cfg, key)
    if not isinstance(value, list):
        raise ConfigurationError(f"{key!r} must be a list, got {value!r}")
    return value


def _symbol_map(table) -> np.ndarray:
    """One Han-Kobayashi symbol map: a nonempty 2-D table of symbols,
    each read with :func:`strict_int`."""
    try:
        if not isinstance(table, list):
            raise TypeError(f"not a list: {table!r}")
        m = np.array([_ints(row) for row in table], dtype=int)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigurationError(f"bad symbol map {table!r}") from e
    if m.ndim != 2 or not m.size or m.min() < 0:
        raise ConfigurationError(f"a symbol map must be a nonempty 2-D table "
                                 f"of nonnegative symbols, got {table!r}")
    return m


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _load_channel(obj):
    if not isinstance(obj, dict):
        raise ConfigurationError("channel description must be an object")
    try:
        return DiscreteChannel.from_json(obj)
    except (KeyError, ValueError, TypeError, OverflowError) as e:
        raise ConfigurationError(f"bad channel description: {e}") from e


def _load_mac(obj):
    if isinstance(obj, dict) and obj.get("type") == "parity-linked":
        try:
            return ParityLinkedErasureMAC(strict_int(obj["users"]),
                                          _floats(obj["eps_tile"]))
        except (KeyError, ValueError, TypeError, OverflowError) as e:
            raise ConfigurationError(f"bad parity-linked MAC: {e}") from e
    return _load_channel(obj)


def _load_distribution(obj, arities):
    if obj is None:
        return InputDistribution.uniform(tuple(arities))
    try:
        return InputDistribution.product([list(map(float, m)) for m in obj])
    except (ValueError, TypeError) as e:
        raise ConfigurationError(f"bad input distribution: {e}") from e


def _write(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as f:
        f.write(text)
    return path


def _stamp_csv(csv_text: str, cfg_hash: str) -> str:
    lines = csv_text.strip("\n").split("\n")
    out = [lines[0] + ",config_hash,version"]
    for line in lines[1:]:
        out.append(f"{line},{cfg_hash},{__version__}")
    return "\n".join(out) + "\n"


def _json_doc(payload: dict, cfg_hash: str) -> str:
    doc = dict(payload)
    doc["config_hash"] = cfg_hash
    doc["version"] = __version__
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- subcommands ---------------------------------------------------------


def cmd_analyze(cfg: dict, args) -> int:
    h = _config_hash(cfg)
    mode = cfg.get("mode", "auto")
    if mode not in ("auto", "exact", "mc"):
        raise ConfigurationError(f"unknown mode {mode!r}")
    if args.mc:
        mode = "mc"
    if args.exact:
        mode = "exact"
    if "path" in cfg:
        if args.mc or args.exact:
            raise ConfigurationError("--exact and --mc apply to a channel "
                                     "config, not to a path profile")
        mac = _load_mac(_require(cfg, "mac"))
        path = _value(cfg, "path", MonotonePath.parse)
        prof = path_rates(mac, path)
        buf = io.StringIO()
        buf.write("index,mi\n")
        for i, v in enumerate(prof.per_index_mi, start=1):
            buf.write(f"{i},{v!r}\n")
        buf.write("rates," + " ".join(repr(r) for r in prof.rate_tuple) + "\n")
        path_out = _write(args.out_dir, "path_profile.csv",
                          _stamp_csv(buf.getvalue(), h))
    else:
        ch = _load_channel(_require(cfg, "channel"))
        n = _value(cfg, "n", strict_int)
        if n < 0:
            raise ConfigurationError(f"n must be non-negative, got {n}")
        est = EstimatorConfig(
            trials=_value(cfg, "trials", strict_int, 10_000), seed=args.seed
        )
        stats = synthesize_p2p(ch, n, est, mode=mode)
        path_out = _write(args.out_dir, "bit_channels.csv",
                          _stamp_csv(stats_to_csv(stats), h))
    print(path_out)
    return 0


def cmd_region(cfg: dict, args) -> int:
    h = _config_hash(cfg)
    task = cfg.get("task", "mac")
    if task == "mac":
        ch = _load_channel(_require(cfg, "channel"))
        p = _load_distribution(cfg.get("p"), ch.input_arities)
        region = mac_region(ch, p, _decode_set(cfg))
        payload = {"task": task, "region": region.to_dict()}
    elif task == "intersect":
        regions = []
        decode_set = _decode_set(cfg)
        for entry in _list(cfg, "channels"):
            ch = _load_channel(entry)
            p = _load_distribution(cfg.get("p"), ch.input_arities)
            regions.append(mac_region(ch, p, decode_set))
        payload = {"task": task, "region": intersect(regions).to_dict()}
    elif task == "hk":
        ch = _load_channel(_require(cfg, "channel"))
        maps = [_symbol_map(m) for m in _list(cfg, "maps")]
        arities = _value(cfg, "output_arities", _ints)
        if len(maps) != 2 or len(arities) != 2 or min(arities) < 1:
            raise ConfigurationError("hk needs two symbol maps and two "
                                     "positive output arities")
        p = _load_distribution(cfg.get("p"), maps[0].shape + maps[1].shape)
        region = hk_region(ch, p, maps, arities)
        payload = {"task": task, "region": region.to_dict()}
    elif task == "superposition":
        ch1 = _load_channel(_require(cfg, "channel_y1"))
        ch2 = _load_channel(_require(cfg, "channel_y2"))
        p = _load_distribution(cfg.get("p"), ch1.input_arities)
        regs = superposition_regions(ch1, ch2, p)
        payload = {"task": task, "regions": {
            str(i): r.to_dict() for i, r in regs.items()
        }}
    elif task == "strong-interference":
        ch1 = _load_channel(_require(cfg, "channel_y"))
        ch2 = _load_channel(_require(cfg, "channel_z"))
        holds, witness, label = strong_interference_check(
            ch1, ch2, _value(cfg, "grid_resolution", strict_int, 9))
        payload = {"task": task, "holds": holds, "witness": witness,
                   "status": label}
    else:
        raise ConfigurationError(f"unknown region task {task!r}")
    out = _write(args.out_dir, "region.json", _json_doc(payload, h))
    # vertex CSV for plotting
    verts = payload.get("region", {}).get("vertices")
    if verts:
        header = ",".join(f"v{i + 1}" for i in range(len(verts[0])))
        lines = [header] + [",".join(repr(float(x)) for x in v) for v in verts]
        _write(args.out_dir, "region_vertices.csv",
               _stamp_csv("\n".join(lines) + "\n", h))
    print(out)
    return 0


def _build_from_config(cfg: dict):
    receivers = []
    for entry in _list(cfg, "receivers"):
        try:
            decode_set = _ints(entry["decode_set"])
            mac = ParityLinkedErasureMAC(len(decode_set),
                                         _floats(entry["eps_tile"]))
            receivers.append(ReceiverSpec(mac, decode_set))
        except (KeyError, TypeError, ValueError) as e:
            raise ConfigurationError(f"bad receiver {entry!r}: {e}") from e
    target = _value(cfg, "target", _floats)
    N = _value(cfg, "N", strict_int)
    k = _value(cfg, "k", strict_int)
    delta_good = _value(cfg, "delta_good", float, 0.99)
    delta_bad = _value(cfg, "delta_bad", float, 0.01)
    split_eps = _value(cfg, "split_eps", float, 0.05)
    return build_code(
        receivers, target, N=N, k=k,
        delta_good=delta_good, delta_bad=delta_bad,
        strategy=cfg.get("strategy", "equal-sum"),
        split_eps=split_eps,
    )


def cmd_build(cfg: dict, args) -> int:
    h = _config_hash(cfg)
    spec = _build_from_config(cfg)
    report = theorem1_check(spec, _value(cfg, "epsilon", float, 0.05))
    spec_path = _write(args.out_dir, "code_spec.json",
                       _json_doc(spec.to_dict(), h))
    _write(args.out_dir, "theorem_report.json", _json_doc({
        "per_user": {str(u): d for u, d in report.per_user.items()},
        "passed_i": report.passed_i,
        "passed_ii": report.passed_ii,
        "shortfall": {str(u): s for u, s in spec.shortfall.items()},
    }, h))
    print(spec_path)
    return 0


def cmd_simulate(cfg: dict, args) -> int:
    h = _config_hash(cfg)
    trials = _value(cfg, "trials", strict_int, 1000)
    chunk = _value(cfg, "chunk", strict_int, 2048)
    if trials < 1 or chunk < 1:
        raise ConfigurationError("trials and chunk must be positive")
    spec = _build_from_config(cfg)
    errors, n = simulate(spec, trials, seed=args.seed, chunk=chunk,
                         threads=args.threads)
    lines = ["receiver,user,errors,trials,ber,ci_low,ci_high"]
    for r, per in enumerate(errors):
        for u in sorted(per):
            e = per[u]
            lo, hi = wilson_interval(e, n)
            lines.append(
                f"{r},{u},{e},{n},{e / n!r},{lo!r},{hi!r}"
            )
    out = _write(args.out_dir, "block_error.csv",
                 _stamp_csv("\n".join(lines) + "\n", h))
    print(out)
    return 0


# -- entry point ---------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="polarnet",
        description="Polar coding experiments for compound MACs and "
                    "interference networks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in [("analyze", cmd_analyze), ("region", cmd_region),
                     ("build", cmd_build), ("simulate", cmd_simulate)]:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out-dir", default=".")
        sp.add_argument("--threads", type=int, default=1)
        if name == "analyze":
            mode = sp.add_mutually_exclusive_group()
            mode.add_argument("--exact", action="store_true")
            mode.add_argument("--mc", action="store_true")
        sp.set_defaults(fn=fn)
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.threads < 1:
        print("config error: --threads must be positive", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("config error: --seed must be in [0, 2^64)", file=sys.stderr)
        return 2
    try:
        with open(args.config) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("config error: the config must be a JSON object", file=sys.stderr)
        return 2
    try:
        return args.fn(cfg, args)
    except ConfigurationError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (PreconditionError, NotFoundError, RegionError, DimensionError,
            UnsupportedChannelError, KernelSizeError, ScheduleError) as e:
        print(f"precondition error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
