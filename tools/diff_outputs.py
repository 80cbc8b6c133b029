"""Compare the CLI outputs of two checkouts, file by file.

Run from the root of the change's checkout, with the parent commit checked
out (or exported) in another directory:

    python3 tools/diff_outputs.py --parent ../parent --change .

Each checkout runs these commands with its own ``src/``, each into its own
directory under a temporary root that is removed afterwards:

    mfload simulate --config configs/example.ini
    mfload simulate --config <DENSE_MIGRATION, written into the temporary root>
    mfload simulate --config <HUGE_DEMAND, written into the temporary root>
    mfload sweep --config configs/grid.ini
    mfload generate --hurst 0.9 --delta-h 2.5
    mfload analyze <generate's series.csv>
    mfload analyze <generate's series.csv> --q-min -4 --q-max 4 --q-steps 17

The second command runs threshold_migration at arrival_scale 1.0, where
more than half the dispatches find no server: the dense load at which the
migration pass, the queue retry and the completion bookkeeping work
hardest, and which no shipped config or demo reaches. The third draws
cpu demands with mean 1e308 and sigma 3, so some exponents pass
``log(sys.float_info.max)`` and the demand drawer's overflow path runs.
Then it runs the demos of DEMOS: ``demos/policy_faceoff.py``, four
policies over one explicit traffic record realized once, so the
``series`` argument of ``run_scenario`` is covered;
``demos/traffic_width.py``, MF-DFA on cascades of five spreads, so
cascade generation and its measurement are covered; and
``demos/grid_ordering.py``, three calibrated explicit records each run
under five seeds, so calibrated records are covered across run seeds.
Each demo's standard output is written to ``<demo>/stdout.txt``.
Every output file but ``manifest.json`` must be byte-identical. A
``manifest.json`` is compared as JSON without its ``timestamps``; each float
that differs is printed with both values and their distance in ulps. The
tool prints one line per difference and exits with status 1 if there is
any, 0 if there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

# a dense threshold_migration run; the other [traffic], [cluster] and [demand] keys keep their defaults
DENSE_MIGRATION = """\
[policy]
kind = threshold_migration
migration_threshold = 0.001

[sim]
horizon = 4096
arrival_scale = 1.0
seed = 3
"""

# cpu demands past the float range, which the drawer turns into inf and clips to cpu_max
HUGE_DEMAND = """\
[demand]
cpu_mean = 1e308
cpu_sigma = 3.0

[sim]
horizon = 4096
"""

# config files written into the temporary root, by the name COMMANDS gives them
CONFIGS = {"dense": DENSE_MIGRATION, "huge": HUGE_DEMAND}

# (output directory, CLI arguments); "{series}" is the generate command's
# series.csv, and "{dense}" and "{huge}" are the config files of CONFIGS
COMMANDS = (
    ("simulate", ("simulate", "--config", "configs/example.ini")),
    ("simulate_dense_migration", ("simulate", "--config", "{dense}")),
    ("simulate_huge_demand", ("simulate", "--config", "{huge}")),
    ("sweep", ("sweep", "--config", "configs/grid.ini")),
    ("generate", ("generate", "--hurst", "0.9", "--delta-h", "2.5")),
    ("analyze", ("analyze", "{series}")),
    ("analyze_q", ("analyze", "{series}", "--q-min", "-4", "--q-max", "4", "--q-steps", "17")),
)
DEMOS = ("policy_faceoff", "traffic_width", "grid_ordering")


def _python(checkout: Path, args: list[str]) -> str:
    """Standard output of ``python <args>`` run in the checkout on its own ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, *args], cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: python {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def run_cli(checkout: Path, args: list[str], out: Path) -> None:
    """Run one ``mfload`` command on the checkout's ``src/``, writing into `out`."""
    _python(checkout, ["-m", "mfload.cli", *args, "--out", str(out)])


def run_demo(checkout: Path, demo: str, out: Path) -> None:
    """Run ``demos/<demo>.py`` on the checkout's ``src/``, writing its standard output to ``out/stdout.txt``."""
    stdout = _python(checkout, [f"demos/{demo}.py"])
    out.mkdir(parents=True)
    (out / "stdout.txt").write_text(stdout, encoding="utf-8")


def run_all(checkout: Path, root: Path, configs: dict[str, Path]) -> None:
    """Every command of COMMANDS and every demo of DEMOS in `checkout`, into ``root/<name>``.

    `configs` maps each name of CONFIGS to its written config file.
    """
    series = root / "generate" / "series.csv"
    for name, args in COMMANDS:
        run_cli(checkout, [a.format(series=series, **configs) for a in args], root / name)
    for demo in DEMOS:
        run_demo(checkout, demo, root / demo)


def ulps(a: float, b: float) -> int:
    """Distance between two finite doubles in units in the last place."""
    def ordinal(v: float) -> int:
        bits = struct.unpack("<q", struct.pack("<d", v))[0]
        # sign-magnitude bits onto one monotone integer line; -0.0 and 0.0 meet at 0
        return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)

    return abs(ordinal(a) - ordinal(b))


def diff_json(parent, change, where: str) -> list[str]:
    """One line per value that differs between two parsed JSON documents."""
    if isinstance(parent, dict) and isinstance(change, dict):
        lines = [f"{where}.{k}: only in the {'parent' if k in parent else 'change'}"
                 for k in sorted(parent.keys() ^ change.keys())]
        for k in sorted(parent.keys() & change.keys()):
            lines += diff_json(parent[k], change[k], f"{where}.{k}")
        return lines
    if isinstance(parent, list) and isinstance(change, list) and len(parent) == len(change):
        return [line for k, (p, c) in enumerate(zip(parent, change)) for line in diff_json(p, c, f"{where}[{k}]")]
    if type(parent) is float and type(change) is float and parent != change:
        return [f"{where}: {parent!r} -> {change!r} ({ulps(parent, change)} ulps)"]
    return [] if parent == change and type(parent) is type(change) else [f"{where}: {parent!r} -> {change!r}"]


def diff_trees(parent: Path, change: Path) -> tuple[int, list[str]]:
    """The number of files compared and one line per difference between two output trees."""
    files = {s: {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}
             for s, root in (("parent", parent), ("change", change))}
    lines = [f"{rel}: only in the {side}" for side, other in (("parent", "change"), ("change", "parent"))
             for rel in sorted(files[side] - files[other])]
    common = sorted(files["parent"] & files["change"])
    for rel in common:
        p, c = (parent / rel).read_bytes(), (change / rel).read_bytes()
        if Path(rel).name == "manifest.json":
            p, c = json.loads(p), json.loads(c)
            p.pop("timestamps", None)
            c.pop("timestamps", None)
            lines += diff_json(p, c, rel)
        elif p != c:
            lines.append(f"{rel}: bytes differ")
    return len(common), lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        configs = {name: Path(tmp) / f"{name}.ini" for name in CONFIGS}
        for name, path in configs.items():
            path.write_text(CONFIGS[name], encoding="utf-8")
        run_all(args.parent.resolve(), roots["parent"], configs)
        run_all(args.change.resolve(), roots["change"], configs)
        compared, lines = diff_trees(roots["parent"], roots["change"])
    for line in lines:
        print(line)
    print(f"{compared} files in both trees, {len(lines)} differences")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
