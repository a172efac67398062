#!/usr/bin/env python3
"""Check every pinned CLI and example output against committed goldens.

Reports, plan tables, sweep grids, simulated exchanges, metrics JSON,
traces and the examples' output are byte-identical by contract. This
script reruns each of them and compares the bytes with
tests/data/golden/, so an output that moves shows up in the diff
instead of in a hand-made list.

Usage:
    tools/golden.py --check [--build-dir DIR]
    tools/golden.py --update [--build-dir DIR]

Options:
    --build-dir DIR   CMake build tree holding tools/ctplan and
                      examples/ (default: build next to this script's
                      repository root)
    --check           regenerate every output and compare it with the
                      committed file; exit 1 naming each file that
                      differs, is missing or is not in the manifest
    --update          rewrite the files and name the ones that moved

Each golden file is a transcript of one group of commands, every
output next to the command line that makes it:

    $ ctplan t3d table
    <stdout>
    [exit N]                      (only when N is not 0)
    --- metrics.json              (a file the command wrote)
    <its bytes>

Commands run in a fresh temporary directory, so a file they write is
named relative to it. An output over HASH_OVER bytes is recorded as
its SHA-256 and length instead of its bytes. stderr is not pinned:
`warn:` lines go there during degraded runs.
"""

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(ROOT, "tests", "data", "golden")
HASH_OVER = 100 * 1024

MACHINES = ("t3d", "paragon")
EXAMPLES = ("quickstart", "fft2d", "earthquake_solver",
            "redistribution_planner")
PLAN_PATTERNS = ("1Q1", "1Q64", "16Q1", "wQw")
PLAN_BYTES = (None, "1500", "1550", "65536")
# Interpolated, clamped, block-strided and indexed leaves on both
# sides, each planned at one message size.
PATTERN_PLAN_LABELS = ("1", "3", "16", "64", "256", "1024", "w", "16.2")
TRANSPORTS = ("reliable", "raw", "packing")
# The CI fault-matrix rows and the chaos ramp of its adaptive leg.
FAULT_ROWS = (
    "drop=0.02,dup=0.02,corrupt=0.01,delay=500,seed=3",
    "link_down=5@40000,seed=3",
    "node_down=1@40000,seed=3",
    "link_fail_rate=0.001,seed=3",
    "drop=0.01,corrupt=0.005,node_down=1@60000,seed=5",
)
CHAOS_RAMP = "seed:7;ramp:drop:0:0.05:0:300000"


def manifest():
    """(golden file, [(argv, written file or None)]) per group."""
    def cmds(*argvs):
        return [(list(a), None) for a in argvs]

    yield "validate.txt", cmds(["ctplan", "validate", "--json"])
    for m in MACHINES:
        yield f"{m}_tables.txt", cmds(["ctplan", m, "table"],
                                      ["ctplan", m, "sim-table"])
        plans = []
        for q in PLAN_PATTERNS:
            for size in PLAN_BYTES:
                argv = ["ctplan", m, q] + ([size] if size else [])
                plans += [argv, argv + ["--json"]]
        for nodes in ("64", "8192"):
            plans += [["ctplan", m, "1Q64", f"--nodes={nodes}"],
                      ["ctplan", m, "1Q1", "65536", f"--nodes={nodes}",
                       "--json"]]
        yield f"{m}_plans.txt", cmds(*plans)
        yield f"{m}_pattern_plans.txt", cmds(
            *[["ctplan", m, f"{x}Q{y}", "8192", "--json"]
              for x in PATTERN_PLAN_LABELS for y in PATTERN_PLAN_LABELS])
        sim = ["ctplan", m, "sim", "1Q4", "4096"]
        yield f"{m}_sim.txt", cmds(
            *[sim + [f"--transport={t}"] for t in TRANSPORTS],
            *[sim + [f"--faults={f}"] for f in FAULT_ROWS],
            *[sim + [f"--faults={f}", f"--chaos={CHAOS_RAMP}",
                     "--adaptive", "--rounds=4"] for f in FAULT_ROWS])
    yield "sweeps.txt", cmds(
        *[["ctplan", "sweep", "--json", f"--grid={g}"]
          for g in ("fig4", "faultsweep", "nodes:8..8192")])
    yield "observability.txt", [
        (["ctplan", "t3d", "sim", "1Q4", "4096",
          "--metrics-out=metrics.json"], "metrics.json"),
        (["ctplan", "t3d", "sim", "1Q4", "4096", "--trace=trace.jsonl",
          "--trace-format=jsonl"], "trace.jsonl"),
    ]
    yield "examples.txt", cmds(*[[e] for e in EXAMPLES])


def binary(build_dir, name):
    sub = "tools" if name == "ctplan" else "examples"
    return os.path.join(build_dir, sub, name)


def pinned(data):
    """The bytes a transcript records for one output."""
    if len(data) <= HASH_OVER:
        return data
    digest = hashlib.sha256(data).hexdigest()
    return f"sha256 {digest} ({len(data)} bytes)\n".encode()


def transcript(build_dir, commands):
    out = []
    for argv, written in commands:
        with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
            proc = subprocess.run([binary(build_dir, argv[0])] + argv[1:],
                                  cwd=tmp, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL)
            out.append(f"$ {shlex.join(argv)}\n".encode())
            out.append(pinned(proc.stdout))
            if proc.returncode:
                out.append(f"[exit {proc.returncode}]\n".encode())
            if written:
                out.append(f"--- {written}\n".encode())
                path = os.path.join(tmp, written)
                if os.path.exists(path):
                    with open(path, "rb") as f:
                        out.append(pinned(f.read()))
                else:
                    out.append(b"(not written)\n")
    return b"".join(out)


def first_difference(want, got):
    """The first differing line of two transcripts, for the report."""
    wl = want.decode(errors="replace").splitlines()
    gl = got.decode(errors="replace").splitlines()
    for i, (w, g) in enumerate(zip(wl, gl)):
        if w != g:
            return f"line {i + 1}:\n  want {w[:120]!r}\n  got  {g[:120]!r}"
    return f"lengths differ: {len(wl)} vs {len(gl)} lines"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--update", action="store_true")
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build"))
    args = ap.parse_args()
    build_dir = os.path.abspath(args.build_dir)

    for name in ("ctplan",) + EXAMPLES:
        if not os.access(binary(build_dir, name), os.X_OK):
            sys.exit(f"golden: {binary(build_dir, name)} is not built")

    groups = dict(manifest())
    on_disk = (set(f for f in os.listdir(GOLDEN_DIR) if f.endswith(".txt"))
               if os.path.isdir(GOLDEN_DIR) else set())
    moved = []
    for name, commands in groups.items():
        got = transcript(build_dir, commands)
        path = os.path.join(GOLDEN_DIR, name)
        want = None
        if os.path.exists(path):
            with open(path, "rb") as f:
                want = f.read()
        if want == got:
            continue
        if args.update:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(path, "wb") as f:
                f.write(got)
            moved.append(f"{'moved' if want is not None else 'new'}: "
                         f"{name}")
        elif want is None:
            moved.append(f"missing: {name}")
        else:
            moved.append(f"differs: {name}, "
                         f"{first_difference(want, got)}")
    for name in sorted(on_disk - set(groups)):
        if args.update:
            os.remove(os.path.join(GOLDEN_DIR, name))
            moved.append(f"removed: {name}")
        else:
            moved.append(f"not in the manifest: {name}")

    for line in moved:
        print(line)
    if args.update:
        print(f"golden: {len(moved)} of {len(groups)} files moved")
        return 0
    if moved:
        print(f"golden: {len(moved)} mismatches; rerun with --update "
              "only for a change meant to move these bytes")
        return 1
    print(f"golden: all {len(groups)} files match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
