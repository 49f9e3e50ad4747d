#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--record <file>]

Run from the repository root. Builds the `perfbench` package (release,
offline) into $CARGO_TARGET_DIR, or `.bench_build` when that is unset,
then runs one workload. The binary prints every metric by name with its
unit, a host-stamp line, and as its last line the JSON result, which this
script passes through. `--record` also writes the host stamp and the
result to a file that `compare.py` can diff against another record.

Exits non-zero, printing no result, when the build or the run fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")


def tool_output(cmd):
    """First line of `cmd`'s standard output, or "unknown"."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def commit():
    """The commit of the checkout at the current directory, if it is one."""
    top = tool_output(["git", "rev-parse", "--show-toplevel"])
    if top == "unknown" or os.path.realpath(top) != os.path.realpath(os.getcwd()):
        return "unknown"
    return tool_output(["git", "rev-parse", "HEAD"])


def main(argv):
    record = None
    if "--record" in argv:
        i = argv.index("--record")
        if i + 1 >= len(argv):
            print("run.py: --record needs a file", file=sys.stderr)
            return 2
        record = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    stamp = ["--rustc", tool_output(["rustc", "--version"]), "--commit", commit()]
    run = subprocess.run([binary] + argv + stamp, env=env, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode

    if record is not None:
        lines = run.stdout.strip().splitlines()
        rec = json.loads(lines[-2])
        rec["result"] = json.loads(lines[-1])
        with open(record, "w") as f:
            json.dump(rec, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
