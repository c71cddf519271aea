#!/usr/bin/env python3
"""Build the simulator from this tree and run one benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every run configures and builds
perfbench/CMakeLists.txt into .bench_build/perfbench (Release); only the
first compiles everything.  The perfbench binary prints sampled requests and
one JSON result line; this script cross-checks the samples against Python's
standard library and prints the result, with `correct` false if any sample
disagrees, as the last line of standard output.  Build output and
diagnostics go to standard error.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("tls_mix", "reconfig_churn", "field_update")


def build():
    """Configure and build incrementally; returns the binary's path."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release", *generator],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return BUILD / "perfbench"


def le(data):
    return int.from_bytes(data, "little")


def reference(kernel, data):
    """The kernel's output from Python's stdlib or plain integer arithmetic,
    or None for kernels with no such reference (aes128, des, xtea, fft,
    fir16, matmul, lfsr32), which are checked against golden software only."""
    if kernel in ("md5", "sha1", "sha256"):
        return hashlib.new(kernel, data).digest()
    if kernel == "modexp":  # base || exponent || modulus, little-endian
        w = len(data) // 3
        return pow(le(data[:w]), le(data[w:2 * w]), le(data[2 * w:])).to_bytes(w, "little")
    if kernel == "crc32":
        return zlib.crc32(data).to_bytes(4, "little")
    if kernel == "add32":  # 32-bit sum, then the carry byte
        return (le(data[:4]) + le(data[4:8])).to_bytes(5, "little")
    if kernel == "parity32":
        return bytes([bin(le(data)).count("1") & 1])
    if kernel == "popcount32":
        return bytes([bin(le(data)).count("1")])
    if kernel == "cmp32":  # bit 0: a == b, bit 1: a < b
        a, b = le(data[:4]), le(data[4:8])
        return bytes([int(a == b) | int(a < b) << 1])
    if kernel == "gray32":
        v = le(data)
        return (v ^ (v >> 1)).to_bytes(4, "little")
    if kernel == "mul8":
        return (data[0] * data[1]).to_bytes(2, "little")
    return None


def cross_check(samples):
    """(checked, mismatches) over `sample <kernel> <in-hex> <out-hex>` lines."""
    checked, mismatches = 0, []
    for line in samples:
        _, kernel, data, output = line.split()
        expected = reference(kernel, bytes.fromhex(data))
        if expected is None:
            continue
        checked += 1
        if expected != bytes.fromhex(output):
            mismatches.append(f"{kernel}({data[:32]}...) = {output}, stdlib says {expected.hex()}")
    return checked, mismatches


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build()
        run = subprocess.run(
            [str(binary), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            # A run ends after its last whole round; the longest round is
            # a few seconds, so this only stops a program that hangs.
            stdout=subprocess.PIPE, text=True, timeout=2 * args.seconds + 60)
    except (OSError, subprocess.SubprocessError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"run.py: perfbench exited with {run.returncode}", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    result = json.loads(lines[-1])
    checked, mismatches = cross_check([l for l in lines if l.startswith("sample ")])
    for m in mismatches:
        print(f"run.py: stdlib cross-check: {m}", file=sys.stderr)
    print(f"run.py: {checked} sampled outputs match the stdlib references"
          if not mismatches else f"run.py: {len(mismatches)} of {checked} sampled outputs differ",
          file=sys.stderr)
    result["correct"] = bool(result["correct"]) and checked > 0 and not mismatches
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
