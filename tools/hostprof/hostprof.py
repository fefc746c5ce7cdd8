#!/usr/bin/env python3
"""Symbolizes and reports samples written by the hostprof LD_PRELOAD library.

    hostprof.py run --lib build/tools/hostprof/libhostprof.so \\
        --out prof.txt [--top N] -- ./build/tools/daosim_run --bench ior ...
    hostprof.py report prof.txt [--top N]

`run` profiles one command (its children are not profiled) and then
reports. The report lists functions by self share (samples whose
interrupted PC lies in the function) and by inclusive share (samples with
the function anywhere on the stack, counted once per sample). Symbols come
from `nm -C` on each mapped file, so build with symbols (RelWithDebInfo).
"""

import argparse
import bisect
import collections
import os
import re
import struct
import subprocess
import sys


def parse_profile(path):
    samples, maps, dropped = [], [], 0
    with open(path) as f:
        if f.readline().split() != ["hostprof", "1"]:
            sys.exit(f"hostprof: {path}: not a hostprof profile")
        in_maps = False
        for line in f:
            if in_maps:
                maps.append(line)
            elif line.startswith("S"):
                frames = [int(x, 16) for x in line.split()[1:]]
                if frames:
                    samples.append(frames)
            elif line.startswith("samples"):
                dropped = int(line.split()[3])
            elif line.strip() == "maps":
                in_maps = True
    return samples, parse_maps(maps), dropped


def parse_maps(lines):
    """Executable file mappings as (start, end, file offset, path)."""
    out = []
    for line in lines:
        parts = line.split(maxsplit=5)
        if (len(parts) < 6 or "x" not in parts[1]
                or not parts[5].startswith("/")):
            continue
        start, end = (int(x, 16) for x in parts[0].split("-"))
        out.append((start, end, int(parts[2], 16), parts[5].strip()))
    out.sort()
    return out


def load_segments(path):
    """PT_LOAD (offset, filesz, vaddr) of an ELF64 file, to map file
    offsets to the addresses nm prints."""
    with open(path, "rb") as f:
        head = f.read(64)
        if head[:4] != b"\x7fELF" or head[4] != 2:
            return []
        end = "<" if head[5] == 1 else ">"
        phoff, = struct.unpack_from(end + "Q", head, 32)
        phentsize, phnum = struct.unpack_from(end + "HH", head, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            end + "IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_filesz, p_vaddr))
    return segs


def load_symbols(path):
    """Sorted function symbols (address, size or None, name) from nm, the
    dynamic table as a fallback for stripped libraries."""
    for extra in ([], ["-D"]):
        try:
            out = subprocess.run(["nm", "-C", "-n", "-S", "--defined-only"] +
                                 extra + [path], capture_output=True,
                                 text=True).stdout
        except OSError:
            return []
        syms = []
        for line in out.splitlines():
            parts = line.split(" ", 3)
            if len(parts) == 4 and len(parts[2]) == 1:
                addr, size, kind, name = parts
            elif len(parts) >= 3 and len(parts[1]) == 1:
                addr, size, kind = parts[0], None, parts[1]
                name = " ".join(parts[2:])
            else:
                continue
            if kind in "tTwWi":
                syms.append((int(addr, 16), size and int(size, 16),
                             short_name(name)))
        if syms:
            return syms
    return []


def short_name(name):
    """Drops the parameter list of a demangled name, keeping any
    "[clone .actor]"-style suffix, so overloads and coroutine frames
    read as one function."""
    depth, i = 0, 0
    while i < len(name):
        if name.startswith("(anonymous namespace)", i):
            i += len("(anonymous namespace)")
            continue
        if name.startswith("operator", i):
            i += len("operator")
            if name.startswith("()", i):
                i += 2
            while i < len(name) and name[i] != "(":
                i += 1
            continue
        c = name[i]
        if c in "<{":
            depth += 1
        elif c in ">}":
            depth -= 1
        elif c == "(" and depth == 0:
            clones = re.findall(r" \[clone [^\]]+\]", name[i:])
            return name[:i] + "".join(clones)
        i += 1
    return name


class Symbolizer:
    def __init__(self, maps):
        self.maps = maps
        self.starts = [m[0] for m in maps]
        self.files = {}
        self.cache = {}

    def _file(self, path):
        if path not in self.files:
            try:
                segs = load_segments(path)
            except OSError:
                segs = []
            syms = load_symbols(path) if segs else []
            self.files[path] = (segs, syms, [a for a, _, _ in syms])
        return self.files[path]

    def name(self, addr):
        if addr in self.cache:
            return self.cache[addr]
        name = f"0x{addr:x}"
        i = bisect.bisect_right(self.starts, addr) - 1
        if i >= 0 and addr < self.maps[i][1]:
            start, _, offset, path = self.maps[i]
            off = addr - start + offset
            name = f"[{os.path.basename(path)}]"
            segs, syms, addrs = self._file(path)
            for p_offset, p_filesz, p_vaddr in segs:
                if p_offset <= off < p_offset + p_filesz:
                    vaddr = off - p_offset + p_vaddr
                    j = bisect.bisect_right(addrs, vaddr) - 1
                    if j >= 0:
                        sym_addr, size, sym_name = syms[j]
                        if size is None or vaddr < sym_addr + size:
                            name = sym_name
                    break
        self.cache[addr] = name
        return name


def report(path, top, out=sys.stdout):
    samples, maps, dropped = parse_profile(path)
    if not samples:
        sys.exit(f"hostprof: {path}: no samples")
    sym = Symbolizer(maps)
    self_n, incl_n = collections.Counter(), collections.Counter()
    for frames in samples:
        # Callers are return addresses; step back into the call instruction.
        names = [sym.name(frames[0])] + [sym.name(a - 1) for a in frames[1:]]
        self_n[names[0]] += 1
        incl_n.update(set(names))
    total = len(samples)
    print(f"{total} samples ({dropped} dropped)", file=out)
    for title, counts in (("self", self_n), ("inclusive", incl_n)):
        print(f"\n{title:>9}  function", file=out)
        for name, n in counts.most_common(top):
            print(f"{100.0 * n / total:8.1f}%  {name[:160]}", file=out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rp = sub.add_parser("report", help="report a profile file")
    rp.add_argument("profile")
    rp.add_argument("--top", type=int, default=25)
    run = sub.add_parser("run", help="profile a command, then report")
    run.add_argument("--lib", required=True, help="path to libhostprof.so")
    run.add_argument("--out", default="hostprof.out")
    run.add_argument("--top", type=int, default=25)
    run.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    if args.cmd == "run":
        cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
        if not cmd:
            ap.error("run: no command given")
        # An ASan-built program refuses to start unless the ASan runtime is
        # the first library loaded; the profiler needs no ASan runtime.
        asan = ":".join(filter(None, [os.environ.get("ASAN_OPTIONS"),
                                      "verify_asan_link_order=0"]))
        env = dict(os.environ, LD_PRELOAD=os.path.abspath(args.lib),
                   HOSTPROF_OUT=os.path.abspath(args.out), ASAN_OPTIONS=asan)
        if subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode:
            sys.exit(f"hostprof: command failed: {' '.join(cmd)}")
        report(args.out, args.top)
    else:
        report(args.profile, args.top)


if __name__ == "__main__":
    main()
