#!/usr/bin/env python3
"""Symbolizes and reports samples written by the hostprof LD_PRELOAD library.

    hostprof.py run --lib build/tools/hostprof/libhostprof.so \\
        --out prof.txt [--top N] -- ./build/tools/daosim_run --bench ior ...
    hostprof.py report prof.txt [--top N] [--by-caller] [--annotate FUNC]
        [--group NAME=REGEX ...] [--layers FILE]

`run` profiles one command (its children are not profiled) and then
reports. The report lists functions by self share (samples whose
interrupted PC lies in the function) and by inclusive share (samples with
the function anywhere on the stack, counted once per sample). Symbols come
from `nm -C` on each mapped file, so build with symbols (RelWithDebInfo).
A mapped file that changed after profiling (its device, inode, size or
mtime no longer match what the profiled process's stat() saw at exit, as
after a rebuild) is an error: its symbols would name the wrong functions.

--by-caller charges samples whose leaf lies in a library without a full
symbol table (libc's `[libc.so.6]`, `malloc`, `free`, ...) to their first
caller that has one. --annotate FUNC lists the hottest instruction
addresses inside FUNC as the link-time addresses `objdump -d` prints.
--group NAME=REGEX (repeatable) sums the self-by-caller share of every
function whose name matches REGEX, as a share of all samples and of the
samples outside perfbench's host-speed calibration loop. --layers FILE
adds one group per NAME=REGEX line of FILE (tools/hostprof/layers.txt maps
the simulator's layers).
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
    samples, maps, dropped, idents = [], [], 0, {}
    with open(path) as f:
        if f.readline().split() != ["hostprof", "2"]:
            sys.exit(f"hostprof: {path}: not a hostprof profile (version 2)")
        in_maps = False
        for line in f:
            if in_maps:
                maps.append(line)
            elif line.startswith("S"):
                frames = [int(x, 16) for x in line.split()[1:]]
                if frames:
                    samples.append(frames)
            elif line.startswith("F "):
                parts = line.split(maxsplit=5)
                idents[parts[5].rstrip("\n")] = tuple(map(int, parts[1:5]))
            elif line.startswith("samples"):
                dropped = int(line.split()[3])
            elif line.strip() == "maps":
                in_maps = True
    return samples, parse_maps(maps), dropped, idents


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


def check_identity(path, ident):
    """Exits if `path` is no longer the file the profile mapped: `ident` is
    its (device, inode, size, mtime ns) from stat() at profiling time, None
    if it had none. A file that is gone is left to symbolize as unknown."""
    try:
        st = os.stat(path)
    except OSError:
        return
    now = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)
    if now != ident:
        sys.exit(f"hostprof: {path} was replaced after profiling "
                 f"(device, inode, size, mtime then {ident}, now {now}); "
                 f"its symbols would be wrong, so profile again")


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
            return [], False
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
            return syms, not extra
    return [], False


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


Frame = collections.namedtuple("Frame", "name path vaddr sym_addr full")


class Symbolizer:
    def __init__(self, maps, idents):
        self.maps = maps
        self.idents = idents
        self.starts = [m[0] for m in maps]
        self.files = {}
        self.cache = {}

    def _file(self, path):
        if path not in self.files:
            check_identity(path, self.idents.get(path))
            try:
                segs = load_segments(path)
            except OSError:
                segs = []
            syms, full = load_symbols(path) if segs else ([], False)
            self.files[path] = (segs, syms, [a for a, _, _ in syms], full)
        return self.files[path]

    def resolve(self, addr):
        """Frame(name, path, vaddr, sym_addr, full) of a runtime address:
        vaddr is the link-time address, sym_addr the enclosing symbol's
        (None when unsymbolized), full whether the file has a full symbol
        table rather than only its dynamic exports."""
        if addr in self.cache:
            return self.cache[addr]
        frame = Frame(f"0x{addr:x}", None, None, None, False)
        i = bisect.bisect_right(self.starts, addr) - 1
        if i >= 0 and addr < self.maps[i][1]:
            start, _, offset, path = self.maps[i]
            off = addr - start + offset
            segs, syms, addrs, full = self._file(path)
            frame = Frame(f"[{os.path.basename(path)}]", path, None, None,
                          full)
            for p_offset, p_filesz, p_vaddr in segs:
                if p_offset <= off < p_offset + p_filesz:
                    vaddr = off - p_offset + p_vaddr
                    frame = frame._replace(vaddr=vaddr)
                    j = bisect.bisect_right(addrs, vaddr) - 1
                    if j >= 0:
                        sym_addr, size, sym_name = syms[j]
                        if size is None or vaddr < sym_addr + size:
                            frame = frame._replace(name=sym_name,
                                                   sym_addr=sym_addr)
                    break
        self.cache[addr] = frame
        return frame


def annotate(samples, resolve, func, top, out):
    """Hottest leaf instruction addresses inside the function named
    `func` (exact name, else every function whose name contains it)."""
    leaves = [resolve(s[0]) for s in samples]
    names = {f.name for f in leaves}
    wanted = {func} if func in names else {n for n in names if func in n}
    if not wanted:
        sys.exit(f"hostprof: --annotate: no samples in {func!r}")
    for name in sorted(wanted):
        hits = collections.Counter(f for f in leaves if f.name == name)
        n = sum(hits.values())
        path = next(iter(hits)).path or "?"
        print(f"\nannotate {name[:160]}  ({path})\n"
              f"{n} samples, {100.0 * n / len(samples):.1f}% of all", file=out)
        print(f"{'address':>18}  {'offset':>8}  share", file=out)
        for f, k in hits.most_common(top):
            where = (f"0x{f.vaddr:x}" if f.vaddr is not None else "?")
            off = (f"+0x{f.vaddr - f.sym_addr:x}" if f.sym_addr is not None
                   else "?")
            print(f"{where:>18}  {off:>8}  {100.0 * k / n:5.1f}%", file=out)


# Perfbench's host-speed calibration loop (perfbench/src/main.cc): samples
# under it are excluded from the "non-calibration" group shares.
CALIBRATION = re.compile(r"^perfbench::.*\bcalibrate$")


def parse_group(spec):
    name, sep, regex = spec.partition("=")
    if not sep or not name or not regex:
        raise argparse.ArgumentTypeError(f"expected NAME=REGEX, got {spec!r}")
    try:
        return name, re.compile(regex)
    except re.error as e:
        raise argparse.ArgumentTypeError(f"bad regex {regex!r}: {e}")


def parse_layers(path):
    """Groups from a file of NAME=REGEX lines ('#' comments, blanks)."""
    try:
        with open(path) as f:
            lines = [ln.strip() for ln in f]
    except OSError as e:
        raise argparse.ArgumentTypeError(str(e))
    return [parse_group(ln) for ln in lines if ln and not ln.startswith("#")]


def report(path, top, by_caller=False, func=None, groups=(), out=sys.stdout):
    samples, maps, dropped, idents = parse_profile(path)
    if not samples:
        sys.exit(f"hostprof: {path}: no samples")
    sym = Symbolizer(maps, idents)
    self_n, incl_n = collections.Counter(), collections.Counter()
    # Self-by-caller counts over all samples and outside calibration.
    caller_n, caller_noncal_n = collections.Counter(), collections.Counter()
    for frames in samples:
        # Callers are return addresses; step back into the call instruction.
        stack = ([sym.resolve(frames[0])] +
                 [sym.resolve(a - 1) for a in frames[1:]])
        caller = next((f for f in stack if f.full), stack[0])
        self_n[(caller if by_caller else stack[0]).name] += 1
        incl_n.update({f.name for f in stack})
        caller_n[caller.name] += 1
        if not any(CALIBRATION.search(f.name) for f in stack):
            caller_noncal_n[caller.name] += 1
    total = len(samples)
    print(f"{total} samples ({dropped} dropped)", file=out)
    self_title = "self by caller" if by_caller else "self"
    for title, counts in ((self_title, self_n), ("inclusive", incl_n)):
        print(f"\n{title:>9}  function", file=out)
        for name, n in counts.most_common(top):
            print(f"{100.0 * n / total:8.1f}%  {name[:160]}", file=out)
    if groups:
        noncal = sum(caller_noncal_n.values())
        print(f"\n{'all':>9}  {'non-cal':>9}  group (self by caller; "
              f"{noncal} samples outside calibration)", file=out)
        for name, regex in groups:
            n = sum(k for f, k in caller_n.items() if regex.search(f))
            m = sum(k for f, k in caller_noncal_n.items() if regex.search(f))
            print(f"{100.0 * n / total:8.1f}%  "
                  f"{100.0 * m / max(noncal, 1):8.1f}%  {name}  "
                  f"/{regex.pattern}/", file=out)
    if func is not None:
        annotate(samples, sym.resolve, func, top, out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    opts = argparse.ArgumentParser(add_help=False)
    opts.add_argument("--top", type=int, default=25)
    opts.add_argument("--by-caller", action="store_true",
                      help="charge samples in libraries without a full "
                           "symbol table to their first caller that has one")
    opts.add_argument("--annotate", metavar="FUNC",
                      help="list the hottest instruction addresses in FUNC")
    opts.add_argument("--group", metavar="NAME=REGEX", action="append",
                      type=parse_group, default=[],
                      help="sum the self-by-caller share of functions "
                           "matching REGEX (repeatable)")
    opts.add_argument("--layers", metavar="FILE", type=parse_layers,
                      default=[],
                      help="add a group per NAME=REGEX line of FILE")
    rp = sub.add_parser("report", parents=[opts],
                        help="report a profile file")
    rp.add_argument("profile")
    run = sub.add_parser("run", parents=[opts],
                         help="profile a command, then report")
    run.add_argument("--lib", required=True, help="path to libhostprof.so")
    run.add_argument("--out", default="hostprof.out")
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
        report(args.out, args.top, args.by_caller, args.annotate,
               args.group + args.layers)
    else:
        report(args.profile, args.top, args.by_caller, args.annotate,
               args.group + args.layers)


if __name__ == "__main__":
    main()
