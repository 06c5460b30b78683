#!/usr/bin/env python3
"""The ledger benchmark: end-to-end and per-layer numbers for the
ReStore fault-injection campaigns.

Run from the repository root:

    python3 ledger/run.py --workload figs-cold --seed 0 --seconds 25 --trace 0

It builds the shipped figure binaries (and, for `--trace 1`, the traced
replica in `ledger/trace`) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload's processes for `--seconds`, checks
every process against the digests and window-cycle totals pinned in
`ledger/pinned.json`, and prints one line per metric followed by a JSON
summary as the last line. It exits 1 if any check fails and 2 on a usage
or layout error.

`--pin` re-records `ledger/pinned.json` from the current build. Only a
change that is meant to alter the figures may do that.

See ledger/README.md for the workloads, the metrics and how to read the
trace.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"

# `--seed n` runs the programs at SEEDS[n % 2]: 0xF4F5 is the campaigns'
# default seed, 0x1D5F the held-out seed that gain claims must also hold
# on. Both are pinned, so every process of every run is digest-checked.
SEEDS = (0xF4F5, 0x1D5F)
THREADS = 2
# Guards the 180 s per-run limit against a hung campaign.
PROCESS_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    name: str
    binary: str
    full: tuple
    probe: tuple
    warm: bool
    min_full: int
    min_probes: int
    fulls_per_probe: int = 1


# Each workload runs its binary at `full` geometry for wall time, and at
# the one-trial `probe` geometry for set-up time: a probe pays every
# per-process fixed cost (program builds, store open and indexing, mask
# maps) and almost no trial work. While time remains, a run starts
# `fulls_per_probe` full processes per probe.
WORKLOADS = {
    w.name: w
    for w in (
        # The EXPERIMENTS.md reference geometry, into a fresh store:
        # simulation-bound, the store is only written.
        Workload(
            "figs-cold",
            "figs_all",
            ("--points", "10", "--trials", "16", "--arch-trials", "200"),
            ("--points", "1", "--trials", "1", "--arch-trials", "1"),
            warm=False,
            min_full=2,
            min_probes=9,
        ),
        # Paper scale against a store filled by one cold pass: every
        # trial replays, so store reads, rendering and Figure 7 dominate.
        Workload(
            "figs-warm",
            "figs_all",
            ("--points", "40", "--trials", "48", "--arch-trials", "1000"),
            ("--points", "1", "--trials", "1", "--arch-trials", "1"),
            warm=True,
            min_full=12,
            min_probes=4,
            fulls_per_probe=3,
        ),
        # Paper-scale Figure 4 with interval pruning, into a fresh store:
        # the mask-map build is a fixed cost of every process.
        Workload(
            "fig4-fast-paper",
            "fig4",
            ("--points", "40", "--trials", "48", "--prune", "interval"),
            ("--points", "1", "--trials", "1", "--prune", "interval"),
            warm=False,
            min_full=1,
            min_probes=1,
        ),
    )
}

# The stderr line that ends a binary's last campaign: set-up time is
# measured from spawn to this line in a probe.
CAMPAIGNS_END = {
    "figs_all": re.compile(r"\] figure 7 \.\.\.$"),
    "fig4": re.compile(r"^fig4: \d+ trials over"),
}


# ---------------------------------------------------------------- stats


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """First and third quartile, as `statistics.quantiles(xs, n=4)`."""
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def percentile(xs, p):
    """Nearest-rank percentile: the smallest sample with at least `p`%
    of the samples at or below it."""
    s = sorted(xs)
    k = max(1, math.ceil(p / 100.0 * len(s)))
    return s[k - 1]


def better_half(xs, higher=False):
    """Median of the better half of `xs`: the lower half, or the upper
    half when `higher`. Other tenants of the host only ever slow a
    process down, so this follows the program rather than the host's
    busiest moments. A single sample is its own better half."""
    s = sorted(xs, reverse=higher)
    return median(s[: (len(s) + 1) // 2])


def spread(xs):
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(xs)
    return (q3 - q1) / median(xs)


# ------------------------------------------------------- result schema


def make_result(correct, attempted, failed, values, units):
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }


def validate_result(obj, units):
    """Raises ValueError unless `obj` is a result line carrying exactly
    the metrics in `units`."""
    if set(obj) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(obj)}")
    if not isinstance(obj["correct"], bool):
        raise ValueError("correct is not a bool")
    for k in ("attempted", "failed"):
        if not isinstance(obj[k], int) or isinstance(obj[k], bool) or obj[k] < 0:
            raise ValueError(f"{k} is not a whole number")
    if obj["attempted"] < 1 or obj["failed"] > obj["attempted"]:
        raise ValueError("attempted/failed out of range")
    if set(obj["metrics"]) != set(units):
        raise ValueError(f"metrics {sorted(set(obj['metrics']) ^ set(units))} differ")
    for name, m in obj["metrics"].items():
        if set(m) != {"value", "unit"} or m["unit"] != units[name]:
            raise ValueError(f"metric {name} is malformed")
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise ValueError(f"metric {name} is not a finite number")
    return obj


# ------------------------------------------------- correctness checks

STATS_RE = re.compile(r"(\d+) trials over (\d+) units on (\d+) threads? in ([\d.]+)s")
CUT_RE = re.compile(r"cutoff ended (\d+)/(\d+) trials early, skipping (\d+) of (\d+) window cycles")
PRUNE_RE = re.compile(r"liveness oracle pruned (\d+)/(\d+) trials, skipping (\d+) window cycles")
STATIC_RE = re.compile(r"\((\d+) statically, via the interval map; (\d+) shadow runs paid")
CACHE_RE = re.compile(r"trial store served (\d+) trials, replaying (\d+) window cycles")


def parse_stats(line):
    """Parses one `CampaignStats` line. Returns its trial count and its
    planned window cycles (`simulated + saved + pruned + cached`), or
    raises ValueError when the line contradicts itself. The line prints
    `simulated + saved` only when the cutoff fired, so a campaign where
    no trial was cut accounts only its pruned and cached cycles."""
    m = STATS_RE.search(line)
    if not m:
        raise ValueError("not a campaign stats line")
    trials = int(m.group(1))
    planned = 0
    cut = CUT_RE.search(line)
    if cut:
        n, of, saved, total = map(int, cut.groups())
        if of != trials or n > trials or saved > total:
            raise ValueError(f"cutoff clause inconsistent: {cut.group(0)}")
        planned += total
    prune = PRUNE_RE.search(line)
    if prune:
        n, of, cycles = map(int, prune.groups())
        if of != trials or n > trials:
            raise ValueError(f"pruning clause inconsistent: {prune.group(0)}")
        planned += cycles
        static = STATIC_RE.search(line)
        if static and int(static.group(1)) > n:
            raise ValueError(f"more static prunes than prunes: {static.group(0)}")
    cache = CACHE_RE.search(line)
    if cache:
        planned += int(cache.group(2))
    return {"trials": trials, "planned": planned}


def check_digest(stdout, pin):
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != pin["stdout_sha256"]:
        return [f"stdout digest {digest[:16]} != pinned {pin['stdout_sha256'][:16]}"]
    return []


def cold_accounts_for(cold, warm):
    """A cold pass plans the window cycles its warm replay serves. A cold
    campaign whose cutoff never fired prints no window cycles (0), so
    there is nothing to compare."""
    return len(cold) == len(warm) and all(c in (0, w) for c, w in zip(cold, warm))


def check_output(stdout, stats_lines, pin, cold_pass=False):
    """Names every way a process's output breaks its pin: the stdout
    digest, and the window-cycle invariant of each campaign (its
    `simulated + saved + pruned + cached` must equal the pinned planned
    total). `cold_pass` checks the cold pass that fills a warm
    workload's store against the warm workload's pin."""
    failures = check_digest(stdout, pin)
    planned = []
    for line in stats_lines:
        try:
            planned.append(parse_stats(line)["planned"])
        except ValueError as e:
            failures.append(f"stats line: {e}")
    ok = cold_accounts_for(planned, pin["planned"]) if cold_pass else planned == pin["planned"]
    if not failures and not ok:
        failures.append(f"window cycles {planned} != pinned {pin['planned']}")
    return failures


# ------------------------------------------------------------ processes


@dataclass
class Proc:
    argv: list
    code: int
    stdout: bytes
    lines: list  # (seconds since spawn, text) per stderr line
    elapsed: float
    rss_mb: float
    failures: list = field(default_factory=list)
    store_mb: float = 0.0
    setup_s: float = 0.0
    trace: dict = None

    def stats_lines(self):
        return [text for _, text in self.lines if STATS_RE.search(text)]

    def first_line_at(self):
        return self.lines[0][0] if self.lines else 0.0

    def line_at(self, pattern):
        return next((t for t, text in self.lines if pattern.search(text)), None)


def child_env():
    env = dict(os.environ)
    # These override thread count and checkpoint stride inside the
    # programs; the benchmark fixes both.
    env.pop("RESTORE_THREADS", None)
    env.pop("RESTORE_CKPT_STRIDE", None)
    return env


def run_process(argv):
    t0 = time.monotonic()
    p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    lines, out = [], []

    def read_err():
        for raw in p.stderr:
            lines.append((time.monotonic() - t0, raw.decode("utf-8", "replace").rstrip("\n")))

    def read_out():
        out.append(p.stdout.read())

    readers = [threading.Thread(target=read_err), threading.Thread(target=read_out)]
    for r in readers:
        r.start()
    killer = threading.Timer(PROCESS_TIMEOUT_S, p.kill)
    killer.start()
    _, status, usage = os.wait4(p.pid, 0)
    elapsed = time.monotonic() - t0
    killer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    p.stdout.close()
    p.stderr.close()
    # ru_maxrss is in KiB on Linux.
    proc = Proc(argv, p.returncode, out[0] if out else b"", lines, elapsed, usage.ru_maxrss * 1024 / 1e6)
    if proc.code != 0:
        tail = " | ".join(text for _, text in lines[-3:])
        proc.failures.append(f"exit code {proc.code}: {tail}")
    return proc


def dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


# ---------------------------------------------------------------- build


def build(root, target, trace):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmds = [
        ["cargo", "build", "--release", "--offline", "-q", "-p", "restore-bench",
         "--bin", "figs_all", "--bin", "fig4"],
    ]
    if trace:
        cmds.append(["cargo", "build", "--release", "--offline", "-q",
                     "--manifest-path", str(HERE / "trace" / "Cargo.toml")])
    for cmd in cmds:
        r = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stderr[-4000:])
            die(f"build failed: {' '.join(cmd)}", 1)


def die(msg, code):
    print(f"ledger: {msg}", file=sys.stderr)
    sys.exit(code)


# ------------------------------------------------------------- workloads


class Runner:
    def __init__(self, target, wl, prog_seed, pins):
        self.wl = wl
        self.seed = prog_seed
        self.bins = target / "release"
        self.target = target
        self.pin = pins.get(wl.name, {}).get(str(prog_seed)) if pins is not None else None
        self.work = target / "ledger-work" / f"{wl.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.serial = 0
        self.master = None
        self.fill = None

    def argv(self, geometry, store):
        return [str(self.bins / self.wl.binary), *geometry, "--seed", str(self.seed),
                "--threads", str(THREADS), "--store", str(store)]

    def fresh_store(self):
        """A store directory for one process: empty for cold workloads, a
        copy of the filled master for the warm one."""
        self.serial += 1
        store = self.work / f"store-{self.serial}"
        if self.wl.warm:
            shutil.copytree(self.warm_master(), store)
        return store

    def warm_master(self):
        """The store a cold pass filled, kept in the target directory per
        (workload, seed, binary) so later runs reuse it. The cold pass
        must itself match the pins: the cold and warm outputs of one
        geometry are byte-identical."""
        if self.master:
            return self.master
        binary = self.bins / self.wl.binary
        tag = hashlib.sha256(binary.read_bytes()).hexdigest()[:12]
        home = self.target / "ledger-warm" / f"{self.wl.name}-{self.seed:x}-{tag}"
        if not (home / "ready").exists():
            shutil.rmtree(home, ignore_errors=True)
            home.mkdir(parents=True)
            fill = {}
            for kind, geometry in (("full", self.wl.full), ("probe", self.wl.probe)):
                proc = run_process(self.argv(geometry, home / "store"))
                if self.pin is not None and not proc.failures:
                    proc.failures += check_output(
                        proc.stdout, proc.stats_lines(), self.pin[kind], cold_pass=True
                    )
                if proc.failures:
                    die(f"{self.wl.name}: filling the warm store ({kind}): {'; '.join(proc.failures)}", 1)
                fill[kind] = pin_entry(proc)
            (home / "fill.json").write_text(json.dumps(fill))
            (home / "ready").write_text("filled\n")
        self.fill = json.loads((home / "fill.json").read_text())
        self.master = home / "store"
        return self.master

    def run(self, kind):
        geometry = self.wl.full if kind == "full" else self.wl.probe
        store = self.fresh_store()
        proc = run_process(self.argv(geometry, store))
        if self.pin is not None and not proc.failures:
            proc.failures += check_output(proc.stdout, proc.stats_lines(), self.pin[kind])
        if kind == "probe":
            proc.setup_s = proc.line_at(CAMPAIGNS_END[self.wl.binary])
            if proc.setup_s is None:
                proc.failures.append("no stderr line marks the end of the campaigns")
        proc.store_mb = dir_bytes(store) / 1e6
        shutil.rmtree(store, ignore_errors=True)
        return proc

    def run_traced(self):
        store = self.fresh_store()
        out = self.work / f"trace-{self.serial}.json"
        scratch = self.work / f"scratch-{self.serial}"
        scratch.mkdir()
        app = self.argv(self.wl.full, store)
        app[0] = self.wl.binary
        proc = run_process([str(self.bins / "ledger-trace"), "--out", str(out),
                            "--scratch", str(scratch), "--", *app])
        if self.pin is not None and not proc.failures:
            proc.failures += check_digest(proc.stdout, self.pin["full"])
        proc.trace = json.loads(out.read_text()) if not proc.failures else None
        shutil.rmtree(store, ignore_errors=True)
        shutil.rmtree(scratch, ignore_errors=True)
        return proc

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def report_failures(label, procs):
    for i, p in enumerate(procs):
        for f in p.failures:
            print(f"ledger: FAIL {label} #{i + 1} ({os.path.basename(p.argv[0])}): {f}", file=sys.stderr)


def campaign_rate(proc):
    """Trials per second over the campaigns that print their stats: each
    window runs from the stderr line before the stats line to the stats
    line, timed by the benchmark's clock."""
    trials, secs = 0, 0.0
    for i, (t, text) in enumerate(proc.lines):
        if STATS_RE.search(text) and i > 0:
            trials += parse_stats(text)["trials"]
            secs += t - proc.lines[i - 1][0]
    return trials / secs if secs > 0 else 0.0


def measure(runner, seconds):
    """The untraced run: full and probe processes alternate until
    `seconds` have passed and each kind has its minimum count."""
    wl = runner.wl
    fulls, probes = [], []
    start = time.monotonic()
    while True:
        need_full, need_probe = len(fulls) < wl.min_full, len(probes) < wl.min_probes
        if time.monotonic() - start >= seconds:
            if not (need_full or need_probe):
                break
            kind = "full" if need_full else "probe"
        else:
            kind = "full" if len(fulls) <= wl.fulls_per_probe * len(probes) else "probe"
        (fulls if kind == "full" else probes).append(runner.run(kind))
    report_failures("full", fulls)
    report_failures("probe", probes)
    good = [p for p in fulls if not p.failures]
    good_probes = [p for p in probes if not p.failures]
    attempted = len(fulls) + len(probes)
    failed = attempted - len(good) - len(good_probes)
    values = {
        "wall_s": half([p.elapsed - p.first_line_at() for p in good]),
        "setup_s": half([p.setup_s for p in good_probes]),
        "trials_per_s": half([campaign_rate(p) for p in good], higher=True),
        "peak_rss_mb": med([p.rss_mb for p in good]),
        "store_mb": med([p.store_mb for p in good]),
        "pass_frac": (attempted - failed) / attempted,
    }
    return attempted, failed, values


def med(xs):
    return median(xs) if xs else 0.0


def half(xs, higher=False):
    return better_half(xs, higher) if xs else 0.0


def span_total(trace, name):
    return sum(end - start for n, start, end, _ in trace["spans"] if n == name)


def layer_metrics(trace, untraced_elapsed, traced_elapsed):
    """Per-layer metrics from one traced pass. Layers the workload
    bypassed have no samples and read 0."""
    s, v = trace["samples"], trace["values"]
    get = v.get
    out = {}
    for name, xs in s.items():
        out[name] = median(xs)
        out[name + ".p99"] = percentile(xs, 99)
    sim, saved = get("uarch.cycles_simulated", 0), get("uarch.cycles_saved", 0)
    out["uarch.cutoff_saved_frac"] = saved / (sim + saved) if sim + saved else 0.0
    out["uarch.cycles_simulated"] = sim
    out["snapshot.hits"] = get("snapshot.hits", 0)
    out["snapshot.misses"] = get("snapshot.misses", 0)
    out["maskmap.uarch_build_s"] = span_total(trace, "maskmap.uarch_build")
    out["maskmap.arch_build_s"] = span_total(trace, "maskmap.arch_build")
    trials = get("uarch.trials", 0)
    out["maskmap.pruned_frac"] = get("maskmap.interval_pruned", 0) / trials if trials else 0.0
    out["maskmap.shadow_runs"] = get("maskmap.shadow_runs", 0)
    out["maskmap.load_s"] = get("maskmap.load_s", 0)
    out["maskmap.file_mb"] = get("maskmap.file_bytes", 0) / 1e6
    out["store.open_s"] = span_total(trace, "store.open")
    records = get("store.records", 0)
    out["store.records"] = records
    out["store.bytes_per_record"] = get("store.segment_bytes", 0) / records if records else 0.0
    for k in ("produce_s", "sweep_s", "golden_s", "trial_s"):
        out["inject." + k] = get("inject." + k, 0)
    busy, capacity = get("inject.busy_s", 0), get("inject.capacity_s", 0)
    out["inject.worker_idle_s"] = capacity - busy
    out["inject.parallel_eff"] = busy / capacity if capacity else 0.0
    out["inject.arch_campaign_s"] = span_total(trace, "inject.arch_campaign")
    out["inject.uarch_campaign_s"] = span_total(trace, "inject.uarch_campaign")
    out["perf.profile_s"] = span_total(trace, "perf.profile")
    out["bench.render_ms"] = span_total(trace, "bench.render") * 1e3
    probes = span_total(trace, "probes")
    out["trace.overhead_frac"] = (traced_elapsed - probes) / untraced_elapsed - 1.0
    flow = get("flow.end") - get("flow.start")
    covered = sum(end - start for n, start, end, parent in trace["spans"]
                  if parent is None and n != "probes")
    out["trace.unattributed_frac"] = max(0.0, 1.0 - covered / flow)
    return out


def measure_traced(runner, seconds, names):
    """The traced run: pairs of one untraced and one traced process of
    the full workload, until `seconds` have passed."""
    passes, procs = [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        plain = runner.run("full")
        traced = runner.run_traced()
        procs += [plain, traced]
        if plain.failures or traced.failures:
            if len(procs) >= 4:
                break
            continue
        passes.append(layer_metrics(traced.trace, plain.elapsed, traced.elapsed))
    report_failures("traced pair", procs)
    failed = sum(1 for p in procs if p.failures)
    values = {n: med([p.get(n, 0.0) for p in passes]) for n in names}
    return len(procs), failed, values


# ----------------------------------------------------------------- main


def load_benchmark(root):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def pin_entry(proc):
    return {
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "planned": [parse_stats(line)["planned"] for line in proc.stats_lines()],
    }


def warm_matches_cold(warm, cold):
    """A warm replay prints what the cold pass printed, and replays every
    window cycle the cold pass planned."""
    return warm["stdout_sha256"] == cold["stdout_sha256"] and cold_accounts_for(
        cold["planned"], warm["planned"]
    )


def pin_all(target):
    """Records stdout digests and window-cycle totals for every workload
    at both seeds from the current build. A warm workload's pins must
    equal those of the cold pass that filled its store."""
    pins = {}
    for wl in WORKLOADS.values():
        for seed in SEEDS:
            runner = Runner(target, wl, seed, None)
            entry = {}
            try:
                if wl.warm:
                    runner.warm_master()
                for kind in ("full", "probe"):
                    proc = runner.run(kind)
                    if proc.failures:
                        die(f"pin {wl.name} {kind}: {'; '.join(proc.failures)}", 1)
                    entry[kind] = pin_entry(proc)
                    if wl.warm and not warm_matches_cold(entry[kind], runner.fill[kind]):
                        die(f"pin {wl.name} {kind}: warm {entry[kind]} != cold {runner.fill[kind]}", 1)
            finally:
                runner.close()
            pins.setdefault(wl.name, {})[str(seed)] = entry
            print(f"pinned {wl.name} seed {seed:#x}: {entry}", file=sys.stderr)
    PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true", help="re-record ledger/pinned.json")
    args = ap.parse_args()

    root = Path.cwd()
    for need in ("Cargo.toml", "crates/bench/Cargo.toml", "BENCHMARK.json"):
        if not (root / need).is_file():
            die(f"run from the repository root: {need} is missing", 2)
    target = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    build(root, target, trace=args.trace == 1 and not args.pin)
    if args.pin:
        pin_all(target)
        return
    if args.workload is None:
        die("--workload is required", 2)

    e2e, layers = load_benchmark(root)
    pins = json.loads(PINNED.read_text())
    wl = WORKLOADS[args.workload]
    prog_seed = SEEDS[args.seed % len(SEEDS)]
    if str(prog_seed) not in pins.get(wl.name, {}):
        die(f"{PINNED.name} has no pins for {wl.name} at seed {prog_seed:#x}", 1)
    runner = Runner(target, wl, prog_seed, pins)
    try:
        if wl.warm:
            # Filled before the clock starts: the first run per seed and
            # binary fills it, and that pass is not part of the run.
            runner.warm_master()
        if args.trace:
            units = layers
            attempted, failed, values = measure_traced(runner, args.seconds, units)
        else:
            units = e2e
            attempted, failed, values = measure(runner, args.seconds)
    finally:
        runner.close()
    result = validate_result(make_result(failed == 0, attempted, failed, values, units), units)
    print(f"# {wl.name} at seed {prog_seed:#x}, {THREADS} threads, {attempted} processes")
    for name, m in result["metrics"].items():
        print(f"{name:<28} {m['value']:>16.6f} {m['unit']}")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
