#!/usr/bin/env python3
"""The repository benchmark: whole user operations on cousins_cli and
cousinsd, checked against oracles, plus a traced per-layer re-drive.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --compare A.json B.json

Run it from the repository root. The first run configures and builds
cousins_cli, cousinsd and perfbench_tool (Release) into .bench_build/.
Inputs are generated from the seed and cached per seed under
.bench_build/cache/ before anything is timed.

--trace 0 times the real binaries; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"} holding every
end-to-end metric. --trace 1 re-drives the workload in process through
perfbench_tool and reports every per-layer metric instead. Each run also
writes a result file with the host fingerprint to .bench_build/results/.
See perfbench/README.md for the workloads, metrics and findings.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time
import zlib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
CACHE = os.path.join(BUILD, "cache")
RESULTS = os.path.join(BUILD, "results")
TOOL = os.path.join(CMAKE_DIR, "perfbench_tool")
CLI = os.path.join(CMAKE_DIR, "cousins", "tools", "cousins_cli")
DAEMON = os.path.join(CMAKE_DIR, "cousins", "tools", "cousinsd")

NPROC = len(os.sched_getaffinity(0))
# setup_s is a median over set-ups spread across the run, so that one
# stretch of host noise cannot move it: a CLI workload runs SETUP_BURST
# one-tree set-ups before every timed leg; daemon_feed restarts cousinsd
# DAEMON_SETUP_REPEATS times before the feed and as often after it.
SETUP_BURST = 8
DAEMON_SETUP_REPEATS = 3
# A CLI workload runs rounds of its legs until --seconds have passed and
# at least MIN_ROUNDS (or its own "min_rounds") rounds are done; each
# leg's metric is its median.
MIN_ROUNDS = 3
CACHED_SEEDS = 12

# Generator parameters per workload; BENCHMARK.json repeats them in each
# workload's "why". `tiny` is the self-check size.
WORKLOADS = {
    "forest_dense": {
        "kind": "forest", "alphabet": 200, "trees": 8000,
        "legs": {"leg_a_ms": "t1", "leg_b_ms": "tN", "leg_c_ms": "workers",
                 "leg_d_ms": "t1_scalar"},
        "svc_warm": 2000, "svc_batches": 32,
    },
    # On the auto (AVX2) tier, --threads=1 and --workers give wrong answers
    # on this forest for most seeds (the AVX2 tally defect, README.md), so
    # every leg that defect reaches runs on the scalar tier ("simd" also
    # applies to the traced run), and forest_sparse_auto below keeps the
    # auto-tier legs as a probe for it. --threads=nproc over all 12000
    # trees swings from 6 to 15 s between runs of one input, too wide for
    # any bound, so the tN leg reads the first half_trees trees. The
    # 7-15 s workers leg runs in the first round only ("once").
    "forest_sparse": {
        "kind": "forest", "alphabet": 18870, "trees": 12000,
        "half_trees": 6000, "simd": "scalar", "min_rounds": 4,
        "legs": {"leg_a_ms": "t1_scalar", "leg_b_ms": "tN_half",
                 "leg_c_ms": "workers_scalar",
                 "leg_d_ms": "t1_half_scalar"},
        "once": ["workers_scalar"],
        "svc_warm": 480, "svc_batches": 16,
    },
    # Not a gated workload (BENCHMARK.json does not list it): it runs the
    # auto-tier legs on forest_sparse's inputs so that the AVX2 tally
    # defect shows as failed operations until it is fixed. "ungated" legs
    # are reported by name only.
    "forest_sparse_auto": {
        "kind": "forest", "alphabet": 18870, "trees": 12000,
        "half_trees": 6000, "probe": True, "inputs": "forest_sparse",
        "legs": {"leg_a_ms": "t1", "leg_b_ms": "tN",
                 "leg_c_ms": "t1_half", "leg_d_ms": "t1_scalar"},
        "ungated": ["workers"],
        "once": ["tN", "workers"],
        "svc_warm": 480, "svc_batches": 16,
    },
    # qps is per query stream; README.md's read-rate sweep is its basis.
    "daemon_feed": {
        "kind": "daemon", "alphabet": 64, "warm_trees": 4000,
        # The feed cycles whole batches, so feed_trees is a multiple of batch.
        "feed_trees": 8000, "batch": 16, "qps": 100, "svc_batches": 32,
    },
    # 1000 replicates rather than 2000, and eight rounds: single runs of
    # one method varied by +-20% on a busy 4-core host, and a median of
    # five still left spreads of 0.24 over ten runs.
    "consensus_bootstrap": {
        "kind": "consensus", "taxa": 400, "trees": 1000, "spr": 3,
        "min_rounds": 8,
        "svc_warm": 480, "svc_batches": 32,
    },
}
TINY = {
    "forest_dense": {"trees": 300, "svc_warm": 64, "svc_batches": 4},
    "forest_sparse": {"trees": 300, "half_trees": 150, "svc_warm": 64,
                      "svc_batches": 4},
    "forest_sparse_auto": {"trees": 300, "half_trees": 150, "svc_warm": 64,
                           "svc_batches": 4},
    "daemon_feed": {"warm_trees": 160, "feed_trees": 480, "svc_batches": 4},
    "consensus_bootstrap": {"taxa": 40, "trees": 60, "svc_warm": 32,
                            "svc_batches": 2},
}
# The phylo layer's input when the workload's own trees do not share
# one taxon set.
SIDE_PHYLO = {"taxa": 64, "trees": 200, "spr": 3}

# The workloads BENCHMARK.json lists; the others are probes.
GATED = [name for name, params in WORKLOADS.items() if not params.get("probe")]

# name -> unit; every workload reports all of them (README.md maps each
# leg to the workload's operation).
END_TO_END = {
    "setup_s": "s",
    "leg_a_ms": "ms",
    "leg_b_ms": "ms",
    "leg_c_ms": "ms",
    "leg_d_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "tree.parse_s": "s", "tree.parse_mb_per_s": "MB/s",
    "tree.labels_interned": "count",
    "core.fold_us_per_tree": "us", "core.simd_batches": "count",
    "core.probes_per_add": "count", "core.mine_parallel_s": "s",
    "core.merge_s": "s", "core.extract_s": "s", "core.render_s": "s",
    "core.tally_entries": "count", "core.tally_grows": "count",
    "core.sched_steals": "count", "core.sched_idle_s": "s",
    "core.frequent_over_tallies": "ratio",
    "proc.mine_s": "s", "proc.workers_spawned": "count",
    "proc.shards_mined": "count", "proc.journal_appends": "count",
    "svc.recover_s": "s", "svc.handle_ingest_ms": "ms",
    "svc.stage_mine_ms": "ms", "svc.publish_render_ms": "ms",
    "svc.publish_bytes": "B", "svc.swap_ns": "ns",
    "svc.wal_append_ms": "ms", "svc.wal_bytes_per_tree": "B",
    "svc.frame_us": "us", "svc.handle_query_us": "us", "svc.shed": "count",
    "phylo.clusters_s": "s", "phylo.consensus_s.majority": "s",
    "phylo.consensus_s.greedy": "s", "phylo.consensus_s.semi": "s",
    "phylo.consensus_s.adams": "s", "phylo.distinct_clusters": "count",
    "phylo.kept_over_distinct": "ratio",
    "tree.self_s": "s", "core.self_s": "s", "proc.self_s": "s",
    "svc.self_s": "s", "phylo.self_s": "s",
    "trace.total_s": "s", "trace_overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# --- Build and host ------------------------------------------------------

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no cousins sources next to perfbench/ "
                         "(expected src/CMakeLists.txt)")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD, "build.log")
    with open(build_log, "a") as out:
        if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.call(configure, stdout=out, stderr=out) != 0:
                shutil.rmtree(CMAKE_DIR, ignore_errors=True)
                raise BenchError("cmake configure failed; see " + build_log)
        make = ["cmake", "--build", CMAKE_DIR, "-j", str(NPROC), "--target",
                "cousins_cli", "cousinsd", "perfbench_tool"]
        if subprocess.call(make, stdout=out, stderr=out) != 0:
            raise BenchError("build failed; see " + build_log)


def cmake_cache():
    values = {}
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                values[key.split(":", 1)[0]] = value
    return values


def host_fingerprint():
    model, sockets = "unknown", set()
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name") and model == "unknown":
                model = line.split(":", 1)[1].strip()
            elif line.startswith("physical id"):
                sockets.add(line.split(":", 1)[1].strip())
    thp = "unknown"
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as f:
            text = f.read()
            thp = text[text.index("[") + 1:text.index("]")]
    except (OSError, ValueError):
        pass
    cache = cmake_cache()
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    flags = " ".join(filter(None, [
        cache.get("CMAKE_CXX_FLAGS", ""),
        cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")]))
    tier = subprocess.run([TOOL, "simd-tier"], capture_output=True,
                          text=True).stdout.strip()
    return {
        "online_cpus": os.cpu_count(), "usable_cpus": NPROC,
        "cpu_model": model, "sockets": max(1, len(sockets)),
        "simd_tier": tier, "thp": thp, "compiler": version,
        "cxx_flags": flags, "build_type": build_type,
        "machine": platform.machine(),
    }


# --- Processes -----------------------------------------------------------

def tool(*args, cwd=None, env=None):
    """Runs perfbench_tool; returns its last stdout line parsed as JSON."""
    done = subprocess.run([TOOL, *args], capture_output=True, text=True,
                          cwd=cwd, env=env, timeout=170)
    if done.returncode != 0:
        raise BenchError("perfbench_tool %s failed: %s"
                         % (args[0], done.stderr.strip()[-2000:]))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def timed_run(argv, stdout_path, cwd=None):
    """Runs one command; returns (ok, wall seconds, max RSS in MB)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode == 0, wall, usage.ru_maxrss / 1024.0


def stop_process(proc, sig=signal.SIGTERM, timeout=30):
    if proc.poll() is None:
        proc.send_signal(sig)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def first_lines(src, dst, count):
    with open(src) as f, open(dst, "w") as out:
        for i, line in enumerate(f):
            if i >= count:
                break
            out.write(line)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


# --- cousinsd protocol (svc/protocol.h: u32 length, u32 CRC-32, body) ----

def send_request(sock, body):
    data = body.encode()
    sock.sendall(struct.pack("<II", len(data), zlib.crc32(data)) + data)
    header = recv_exact(sock, 8)
    length, crc = struct.unpack("<II", header)
    reply = recv_exact(sock, length)
    if zlib.crc32(reply) != crc:
        raise BenchError("response frame CRC mismatch")
    status, _, payload = reply.partition(b"\n")
    return status == b"OK", payload


def recv_exact(sock, size):
    chunks = []
    while size > 0:
        chunk = sock.recv(min(size, 1 << 20))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def spawn_daemon(wal, workdir):
    return subprocess.Popen(
        [DAEMON, "serve", "--wal=" + wal, "--socket=d.sock"], cwd=workdir,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def wait_for_answer(proc, workdir, expect, timeout=60):
    """Polls QUERY frequent-pairs until it answers `expect` (or anything,
    when expect is None)."""
    start = time.perf_counter()
    path = os.path.join(workdir, "d.sock")
    while time.perf_counter() - start < timeout:
        if proc.poll() is not None:
            raise BenchError("cousinsd exited with %s" % proc.returncode)
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.connect(os.path.relpath(path))
                ok, payload = send_request(sock, "QUERY frequent-pairs")
            if ok and (expect is None or payload == expect):
                return
        except OSError:
            pass
        time.sleep(0.001)
    raise BenchError("cousinsd gave no correct answer in %ds" % timeout)


# --- Inputs --------------------------------------------------------------

def params_for(workload, tiny):
    params = dict(WORKLOADS[workload])
    if tiny:
        params.update(TINY[workload])
    return params


def prune_cache(workload):
    dirs = [os.path.join(CACHE, d) for d in os.listdir(CACHE)
            if d.startswith(workload + "-")]
    dirs.sort(key=os.path.getmtime)
    for stale in dirs[:-CACHED_SEEDS]:
        shutil.rmtree(stale, ignore_errors=True)


def prepare_inputs(workload, seed, tiny):
    """Generates (or reuses) the seed's inputs and oracle answers."""
    params = params_for(workload, tiny)
    # A probe shares its inputs with the workload it names in "inputs".
    inputs = params.get("inputs", workload)
    name = "%s%s-s%d" % (inputs, "-tiny" if tiny else "", seed)
    cache = os.path.join(CACHE, name)
    if os.path.isfile(os.path.join(cache, "complete")):
        os.utime(cache)
        return cache, params
    shutil.rmtree(cache, ignore_errors=True)
    os.makedirs(cache)
    kind = params["kind"]
    seed_arg = "--seed=%d" % seed

    def path(name):
        return os.path.join(cache, name)

    if kind == "consensus":
        tool("gen", "bootstrap", seed_arg, "--trees=%d" % params["trees"],
             "--taxa=%d" % params["taxa"], "--spr=%d" % params["spr"],
             "--out=" + path("forest.nwk"))
    else:
        tool("gen", "bootstrap", seed_arg, "--trees=%d" % SIDE_PHYLO["trees"],
             "--taxa=%d" % SIDE_PHYLO["taxa"], "--spr=%d" % SIDE_PHYLO["spr"],
             "--out=" + path("phylo.nwk"))
        trees = params["warm_trees" if kind == "daemon" else "trees"]
        tool("gen", "yule", seed_arg, "--trees=%d" % trees,
             "--alphabet=%d" % params["alphabet"],
             "--out=" + path("forest.nwk"))
    tool("oracle-frequent", path("forest.nwk"), "--out=" + path("ref.csv"),
         "--threads=%d" % NPROC)
    if kind == "daemon":
        # The live feed is another generator stream than the warm state.
        tool("gen", "yule", "--seed=%d" % (seed + 1_000_003),
             "--trees=%d" % params["feed_trees"],
             "--alphabet=%d" % params["alphabet"], "--out=" + path("feed.nwk"))
        build_warm_wal(cache, params)
    else:
        first_lines(path("forest.nwk"), path("one.nwk"), 1)
        if kind == "forest":
            tool("oracle-frequent", path("one.nwk"),
                 "--out=" + path("one-ref.csv"))
        if "half_trees" in params:
            first_lines(path("forest.nwk"), path("half.nwk"),
                        params["half_trees"])
            tool("oracle-frequent", path("half.nwk"),
                 "--out=" + path("half-ref.csv"), "--threads=%d" % NPROC)
    with open(path("complete"), "w") as f:
        f.write(json.dumps(params) + "\n")
    prune_cache(inputs)
    return cache, params


def build_warm_wal(cache, params):
    """Ingests the warm trees into a fresh cousinsd, then SIGKILLs it, so
    the cached WAL is what a crashed daemon leaves behind."""
    proc = spawn_daemon("warm-wal", cache)
    try:
        wait_for_answer(proc, cache, None)
        result = tool("feed", "--socket=d.sock", "--feed=forest.nwk",
                      "--seconds=120", "--qps=0",
                      "--batch=%d" % params["batch"], "--final=warm-final.csv",
                      cwd=cache)
        if result["failed"] or result["acked_trees"] != params["warm_trees"]:
            raise BenchError("warm WAL ingest failed: %s" % result)
    finally:
        stop_process(proc, signal.SIGKILL)
    if read_bytes(os.path.join(cache, "warm-final.csv")) != read_bytes(
            os.path.join(cache, "ref.csv")):
        raise BenchError("warm daemon state differs from the oracle")
    for leftover in ("d.sock", "warm-final.csv"):
        os.remove(os.path.join(cache, leftover))


# --- Workloads -----------------------------------------------------------

class Tally:
    """Operations attempted and failed in one run, and the raw per-leg
    timings (ms) the run's medians come from."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples = {}

    def check(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1
        return ok

    def setup_burst(self, setup_once, seconds):
        """Runs SETUP_BURST checked set-ups; appends their times."""
        for _ in range(SETUP_BURST):
            ok, wall = setup_once()
            self.check(ok)
            seconds.append(wall)


# `frequent --csv` flags of each forest leg; {n} is nproc, {ckpt} a fresh
# checkpoint path. A `_half` leg reads the first half_trees trees.
FOREST_LEGS = {
    "t1": ["--threads=1"],
    "t1_half": ["--threads=1"],
    "tN": ["--threads={n}"],
    "tN_half": ["--threads={n}"],
    "workers": ["--workers={n}", "--checkpoint={ckpt}"],
    "workers_scalar": ["--workers={n}", "--checkpoint={ckpt}",
                       "--simd=scalar"],
    "t1_scalar": ["--threads=1", "--simd=scalar"],
    "t1_half_scalar": ["--threads=1", "--simd=scalar"],
}
# Throughput names of the forest legs, as README.md's findings use them.
FOREST_NAMED = {"t1": "trees_per_s_1t", "t1_half": "trees_per_s_1t_half",
                "tN": "trees_per_s", "tN_half": "trees_per_s_half",
                "workers": "trees_per_s_workers",
                "workers_scalar": "trees_per_s_workers_scalar",
                "t1_scalar": "trees_per_s_1t_scalar",
                "t1_half_scalar": "trees_per_s_1t_half_scalar"}


def half_leg(leg):
    return "_half" in leg


def run_forest(cache, params, seconds, rundir, tally):
    checkpoint = os.path.join(rundir, "ck", "final.ckpt")
    # leg -> (input, oracle answer)
    inputs = {}
    for leg in [*params["legs"].values(), *params.get("ungated", ())]:
        name = "half" if half_leg(leg) else "forest"
        ref = "half-ref.csv" if name == "half" else "ref.csv"
        inputs[leg] = (os.path.join(cache, name + ".nwk"),
                       read_bytes(os.path.join(cache, ref)))

    def argv(leg, path):
        flags = [f.format(n=NPROC, ckpt=checkpoint) for f in FOREST_LEGS[leg]]
        return [CLI, "frequent", path, "--csv", *flags]

    out = os.path.join(rundir, "out.csv")
    one_ref = read_bytes(os.path.join(cache, "one-ref.csv"))

    def setup_once():
        ok, wall, _ = timed_run(argv("tN", os.path.join(cache, "one.nwk")),
                                out)
        return ok and read_bytes(out) == one_ref, wall

    setup = []
    times = {leg: [] for leg in inputs}
    wrong = {leg: 0 for leg in inputs}
    rss = []
    start = time.perf_counter()
    min_rounds = params.get("min_rounds", MIN_ROUNDS)
    for rounds in itertools.count():
        if rounds >= min_rounds and time.perf_counter() - start >= seconds:
            break
        for leg, (path, ref) in inputs.items():
            if rounds and leg in params.get("once", ()):
                continue
            tally.setup_burst(setup_once, setup)
            shutil.rmtree(os.path.dirname(checkpoint), ignore_errors=True)
            os.makedirs(os.path.dirname(checkpoint))
            ok, wall, mb = timed_run(argv(leg, path), out)
            if not tally.check(ok and read_bytes(out) == ref):
                wrong[leg] += 1
            times[leg].append(wall * 1000)
            if leg.startswith("tN"):
                rss.append(mb)
    median = {leg: statistics.median(v) for leg, v in times.items()}
    metrics = {slot: median[leg] for slot, leg in params["legs"].items()}
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = statistics.median(rss)
    tally.samples = times
    named = {"setup_s": (metrics["setup_s"], "s"),
             "setup_samples": (len(setup), "count"),
             "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
             "rounds": (rounds, "count")}
    for leg in inputs:
        trees = params["half_trees" if half_leg(leg) else "trees"]
        named[FOREST_NAMED[leg]] = (trees / median[leg] * 1000, "1/s")
        named["wrong_csv." + leg] = (wrong[leg], "count")
    return metrics, named


def run_consensus(cache, params, seconds, rundir, tally):
    forest = os.path.join(cache, "forest.nwk")
    methods = [("leg_a_ms", "majority"), ("leg_b_ms", "greedy"),
               ("leg_c_ms", "semi"), ("leg_d_ms", "Adams")]
    one = os.path.join(cache, "one.nwk")
    one_out = os.path.join(rundir, "one.out")
    one_checked = {}

    def setup_once():
        ok, wall, _ = timed_run([CLI, "consensus", one, "--method=majority"],
                                one_out)
        verdicts = check_consensus(one, {"majority": (ok, one_out)},
                                   one_checked)
        return verdicts["majority"], wall

    setup = []
    # Strict runs once, untimed: the oracle's chain starts from it.
    strict = os.path.join(rundir, "strict.nwk")
    strict_ok, _, _ = timed_run([CLI, "consensus", forest, "--method=strict"],
                                strict)
    checked = {}  # method -> (output bytes, verdict, path)
    times = {name: [] for name, _ in methods}
    rss = []
    start = time.perf_counter()
    min_rounds = params.get("min_rounds", MIN_ROUNDS)
    for rounds in itertools.count():
        if rounds >= min_rounds and time.perf_counter() - start >= seconds:
            break
        outputs = {}
        for name, method in methods:
            tally.setup_burst(setup_once, setup)
            out = os.path.join(rundir, method + ".nwk")
            ok, wall, mb = timed_run(
                [CLI, "consensus", forest, "--method=" + method], out)
            times[name].append(wall * 1000)
            rss.append(mb)
            outputs[method] = (ok, out)
        if "strict" not in checked:
            outputs["strict"] = (strict_ok, strict)
        for verdict in check_consensus(forest, outputs, checked).values():
            tally.check(verdict)
    metrics = {name: statistics.median(v) for name, v in times.items()}
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = max(rss)
    tally.samples = times
    named = {
        "majority_s": (metrics["leg_a_ms"] / 1000, "s"),
        "greedy_s": (metrics["leg_b_ms"] / 1000, "s"),
        "semi_s": (metrics["leg_c_ms"] / 1000, "s"),
        "adams_s": (metrics["leg_d_ms"] / 1000, "s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        "setup_s": (metrics["setup_s"], "s"),
        "setup_samples": (len(setup), "count"),
        "rounds": (len(times["leg_a_ms"]), "count"),
    }
    return metrics, named


def check_consensus(forest, outputs, checked):
    """Per-method verdicts of check-consensus. Outputs byte-identical to
    ones already checked reuse that verdict."""
    current = {m: read_bytes(path) for m, (_, path) in outputs.items()}
    if all(m in checked and checked[m][0] == current[m] for m in outputs):
        return {m: outputs[m][0] and checked[m][1] for m in outputs}
    flags = []
    if "strict" in checked:
        flags.append("--strict=" + checked["strict"][2])
    for method, (_, path) in outputs.items():
        flags.append("--%s=%s" % (method.lower(), path))
    report = tool("check-consensus", forest, *flags)
    blamed = {f.split(" ", 1)[0].rstrip(":") for f in report["failures"]}
    if report["failures"]:
        log("consensus oracle: %s" % "; ".join(report["failures"]))
    verdicts = {}
    for method, (ok, path) in outputs.items():
        verdicts[method] = ok and method.lower() not in blamed
        checked[method] = (current[method], verdicts[method], path)
    return verdicts


def daemon_setup(cache, rundir, expect):
    """Restarts cousinsd on a fresh copy of the warm WAL. Returns the
    seconds from spawn until QUERY answers `expect`, and cousinsd's peak
    RSS (MB) at that point."""
    wal = os.path.join(rundir, "wal-setup")
    shutil.rmtree(wal, ignore_errors=True)
    shutil.copytree(os.path.join(cache, "warm-wal"), wal)
    start = time.perf_counter()
    proc = spawn_daemon("wal-setup", rundir)
    try:
        wait_for_answer(proc, rundir, expect)
        seconds = time.perf_counter() - start
        return seconds, peak_rss_mb(proc)
    finally:
        stop_process(proc)


def peak_rss_mb(proc):
    with open("/proc/%d/status" % proc.pid) as f:
        hwm = [line for line in f if line.startswith("VmHWM:")][0]
    return int(hwm.split()[1]) / 1024.0


def run_daemon(cache, params, seconds, rundir, tally, seed):
    expect = read_bytes(os.path.join(cache, "ref.csv"))
    # A set-up that never answers `expect` raises instead of returning.
    setups = [daemon_setup(cache, rundir, expect)
              for _ in range(DAEMON_SETUP_REPEATS)]

    shutil.copytree(os.path.join(cache, "warm-wal"),
                    os.path.join(rundir, "wal"))
    proc = spawn_daemon("wal", rundir)
    try:
        wait_for_answer(proc, rundir, expect)
        result = tool("feed", "--socket=d.sock",
                      "--feed=" + os.path.join(cache, "feed.nwk"),
                      "--seconds=%g" % seconds, "--qps=%d" % params["qps"],
                      "--batch=%d" % params["batch"], "--seed=%d" % seed,
                      "--labels=%d" % params["alphabet"], "--cycle",
                      "--final=final.csv", cwd=rundir)
        feed_rss_mb = peak_rss_mb(proc)
    finally:
        stop_process(proc)
    setups += [daemon_setup(cache, rundir, expect)
               for _ in range(DAEMON_SETUP_REPEATS)]
    for _ in setups:
        tally.check(True)
    tally.attempted += int(result["attempted"])
    tally.failed += int(result["failed"])
    # Oracle: a batch run over every acknowledged batch (the feed cycles).
    acked = os.path.join(rundir, "acked.nwk")
    with open(os.path.join(cache, "feed.nwk")) as f:
        feed = f.readlines()
    with open(acked, "w") as out:
        with open(os.path.join(cache, "forest.nwk")) as f:
            shutil.copyfileobj(f, out)
        for i in range(int(result["acked_trees"])):
            out.write(feed[i % len(feed)])
    batch_csv = os.path.join(rundir, "batch.csv")
    ok, _, _ = timed_run([CLI, "frequent", acked, "--csv"], batch_csv)
    final = os.path.join(rundir, "final.csv")
    tally.check(ok and os.path.isfile(final)
                and read_bytes(final) == read_bytes(batch_csv))
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "leg_a_ms": result["ingest_p50_ms"],
        "leg_b_ms": result["ingest_p75_ms"],
        "leg_c_ms": result["frequent_p50_ms"],
        "leg_d_ms": result["support_p50_ms"],
        "peak_rss_mb": statistics.median(mb for _, mb in setups),
    }
    named = {
        "ingest_p50_ms": (result["ingest_p50_ms"], "ms"),
        "ingest_p75_ms": (result["ingest_p75_ms"], "ms"),
        "ingest_p90_ms": (result["ingest_p90_ms"], "ms"),
        "ingest_p99_ms": (result["ingest_p99_ms"], "ms"),
        "ingest_samples": (result["ingest_n"], "count"),
        "query_p50_ms": (result["query_p50_ms"], "ms"),
        "query_p90_ms": (result["query_p90_ms"], "ms"),
        "query_p99_ms": (result["query_p99_ms"], "ms"),
        "query_samples": (result["query_n"], "count"),
        "support_p50_ms": (result["support_p50_ms"], "ms"),
        "frequent_pairs_p50_ms": (result["frequent_p50_ms"], "ms"),
        "generator_lateness_p50_ms": (result["lateness_p50_ms"], "ms"),
        "generator_lateness_max_ms": (result["lateness_max_ms"], "ms"),
        "acked_trees_per_s": (result["acked_trees"] / result["elapsed_s"],
                              "1/s"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
        "feed_peak_rss_mb": (feed_rss_mb, "MB"),
        "setup_s": (metrics["setup_s"], "s"),
        "setup_samples": (len(setups), "count"),
    }
    return metrics, named


def run_trace(workload, cache, params, rundir, tally):
    args = ["trace", "--forest=" + os.path.join(cache, "forest.nwk"),
            "--ref=" + os.path.join(cache, "ref.csv"),
            "--work=" + os.path.join(rundir, "trace"),
            "--threads=%d" % NPROC,
            "--spans=" + os.path.join(rundir, "spans.jsonl"),
            "--svc-batches=%d" % params["svc_batches"]]
    if params["kind"] == "consensus":
        args.append("--phylo=" + os.path.join(cache, "forest.nwk"))
    else:
        args.append("--phylo=" + os.path.join(cache, "phylo.nwk"))
    if params["kind"] == "daemon":
        args += ["--warm-wal=" + os.path.join(cache, "warm-wal"),
                 "--feed=" + os.path.join(cache, "feed.nwk"),
                 "--svc-warm=%d" % params["warm_trees"]]
    else:
        args.append("--svc-warm=%d" % params["svc_warm"])
    # The kernel tier, like the CLI's --simd flag, via the environment
    # variable the library reads (forked workers inherit it).
    env = (dict(os.environ, COUSINS_SIMD=params["simd"])
           if "simd" in params else None)
    result = tool(*args, env=env)
    tally.attempted += int(result.pop("attempted"))
    tally.failed += int(result.pop("failed"))
    spans_out = os.path.join(RESULTS, "%s-spans.jsonl" % workload)
    os.makedirs(RESULTS, exist_ok=True)
    shutil.copyfile(os.path.join(rundir, "spans.jsonl"), spans_out)
    metrics = {name: result[name] for name in PER_LAYER}
    named = {"span_self_s." + k: (v, "s")
             for k, v in sorted(result["span_self_s"].items())}
    named["spans"] = (result["spans"], "count")
    return metrics, named


def run_workload(workload, seed, seconds, trace, tiny=False):
    """One benchmark run. Returns the result record."""
    cache, params = prepare_inputs(workload, seed, tiny)
    rundir = os.path.join(BUILD, "runs", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    tally = Tally()
    try:
        if trace:
            metrics, named = run_trace(workload, cache, params, rundir, tally)
        elif params["kind"] == "forest":
            metrics, named = run_forest(cache, params, seconds, rundir, tally)
        elif params["kind"] == "consensus":
            metrics, named = run_consensus(cache, params, seconds, rundir,
                                           tally)
        else:
            metrics, named = run_daemon(cache, params, seconds, rundir, tally,
                                        seed)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(bool(trace)), "tiny": tiny, "params": params,
        "host": host_fingerprint(),
        "correct": tally.failed == 0,
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / max(1, tally.attempted),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "samples_ms": tally.samples,
    }
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "%s-s%d-t%d%s.json" % (
        workload, seed, record["trace"], "-tiny" if tiny else ""))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    record["result_file"] = os.path.relpath(path, ROOT)
    return record


def print_named(record):
    print("# %s seed=%d trace=%d  error_rate=%.6g (%d failed / %d attempted)"
          % (record["workload"], record["seed"], record["trace"],
             record["error_rate"], record["failed"], record["attempted"]))
    for name, m in record["metrics"].items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    for name, m in record["named"].items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    print("  result file: %s" % record["result_file"])


def compare(path_a, path_b):
    """Per-metric change from A to B; a host mismatch is flagged and
    makes the exit code 3."""
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    mismatched = sorted(k for k in set(a["host"]) | set(b["host"])
                        if a["host"].get(k) != b["host"].get(k))
    for key in mismatched:
        print("HOST MISMATCH %s: %r vs %r"
              % (key, a["host"].get(key), b["host"].get(key)))
    for name in a["metrics"]:
        if name in b["metrics"]:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            change = (vb - va) / va if va else float("nan")
            print("%-28s %14.6g -> %14.6g  %+.2f%%"
                  % (name, va, vb, 100 * change))
    if mismatched:
        print("comparison across different hosts: not a valid gate")
        return 3
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="forest_sparse_auto is a defect probe, not "
                        "a BENCHMARK.json workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced then traced")
    parser.add_argument("--compare", nargs=2, metavar="RESULT")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.all and not args.workload:
        parser.error("--workload, --all or --compare is required")
    try:
        build()
        if args.all:
            summary = {}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    record = run_workload(workload, args.seed, args.seconds,
                                          trace)
                    print_named(record)
                    summary["%s.trace%d" % (workload, trace)] = {
                        k: record[k] for k in
                        ("correct", "attempted", "failed", "error_rate")}
            print(json.dumps(summary))
            return 0
        record = run_workload(args.workload, args.seed, args.seconds,
                              args.trace)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as e:
        log("perfbench: %s" % e)
        return 1
    print_named(record)
    print(json.dumps({
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
