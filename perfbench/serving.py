"""The ``links`` and ``fleet`` workloads: the online path over a socket.

Both start the ``serve`` CLI as its own process on a unix socket and
drive it only through the public client and the wire protocol. The
benchmark is the only client, with at most two threads.

``links``
    Phase A: closed-loop pipelined encode, then decode, on a 9-, 36- and
    64-line bus-invert link, repeated while the run lasts. Phase B: an
    open loop on the 36-line link; one thread sends fixed-size requests
    on a fixed schedule at :data:`OPEN_LOOP_RPS` (25, 50 and 100 % of the
    link's closed-loop capacity), the other reads the replies. Latency
    is timed from each request's due time.
``fleet``
    ``serve --workers 2``; two 64-line links placed on different workers
    with :func:`repro.serve.worker_for`, each driven by its own
    connection, encode then decode, concurrently.

Every run checks exact round trips, that the coded words equal an
offline codec chain's, and that each link's online energy report equals
an offline :class:`~repro.core.fastpower.CompiledPowerModel`
recomputation over everything the link encoded.
"""

import socket
import threading
import time

import numpy as np

from arith import (
    backlog_growing,
    due_time_latencies,
    goodput,
    median,
    tail_percentile,
)
from figures import install_layers
from procs import tree_cpu_s
from spans import Tracer, install

from repro.core.fastpower import CompiledPowerModel
from repro.datagen.util import words_to_bits
from repro.experiments.common import cap_model_for
from repro.serve import (
    EnergyAccount,
    LinkClient,
    LinkConfig,
    LinkSession,
    build_chain,
    merge_latency_states,
    worker_for,
)
from repro.serve.protocol import (
    pack_frame,
    payload_to_words,
    read_frame_blocking,
    words_to_payload,
    write_frame_blocking,
)
from repro.stats.switching import BitStatistics
from repro.tsv.geometry import TSVArrayGeometry

PITCH = 4.0e-6
RADIUS = 1.0e-6
CODECS = [{"kind": "businvert"}]

#: (size label, rows, cols, payload width): 9, 36 and 64 TSV lines.
LINKS = (("9", 3, 3, 8), ("36", 6, 6, 32), ("64", 8, 8, 60))

#: Words per link per closed-loop pass. Sized so each link's encode and
#: decode take long enough to time (>= 0.05 s) on a 2-core box.
PASS_WORDS = {"9": 262_144, "36": 131_072, "64": 131_072}
CHUNK_WORDS = 4096
IN_FLIGHT = 8

#: Open loop (phase B) on the 36-line link: requests of
#: ``OPEN_LOOP_WORDS`` words at fixed offered rates, set as shares of the
#: link's closed-loop capacity at the seed commit (the ten-seed median of
#: ``encode_wps_36``, 774 k words/s). The top level offers all of it, so
#: the seed does not keep up there and a capacity gain shows in
#: ``goodput_wps``; the middle rate is the one whose latency is reported.
OPEN_LOOP_LINK = "36"
OPEN_LOOP_WORDS = 1024
SEED_CAPACITY_WPS = 774_000
OPEN_LOOP_LOADS = (0.25, 0.5, 1.0)
OPEN_LOOP_RPS = tuple(
    round(load * SEED_CAPACITY_WPS / OPEN_LOOP_WORDS)
    for load in OPEN_LOOP_LOADS
)
#: Tail-latency limit for goodput [s]. At the seed commit the p99 at
#: the middle load was 13-202 ms over twenty seeds (median 29 ms), and
#: at the top load 71-206 ms in sizing runs.
LATENCY_LIMIT_S = 0.050

FLEET_WORKERS = 2
FLEET_PASS_WORDS = 131_072

#: Server instances per run, started one after another. Each one's
#: start is a ``setup_s`` sample and each serves an equal share of the
#: closed-loop passes, so a slow or fast instance (thread placement,
#: allocator state) moves the run's median less. A start is mostly the
#: interpreter importing NumPy and SciPy, which varies by +-15 % from one
#: start to the next, hence five.
SERVERS = 5

#: Starts tried per server instance. At the seed commit ``serve
#: --workers`` sometimes exits during start-up: the front connects to a
#: worker's socket file before the worker listens on it (see README, seed
#: findings). A start that dies before it is ready is retried, counted in
#: ``serve.start_failures`` (printed on every run) and logged in
#: ``# detail``; ``setup_s`` times only the start that came up.
START_ATTEMPTS = 3

#: Share of ``--seconds`` given to the closed loop in ``links``. The
#: open loop then sends, at every rate, as many requests as ``--seconds``
#: allows over the three levels together, so every level has the same
#: sample count and is judged on the same tail percentile (p99 at
#: ``--seconds 10``).
CLOSED_SHARE = 0.6

#: Words per block of the offline energy oracle; bounds its memory.
ORACLE_BLOCK = 65_536


def link_config(rows, cols, width):
    return {
        "width": width,
        "geometry": {"rows": rows, "cols": cols, "pitch": PITCH,
                     "radius": RADIUS},
        "codecs": [dict(c) for c in CODECS],
    }


def seeded_words(seed, index, width, n):
    rng = np.random.default_rng([seed, index])
    return rng.integers(0, 1 << width, n, dtype=np.int64)


class ServerDied(RuntimeError):
    """The server process exited before it answered a ``ping``."""


class Server:
    """One ``serve`` CLI process on a relative unix socket path."""
    def __init__(self, run, name, workers=None, queue_limit=None):
        self.run = run
        self.path = str(run.dir / f"{name}.sock")
        args = ["-m", "repro", "serve", "--unix", self.path]
        if queue_limit:
            args += ["--queue-limit", str(queue_limit)]
        if workers:
            args += ["--workers", str(workers),
                     "--runtime-dir", str(run.dir / f"{name}-runtime")]
        self.log = run.dir / f"{name}.log"
        self.process = run.spawn(run.python(*args), self.log.name)

    def wait_ready(self, timeout_s=120.0):
        """Block until a ``ping`` answers."""
        deadline = time.monotonic() + timeout_s
        while True:
            if self.process.poll() is not None:
                tail = self.log.read_text(errors="replace")[-2000:]
                raise ServerDied(
                    f"server exited {self.process.returncode} before "
                    f"ready:\n{tail}"
                )
            try:
                with LinkClient.connect(self.path, timeout=5.0) as client:
                    client.ping()
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)

    def stop(self):
        return self.run.stop(self.process)


def control(path, header):
    """One control request over the raw wire protocol."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30.0)
        sock.connect(path)
        with sock.makefile("rwb") as stream:
            write_frame_blocking(stream, dict(header, id=0))
            response, _ = read_frame_blocking(stream)
    if not response.get("ok"):
        raise RuntimeError(f"{header['op']} failed: {response}")
    return response


def start_server(run, name, links, workers=None, queue_limit=None):
    """Spawn, wait for ``ping``, create every link; returns (server, s)."""
    for attempt in range(START_ATTEMPTS):
        start = time.monotonic()
        server = Server(run, f"{name}-{attempt}", workers, queue_limit)
        try:
            server.wait_ready()
            break
        except ServerDied as exc:
            run.start_failures.append({
                "server": server.log.name,
                "error": str(exc).strip().splitlines()[-1],
            })
            if attempt == START_ATTEMPTS - 1:
                raise
    with LinkClient.connect(server.path) as client:
        for link_id, config in links.items():
            client.create_link(link_id, config)
    return server, time.monotonic() - start


def closed_loop(client, link, words):
    """Encode then decode ``words``; returns (coded, back, enc_s, dec_s)."""
    start = time.perf_counter()
    coded = client.stream(link, words, chunk_words=CHUNK_WORDS,
                          max_in_flight=IN_FLIGHT)
    middle = time.perf_counter()
    back = client.stream(link, coded, op="decode", chunk_words=CHUNK_WORDS,
                         max_in_flight=IN_FLIGHT)
    return coded, back, middle - start, time.perf_counter() - middle


def offline_chain(config):
    """The link's geometry and a fresh offline codec chain."""
    geometry = TSVArrayGeometry(**config["geometry"])
    return geometry, build_chain(config["codecs"], config["width"],
                                 geometry=geometry)


def offline_power(config, words, coded):
    """(coded words match, offline normalized power) for one link.

    The statistics are :meth:`BitStatistics.from_stream`'s, summed block
    by block so a long open-loop stream fits in memory. Every transition
    product is 0 or +-1 and every bit 0 or 1, so the float64 block sums
    are exact integers and the result is bit-identical to one
    ``from_stream`` over the whole stream.
    """
    geometry, chain = offline_chain(config)
    n_lines, width = geometry.n_tsvs, chain.width_out
    same = True
    gram = np.zeros((n_lines, n_lines))
    ones = np.zeros(n_lines)
    previous = None
    for start in range(0, len(words), ORACLE_BLOCK):
        block = slice(start, start + ORACLE_BLOCK)
        same &= bool(np.array_equal(coded[block], chain.encode(words[block])))
        bits = np.zeros((len(coded[block]), n_lines), dtype=np.int8)
        bits[:, :width] = words_to_bits(coded[block], width)
        ones += bits.sum(axis=0)
        if previous is not None:
            bits = np.concatenate([previous, bits])
        deltas = np.diff(bits, axis=0).astype(np.float64)
        gram += deltas.T @ deltas
        previous = bits[-1:]
    coupling = gram / (len(words) - 1)
    statistics = BitStatistics(
        self_switching=np.diag(coupling).copy(),
        coupling=coupling,
        probabilities=ones / len(words),
        n_samples=len(words),
    )
    power = CompiledPowerModel(statistics, cap_model_for(geometry)).power()
    return same, power


class Streams:
    """What each link carried since its last reset, and the oracles.

    Every closed-loop pass resets its link first, so each pass is the
    same fresh stream: its coded words must equal an offline chain's
    encoding of the pass input, and decoding must give the input back.
    At the end each link's online energy report must equal an offline
    recomputation over the stream since the last reset.
    """
    def __init__(self, run, configs, inputs):
        self.run = run
        self.configs = configs
        self.expected = {
            link: offline_chain(configs[link])[1].encode(inputs[link])
            for link in configs
        }
        self.sent = {link: [] for link in configs}
        self.received = {link: [] for link in configs}

    def closed(self, link, words, coded, back):
        self.run.check(np.array_equal(back, words),
                       f"{link}: decode(encode(x)) != x")
        self.run.check(np.array_equal(coded, self.expected[link]),
                       f"{link}: coded words differ from offline chain")
        self.sent[link] = [words]
        self.received[link] = [coded]

    def add(self, link, words, coded):
        self.sent[link].append(words)
        self.received[link].append(coded)

    def check_energy(self, stats):
        for link, config in self.configs.items():
            words = np.concatenate(self.sent[link])
            coded = np.concatenate(self.received[link])
            same, expected = offline_power(config, words, coded)
            self.run.check(same,
                           f"{link}: coded words differ from offline chain")
            reported = stats["links"][link]["energy"]["coded"][
                "normalized_power_farad"
            ]
            self.run.check(
                reported is not None
                and abs(reported - expected) <= 1e-12 * abs(expected),
                f"{link}: online energy {reported} != offline {expected}",
            )


def open_loop(path, link, rate, n_requests, words):
    """Fixed-schedule sender plus reply reader on one connection.

    Returns per-request due, sent and done times and whether each reply
    was ok, plus the in-flight count at each send.
    """
    due = [0.0] * n_requests
    sent = [0.0] * n_requests
    done = [0.0] * n_requests
    ok = [False] * n_requests
    coded = [None] * n_requests
    outstanding = [0] * n_requests
    received = [0]
    interval = 1.0 / rate

    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(60.0)
        sock.connect(path)
        reader = sock.makefile("rb")
        error = []

        def read_replies():
            try:
                for _ in range(n_requests):
                    header, payload = read_frame_blocking(reader)
                    index = int(header["id"])
                    done[index] = time.perf_counter()
                    ok[index] = bool(header.get("ok"))
                    if ok[index]:
                        coded[index] = payload_to_words(payload)
                    received[0] += 1
            except Exception as exc:  # reported by the caller
                error.append(exc)

        thread = threading.Thread(target=read_replies)
        thread.start()
        start = time.perf_counter() + 0.01
        try:
            for index in range(n_requests):
                due[index] = start + index * interval
                delay = due[index] - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                chunk = words[index * OPEN_LOOP_WORDS:
                              (index + 1) * OPEN_LOOP_WORDS]
                frame = pack_frame(
                    {"op": "encode", "link": link, "id": index},
                    words_to_payload(chunk),
                )
                outstanding[index] = index - received[0]
                sent[index] = time.perf_counter()
                sock.sendall(frame)
        finally:
            thread.join(timeout=60.0)
            reader.close()
    if error or thread.is_alive():
        raise RuntimeError(f"open-loop reader failed: {error}")
    return {
        "due": due, "sent": sent, "done": done, "ok": ok, "coded": coded,
        "outstanding": outstanding,
    }


def _server_counters(stats):
    """Sum the per-link engine counters of a ``stats`` reply."""
    links = stats["links"].values()
    batches = sum(entry["metrics"]["batches"] for entry in links)
    requests = sum(
        entry["metrics"]["mean_batch_requests"] * entry["metrics"]["batches"]
        for entry in links
    )
    return {
        "serve.engine.batches": batches,
        "serve.engine.mean_batch_requests": (
            requests / batches if batches else 0.0
        ),
        "serve.engine.max_queue_depth": max(
            entry["metrics"]["max_queue_depth"] for entry in links
        ),
        "serve.engine.shed": sum(
            entry["metrics"]["shed"] for entry in links
        ),
        "serve.engine.deadline_missed": sum(
            entry["metrics"]["deadline_missed"] for entry in links
        ),
        "serve.engine.errors": sum(
            entry["metrics"]["errors"] for entry in links
        ),
    }


def _merged_latency(path):
    """Server-side latency over every link, from raw histogram states."""
    stats = control(path, {"op": "stats", "latency_state": True})["stats"]
    states = [
        entry["metrics"]["latency_state"]
        for entry in stats["links"].values()
    ]
    return merge_latency_states(states)


def run_links(run):
    configs = {
        f"link{size}": link_config(rows, cols, width)
        for size, rows, cols, width in LINKS
    }
    inputs = {
        f"link{size}": seeded_words(run.seed, index, width, PASS_WORDS[size])
        for index, (size, _, _, width) in enumerate(LINKS)
    }
    layers = trace_link_creation(configs) if run.trace else None
    streams = Streams(run, configs, inputs)
    tracer = _frame_tracer() if run.trace else None
    budget = CLOSED_SHARE * run.seconds / SERVERS
    n_open = open_loop_requests(run.seconds)
    setups, passes = [], []
    for index in range(SERVERS):
        # The engine's default queue (256 requests) sheds when a level
        # outruns a slow host, and a shed would count as a failure. A
        # queue that holds a whole level makes overload show as backlog
        # and latency instead.
        server, seconds = start_server(run, f"s{index}", configs,
                                       queue_limit=max(256, n_open))
        setups.append(seconds)
        try:
            with LinkClient.connect(server.path) as client:
                passes += _closed_passes(client, server, inputs, streams,
                                         tracer, budget, len(passes))
                stats = client.stats()
            if index == SERVERS - 1:
                after_closed = _server_counters(stats)
                levels = _open_loop_levels(run, server, configs, streams,
                                           n_open)
                with LinkClient.connect(server.path) as client:
                    stats = client.stats()
                server_latency = _merged_latency(server.path)
        finally:
            server.stop()
        streams.check_energy(stats)

    untraced = [p for p in passes if not p["traced"]]
    result = _links_result(setups, untraced, levels, after_closed, stats)
    result["named"]["serve.start_failures"] = (len(run.start_failures),
                                               "count")
    if run.trace:
        traced = [p for p in passes if p["traced"]]
        frame = tracer.summary().get("serve.frame",
                                     {"busy_s": 0.0, "calls": 0})
        late = [lv["late_tail"]["value"] for lv in levels if lv["late_tail"]]
        serve_layers = dict(_server_counters(stats))
        serve_layers.update({
            "serve.server_p50_ms": server_latency["p50_s"] * 1e3,
            "serve.server_p99_ms": server_latency["p99_s"] * 1e3,
            "serve.frame_s": frame["busy_s"],
            "serve.frame_calls": frame["calls"],
            "load.late_ms_p99": max(late) * 1e3 if late else 0.0,
        })
        serve_layers.update(replay_layers(inputs, untraced))
        result["layers"], result["counts"] = layers
        result["serve_layers"] = serve_layers
        result["trace_overhead"] = (
            median([p["wall_s"] for p in traced])
            / median([p["wall_s"] for p in untraced]) - 1.0
        )
    return result


def _closed_passes(client, server, inputs, streams, tracer, budget, done):
    """Closed-loop passes over every link until ``budget`` seconds."""
    passes = []
    begin = time.monotonic()
    while not passes or time.monotonic() - begin < budget:
        # Traced runs alternate traced and untraced passes, so the run
        # measures its own tracing overhead.
        traced = tracer is not None and (done + len(passes)) % 2 == 1
        if tracer is not None:
            tracer.enabled = traced
        record = {"traced": traced}
        cpu_start = tree_cpu_s([server.process.pid])
        start = time.perf_counter()
        for size, _, _, _ in LINKS:
            link = f"link{size}"
            client.reset(link)
            coded, back, enc_s, dec_s = closed_loop(client, link,
                                                    inputs[link])
            streams.closed(link, inputs[link], coded, back)
            record[f"encode_s_{size}"] = enc_s
            record[f"decode_s_{size}"] = dec_s
        record["wall_s"] = time.perf_counter() - start
        record["cpu_s"] = tree_cpu_s([server.process.pid]) - cpu_start
        passes.append(record)
    if tracer is not None:
        tracer.enabled = False
    return passes


def open_loop_requests(seconds):
    """Requests per open-loop level: the same at every rate, and as many
    as ``seconds`` allows over all the levels together."""
    one_each_s = sum(1.0 / rate for rate in OPEN_LOOP_RPS)
    return max(20, int(seconds / one_each_s))


def _open_loop_levels(run, server, configs, streams, n_requests):
    """Phase B: the open loop at each offered rate on one link."""
    levels = []
    link = f"link{OPEN_LOOP_LINK}"
    width = configs[link]["width"]
    for index, rate in enumerate(OPEN_LOOP_RPS):
        words = seeded_words(run.seed, 100 + index, width,
                             n_requests * OPEN_LOOP_WORDS)
        trace = open_loop(server.path, link, rate, n_requests, words)
        levels.append(_level(run, rate, trace, words, streams, link))
    return levels


def _level(run, rate, trace, words, streams, link):
    failed = trace["ok"].count(False)
    run.check(failed == 0, f"open loop at {rate}/s: {failed} failed replies")
    if failed == 0:
        streams.add(link, words, np.concatenate(trace["coded"]))
    latency, lateness = due_time_latencies(
        trace["due"], trace["sent"], trace["done"]
    )
    return {
        "rate_rps": rate,
        "rate_wps": rate * OPEN_LOOP_WORDS,
        "n": len(latency),
        "failed": failed,
        "p50_s": median(latency),
        "tail": tail_percentile(latency),
        "late_tail": tail_percentile(lateness),
        "growing": backlog_growing(trace["outstanding"]),
    }


def _frame_tracer():
    """Spans around the client's wire framing; enabled per pass."""
    tracer = Tracer()
    tracer.enabled = False
    for name in ("pack_frame", "words_to_payload", "payload_to_words"):
        install(tracer, "serve.frame", f"repro.serve.protocol:{name}")
    return tracer


def trace_link_creation(configs):
    """Replay link creation in process under the batch-layer spans.

    What a server does on ``create_link`` (the C(p) fit and its
    extractions) runs here in a fresh process state, so ``tsv.*`` show
    what the workload's ``setup_s`` pays for. Returns (layers, counts).
    """
    tracer = Tracer()
    install_layers(tracer)
    for config in configs.values():
        LinkSession(LinkConfig.from_dict(config))
    tracer.enabled = False
    return tracer.summary(), tracer.counts


def _links_result(setups, passes, levels, after_closed, final):
    named = {"setup_s": (median(setups), "s")}
    for size, _, _, _ in LINKS:
        named[f"encode_wps_{size}"] = (
            PASS_WORDS[size] / median([p[f"encode_s_{size}"] for p in passes]),
            "words/s",
        )
    named["decode_wps_64"] = (
        PASS_WORDS["64"] / median([p["decode_s_64"] for p in passes]),
        "words/s",
    )
    middle = levels[len(levels) // 2]
    named["latency_p50_ms"] = (middle["p50_s"] * 1e3, "ms")
    if middle["tail"] is not None:
        named[f"latency_p{middle['tail']['percentile']:g}_ms"] = (
            middle["tail"]["value"] * 1e3, "ms"
        )
        named["latency_tail_beyond"] = (middle["tail"]["beyond"], "count")
    named["goodput_wps"] = (
        goodput(
            [{"rate": lv["rate_wps"],
              "tail": lv["tail"]["value"] if lv["tail"] else None,
              "failed": lv["failed"], "growing": lv["growing"]}
             for lv in levels],
            LATENCY_LIMIT_S,
        ),
        "words/s",
    )
    return {
        "metrics": {
            "setup_s": (median(setups), "s"),
            "wall_s": (median([p["wall_s"] for p in passes]), "s"),
            "cpu_s": (median([p["cpu_s"] for p in passes]), "s"),
        },
        "named": named,
        "detail": {
            "setups_s": setups,
            "passes": passes,
            "open_loop": levels,
            "latency_limit_ms": LATENCY_LIMIT_S * 1e3,
            "engine_after_closed_loop": after_closed,
            "engine_final": _server_counters(final),
        },
    }


def replay_layers(inputs, passes):
    """The online layers replayed in process with the run's words.

    Each layer runs over the same words and chunking as the closed loop,
    so its rate is comparable with the end-to-end one: codec kernel,
    bit routing, energy account and the whole session.
    """
    out = {}
    for size, rows, cols, width in LINKS:
        link = f"link{size}"
        words = inputs[link]
        config = LinkConfig.from_dict(link_config(rows, cols, width))
        geometry = config.geometry
        chunks = [words[i:i + CHUNK_WORDS]
                  for i in range(0, len(words), CHUNK_WORDS)]

        chain = build_chain(config.codecs, width, geometry=geometry)
        start = time.perf_counter()
        coded = [chain.encode(chunk) for chunk in chunks]
        out[f"serve.codec_wps_{size}"] = len(words) / (
            time.perf_counter() - start
        )
        if size == "64":
            chain.reset()
            start = time.perf_counter()
            for chunk in coded:
                chain.decode(chunk)
            out["serve.decode_codec_wps_64"] = len(words) / (
                time.perf_counter() - start
            )

        session = LinkSession(config)
        n_lines = session.n_lines
        width_out = session.chain.width_out
        start = time.perf_counter()
        routed = []
        for chunk in coded:
            bits = words_to_bits(chunk, width_out)
            padded = np.zeros((bits.shape[0], n_lines), dtype=bits.dtype)
            padded[:, :width_out] = bits
            routed.append(session.assignment.apply_to_bits(padded))
        out[f"serve.route_wps_{size}"] = len(words) / (
            time.perf_counter() - start
        )

        account = EnergyAccount(n_lines, cap_model_for(geometry))
        start = time.perf_counter()
        for bits in routed:
            account.update(bits)
        out[f"serve.energy_wps_{size}"] = len(words) / (
            time.perf_counter() - start
        )

        start = time.perf_counter()
        for chunk in chunks:
            session.encode(chunk)
        session_s = time.perf_counter() - start
        out[f"serve.session_wps_{size}"] = len(words) / session_s
        client_s = median([p[f"encode_s_{size}"] for p in passes])
        out[f"serve.wire_share_{size}"] = 1.0 - session_s / client_s
    return out


def run_fleet(run):
    slots = list(range(FLEET_WORKERS))
    names = []
    for slot in slots:
        suffix = 0
        while worker_for(f"fleet{slot}-{suffix}", slots) != slot:
            suffix += 1
        names.append(f"fleet{slot}-{suffix}")
    _, rows, cols, width = LINKS[-1]
    configs = {name: link_config(rows, cols, width) for name in names}
    inputs = {
        name: seeded_words(run.seed, 200 + index, width, FLEET_PASS_WORDS)
        for index, name in enumerate(names)
    }
    layers = trace_link_creation(configs) if run.trace else None
    streams = Streams(run, configs, inputs)
    setups, passes = [], []
    for index in range(SERVERS):
        server, seconds = start_server(run, f"s{index}", configs,
                                       workers=FLEET_WORKERS)
        setups.append(seconds)
        try:
            described = control(server.path, {"op": "fleet"})["fleet"]
            pids = [server.process.pid] + [
                w["pid"] for w in described["workers"]
            ]
            clients = [LinkClient.connect(server.path) for _ in names]
            try:
                begin = time.monotonic()
                share = run.seconds / SERVERS
                while not passes or time.monotonic() - begin < share:
                    cpu_start = tree_cpu_s(pids)
                    record = _fleet_pass(clients, names, inputs, streams)
                    record["cpu_s"] = tree_cpu_s(pids) - cpu_start
                    passes.append(record)
                stats = clients[0].stats()
            finally:
                for client in clients:
                    client.close()
            described = control(server.path, {"op": "fleet"})["fleet"]
        finally:
            server.stop()
        streams.check_energy(stats)
    total = FLEET_PASS_WORDS * len(names)
    named = {
        "setup_s": (median(setups), "s"),
        "encode_wps_64": (total / median([p["encode_s"] for p in passes]),
                          "words/s"),
        "decode_wps_64": (total / median([p["decode_s"] for p in passes]),
                          "words/s"),
        "serve.start_failures": (len(run.start_failures), "count"),
    }
    result = {
        "metrics": {
            "setup_s": (median(setups), "s"),
            "wall_s": (median([p["wall_s"] for p in passes]), "s"),
            "cpu_s": (median([p["cpu_s"] for p in passes]), "s"),
        },
        "named": named,
        "detail": {
            "setups_s": setups,
            "passes": passes,
            "placement": {name: stats["links"][name]["worker"]
                          for name in names},
            "fleet": described,
        },
    }
    if run.trace:
        latency = stats.get("fleet", {}).get("latency", {})
        result["layers"], result["counts"] = layers
        result["fleet_layers"] = {
            "fleet.worker_p50_ms": latency.get("p50_s", 0.0) * 1e3,
            "fleet.worker_p99_ms": latency.get("p99_s", 0.0) * 1e3,
            "fleet.restarts": sum(w["restarts"] for w in described["workers"]),
            "fleet.snapshot_seq": sum(
                link["snapshot_seq"] for link in described["links"].values()
            ),
        }
        # Nothing is wrapped inside the timed passes here: the traced
        # and untraced passes run the same code.
        result["trace_overhead"] = 0.0
    return result


def _fleet_pass(clients, names, inputs, streams):
    """Both links encode concurrently, then both decode concurrently."""
    for client, name in zip(clients, names):
        client.reset(name)
    barrier = threading.Barrier(len(names))
    marks = {}
    errors = []
    results = [None] * len(names)

    def drive(index):
        client, name = clients[index], names[index]
        words = inputs[name]
        try:
            barrier.wait()
            marks[("enc0", index)] = time.perf_counter()
            coded = client.stream(name, words, chunk_words=CHUNK_WORDS,
                                  max_in_flight=IN_FLIGHT)
            marks[("enc1", index)] = time.perf_counter()
            barrier.wait()
            marks[("dec0", index)] = time.perf_counter()
            back = client.stream(name, coded, op="decode",
                                 chunk_words=CHUNK_WORDS,
                                 max_in_flight=IN_FLIGHT)
            marks[("dec1", index)] = time.perf_counter()
        except Exception as exc:  # re-raised below on the main thread
            errors.append(exc)
            barrier.abort()
            return
        results[index] = (coded, back)

    threads = [threading.Thread(target=drive, args=(i,))
               for i in range(len(names))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    for name, (coded, back) in zip(names, results):
        streams.closed(name, inputs[name], coded, back)
    indices = range(len(names))
    enc0 = min(marks[("enc0", i)] for i in indices)
    enc1 = max(marks[("enc1", i)] for i in indices)
    dec0 = min(marks[("dec0", i)] for i in indices)
    dec1 = max(marks[("dec1", i)] for i in indices)
    return {"encode_s": enc1 - enc0, "decode_s": dec1 - dec0,
            "wall_s": dec1 - enc0}
