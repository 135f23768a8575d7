#!/usr/bin/env python3
"""Two-process loopback smoke test of the real-I/O gateway (DESIGN.md §12).

Launches a decoder and an encoder `bytecache_gateway` as separate
processes tunneling over 127.0.0.1 UDP, streams a deterministic bench
file through them twice (the second pass is where the byte cache
earns its keep), and asserts:

  * byte-identical delivery: the sink reassembles exactly the sent file;
  * the second pass compresses (wire_ratio < 1);
  * the control channel works end to end: ping, live stats snapshot,
    cache flush, policy switch, and shutdown via bytecache_ctl;
  * clean teardown: SIGTERM and the shutdown command both exit 0;
  * cold restarts recover through epoch resync (DESIGN.md §9): a second
    pair runs with --epoch-resync, bumps the epoch once with a flush,
    then has its encoder and later its decoder killed and relaunched
    mid-stream.  After a recovery window of RECOVERY_PASSES passes, in
    which drops are allowed but every delivered datagram must be
    byte-identical, one full pass must arrive intact with
    wire_ratio < 1.

The UDP and simulated wires carrying byte-identical traffic is checked
in-process by tests/net_test.cc (GatewayTunnelTest).

Usage:
  python3 tools/loopback_smoke.py --build build
"""

import argparse
import json
import random
import signal
import socket
import subprocess
import sys
import time

FILE_BYTES = 256 * 1024
CHUNK = 1200          # plain datagram payload (4-byte seq + 1196 data)
DATA_PER_CHUNK = CHUNK - 4
PASSES = 2
WINDOW = 64           # in-flight datagrams before waiting on the sink
DEADLINE_S = 30       # per pass
RECOVERY_PASSES = 2   # passes after a restart that may lose datagrams
STALL_S = 0.3         # sink silence that ends a wait in a lossy pass


def fail(msg):
    sys.exit(f"loopback_smoke: FAIL: {msg}")


def free_port():
    s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    s.bind(("127.0.0.1", 0))
    port = s.getsockname()[1]
    s.close()
    return port


def make_file():
    """Deterministic high-entropy content: every run streams identical
    bytes, so encoder counters are exactly reproducible."""
    rng = random.Random(0xB17EC4C8E)
    return bytes(rng.getrandbits(8) for _ in range(FILE_BYTES))


def chunks_of(blob):
    return [blob[i:i + DATA_PER_CHUNK]
            for i in range(0, len(blob), DATA_PER_CHUNK)]


class Ctl:
    """bytecache_ctl wrapper."""

    def __init__(self, exe, port):
        self.exe = exe
        self.addr = f"127.0.0.1:{port}"

    def run(self, *args):
        return subprocess.run([self.exe, f"--server={self.addr}", *args],
                              capture_output=True, text=True)

    def must(self, *args):
        proc = self.run(*args)
        if proc.returncode != 0:
            fail(f"bytecache_ctl {' '.join(args)} -> rc={proc.returncode}: "
                 f"{proc.stderr.strip()}")
        return proc.stdout

    def wait_ready(self, deadline_s=10):
        end = time.monotonic() + deadline_s
        while time.monotonic() < end:
            if self.run("ping").returncode == 0:
                return
            time.sleep(0.05)
        fail(f"gateway at {self.addr} never answered ping")

    def counters(self):
        """Stats snapshot as {name: value} (counters only)."""
        out = {}
        for line in self.must("stats").splitlines():
            entry = json.loads(line)
            if entry.get("type") == "counter":
                out[entry["name"]] = entry["value"]
        return out


class Stream:
    """Seq-stamped datagrams into the encoder's ingress, collected at the
    sink.  Sequence numbers run on across passes, so a late datagram of
    an earlier pass is never mistaken for one of the current pass."""

    def __init__(self, ingress_port, sink):
        self.out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.ingress = ingress_port
        self.sink = sink
        self.seq = 0
        self.first = 0    # first seq of the current pass
        self.arrived = 0  # distinct datagrams of the current pass received
        self.received = {}

    def pump(self):
        while True:
            try:
                data, _ = self.sink.recvfrom(65535)
            except (BlockingIOError, socket.timeout):
                return
            seq = int.from_bytes(data[:4], "big")
            if seq >= self.first and seq not in self.received:
                self.arrived += 1
            self.received[seq] = data[4:]

    def wait_for(self, count, deadline, lossy):
        """Waits until `count` datagrams of the current pass have arrived.
        A lossy wait also ends once the sink stays silent for STALL_S;
        returns False then."""
        last, since = self.arrived, time.monotonic()
        while self.arrived < count:
            now = time.monotonic()
            if now > deadline:
                fail(f"transfer stalled: {self.arrived}/{count} datagrams "
                     f"of the pass after {DEADLINE_S}s")
            self.pump()
            if self.arrived != last:
                last, since = self.arrived, now
            elif lossy and now - since > STALL_S:
                return False
            time.sleep(0.001)
        return True

    def send_pass(self, blob, lossy=False):
        """Sends the file once with window pacing; every datagram that
        arrives must be byte-identical to the one sent.  A strict pass
        must deliver all of them: loopback with paced sending and a 4 MiB
        receive buffer loses nothing.  A lossy pass paces by time instead
        once the sink first stalls, so its length stays bounded however
        many datagrams are lost."""
        pieces = chunks_of(blob)
        self.first, self.arrived = self.seq, 0
        deadline = time.monotonic() + DEADLINE_S
        stalled = False
        for sent, piece in enumerate(pieces, start=1):
            self.out.sendto(self.seq.to_bytes(4, "big") + piece,
                            ("127.0.0.1", self.ingress))
            self.seq += 1
            if stalled:
                time.sleep(0.001)
                self.pump()
            elif not self.wait_for(sent - WINDOW, deadline, lossy):
                stalled = True
        self.wait_for(len(pieces), deadline, lossy)
        for i, piece in enumerate(pieces):
            got = self.received.get(self.first + i)
            if got is not None and got != piece:
                fail(f"datagram {self.first + i} delivered bytes differ "
                     f"from the sent ones")


def open_sink():
    sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sink.bind(("127.0.0.1", 0))
    sink.setblocking(False)
    return sink, sink.getsockname()[1]


def terminate_clean(proc, name):
    proc.send_signal(signal.SIGTERM)
    try:
        rc = proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail(f"{name} did not exit within 10s of SIGTERM")
    if rc != 0:
        fail(f"{name} exited {rc} on SIGTERM (teardown is not clean)")


def encoder_counters_of_interest(counters):
    keys = ("encoder.bytes_in", "encoder.bytes_out",
            "encoder.encoded_packets", "net.plain.plain_in")
    missing = [k for k in keys if k not in counters]
    if missing:
        fail(f"stats snapshot lacks {missing}; got {sorted(counters)[:10]}...")
    return {k: counters[k] for k in keys}


def run_udp_pair(gw, ctl_exe, blob):
    ingress, enc_tun, dec_tun = free_port(), free_port(), free_port()
    enc_ctl_port, dec_ctl_port = free_port(), free_port()
    sink, sink_port = open_sink()

    dec = subprocess.Popen(
        [gw, "--role=decode", f"--tunnel=127.0.0.1:{dec_tun}",
         f"--egress=127.0.0.1:{sink_port}",
         f"--control=127.0.0.1:{dec_ctl_port}"])
    enc = subprocess.Popen(
        [gw, "--role=encode", f"--ingress=127.0.0.1:{ingress}",
         f"--tunnel=127.0.0.1:{enc_tun}", f"--peer=127.0.0.1:{dec_tun}",
         f"--control=127.0.0.1:{enc_ctl_port}"])
    try:
        enc_ctl = Ctl(ctl_exe, enc_ctl_port)
        dec_ctl = Ctl(ctl_exe, dec_ctl_port)
        enc_ctl.wait_ready()
        dec_ctl.wait_ready()

        stream = Stream(ingress, sink)
        for _ in range(PASSES):
            stream.send_pass(blob)
        stats = encoder_counters_of_interest(enc_ctl.counters())

        # Control channel, after the measured transfer (flush and policy
        # switches would perturb the counters).
        if "ok" not in enc_ctl.must("flush"):
            fail("encoder flush did not answer ok")
        dec_ctl.must("flush")
        enc_ctl.must("policy", "k_distance")
        if enc_ctl.run("policy", "no_such_policy").returncode != 1:
            fail("bogus policy name was not refused")
        if dec_ctl.run("policy", "k_distance").returncode != 1:
            fail("decoder accepted a policy switch (it has no policy)")
        post = enc_ctl.counters()
        if post.get("encoder.flushes", 0) < 2:  # explicit flush + switch
            fail(f"flush+switch not visible in stats: {post.get('encoder.flushes')}")

        enc_ctl.must("shutdown")
        if enc.wait(timeout=10) != 0:
            fail("encoder exited non-zero after shutdown command")
        terminate_clean(dec, "decoder")
        return stats
    finally:
        for p in (enc, dec):
            if p.poll() is None:
                p.kill()


def pass_ratio(stream, blob, enc_ctl):
    """Sends one strict pass and returns its wire_ratio, read off the
    encoder's counters around it."""
    before = encoder_counters_of_interest(enc_ctl.counters())
    stream.send_pass(blob)
    after = encoder_counters_of_interest(enc_ctl.counters())
    bytes_in = after["encoder.bytes_in"] - before["encoder.bytes_in"]
    bytes_out = after["encoder.bytes_out"] - before["encoder.bytes_out"]
    return bytes_out / bytes_in


def run_restart_phase(gw, ctl_exe, blob):
    """Kills and relaunches the encoder, then the decoder, of a pair
    running with epoch resync; returns each recovered pass's
    wire_ratio."""
    ingress, enc_tun, dec_tun = free_port(), free_port(), free_port()
    enc_ctl_port, dec_ctl_port = free_port(), free_port()
    sink, sink_port = open_sink()
    argv = {
        "decoder": [gw, "--role=decode", f"--tunnel=127.0.0.1:{dec_tun}",
                    f"--egress=127.0.0.1:{sink_port}",
                    f"--control=127.0.0.1:{dec_ctl_port}", "--epoch-resync"],
        "encoder": [gw, "--role=encode", f"--ingress=127.0.0.1:{ingress}",
                    f"--tunnel=127.0.0.1:{enc_tun}",
                    f"--peer=127.0.0.1:{dec_tun}",
                    f"--control=127.0.0.1:{enc_ctl_port}", "--epoch-resync"],
    }
    ctl = {"decoder": Ctl(ctl_exe, dec_ctl_port),
           "encoder": Ctl(ctl_exe, enc_ctl_port)}
    procs = {name: subprocess.Popen(args) for name, args in argv.items()}
    try:
        for c in ctl.values():
            c.wait_ready()
        stream = Stream(ingress, sink)
        for _ in range(PASSES):
            stream.send_pass(blob)
        # One epoch bump.  The file holds no repeats of its own, so the
        # decoder adopts the new epoch from the second pass after it.
        ctl["encoder"].must("flush")
        for _ in range(PASSES):
            stream.send_pass(blob)
        if ctl["decoder"].counters().get("decoder.epoch_adoptions", 0) < 1:
            fail("the decoder never adopted the flushed epoch")

        ratios = {}
        for name in ("encoder", "decoder"):
            terminate_clean(procs[name], name)
            procs[name] = subprocess.Popen(argv[name])
            ctl[name].wait_ready()
            for _ in range(RECOVERY_PASSES):
                stream.send_pass(blob, lossy=True)
            ratios[name] = pass_ratio(stream, blob, ctl["encoder"])
            if not ratios[name] < 1.0:
                fail(f"after the {name} restart the pass did not compress "
                     f"(wire_ratio {ratios[name]:.4f})")
        for name, proc in procs.items():
            terminate_clean(proc, name)
        return ratios
    finally:
        for p in procs.values():
            if p.poll() is None:
                p.kill()


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build",
                        help="build tree holding src/app/ binaries")
    args = parser.parse_args()
    gw = f"{args.build}/src/app/bytecache_gateway"
    ctl = f"{args.build}/src/app/bytecache_ctl"

    blob = make_file()
    stats = run_udp_pair(gw, ctl, blob)

    if stats["encoder.encoded_packets"] == 0:
        fail("no packet was ever encoded — the second pass must compress")
    ratio = stats["encoder.bytes_out"] / stats["encoder.bytes_in"]
    if not ratio < 1.0:
        fail(f"wire_ratio {ratio:.4f} shows no redundancy elimination")
    print(f"loopback_smoke: OK — {PASSES}x {FILE_BYTES // 1024} KiB "
          f"delivered byte-identical; wire_ratio {ratio:.4f} "
          f"({stats['encoder.bytes_out']}/{stats['encoder.bytes_in']} bytes)")

    ratios = run_restart_phase(gw, ctl, blob)
    print("loopback_smoke: OK — cold restarts recovered: "
          + ", ".join(f"{name} restart -> pass wire_ratio {r:.4f}"
                      for name, r in ratios.items()))


if __name__ == "__main__":
    main()
