#!/usr/bin/env bash
# End-to-end smoke of the packet I/O plane (docs/IO.md), in two parts:
#
#   live gate   pktgen drives one end of a veth pair, io_bench captures the
#               other through the AF_PACKET TPACKET_V3 ring, and the run
#               FAILS if more than LOSS_PCT percent of the sent packets are
#               unaccounted for (received + kernel-dropped + skipped vs
#               sent: the SourceStats invariant across a real kernel ring).
#   round trip  pktgen writes a pcap savefile and io_bench replays it; the
#               capture accounting must equal the sent count exactly.
#
# Both read io_bench's last stdout line (the repo benchmark's result shape)
# and also require the engine's own accounting to balance (`correct`,
# `failed` = 0). The live gate needs CAP_NET_ADMIN (to create the veth
# pair) + CAP_NET_RAW (to open the sockets); without them it is skipped
# with a message, not failed. The round trip runs everywhere.
#
# Usage: scripts/check_io_path.sh
#   BUILD=build COUNT=200000 RATE=0 LOSS_PCT=1 to override.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=${BUILD:-build}
COUNT=${COUNT:-200000}
RATE=${RATE:-0}          # 0 = as fast as the sink accepts
LOSS_PCT=${LOSS_PCT:-1}  # max unaccounted packets, percent of sent
VETH_TX=im-ioveth0
VETH_RX=im-ioveth1

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD" -j --target pktgen io_bench >/dev/null

workdir=$(mktemp -d)
cleanup() {
  rm -rf "$workdir"
  ip link del "$VETH_TX" 2>/dev/null || true
}
trap cleanup EXIT

# judge <io_bench stdout> <sent> exact|<loss-pct>: parse the result line
# and check the engine's and the capture plane's accounting.
judge() {
  python3 - "$@" <<'EOF'
import json, sys
path, sent, bound = sys.argv[1], int(sys.argv[2]), sys.argv[3]
with open(path) as f:
    result = json.loads(f.read().splitlines()[-1])
assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
assert result["correct"] and result["failed"] == 0, (
    f"engine accounting does not balance: correct={result['correct']}, "
    f"failed {result['failed']} of {result['attempted']} delivered")
m = {name: entry["value"] for name, entry in result["metrics"].items()}
accounted = m["netio.received"] + m["netio.kernel_dropped"] + m["netio.skipped"]
print(f"sent {sent}: received {m['netio.received']:.0f}, kernel dropped "
      f"{m['netio.kernel_dropped']:.0f}, skipped {m['netio.skipped']:.0f} "
      f"(fragments {m['netio.fragments']:.0f}, "
      f"truncated {m['netio.truncated']:.0f})")
if bound == "exact":
    assert accounted == sent, f"accounted for {accounted:.0f} of {sent}"
else:
    # The veth may carry unrelated broadcast chatter (IPv6 RS, ARP):
    # captured frames can legitimately exceed `sent`, and non-IPv4 chatter
    # lands in `skipped`. The gate is on the SENT side: packets pktgen put
    # on the wire that the capture plane cannot account for.
    lost = max(0, sent - accounted)
    limit = sent * float(bound) / 100.0
    print(f"{lost:.0f} unaccounted (limit {limit:.0f})")
    assert lost <= limit, f"io path lost {lost:.0f} of {sent} (> {bound}%)"
EOF
}

# --- live veth path (needs CAP_NET_ADMIN + CAP_NET_RAW) ------------------
live=1
if ! ip link add "$VETH_TX" type veth peer name "$VETH_RX" 2>/dev/null; then
  echo "cannot create veth pair (no CAP_NET_ADMIN?): live gate skipped"
  live=0
fi
if [ "$live" = 1 ]; then
  ip link set "$VETH_TX" up
  ip link set "$VETH_RX" up
  echo "== io-path live: pktgen($VETH_TX) -> afpacket($VETH_RX) =="
  "$BUILD"/tools/io_bench --source afpacket --interface "$VETH_RX" \
    --workers 2 --max-seconds 20 --packets "$COUNT" >"$workdir/live.out" &
  CAP_PID=$!
  sleep 1  # let the ring open before traffic flows
  if ! "$BUILD"/tools/pktgen --interface "$VETH_TX" --count "$COUNT" \
      --rate "$RATE" --scale 0.01 --quiet; then
    echo "pktgen cannot transmit (no CAP_NET_RAW?): live gate skipped"
    kill "$CAP_PID" 2>/dev/null || true
    wait "$CAP_PID" 2>/dev/null || true
    live=0
  fi
fi
if [ "$live" = 1 ]; then
  wait "$CAP_PID" || { cat "$workdir/live.out"; exit 1; }
  cat "$workdir/live.out"
  judge "$workdir/live.out" "$COUNT" "$LOSS_PCT"
  echo "io path holds the loss gate"
fi

# --- pktgen -> pcap -> io_bench round trip (runs everywhere) -------------
echo "== io-path round trip: pktgen -> pcap -> io_bench =="
"$BUILD"/tools/pktgen --pcap-out "$workdir/gen.pcap" \
  --count "$COUNT" --scale 0.01 --quiet
"$BUILD"/tools/io_bench --source pcap --pcap "$workdir/gen.pcap" \
  --workers 2 | tee "$workdir/pcap.out"
judge "$workdir/pcap.out" "$COUNT" exact
echo "pcap round trip accounted for all $COUNT packets"
