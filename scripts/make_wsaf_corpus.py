#!/usr/bin/env python3
"""Regenerate the WSAF snapshot corpus under tests/corpus/.

The files exercise flow_exporter --restore (and WsafTable::load) against
hand-built snapshot bytes: one good bucketed v2 archive, and corrupt v2
archives that must be rejected with a one-line diagnostic (BadInput.* ctest
entries). The FlowKey hash is reimplemented here (mix64 / hash_combine from
src/util/hash.h) so records carry flow_ids and slots that genuinely match
their keys — the loader cross-checks both.

bad_wsaf_legacy_v1.imwsaf is not written here: it is a frozen v1
("IMWSAF01") archive, kept so the loader's rejection of the retired format
stays tested.

Run from the repo root:  python3 scripts/make_wsaf_corpus.py
"""

import struct
import sys
from pathlib import Path

MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    x &= MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & MASK64
    x ^= x >> 31
    return x


def hash_combine(seed: int, v: int) -> int:
    return mix64(seed ^ ((v + 0x9E3779B97F4A7C15 + ((seed << 6) & MASK64) + (seed >> 2)) & MASK64))


def flow_hash(src_ip, dst_ip, src_port, dst_port, proto, seed):
    a = ((src_ip << 32) | dst_ip) & MASK64
    b = (src_port << 24) | (dst_port << 8) | proto
    return mix64(hash_combine(seed ^ a, b))


SEED = 0x1234
RECORD = struct.Struct("<QIIHHBB2xI4xddQQ")  # 64 bytes, matches SnapshotRecord
HEADER_V2 = struct.Struct("<8sIIIIQQQ")  # 48 bytes
assert RECORD.size == 64 and HEADER_V2.size == 48


def key_n(n):
    return (n, n + 7, n & 0xFFFF, 80, 6)


def record(key, slot, packets, bytes_, first, last, flow_id=None, referenced=0):
    h = flow_hash(*key, SEED)
    fid = (h >> 32) & 0xFFFFFFFF if flow_id is None else flow_id
    src, dst, sport, dport, proto = key
    return RECORD.pack(slot, src, dst, sport, dport, proto, referenced, fid,
                       packets, bytes_, first, last)


def v2_header(log2, probe, layout, occupied, idle=0, old_log2=0):
    # A nonzero old_log2 in the reserved field marks an in-flight resize:
    # the snapshot carries a second (old-region) slot namespace tagged with
    # record-slot bit 63, and the loader completes the migration.
    return HEADER_V2.pack(b"IMWSAF02", log2, probe, layout, old_log2, idle,
                          SEED, occupied)


def scalar_keys_with_distinct_home_slots(log2, count):
    mask = (1 << log2) - 1
    taken, keys = set(), []
    n = 0
    while len(keys) < count:
        key = key_n(n)
        home = flow_hash(*key, SEED) & mask
        if home not in taken:
            taken.add(home)
            keys.append((key, home))
        n += 1
    return keys


def bucketed_keys_with_distinct_buckets(log2, count):
    # One bucket per cache line: bucket = hash & (buckets-1), slot = bucket*16.
    buckets = (1 << log2) // 16
    taken, keys = set(), []
    n = 0
    while len(keys) < count:
        key = key_n(n)
        bucket = flow_hash(*key, SEED) & (buckets - 1)
        if bucket not in taken:
            taken.add(bucket)
            keys.append((key, bucket * 16))
        n += 1
    return keys


def main():
    corpus = Path(__file__).resolve().parent.parent / "tests" / "corpus"
    corpus.mkdir(parents=True, exist_ok=True)

    # Good: bucketed v2 archive — tags/bitmaps are rebuilt from the records.
    bkeys = bucketed_keys_with_distinct_buckets(log2=6, count=3)
    body = b"".join(record(key, slot, float(i + 1), float((i + 1) * 64),
                           100 * (i + 1), 200 * (i + 1))
                    for i, (key, slot) in enumerate(bkeys))
    (corpus / "ok_wsaf_bucketed_v2.imwsaf").write_bytes(
        v2_header(6, 16, 1, len(bkeys)) + body)

    # Bad: header claims 2 records, file holds 1.3 — truncated mid-record.
    full = record(bkeys[0][0], bkeys[0][1], 1.0, 64.0, 100, 200)
    partial = record(bkeys[1][0], bkeys[1][1], 2.0, 128.0, 100, 200)[:20]
    (corpus / "bad_wsaf_truncated.imwsaf").write_bytes(
        v2_header(6, 16, 1, 2) + full + partial)

    # Bad: bucketed layout with log2_entries < 4 — no valid bucket count.
    (corpus / "bad_wsaf_bucket_count.imwsaf").write_bytes(v2_header(2, 4, 1, 0))

    # Bad: record flow_id (hence fingerprint tag) contradicts its own key.
    key, slot = bkeys[0]
    good_fid = (flow_hash(*key, SEED) >> 32) & 0xFFFFFFFF
    bad = record(key, slot, 1.0, 64.0, 100, 200, flow_id=good_fid ^ 0xFFFFFFFF)
    (corpus / "bad_wsaf_tag_mismatch.imwsaf").write_bytes(
        v2_header(6, 16, 1, 1) + bad)

    # Bad: layout enum value from the future.
    (corpus / "bad_wsaf_layout.imwsaf").write_bytes(v2_header(6, 16, 7, 0))

    # Bad: mid-resize metadata claims the old region (2^6) is not smaller
    # than the table itself (2^6) — resizes only ever grow.
    (corpus / "bad_wsaf_resize_shrink.imwsaf").write_bytes(
        v2_header(6, 8, 0, 0, old_log2=6))

    # Bad: an old-region record (slot bit 63) points past the declared
    # old-region capacity (slot 40 in a 2^5-slot source table).
    skey, _ = scalar_keys_with_distinct_home_slots(log2=6, count=1)[0]
    oob_old = record(skey, (1 << 63) | 40, 1.0, 64.0, 100, 200)
    (corpus / "bad_wsaf_resize_slot.imwsaf").write_bytes(
        v2_header(6, 8, 0, 1, old_log2=5) + oob_old)

    # Bad: a new-region record targets slot 100 in a table the header sizes
    # at 2^6 = 64 slots — the capacity claim and the payload disagree.
    oob_new = record(skey, 100, 1.0, 64.0, 100, 200)
    (corpus / "bad_wsaf_capacity_mismatch.imwsaf").write_bytes(
        v2_header(6, 8, 0, 1) + oob_new)

    for f in sorted(corpus.glob("*wsaf*.imwsaf")):
        print(f"{f.name}: {f.stat().st_size} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
