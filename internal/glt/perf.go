package glt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// This file carries the GLT benchmark hooks used by cmd/dcwsperf, plus a
// frozen copy of the pre-sharding single-mutex, full-table design they
// compare against. The baseline is kept here — not in the perf tool — so
// the comparison stays pinned to what PR 4 shipped even as the live
// implementation evolves.

// baselineTable is the frozen single-RWMutex global load table with the
// full-table piggyback encoding: every exchange decodes, merges and
// re-encodes O(cluster) entries under one lock.
type baselineTable struct {
	mu      sync.RWMutex
	self    string
	entries map[string]Entry
	version uint64

	encMu      sync.Mutex
	encVersion uint64
	encValid   bool
	encoded    string
}

func newBaselineTable(self string) *baselineTable {
	t := &baselineTable{self: self, entries: make(map[string]Entry)}
	t.entries[self] = Entry{Server: self}
	return t
}

func (t *baselineTable) UpdateSelf(load float64, at time.Time) {
	t.mu.Lock()
	t.entries[t.self] = Entry{Server: t.self, Load: load, Stamp: at.UnixMilli()}
	t.version++
	t.mu.Unlock()
}

func (t *baselineTable) Observe(e Entry) {
	if e.Server == "" {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur, ok := t.entries[e.Server]
	if ok && e.Stamp <= cur.Stamp {
		return
	}
	t.entries[e.Server] = e
	t.version++
}

func (t *baselineTable) Merge(entries []Entry) {
	for _, e := range entries {
		t.Observe(e)
	}
}

func (t *baselineTable) EncodeHeader() string {
	t.encMu.Lock()
	defer t.encMu.Unlock()
	t.mu.RLock()
	v := t.version
	if t.encValid && t.encVersion == v {
		t.mu.RUnlock()
		return t.encoded
	}
	entries := make([]Entry, 0, len(t.entries))
	for _, e := range t.entries {
		entries = append(entries, e)
	}
	t.mu.RUnlock()
	bp := encodeBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for i, e := range entries {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendEntry(buf, e)
	}
	out := string(buf)
	*bp = buf
	encodeBufPool.Put(bp)
	t.encoded, t.encVersion, t.encValid = out, v, true
	return out
}

// benchAddr generates the fixed fleet addresses the benchmarks and
// header-size probes use, so byte counts are comparable across runs.
func benchAddr(i int) string { return fmt.Sprintf("srv%03d.cluster:8080", i) }

// benchBase is a fixed wall-clock origin so encoded stamps — and
// therefore header byte counts — are stable.
var benchBase = time.UnixMilli(1_722_844_800_000)

// seedEntry is server i's entry as every seeded table holds it.
func seedEntry(i int) Entry {
	return Entry{Server: benchAddr(i), Load: float64(i%50) + 0.5, Stamp: benchBase.UnixMilli()}
}

func seedBaseline(self string, servers int) *baselineTable {
	t := newBaselineTable(self)
	for i := 0; i < servers; i++ {
		t.Observe(seedEntry(i))
	}
	return t
}

// seedSharded seeds every server but self, whose entry only its own
// UpdateSelf publishes (an echo of it would be refuted).
func seedSharded(self string, servers int) *Table {
	t := NewTable(self)
	for i := 0; i < servers; i++ {
		if benchAddr(i) != self {
			t.Observe(seedEntry(i))
		}
	}
	return t
}

// BenchGossipExchangeBaseline benchmarks one piggyback exchange under the
// frozen full-table design at the given cluster size: the sender
// refreshes its own load and encodes its complete table, the receiver
// decodes and merges all of it and encodes its complete table back, and
// the sender merges that. Every leg is O(cluster). Goroutines act as
// distinct sender peers against one shared receiver, so the run also
// measures contention on the receiver's single lock.
func BenchGossipExchangeBaseline(servers int) func(*testing.B) {
	return func(b *testing.B) {
		recv := seedBaseline(benchAddr(0), servers)
		var peerSeq atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			id := int(peerSeq.Add(1))
			self := benchAddr(1 + id%(servers-1))
			send := seedBaseline(self, servers)
			n := 0
			for pb.Next() {
				n++
				at := benchBase.Add(time.Duration(n) * time.Millisecond)
				send.UpdateSelf(float64(n%50)+0.5, at)
				recv.Merge(DecodePiggyback(send.EncodeHeader()).Entries)
				recv.UpdateSelf(float64(n%40)+0.5, at)
				send.Merge(DecodePiggyback(recv.EncodeHeader()).Entries)
			}
		})
	}
}

// BenchGossipExchangeSharded benchmarks the same exchange under the
// sharded delta design: each leg encodes only the entries the other side
// has not acked, capped at max, against a striped table. In steady state
// each leg carries O(1) fresh entries instead of O(cluster).
func BenchGossipExchangeSharded(servers, max int) func(*testing.B) {
	return func(b *testing.B) {
		recv := seedSharded(benchAddr(0), servers)
		var peerSeq atomic.Int64
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			id := int(peerSeq.Add(1))
			self := benchAddr(1 + id%(servers-1))
			send := seedSharded(self, servers)
			n := 0
			for pb.Next() {
				n++
				at := benchBase.Add(time.Duration(n) * time.Millisecond)
				send.UpdateSelf(float64(n%50)+0.5, at)
				recv.Absorb(DecodePiggyback(send.EncodePiggybackTo(recv.Self(), at, max, false)), at)
				recv.UpdateSelf(float64(n%40)+0.5, at)
				send.Absorb(DecodePiggyback(recv.EncodePiggybackTo(self, at, max, false)), at)
			}
		})
	}
}

// HeaderSizes reports piggyback header sizes at a cluster size: the
// frozen baseline's full-table encoding and the worst-case capped delta
// (a peer that has acked nothing, so the delta carries its full cap of
// entries plus the gossip metadata). The acceptance gate compares the
// capped delta at 256 servers against the full table at 16.
func HeaderSizes(servers, max int) (fullBytes, deltaBytes int) {
	full := seedBaseline(benchAddr(0), servers)
	full.UpdateSelf(0.5, benchBase)
	t := seedSharded(benchAddr(0), servers)
	t.UpdateSelf(0.5, benchBase)
	delta := t.EncodePiggybackTo(benchAddr(1), benchBase, max, false)
	return len(full.EncodeHeader()), len(delta)
}

// DigestExchangeSizes measures one anti-entropy exchange between two
// n-server tables that agree on everything except the entries of
// `diverged` servers (chosen to land in distinct stripes). digestBytes is
// every byte of a Reconcile round, both directions of every leg, against
// live tables; fullBytes is the comparator the digest protocol is gated
// against: each side sending its whole table. It also reports how many
// stripes the responder found diverged.
func DigestExchangeSizes(servers, diverged int) (digestBytes, fullBytes, divergedShards int) {
	build := func() (*Table, *Table) {
		a := seedSharded(benchAddr(0), servers)
		b := seedSharded(benchAddr(1), servers)
		// Self entries must carry the same load/stamp the seed gave every
		// other table's copy, so the two tables start byte-identical.
		a.UpdateSelf(0.5, benchBase)
		b.UpdateSelf(1.5, benchBase)
		// Perturb `diverged` third-party servers on b only, each in a
		// distinct stripe, newer than a's copies.
		usedShards := make(map[int]bool)
		n := 0
		for i := 2; i < servers && n < diverged; i++ {
			addr := benchAddr(i)
			sh := int(shardIndex(b, addr))
			if usedShards[sh] {
				continue
			}
			usedShards[sh] = true
			b.Observe(Entry{Server: addr, Load: 40.5, Stamp: benchBase.Add(time.Minute).UnixMilli()})
			n++
		}
		return a, b
	}
	now := benchBase.Add(2 * time.Minute)

	// Full-table exchange: neither fresh table has an ack from the other,
	// so an uncapped delta is each side's whole table.
	a, b := build()
	req := a.EncodePiggybackTo(b.Self(), now, 0, false)
	b.Absorb(DecodePiggyback(req), now)
	resp := b.EncodePiggybackTo(a.Self(), now, 0, false)
	fullBytes = len(req) + len(resp)

	// Push-pull digest exchange on fresh tables with the same divergence.
	a, b = build()
	_, _ = a.Reconcile(b.Self(), func(hdr string) (Piggyback, error) {
		req := DecodePiggyback(hdr)
		b.Absorb(req, now)
		resp, diff := b.Answer(req, liveDeltaCap)
		digestBytes += len(hdr) + len(resp)
		divergedShards += diff
		p := DecodePiggyback(resp)
		a.Absorb(p, now)
		return p, nil
	})
	return digestBytes, fullBytes, divergedShards
}

// liveDeltaCap is the live server's delta cap, dcws.MaxPiggybackEntries,
// which this package cannot import.
const liveDeltaCap = 12

// shardIndex exposes a table's stripe assignment for an address (perf
// and test helpers only).
func shardIndex(t *Table, server string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(server); i++ {
		h ^= uint32(server[i])
		h *= 16777619
	}
	return h % uint32(len(t.shards))
}
