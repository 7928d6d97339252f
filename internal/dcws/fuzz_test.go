package dcws

import (
	"bytes"
	"encoding/binary"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dcws/internal/graph"
	"dcws/internal/naming"
	"dcws/internal/store"
)

// hugeCount is a document count no frame can hold: sizing a slice by it
// panics with "makeslice: cap out of range".
const hugeCount = 1 << 60

// TestDecodeHugeDocCountRejected: a subscribe or invalidation frame whose
// count claims more documents than its payload could carry is an error,
// not an allocation. The count comes off the wire inside a readLoop, so a
// panic there would take the whole process down.
func TestDecodeHugeDocCountRejected(t *testing.T) {
	if _, err := decodeInventory(binary.AppendUvarint(nil, hugeCount)); err != errInvalFrame {
		t.Fatalf("decodeInventory(count 2^60) err = %v, want errInvalFrame", err)
	}
	// Every invalidation entry takes two bytes at least (a name's length
	// and the copy flag), so 2^60 is still out of reach of any payload.
	inval := append(binary.AppendUvarint([]byte{invalUpdate}, hugeCount), make([]byte, 64)...)
	if _, _, _, err := decodeInvalidate(inval); err != errInvalFrame {
		t.Fatalf("decodeInvalidate(count 2^60) err = %v, want errInvalFrame", err)
	}
	// The bounds are exact: three minimal inventory entries fit in six
	// bytes, and three empty names alone in six plus the sequence number.
	three := encodeInventory([]invDoc{{name: "", hash: 0}, {name: "", hash: 1}, {name: "", hash: 2}})
	if docs, err := decodeInventory(three); err != nil || len(docs) != 3 {
		t.Fatalf("decodeInventory(3 minimal entries) = %v, %v", docs, err)
	}
	if _, docs, _, err := decodeInvalidate(encodeInvalidate(invalDelete, make([]invDoc, 3), 1)); err != nil || len(docs) != 3 {
		t.Fatalf("decodeInvalidate(3 empty names) = %v, %v", docs, err)
	}
	// So is the ack's hot report: a count of 2^60 is refused.
	if _, _, err := decodeAck(binary.AppendUvarint(encodeName("/a.html"), hugeCount)); err != errInvalFrame {
		t.Fatalf("decodeAck(count 2^60) err = %v, want errInvalFrame", err)
	}
}

// FuzzInvalidationFrames drives every subscription-channel payload decoder
// with the same arbitrary bytes. Invariants: no decoder panics, and
// whatever one accepts re-encodes to a payload that decodes to the same
// values.
func FuzzInvalidationFrames(f *testing.F) {
	docs := []invDoc{{name: "/a.html", hash: 7}, {name: "/img/b.gif", hash: 1 << 40}}
	named := func(names ...string) []invDoc {
		out := make([]invDoc, len(names))
		for i, n := range names {
			out[i].name = n
		}
		return out
	}
	f.Add(encodeInventory(docs))
	f.Add(encodeInventory(nil))
	f.Add(encodeInvalidate(invalUpdate, named("/index.html"), 1))
	f.Add(encodeInvalidate(invalRevoke, named("/x"), 1<<33))
	f.Add(encodeInvalidate(invalUpdate, named("/a.html", "/img/b.gif"), 5))
	// Shipped copies: one alone, an empty one, and one beside a name.
	f.Add(encodeInvalidate(invalUpdate, []invDoc{{name: "/a.html", hash: 0xfeed, body: []byte("<html>v2</html>")}}, 2))
	f.Add(encodeInvalidate(invalUpdate, []invDoc{{name: "/empty.html", hash: 1, body: []byte{}}}, 3))
	f.Add(encodeInvalidate(invalUpdate, []invDoc{{name: "/a.html", hash: 9, body: []byte("copy")}, {name: "/b.html"}}, 4))
	f.Add(encodeName("/page.html"))
	f.Add(encodeAck("/page.html", nil))
	f.Add(encodeAck("/page.html", map[string]int64{"/page.html": 12, "/a,b.html": 1}))
	f.Add(encodeSubRecord("coop:81", "/page.html"))
	f.Add(binary.AppendUvarint(nil, hugeCount))
	f.Add(binary.AppendUvarint([]byte{invalUpdate}, hugeCount))
	whole := encodeInvalidate(invalDelete, named("/a.html", "/img/b.gif"), 9)
	f.Add(whole[:len(whole)-1]) // sequence number torn off
	shipped := encodeInvalidate(invalUpdate, []invDoc{{name: "/a.html", hash: 5, body: []byte("0123456789")}}, 1)
	f.Add(shipped[:len(shipped)-4]) // copy torn
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, b []byte) {
		if got, err := decodeInventory(b); err == nil {
			again, err := decodeInventory(encodeInventory(got))
			if err != nil || !sameDocs(again, got) {
				t.Fatalf("inventory round trip: %v -> %v, %v", got, again, err)
			}
		}
		if kind, docs, seq, err := decodeInvalidate(b); err == nil {
			k2, again, s2, err := decodeInvalidate(encodeInvalidate(kind, docs, seq))
			if err != nil || k2 != kind || s2 != seq || !slices.EqualFunc(again, docs, sameInvalDoc) {
				t.Fatalf("invalidate round trip: %d %v %d -> %d %v %d, %v", kind, docs, seq, k2, again, s2, err)
			}
		}
		if name, err := decodeName(b); err == nil {
			if again, err := decodeName(encodeName(name)); err != nil || again != name {
				t.Fatalf("name round trip: %q -> %q, %v", name, again, err)
			}
		}
		if name, hot, err := decodeAck(b); err == nil {
			n2, again, err := decodeAck(encodeAck(name, hot))
			if err != nil || n2 != name || !maps.Equal(again, hot) {
				t.Fatalf("ack round trip: %q %v -> %q %v, %v", name, hot, n2, again, err)
			}
		}
		if addr, name, err := decodeSubRecord(b); err == nil {
			a2, n2, err := decodeSubRecord(encodeSubRecord(addr, name))
			if err != nil || a2 != addr || n2 != name {
				t.Fatalf("sub record round trip: %q %q -> %q %q, %v", addr, name, a2, n2, err)
			}
		}
	})
}

// sameInvalDoc compares decoded invalidation entries: a shipped copy, even
// an empty one, must stay a copy, and a name alone must stay alone.
func sameInvalDoc(a, b invDoc) bool {
	return a.name == b.name && a.hash == b.hash && (a.body == nil) == (b.body == nil) && bytes.Equal(a.body, b.body)
}

// sameDocs compares decoded inventories, treating nil and empty alike.
func sameDocs(a, b []invDoc) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// FuzzPeerHeaders drives the decoders of the comma-separated peer headers.
// A hot report (X-DCWS-Hot) must round-trip whatever it decodes, and any
// single document name must survive encoding whole. An address list
// (X-DCWS-Chain, X-DCWS-Acked, X-DCWS-Replicas) never yields an empty
// address or one holding the separator.
func FuzzPeerHeaders(f *testing.F) {
	f.Add("/a.html=3,/b.gif=1")
	f.Add("/a%2Cb.html=2,/100%25.html=1")
	f.Add("/a,b.html=2")
	f.Add("=5,/x=,/y=-1,/z=+7,/z=9")
	f.Add("coop1:81, coop2:82,,")
	f.Add("%")
	f.Add("")
	f.Fuzz(func(t *testing.T, v string) {
		got := decodeHot(v)
		if again := decodeHot(encodeHot(got)); !maps.Equal(again, got) {
			t.Fatalf("hot round trip: %v -> %q -> %v", got, encodeHot(got), again)
		}
		if v != "" {
			one := map[string]int64{v: 1}
			if again := decodeHot(encodeHot(one)); !maps.Equal(again, one) {
				t.Fatalf("name %q: encoded %q, decoded %v", v, encodeHot(one), again)
			}
		}
		for _, a := range splitAddrs(v) {
			if a == "" || strings.Contains(a, ",") {
				t.Fatalf("splitAddrs(%q) yielded %q", v, a)
			}
		}
	})
}

// hugeReplicaSnapshot is a snapshot whose one replica entry claims 2^60
// addresses: sized by that count, the address slice panics.
func hugeReplicaSnapshot() []byte {
	ldg := graph.New().EncodeSnapshot()
	b := append([]byte{serverSnapVersion}, binary.AppendUvarint(nil, uint64(len(ldg)))...)
	b = append(b, ldg...)
	b = append(b, 0, 0, 1) // no hosted copies, no ledger, one replica entry
	b = putStr(b, "/a.html")
	b = binary.AppendUvarint(b, hugeCount)
	return append(b, make([]byte, 16)...)
}

// TestSnapshotHugeCountRejected: a forged count in a snapshot is an error,
// not an allocation; recovery reads the snapshot before anything else, so
// a panic there would keep the server from starting.
func TestSnapshotHugeCountRejected(t *testing.T) {
	if _, err := decodeServerSnapshot(hugeReplicaSnapshot()); err != errInvalFrame {
		t.Fatalf("decodeServerSnapshot(replica count 2^60) err = %v, want errInvalFrame", err)
	}
}

// FuzzServerSnapshot drives the snapshot decoder and the WAL record
// decoders with the same arbitrary bytes: none may panic.
func FuzzServerSnapshot(f *testing.F) {
	st := store.NewMem()
	st.Put("/index.html", []byte(`<a href="/a.html">a</a>`))
	st.Put("/a.html", []byte(`<a href="/index.html">home</a>`))
	s := perfServer(f, st, naming.Origin{Host: "home", Port: 80})
	s.migrate("/a.html", "coop:81")
	s.relocate("/a.html", []string{"coop:81", "coop:82"})
	s.hub.restore("coop:81", []string{"/a.html"})
	peer := naming.Origin{Host: "peer", Port: 80}
	key, _ := naming.Encode(peer, "/b.html")
	s.coops.Host(key)
	if err := s.admitCopy(key, []byte("b"), 0, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(s.encodeServerSnapshot())
	f.Add(hugeReplicaSnapshot())
	f.Add(encodeCoopAdmit(coopSeed{key: key, home: peer.Addr(), name: "/b.html", present: true, size: 1, hash: 7}))
	f.Add(encodeMigrate("/a.html", "coop:81", time.Unix(1, 2)))
	f.Add(encodeReplicas("/a.html", []string{"coop:81", "coop:82"}))
	f.Add(append(putStr(nil, "/a.html"), binary.AppendUvarint(nil, hugeCount)...))
	f.Add(encodeSubRecord("coop:81", "/a.html"))
	f.Add(encodeDocPut("/a.html", []byte(`<a href="/index.html">v2</a>`)))
	f.Add(encodeDocPut("/a.html", nil))
	f.Add(append(binary.AppendUvarint(putStr(nil, "/a.html"), hugeCount), "<html>"...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		decodeServerSnapshot(b)
		decodeCoopAdmit(b)
		decodeMigrate(b)
		decodeReplicas(b)
		decodeSubRecord(b)
		// A body is accepted only when its length is exactly what the
		// record holds after the name, and it round-trips.
		if name, body, hasBody, err := decodeDocPut(b); err == nil && hasBody {
			n2, b2, has2, err := decodeDocPut(encodeDocPut(name, body))
			if err != nil || n2 != name || !has2 || !bytes.Equal(b2, body) {
				t.Fatalf("doc put round trip: %q %q -> %q %q, %v", name, body, n2, b2, err)
			}
		}
	})
}
