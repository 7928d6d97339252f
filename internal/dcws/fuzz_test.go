package dcws

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// hugeCount is a document count no frame can hold: sizing a slice by it
// panics with "makeslice: cap out of range".
const hugeCount = 1 << 60

// TestDecodeHugeDocCountRejected: a subscribe or batch frame whose count
// claims more documents than its payload could carry is an error, not an
// allocation. The count comes off the wire inside the home's readLoop, so
// a panic there would take the whole process down.
func TestDecodeHugeDocCountRejected(t *testing.T) {
	if _, err := decodeInventory(binary.AppendUvarint(nil, hugeCount)); err != errInvalFrame {
		t.Fatalf("decodeInventory(count 2^60) err = %v, want errInvalFrame", err)
	}
	batch := binary.AppendUvarint([]byte{invalUpdate}, hugeCount)
	if _, _, _, err := decodeInvalidateBatch(batch); err != errInvalFrame {
		t.Fatalf("decodeInvalidateBatch(count 2^60) err = %v, want errInvalFrame", err)
	}
	// The bound is exact: three one-byte entries fit in six bytes.
	three := encodeInventory([]invDoc{{"", 0}, {"", 1}, {"", 2}})
	if docs, err := decodeInventory(three); err != nil || len(docs) != 3 {
		t.Fatalf("decodeInventory(3 minimal entries) = %v, %v", docs, err)
	}
}

// FuzzInvalidationFrames drives every subscription-channel payload decoder
// with the same arbitrary bytes. Invariants: no decoder panics, and
// whatever one accepts re-encodes to a payload that decodes to the same
// values.
func FuzzInvalidationFrames(f *testing.F) {
	docs := []invDoc{{"/a.html", 7}, {"/img/b.gif", 1 << 40}}
	f.Add(encodeInventory(docs))
	f.Add(encodeInventory(nil))
	f.Add(encodeInvalidate(invalUpdate, "/index.html", 99, 1))
	f.Add(encodeInvalidate(invalRevoke, "/x", 0, 1<<33))
	f.Add(encodeInvalidateBatch(invalUpdate, docs, 5))
	f.Add(encodeName("/page.html"))
	f.Add(encodeSubRecord("coop:81", "/page.html"))
	f.Add(binary.AppendUvarint(nil, hugeCount))
	f.Add(binary.AppendUvarint([]byte{invalUpdate}, hugeCount))
	whole := encodeInvalidateBatch(invalDelete, docs, 9)
	f.Add(whole[:len(whole)-1]) // sequence number torn off
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})

	f.Fuzz(func(t *testing.T, b []byte) {
		if got, err := decodeInventory(b); err == nil {
			again, err := decodeInventory(encodeInventory(got))
			if err != nil || !sameDocs(again, got) {
				t.Fatalf("inventory round trip: %v -> %v, %v", got, again, err)
			}
		}
		if kind, name, hash, seq, err := decodeInvalidate(b); err == nil {
			k2, n2, h2, s2, err := decodeInvalidate(encodeInvalidate(kind, name, hash, seq))
			if err != nil || k2 != kind || n2 != name || h2 != hash || s2 != seq {
				t.Fatalf("invalidate round trip: %d %q %d %d -> %d %q %d %d, %v",
					kind, name, hash, seq, k2, n2, h2, s2, err)
			}
		}
		if kind, got, seq, err := decodeInvalidateBatch(b); err == nil {
			k2, again, s2, err := decodeInvalidateBatch(encodeInvalidateBatch(kind, got, seq))
			if err != nil || k2 != kind || s2 != seq || !sameDocs(again, got) {
				t.Fatalf("batch round trip: %d %v %d -> %d %v %d, %v", kind, got, seq, k2, again, s2, err)
			}
		}
		if name, err := decodeName(b); err == nil {
			if again, err := decodeName(encodeName(name)); err != nil || again != name {
				t.Fatalf("name round trip: %q -> %q, %v", name, again, err)
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

// sameDocs compares decoded inventories, treating nil and empty alike.
func sameDocs(a, b []invDoc) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}
