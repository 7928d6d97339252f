package graph

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// snapshotVersion versions the binary LDG snapshot encoding below.
const snapshotVersion = 1

// EncodeSnapshot serializes the full graph — tuples, link structure,
// generations — into a compact binary form for the durable tier's
// snapshots. LinkFrom is not encoded: it is the exact inverse of LinkTo
// and is rebuilt by DecodeSnapshot.
//
// Layout: [version u8][count uvarint] then per document (sorted by name):
// name, location (uvarint-length-prefixed strings), size, hits, gen
// (uvarints), flags u8 (bit0 dirty, bit1 entryPoint), linkTo count +
// targets.
func (g *LDG) EncodeSnapshot() []byte {
	g.mu.RLock()
	defer g.mu.RUnlock()
	names := make([]string, 0, len(g.docs))
	for n := range g.docs {
		names = append(names, n)
	}
	sort.Strings(names)
	buf := make([]byte, 0, 64*len(names)+16)
	buf = append(buf, snapshotVersion)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		e := g.docs[n]
		buf = appendString(buf, e.name)
		buf = appendString(buf, e.location)
		buf = binary.AppendUvarint(buf, uint64(e.size))
		buf = binary.AppendUvarint(buf, uint64(e.hits))
		buf = binary.AppendUvarint(buf, e.gen)
		var flags byte
		if e.dirty {
			flags |= 1
		}
		if e.entryPoint {
			flags |= 2
		}
		buf = append(buf, flags)
		targets := edgeNames(e.linkTo)
		buf = binary.AppendUvarint(buf, uint64(len(targets)))
		for _, to := range targets {
			buf = appendString(buf, to)
		}
	}
	return buf
}

// DecodeSnapshot rebuilds a graph from EncodeSnapshot output, restoring
// LinkFrom as the inverse of the encoded LinkTo sets. WindowHits starts at
// zero: a restarted server begins a fresh measurement window.
func DecodeSnapshot(data []byte) (*LDG, error) {
	if len(data) == 0 {
		return nil, errors.New("graph: empty snapshot")
	}
	if data[0] != snapshotVersion {
		return nil, fmt.Errorf("graph: snapshot version %d unsupported", data[0])
	}
	data = data[1:]
	count, data, err := readUvarint(data)
	if err != nil {
		return nil, err
	}
	g := New()
	g.mu.Lock()
	defer g.mu.Unlock()
	for i := uint64(0); i < count; i++ {
		var name, location string
		name, data, err = readString(data)
		if err != nil {
			return nil, fmt.Errorf("graph: snapshot doc %d: %w", i, err)
		}
		location, data, err = readString(data)
		if err != nil {
			return nil, err
		}
		var size, hits, gen uint64
		if size, data, err = readUvarint(data); err != nil {
			return nil, err
		}
		if hits, data, err = readUvarint(data); err != nil {
			return nil, err
		}
		if gen, data, err = readUvarint(data); err != nil {
			return nil, err
		}
		if len(data) < 1 {
			return nil, errors.New("graph: snapshot truncated at flags")
		}
		flags := data[0]
		data = data[1:]
		e := g.ensureLocked(name)
		e.location = location
		e.size = int64(size)
		e.hits = int64(hits)
		e.gen = gen
		e.dirty = flags&1 != 0
		e.entryPoint = flags&2 != 0
		var nLinks uint64
		if nLinks, data, err = readUvarint(data); err != nil {
			return nil, err
		}
		var targets []string
		for j := uint64(0); j < nLinks; j++ {
			var to string
			if to, data, err = readString(data); err != nil {
				return nil, err
			}
			targets = append(targets, to)
		}
		g.linkLocked(e, targets)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("graph: %d trailing snapshot bytes", len(data))
	}
	return g, nil
}

// Remove deletes name's tuple and every link edge touching it, dirtying
// the documents that linked to it (their hyperlinks now point at a missing
// target). Used when replaying a document delete. It returns the dirtied
// names; removing an unknown document is a no-op.
func (g *LDG) Remove(name string) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.docs[name]
	if !ok {
		return nil
	}
	g.linkLocked(e, nil)
	var dirtied []string
	for _, fe := range e.linkFrom {
		fe.linkTo = unlink(fe.linkTo, e)
		fe.dirty = true
		fe.gen++
		dirtied = append(dirtied, fe.name)
	}
	delete(g.docs, name)
	sort.Strings(dirtied)
	return dirtied
}

// RestoreHome resets name's location to home without dirtying neighbours —
// the recovery path uses it when a replayed migration's co-op is known to
// have been revoked while this server was down.
func (g *LDG) RestoreHome(name string) {
	g.mu.Lock()
	if e, ok := g.docs[name]; ok && e.location != "" {
		e.location = ""
		e.gen++
	}
	g.mu.Unlock()
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, errors.New("graph: snapshot truncated at uvarint")
	}
	return v, data[n:], nil
}

func readString(data []byte) (string, []byte, error) {
	n, data, err := readUvarint(data)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(data)) < n {
		return "", nil, errors.New("graph: snapshot truncated at string")
	}
	return string(data[:n]), data[n:], nil
}
