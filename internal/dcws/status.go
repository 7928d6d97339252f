package dcws

import (
	"encoding/json"

	"dcws/internal/httpx"
)

// Status is the snapshot served at /~dcws/status and returned by
// Server.Status. It holds only what the metrics registry cannot: who this
// server is, where documents live, how each peer is judged, and how the
// durable tier is configured. Every number that changes over time —
// traffic, cache, gossip, pool, hedging, replication, invalidation, WAL
// progress, SLO burn — is a series at /~dcws/metrics and nowhere else.
type Status struct {
	Addr string `json:"addr"`
	// Zone is this server's topology label.
	Zone string `json:"zone,omitempty"`
	// MigratedOut maps each migrated home document to its co-op server.
	MigratedOut map[string]string `json:"migrated_out"`
	// CoopHosted lists the documents hosted on behalf of other servers.
	CoopHosted []string `json:"coop_hosted"`
	// Placement is the capacity/zone view of every load-table entry, keyed
	// by address.
	Placement map[string]PlacementStatus `json:"placement,omitempty"`
	// PeerHealth classifies every tracked peer: "ok", "suspect" (failing
	// probes or a non-closed breaker; excluded from new migrations), or
	// "down" (declared down, documents recalled).
	PeerHealth map[string]string `json:"peer_health,omitempty"`
	// Leases is true when push invalidation with leases is on
	// (Params.LeaseDuration > 0); false means the paper's polling
	// validation.
	Leases bool `json:"leases"`
	// WALSync is the durable tier's fsync policy (always, interval, or
	// none); empty when no WAL directory is configured.
	WALSync string `json:"wal_sync,omitempty"`
	// Recovery is the last startup recovery's summary.
	Recovery RecoveryInfo `json:"recovery"`
}

// PlacementStatus is one server's row in Status.Placement: the
// capacity-normalized, zone-aware view placement decisions rank by.
type PlacementStatus struct {
	// Load is the gossiped load figure — a fraction of capacity when the
	// sender normalizes, a raw rate otherwise.
	Load float64 `json:"load"`
	// Capacity is the sender's advertised service capacity (docs/s);
	// 0 when normalization is off.
	Capacity float64 `json:"capacity,omitempty"`
	// Zone is the sender's advertised topology label.
	Zone string `json:"zone,omitempty"`
	// Headroom is capacity × (1 − load), the ranking key.
	Headroom float64 `json:"headroom"`
}

// Status returns the server's current identity-and-placement snapshot.
func (s *Server) Status() Status {
	st := Status{
		Addr:        s.Addr(),
		Zone:        s.params.Zone,
		MigratedOut: s.ldg.Migrated(),
		CoopHosted:  s.coops.keys(),
		PeerHealth:  make(map[string]string),
		Leases:      s.params.LeaseDuration > 0,
		Recovery:    s.Recovery(),
	}
	if s.wal != nil {
		st.WALSync = s.wal.SyncPolicy().String()
	}
	for _, e := range s.table.Snapshot() {
		if st.Placement == nil {
			st.Placement = make(map[string]PlacementStatus)
		}
		st.Placement[e.Server] = PlacementStatus{
			Load:     e.Load,
			Capacity: e.Capacity,
			Zone:     e.Zone,
			Headroom: e.Headroom(),
		}
	}
	for _, p := range s.table.Servers() {
		if p == s.Addr() {
			continue
		}
		if s.peerSuspect(p) {
			st.PeerHealth[p] = "suspect"
		} else {
			st.PeerHealth[p] = "ok"
		}
	}
	s.peerMu.Lock()
	for p := range s.downAt {
		st.PeerHealth[p] = "down"
	}
	s.peerMu.Unlock()
	return st
}

// handleStatus serves the status snapshot as JSON.
func (s *Server) handleStatus() *httpx.Response {
	data, err := json.MarshalIndent(s.Status(), "", "  ")
	if err != nil {
		return status(500, err.Error())
	}
	resp := httpx.NewResponse(200)
	resp.Header.Set("Content-Type", "application/json")
	resp.Body = append(data, '\n')
	return resp
}

// GraphDump is the JSON form of the local document graph served at
// /~dcws/graph for operational inspection.
type GraphDump struct {
	Addr string      `json:"addr"`
	Docs []GraphNode `json:"docs"`
}

// GraphNode is one LDG tuple in a GraphDump.
type GraphNode struct {
	Name       string   `json:"name"`
	Location   string   `json:"location,omitempty"`
	Size       int64    `json:"size"`
	Hits       int64    `json:"hits"`
	LinkTo     []string `json:"link_to,omitempty"`
	LinkFrom   []string `json:"link_from,omitempty"`
	Dirty      bool     `json:"dirty,omitempty"`
	EntryPoint bool     `json:"entry_point,omitempty"`
}

// handleGraph serves the local document graph as JSON.
func (s *Server) handleGraph() *httpx.Response {
	dump := GraphDump{Addr: s.Addr()}
	for _, d := range s.ldg.Snapshot() {
		dump.Docs = append(dump.Docs, GraphNode{
			Name:       d.Name,
			Location:   d.Location,
			Size:       d.Size,
			Hits:       d.Hits,
			LinkTo:     d.LinkTo,
			LinkFrom:   d.LinkFrom,
			Dirty:      d.Dirty,
			EntryPoint: d.EntryPoint,
		})
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return status(500, err.Error())
	}
	resp := httpx.NewResponse(200)
	resp.Header.Set("Content-Type", "application/json")
	resp.Body = append(data, '\n')
	return resp
}
