package glt

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzDecodePiggyback asserts that an arbitrary X-DCWS-Load value can
// never panic the decoder or poison a table that absorbs the result:
// loads stay finite and non-negative, the self entry stays authoritative,
// and the table remains usable for placement decisions afterwards.
// Regression inputs live in testdata/fuzz/FuzzDecodePiggyback.
func FuzzDecodePiggyback(f *testing.F) {
	for _, seed := range []string{
		"",
		"a:80=1.5@1000",
		"a:80=1.5@1000,b:80=2@2000",
		"not,a,valid=header@@@",
		"!f=a:80,!v=42,!a=7,!g=1,b:80=1.5@1000",
		"!f=,!v=,!a=,!g=",
		"!v=18446744073709551615,!a=18446744073709551616",
		"a:80=NaN@1,b:80=+Inf@2,c:80=-Inf@3,d:80=-0@4",
		"self:1=99@9223372036854775807",
		"a:80=1@-5,b:80=1@-0,c:80=1@-9223372036854775808",
		"=1@2,@,=@,x=@1,x=1@",
		"!f=self:1,self:1=1e308@99999",
		strings.Repeat("s:1=1@1,", 300),
		"!x=1@2,!!=3,!",
		// The inline capacity@zone form and its malformed neighbours.
		"a:80=0.5@1000@120.5@us-east,b:80=1@2000@0@",
		"a:80=0.5@1000@NaN@z,b:80=0.5@1000@-1@z,c:80=0.5@1000@+Inf@z",
		"a:80=0.5@1000@4@,b:80=0.5@1000@0@z",
		"a:80=0.5@1000@4@us=east,b:80=0.5@1000@4@us east,c:80=1@2@3@z\t",
		"a:80=0.5@1000@4,b:80=0.5@1000@4@z@9",
		// The '!d' digest item: well-formed, placeholder, and broken
		// triples, and four-field items, which are skipped.
		"!f=a:80,!v=3,!d=0.2.ffee;5.1.1,b:80=1@2",
		"!d=-,!d=;;,!d=1.2,!d=x.y.z,!d=-1.-1.-1",
		"!d=15.9223372036854775807.ffffffffffffffff",
		"!d=0.2.3e8.ffee;5.1.0.1;7.1.1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		p := DecodePiggyback(v)
		for _, e := range p.Entries {
			if e.Server == "" {
				t.Fatalf("decoded empty server name from %q", v)
			}
			if !finiteNonNegative(e.Load) || !finiteNonNegative(e.Capacity) {
				t.Fatalf("decoded poison load %v or capacity %v from %q", e.Load, e.Capacity, v)
			}
			if strings.ContainsAny(e.Server, ",") {
				t.Fatalf("decoded server %q containing a separator from %q", e.Server, v)
			}
		}
		if strings.ContainsAny(p.From, "=@ ,") {
			t.Fatalf("decoded malformed sender %q from %q", p.From, v)
		}
		if p.HasDigests {
			re := DecodePiggyback(string(appendDigests(nil, p.Digests)))
			if !re.HasDigests || len(re.Digests) != len(p.Digests) ||
				(len(p.Digests) > 0 && !reflect.DeepEqual(re.Digests, p.Digests)) {
				t.Fatalf("digests of %q re-decoded as %+v, want %+v", v, re.Digests, p.Digests)
			}
		}

		// Absorbing the decoded payload must leave the table usable and
		// the self entry's content untouched: an echo can only lift its
		// stamp (refutation), never its load, capacity or zone.
		tab := NewTable("self:1")
		self0, _ := tab.Get("self:1")
		now := time.UnixMilli(50_000)
		tab.Absorb(p, now)
		if self, ok := tab.Get("self:1"); !ok || self.Load != self0.Load || self.Capacity != self0.Capacity ||
			self.Zone != self0.Zone || self.Stamp < self0.Stamp {
			t.Fatalf("absorbing %q moved the self entry to %+v", v, self)
		}
		if tab.Len() < 1 {
			t.Fatalf("absorbing %q emptied the table", v)
		}
		if len(tab.RankedByHeadroom(nil, "")) < 1 {
			t.Fatalf("absorbing %q broke RankedByHeadroom", v)
		}
		// Every absorbed entry, re-encoded for a peer that has acked
		// nothing, must decode to an equal Entry, stamp, capacity and
		// zone included. The peer name holds a ',' so it can never collide
		// with a decoded server.
		again := map[string]Entry{}
		for _, e := range DecodePiggyback(tab.EncodePiggybackTo("un,known:0", now, 0, false)).Entries {
			again[e.Server] = e
		}
		for _, want := range tab.Snapshot() {
			if want.Server == "self:1" {
				continue
			}
			got, ok := again[want.Server]
			if !ok || !sameWire(got, want) || got.Stamp < 0 {
				t.Fatalf("after absorbing %q, %+v re-decoded as %+v (present %v)", v, want, got, ok)
			}
		}
		_ = tab.EncodePiggybackTo(p.From, now, 12, false)
	})
}
