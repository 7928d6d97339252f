package glt

import (
	"math"
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
		"=1@2,@,=@,x=@1,x=1@",
		"!f=self:1,self:1=1e308@99999",
		strings.Repeat("s:1=1@1,", 300),
		"!x=1@2,!!=3,!",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, v string) {
		p := DecodePiggyback(v)
		for _, e := range p.Entries {
			if e.Server == "" {
				t.Fatalf("decoded empty server name from %q", v)
			}
			if math.IsNaN(e.Load) || math.IsInf(e.Load, 0) || e.Load < 0 {
				t.Fatalf("decoded poison load %v from %q", e.Load, v)
			}
			if strings.ContainsAny(e.Server, ",") {
				t.Fatalf("decoded server %q containing a separator from %q", e.Server, v)
			}
		}
		if strings.ContainsAny(p.From, "=@ ,") {
			t.Fatalf("decoded malformed sender %q from %q", p.From, v)
		}

		// Absorbing the decoded payload must leave the table usable and
		// the self entry untouched.
		tab := NewTable("self:1")
		self0, _ := tab.Get("self:1")
		now := time.UnixMilli(50_000)
		tab.Absorb(p, now)
		if self, ok := tab.Get("self:1"); !ok || self != self0 {
			t.Fatalf("absorbing %q moved the self entry to %+v", v, self)
		}
		if tab.Len() < 1 {
			t.Fatalf("absorbing %q emptied the table", v)
		}
		if len(tab.RankedByHeadroom(nil, "")) < 1 {
			t.Fatalf("absorbing %q broke RankedByHeadroom", v)
		}
		// The table must still encode and the result must survive a
		// decode round trip without inventing entries.
		if re := DecodeHeader(tab.EncodeHeader()); len(re) != tab.Len() {
			t.Fatalf("after absorbing %q, re-encode lost entries: %d vs %d", v, len(re), tab.Len())
		}
		_ = tab.EncodePiggybackTo(p.From, now, 12, false)
	})
}
