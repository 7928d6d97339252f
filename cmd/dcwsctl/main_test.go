package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	idcws "dcws/internal/dcws"
)

// TestRenderStatus renders a recorded /~dcws/status snapshot and
// /~dcws/metrics scrape of a home server (WAL on, zone set, four documents
// migrated): every family the exposition declares must appear, the
// placement rows keep the zone=/capacity= format operators grep, the
// migrations print sorted, and two renders of the same input are
// byte-identical.
func TestRenderStatus(t *testing.T) {
	data, err := os.ReadFile("testdata/status.json")
	if err != nil {
		t.Fatal(err)
	}
	var st idcws.Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile("testdata/metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	exp, err := checkExposition(string(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(exp.types) < 100 || exp.exemplars == 0 {
		t.Fatalf("recorded exposition parsed to %d families, %d exemplars", len(exp.types), exp.exemplars)
	}

	var first, second bytes.Buffer
	renderStatus(&first, st, exp)
	renderStatus(&second, st, exp)
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two renders differ:\n%s\n---\n%s", first.String(), second.String())
	}
	out := first.String()
	lines := strings.Split(out, "\n")

	listed := make(map[string]bool)
	for _, line := range lines {
		if f := strings.Fields(line); len(f) > 0 && strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "    ") {
			listed[f[0]] = true
		}
	}
	for fam := range exp.types {
		if !listed[strings.TrimPrefix(fam, "dcws_")] {
			t.Errorf("family %s missing from the render", fam)
		}
	}
	for _, group := range []string{"invalidate", "wal", "glt", "slo"} {
		if !strings.Contains(out, "\n"+group+"\n") {
			t.Errorf("group %q has no header line", group)
		}
	}
	rows := make(map[string]bool, len(lines))
	for _, line := range lines {
		rows[strings.Join(strings.Fields(line), " ")] = true
	}
	for _, want := range []string{
		"server 127.0.0.1:18080",
		"wal sync=interval",
		"127.0.0.1:18081 load=0.00 capacity=62400 headroom=62400 zone=west",
		"documents 349",
		`count kind="home" 1`,
		"glt_peer_seen_version",
	} {
		if !rows[want] {
			t.Errorf("render has no row %q", want)
		}
	}

	var migrated []string
	for _, line := range lines {
		if strings.HasPrefix(line, "migrated: ") {
			migrated = append(migrated, line)
		}
	}
	if len(migrated) != len(st.MigratedOut) || !sort.StringsAreSorted(migrated) {
		t.Errorf("migrated lines = %q, want %d in sorted order", migrated, len(st.MigratedOut))
	}
	if t.Failed() {
		t.Logf("render:\n%s", out)
	}
}

// TestCheckExpositionRejectsMalformed keeps the parser strict: the render
// relies on every sample line carrying a name and a numeric value.
func TestCheckExpositionRejectsMalformed(t *testing.T) {
	for _, body := range []string{
		"dcws_x_total\n",
		"dcws_x_total{a=\"1\" 3\n",
		"dcws_x_total abc\n",
		"# TYPE\n",
		"dcws_x_bucket{le=\"1\"} 1 # {trace_id=\"t\"}\n",
	} {
		if _, err := checkExposition(body); err == nil {
			t.Errorf("accepted malformed exposition %q", body)
		}
	}
}
