package naming

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodePaperExample(t *testing.T) {
	// The paper's §3.4 example: foo.html under nested directories.
	home := Origin{Host: "h_name", Port: 8080}
	got, err := Encode(home, "/dir1/dir2/dir3/foo.html")
	if err != nil {
		t.Fatal(err)
	}
	want := "/~migrate/h_name/8080/dir1/dir2/dir3/foo.html"
	if got != want {
		t.Fatalf("Encode = %q, want %q", got, want)
	}
}

func TestDecodeRecoversOriginal(t *testing.T) {
	home, doc, err := Decode("/~migrate/www.cs.arizona.edu/80/dcws/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if home.Host != "www.cs.arizona.edu" || home.Port != 80 {
		t.Fatalf("home = %+v", home)
	}
	if doc != "/dcws/index.html" {
		t.Fatalf("doc = %q", doc)
	}
}

func TestDecodeNonMigrated(t *testing.T) {
	if _, _, err := Decode("/ordinary/page.html"); err != ErrNotMigrated {
		t.Fatalf("err = %v, want ErrNotMigrated", err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	bad := []string{
		"/~migrate/",
		"/~migrate/hostonly",
		"/~migrate/host/notaport/doc.html",
		"/~migrate/host/0/doc.html",
		"/~migrate/host/99999/doc.html",
		"/~migrate/host/80",
		// Ports Encode never writes: they would alias ".../80/...".
		"/~migrate/host/080/doc.html",
		"/~migrate/host/+80/doc.html",
		"/~migrate/host/-80/doc.html",
	}
	for _, p := range bad {
		if _, _, err := Decode(p); err == nil {
			t.Errorf("Decode(%q) succeeded, want error", p)
		}
	}
}

func TestEncodeRejectsBadInput(t *testing.T) {
	if _, err := Encode(Origin{Host: "h", Port: 80}, "relative.html"); err == nil {
		t.Error("unrooted path accepted")
	}
	if _, err := Encode(Origin{Host: "h/x", Port: 80}, "/d.html"); err == nil {
		t.Error("host with slash accepted")
	}
	if _, err := Encode(Origin{Host: "h", Port: 0}, "/d.html"); err == nil {
		t.Error("port 0 accepted")
	}
	if _, err := Encode(Origin{Host: "h", Port: 70000}, "/d.html"); err == nil {
		t.Error("port 70000 accepted")
	}
}

func TestIsMigrated(t *testing.T) {
	if !IsMigrated("/~migrate/h/80/x.html") {
		t.Error("migrated path not recognized")
	}
	for _, p := range []string{"/x.html", "/~migratex/h/80/x", "/migrate/h/80/x", "~migrate/h/80/x"} {
		if IsMigrated(p) {
			t.Errorf("IsMigrated(%q) = true", p)
		}
	}
}

func TestMigratedURL(t *testing.T) {
	coop := Origin{Host: "coop", Port: 8081}
	home := Origin{Host: "home", Port: 8080}
	got, err := MigratedURL(coop, home, "/a/b.html")
	if err != nil {
		t.Fatal(err)
	}
	if got != "http://coop:8081/~migrate/home/8080/a/b.html" {
		t.Fatalf("MigratedURL = %q", got)
	}
}

func TestHomeURL(t *testing.T) {
	if got := HomeURL(Origin{Host: "h", Port: 80}, "/x.html"); got != "http://h:80/x.html" {
		t.Fatalf("HomeURL = %q", got)
	}
}

func TestParseOrigin(t *testing.T) {
	o, err := ParseOrigin("server3:8080")
	if err != nil || o.Host != "server3" || o.Port != 8080 {
		t.Fatalf("ParseOrigin = %+v, %v", o, err)
	}
	for _, bad := range []string{"noport", ":80", "h:", "h:abc", "h:0", "h:99999", "a b:80"} {
		if _, err := ParseOrigin(bad); err == nil {
			t.Errorf("ParseOrigin(%q) succeeded", bad)
		}
	}
}

func TestOriginAddr(t *testing.T) {
	if got := (Origin{Host: "h", Port: 81}).Addr(); got != "h:81" {
		t.Fatalf("Addr = %q", got)
	}
}

func TestSplitURL(t *testing.T) {
	cases := []struct {
		in, addr, path string
		wantErr        bool
	}{
		{"http://h:80/a/b.html", "h:80", "/a/b.html", false},
		{"http://h:80", "h:80", "/", false},
		{"/relative/path.html", "", "/relative/path.html", false},
		{"ftp://h/x", "", "", true},
		{"http:///nohost", "", "", true},
		{"http://", "", "", true},
	}
	for _, c := range cases {
		addr, path, err := SplitURL(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("SplitURL(%q) err = %v", c.in, err)
			continue
		}
		if err == nil && (addr != c.addr || path != c.path) {
			t.Errorf("SplitURL(%q) = %q, %q", c.in, addr, path)
		}
	}
}

// Property: Decode(Encode(home, path)) recovers home and path exactly for
// any well-formed inputs.
func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		home := Origin{
			Host: randomHost(rng),
			Port: 1 + rng.Intn(65535),
		}
		path := randomDocPath(rng)
		enc, err := Encode(home, path)
		if err != nil {
			return false
		}
		if !strings.HasPrefix(enc, "/"+Prefix+"/") {
			return false
		}
		gotHome, gotPath, err := Decode(enc)
		return err == nil && gotHome == home && gotPath == path
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: double encoding stays decodable to the single-encoded form
// (a coop-of-a-coop URL still strips one layer at a time).
func TestDoubleEncodeDecodesOneLayer(t *testing.T) {
	home := Origin{Host: "h1", Port: 80}
	mid := Origin{Host: "h2", Port: 81}
	once, _ := Encode(home, "/doc.html")
	twice, _ := Encode(mid, once)
	gotMid, gotOnce, err := Decode(twice)
	if err != nil || gotMid != mid || gotOnce != once {
		t.Fatalf("Decode(twice) = %+v, %q, %v", gotMid, gotOnce, err)
	}
}

func randomHost(rng *rand.Rand) string {
	labels := 1 + rng.Intn(3)
	parts := make([]string, labels)
	for i := range parts {
		parts[i] = fmt.Sprintf("host%d", rng.Intn(100))
	}
	return strings.Join(parts, ".")
}

func randomDocPath(rng *rand.Rand) string {
	depth := 1 + rng.Intn(5)
	var b strings.Builder
	for i := 0; i < depth-1; i++ {
		fmt.Fprintf(&b, "/dir%d", rng.Intn(10))
	}
	fmt.Fprintf(&b, "/doc%d.html", rng.Intn(1000))
	return b.String()
}
