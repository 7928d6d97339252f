package naming

import "testing"

// FuzzNaming drives Decode and SplitURL with arbitrary input. Neither may
// panic; whatever Decode accepts, Encode writes back byte for byte, which
// is what gives a migrated document exactly one name; and SplitURL's two
// halves put back together are its input.
func FuzzNaming(f *testing.F) {
	for _, seed := range []string{
		"/~migrate/h/80/x.html",
		"/~migrate/h/080/x.html", // aliases of the first, rejected
		"/~migrate/h/+80/x.html",
		"/~migrate/www.cs.arizona.edu/80/dcws/index.html",
		"/~migrate/h2/81/~migrate/h1/80/doc.html",
		"/~migrate/h/65535/",
		"/~migrate//80/x.html",
		"http://coop:8081/~migrate/home/8080/a/b.html",
		"http://h:80",
		"http:///nohost",
		"/relative/path.html",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, p string) {
		if home, doc, err := Decode(p); err == nil {
			if enc, err := Encode(home, doc); err != nil || enc != p {
				t.Fatalf("Decode(%q) = %+v, %q; Encode gives %q, %v", p, home, doc, enc, err)
			}
		}
		addr, path, err := SplitURL(p)
		if err != nil {
			return
		}
		switch {
		case addr == "":
			if path != p {
				t.Fatalf("SplitURL(%q) = rooted path %q", p, path)
			}
		case "http://"+addr+path != p && !(path == "/" && "http://"+addr == p):
			t.Fatalf("SplitURL(%q) = %q, %q", p, addr, path)
		}
	})
}
