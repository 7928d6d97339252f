// Quickstart: boot a home server and a co-op server in one process, drive
// load at the home until a document migrates, and watch the mechanism of
// the paper in action — the hyperlink inside the index page is rewritten to
// point at the co-op server, and a stale bookmark is answered with a 301.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"dcws"
)

func main() {
	fabric := dcws.NewFabric()

	// The home server owns a tiny three-document site.
	st := dcws.NewMemStore()
	st.Put("/index.html", []byte(`<html><title>Quickstart</title>
<a href="/article.html">today's article</a>
</html>`))
	st.Put("/article.html", []byte(`<html><img src="/photo.gif"><p>story text</p></html>`))
	st.Put("/photo.gif", []byte("GIF89a..."))

	params := dcws.DefaultParams()
	params.MigrationThreshold = 1

	home, err := dcws.New(dcws.Config{
		Origin:      dcws.Origin{Host: "home", Port: 80},
		Store:       st,
		Network:     fabric,
		EntryPoints: []string{"/index.html"},
		Peers:       []string{"coop:81"},
		Params:      params,
	})
	check(err)
	check(home.Start())
	defer home.Close()

	coop, err := dcws.New(dcws.Config{
		Origin:  dcws.Origin{Host: "coop", Port: 81},
		Store:   dcws.NewMemStore(),
		Network: fabric,
		Peers:   []string{"home:80"},
	})
	check(err)
	check(coop.Start())
	defer coop.Close()

	stats := &dcws.ClientStats{}
	// browser builds a fresh Algorithm 2 client — a new visitor with an
	// empty cache.
	browser := func(seed int64) *dcws.Client {
		c, err := dcws.NewClient(dcws.ClientConfig{
			Dialer:    fabric,
			EntryURLs: []string{"http://home:80/index.html"},
			Seed:      seed,
			Stats:     stats,
		})
		check(err)
		return c
	}

	fmt.Println("== before migration ==")
	body, _, _ := browser(1).Fetch("http://home:80/index.html")
	fmt.Println(indent(string(body)))

	// Drive load at the article, then run one statistics interval: the
	// home is busier than the idle co-op, so Algorithm 1 selects the
	// article (the entry point is exempt) and migrates it logically.
	for i := 0; i < 25; i++ {
		browser(int64(i + 2)).Fetch("http://home:80/article.html")
	}
	home.TickStats()

	fmt.Println("== after migration ==")
	fmt.Printf("migrated documents at home: %v\n\n", home.Graph().Migrated())
	body, _, _ = browser(100).Fetch("http://home:80/index.html")
	fmt.Println("index.html now serves (note the rewritten hyperlink):")
	fmt.Println(indent(string(body)))

	// Following the rewritten link lands on the co-op, which lazily
	// fetches the article from home on first touch.
	body, finalURL, _ := browser(101).Fetch("http://coop:81/~migrate/home/80/article.html")
	fmt.Printf("article served by %s (%d bytes)\n", finalURL, len(body))
	fmt.Printf("co-op now physically hosts %d document(s)\n\n", coop.CoopDocCount())

	// A stale bookmark pointing at home is answered with a 301 redirect,
	// transparently followed by the browser.
	body, finalURL, _ = browser(102).Fetch("http://home:80/article.html")
	fmt.Printf("stale bookmark resolved via redirect to %s (%d bytes)\n", finalURL, len(body))
	loads := make(map[string]float64)
	for addr, p := range home.Status().Placement {
		loads[addr] = p.Load
	}
	fmt.Printf("\nhome:  %v\n", loads)
	fmt.Printf("stats: %s\n", stats)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimSpace(s), "\n", "\n    ") + "\n"
}
