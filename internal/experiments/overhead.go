package experiments

import (
	"fmt"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/graph"
	"dcws/internal/hypertext"
	"dcws/internal/store"
)

// Overhead reproduces the §5.3 parsing/reconstruction measurements: the
// paper reports ~3 ms to parse hyperlinks and ~20 ms to reconstruct an
// average 6.5 KB document on a Pentium-200. This driver materializes the
// MAPUG corpus (closest to that average size), measures the real parser on
// modern hardware, and reports per-document times — absolute numbers are
// far smaller on 2020s CPUs, the point is that reconstruction is a small
// constant multiple of parsing and both are negligible per request.
func Overhead() *Report {
	site := dataset.MAPUG()
	st := store.NewMem()
	if err := site.Materialize(st, 1.0); err != nil {
		panic(err)
	}
	names, _ := st.List()
	var htmlDocs []string
	var totalBytes int64
	for _, n := range names {
		if graph.IsHTML(n) {
			htmlDocs = append(htmlDocs, n)
			sz, _ := st.Size(n)
			totalBytes += sz
		}
	}
	// Parse-only pass.
	parse := func() (n int) {
		for _, name := range htmlDocs {
			data, _ := st.Get(name)
			hypertext.Parse(string(data)).LinkURLs()
			n++
		}
		return n
	}
	// Reconstruction pass: rewrite one link per document and re-render.
	reconstruct := func() (n int) {
		for _, name := range htmlDocs {
			data, _ := st.Get(name)
			doc := hypertext.Parse(string(data))
			urls := doc.LinkURLs()
			if len(urls) == 0 {
				continue
			}
			doc.Rewrite(map[string]string{urls[0]: "/~migrate/home/80" + urls[0]})
			_ = doc.Render()
			n++
		}
		return n
	}
	timed := func(pass func() int) time.Duration {
		start := time.Now()
		pass()
		return time.Since(start)
	}
	// One untimed warm-up of each pass, then the best of five interleaved
	// repetitions: a single cold pass on a busy machine times the
	// scheduler and the cache as much as the work.
	parsed, recon := parse(), reconstruct()
	parseElapsed, reconElapsed := timed(parse), timed(reconstruct)
	for i := 1; i < 5; i++ {
		parseElapsed = min(parseElapsed, timed(parse))
		reconElapsed = min(reconElapsed, timed(reconstruct))
	}

	avgSize := float64(totalBytes) / float64(len(htmlDocs)) / 1024
	r := &Report{
		Title:  "§5.3 overhead: document parsing and reconstruction",
		Header: []string{"measurement", "paper (P200)", "measured"},
	}
	r.AddRow("average HTML document size (KB)", "6.5",
		f1(avgSize))
	r.AddRow("parse hyperlinks, ms/doc", "3",
		fmt.Sprintf("%.3f", float64(parseElapsed.Microseconds())/float64(parsed)/1000))
	r.AddRow("reconstruct document, ms/doc", "20",
		fmt.Sprintf("%.3f", float64(reconElapsed.Microseconds())/float64(recon)/1000))
	r.AddRow("reconstruct / parse ratio", "6.7",
		f1(float64(reconElapsed)/float64(parseElapsed)))
	r.Notes = append(r.Notes,
		fmt.Sprintf("corpus: %d HTML documents from the synthetic MAPUG set", len(htmlDocs)),
		"absolute times shrink with CPU generation; the paper's conclusion — reconstruction does not dominate request service — holds a fortiori")
	return r
}
