package webclient

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// answer is a scripted site: the reply to the n-th request (from 0) for a
// name.
type answer func(name string, n int) (status int, location string, links, images []string)

func refs(names []string) []Ref {
	var out []Ref
	for _, n := range names {
		out = append(out, Ref{Addr: "s:80", Home: "s:80", Name: n})
	}
	return out
}

// walkOnce runs one sequence, answering every request as soon as it is
// sent, and returns the moves ("page /a 0s", "pause 1s") and the failures
// OnReply reported.
func walkOnce(t *testing.T, w *Walker, site answer) (sends []string, failures int) {
	t.Helper()
	seen := make(map[string]int)
	for i := 0; i < 1000; i++ {
		req, step := w.Next()
		switch step {
		case End:
			return sends, failures
		case Wait:
			t.Fatal("walk waits with nothing in flight")
		case Pause:
			sends = append(sends, fmt.Sprintf("pause %v", req.Delay))
			continue
		}
		kind := "page"
		if req.Image {
			kind = "image"
		}
		sends = append(sends, fmt.Sprintf("%s %s %v", kind, req.Ref.Name, req.Delay))
		status, loc, links, images := site(req.Ref.Name, seen[req.Ref.Name])
		seen[req.Ref.Name]++
		var location Ref
		if loc != "" {
			location = refs([]string{loc})[0]
		}
		if w.OnReply(req, status, location, refs(links), refs(images)) {
			failures++
		}
	}
	t.Fatal("walk never ended")
	return
}

// TestWalkerRules pins Algorithm 2's per-request rules and its cache, the
// same for every driver.
func TestWalkerRules(t *testing.T) {
	page := func(links, images []string) (int, string, []string, []string) { return 200, "", links, images }
	for _, tc := range []struct {
		name     string
		site     answer
		want     []string
		failures int
	}{{
		name: "backoff doubles from 1 s to 32 s; the 12th drop gives up",
		site: func(string, int) (int, string, []string, []string) { return 503, "", nil, nil },
		want: []string{"page /a 0s", "page /a 1s", "page /a 2s", "page /a 4s", "page /a 8s", "page /a 16s",
			"page /a 32s", "page /a 32s", "page /a 32s", "page /a 32s", "page /a 32s", "page /a 32s"},
		failures: 1,
	}, {
		name:     "a request follows five redirects; the sixth fails",
		site:     func(string, int) (int, string, []string, []string) { return 301, "/a", nil, nil },
		want:     []string{"page /a 0s", "page /a 0s", "page /a 0s", "page /a 0s", "page /a 0s", "page /a 0s"},
		failures: 1,
	}, {
		name: "a redirect keeps the request's backoff and its redirect count",
		site: func(name string, n int) (int, string, []string, []string) {
			switch {
			case name == "/a" && n == 0:
				return 503, "", nil, nil
			case name == "/a":
				return 301, "/b", nil, nil
			case n == 0:
				return 503, "", nil, nil
			}
			return page(nil, nil)
		},
		want: []string{"page /a 0s", "page /a 1s", "page /b 0s", "page /b 2s"},
	}, {
		name: "an image gets the same redirect cap and is skipped",
		site: func(name string, _ int) (int, string, []string, []string) {
			if name == "/a" {
				return page(nil, []string{"/i.gif"})
			}
			return 301, "/i.gif", nil, nil
		},
		want: []string{"page /a 0s", "image /i.gif 0s", "image /i.gif 0s", "image /i.gif 0s",
			"image /i.gif 0s", "image /i.gif 0s", "image /i.gif 0s"},
		failures: 1,
	}, {
		name: "the cache suppresses a refetch; a step it answers still thinks",
		site: func(name string, _ int) (int, string, []string, []string) {
			if name == "/a" {
				return page([]string{"/b"}, []string{"/i.gif", "/i.gif"})
			}
			if name == "/b" {
				return page([]string{"/a"}, []string{"/i.gif", "/j.gif"})
			}
			return page(nil, nil)
		},
		// Seed 7's budget is 12 steps: two fetched pages, ten answered by
		// the cache; a second of think time before each after the first.
		want: append([]string{"page /a 0s", "image /i.gif 0s", "pause 1s", "page /b 0s", "image /j.gif 0s"},
			strings.Split(strings.Repeat("pause 1s,", 10), ",")[:10]...),
	}, {
		name: "a failed page ends the sequence",
		site: func(string, int) (int, string, []string, []string) { return 404, "", nil, nil },
		want: []string{"page /a 0s"}, failures: 1,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWalker(7, Entries{Sites: [][]Ref{refs([]string{"/a"})}})
			w.Think = time.Second
			sends, failures := walkOnce(t, w, tc.site)
			if !reflect.DeepEqual(sends, tc.want) || failures != tc.failures {
				t.Fatalf("moves %q, %d failures\nwant %q, %d failures", sends, failures, tc.want, tc.failures)
			}
		})
	}
}

// TestWalkerImageWindow: at most four images are in flight, and the next
// step waits for the last of them.
func TestWalkerImageWindow(t *testing.T) {
	w := NewWalker(7, Entries{Sites: [][]Ref{refs([]string{"/a"})}})
	req, step := w.Next()
	if step != Send || req.Image {
		t.Fatalf("first move %v %+v, want the entry page", step, req)
	}
	w.OnReply(req, 200, Ref{}, refs([]string{"/a"}), refs([]string{"/1", "/2", "/3", "/4", "/5", "/6"}))
	var inFlight []Request
	sendAll := func() {
		for {
			r, step := w.Next()
			if step != Send {
				if step != Wait {
					t.Fatalf("move %v with images in flight", step)
				}
				return
			}
			if !r.Image {
				t.Fatalf("page %s sent while images are in flight", r.Ref.Name)
			}
			inFlight = append(inFlight, r)
		}
	}
	sendAll()
	if len(inFlight) != 4 {
		t.Fatalf("%d images in flight, want 4", len(inFlight))
	}
	// Any helper may finish first; each answer frees one slot for the
	// next queued image.
	for _, want := range []int{4, 4, 3, 2, 1} {
		last := inFlight[len(inFlight)-1]
		inFlight = inFlight[:len(inFlight)-1]
		w.OnReply(last, 200, Ref{}, nil, nil)
		sendAll()
		if len(inFlight) != want {
			t.Fatalf("%d images in flight, want %d", len(inFlight), want)
		}
	}
	// The last answer ends the step; the page's only link is itself,
	// cached, so the cache answers every remaining step.
	w.OnReply(inFlight[0], 200, Ref{}, nil, nil)
	if _, step := w.Next(); step != End {
		t.Fatalf("after the last image: %v, want End", step)
	}
}

// TestWalkerDrawsBudgetThenEntry pins the draw order the simulator's
// figures were recorded with: the step budget, then the entry point.
func TestWalkerDrawsBudgetThenEntry(t *testing.T) {
	names := []string{"/e0", "/e1", "/e2", "/e3", "/e4"}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rng.Intn(maxSteps)
		want := names[rng.Intn(len(names))]
		req, _ := NewWalker(seed, Entries{Sites: [][]Ref{refs(names)}}).Next()
		if req.Ref.Name != want {
			t.Fatalf("seed %d starts at %s, want %s", seed, req.Ref.Name, want)
		}
	}
}
