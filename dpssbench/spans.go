package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one run share Run; ID
// indexes the span within its run and Parent names the span that made
// the call (-1 for the run's root). Times are nanoseconds since the
// recorder started.
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxLayerSamples bounds the per-name duration samples a traced run
// keeps for percentiles.
const maxLayerSamples = 1 << 18

// keptRunsPerRoot is how many runs of each root name keep their full
// span list for the span file; later runs keep only the aggregates.
const keptRunsPerRoot = 1

// recorder keeps spans in memory. A run's spans are reduced to per-name
// durations when the run finishes; the first runs of each root name are
// also kept whole and written out when the benchmark ends. A nil
// recorder records nothing, so untraced code paths call the same
// methods.
type recorder struct {
	epoch time.Time

	mu       sync.Mutex
	nextRun  int
	durs     map[string][]float64 // span name → durations in seconds, first maxLayerSamples
	kept     []span
	keptRuns map[string]int
	explain  map[string][]float64 // root name → children's self share per run
}

func newRecorder() *recorder {
	return &recorder{
		epoch:    time.Now(),
		durs:     make(map[string][]float64),
		keptRuns: make(map[string]int),
		explain:  make(map[string][]float64),
	}
}

// tree is one run's spans: a root and the calls made under it. Spans
// may be added from several goroutines at once.
type tree struct {
	rec   *recorder
	run   int
	mu    sync.Mutex
	spans []span
}

// begin opens a run whose root span starts now.
func (r *recorder) begin(root string) *tree {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	run := r.nextRun
	r.nextRun++
	r.mu.Unlock()
	t := &tree{rec: r, run: run}
	t.spans = append(t.spans, span{Name: root, Run: run, Parent: -1, Start: r.since(time.Now())})
	return t
}

func (r *recorder) since(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// start opens a span under parent and returns its id (-1 on a nil tree).
func (t *tree) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, time.Now(), time.Time{})
}

// stop closes the span opened by start.
func (t *tree) stop(id int) {
	if t == nil {
		return
	}
	end := t.rec.since(time.Now())
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span with known bounds; a zero end leaves it open.
func (t *tree) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	s := span{Name: name, Run: t.run, Parent: parent, Start: t.rec.since(start)}
	if !end.IsZero() {
		s.End = t.rec.since(end)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	return s.ID
}

// finish closes the root, reduces the run to per-name durations and the
// share of the root its descendants' self times explain, and returns the
// root's duration.
func (r *recorder) finish(t *tree) time.Duration {
	if r == nil || t == nil {
		return 0
	}
	t.stop(0)
	t.mu.Lock()
	spans := t.spans
	t.spans = nil
	t.mu.Unlock()

	self := selfTimes(spans)
	root := spans[0]
	rootDur := float64(root.End-root.Start) / 1e9
	explained := 0.0
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range spans {
		if d := r.durs[s.Name]; len(d) < maxLayerSamples {
			r.durs[s.Name] = append(d, float64(s.End-s.Start)/1e9)
		}
		if i > 0 {
			explained += self[i] / 1e9
		}
	}
	if rootDur > 0 {
		r.explain[root.Name] = append(r.explain[root.Name], explained/rootDur)
	}
	if r.keptRuns[root.Name] < keptRunsPerRoot {
		r.keptRuns[root.Name]++
		r.kept = append(r.kept, spans...)
	}
	return time.Duration(root.End - root.Start)
}

// durations returns the recorded durations (seconds) of spans named name.
func (r *recorder) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.durs[name]...)
}

// explained returns, per finished run of the named root, the share of
// the root's length covered by its descendants' self times.
func (r *recorder) explained(root string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.explain[root]...)
}

// write stores the kept spans as JSON in path.
func (r *recorder) write(path string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	data, err := json.Marshal(r.kept)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in nanoseconds: its length
// minus the part of it covered by its children. Where sibling spans run
// concurrently, the wall time they overlap is shared equally between
// them, so the self times of a run whose spans all lie inside the root
// add up to the root's length. spans[i].ID must be i and parents must
// precede their children; a child outside its parent counts as a root.
func selfTimes(spans []span) []float64 {
	type event struct {
		t     int64
		start bool
		id    int
	}
	events := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		if s.End > s.Start { // an empty span has no self time
			events = append(events, event{s.Start, true, i}, event{s.End, false, i})
		}
	}
	sort.Slice(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		if ea.t != eb.t {
			return ea.t < eb.t
		}
		if ea.start != eb.start {
			return !ea.start // ends first
		}
		if ea.start {
			return ea.id < eb.id // parents open before their children
		}
		return ea.id > eb.id // children close before their parents
	})

	self := make([]float64, len(spans))
	active := make([]bool, len(spans))
	openChildren := make([]int, len(spans))
	var innermost []int // active spans with no active child
	remove := func(id int) {
		for k, v := range innermost {
			if v == id {
				innermost = append(innermost[:k], innermost[k+1:]...)
				return
			}
		}
	}
	prev := int64(0)
	for k, ev := range events {
		if k > 0 && ev.t > prev && len(innermost) > 0 {
			share := float64(ev.t-prev) / float64(len(innermost))
			for _, id := range innermost {
				self[id] += share
			}
		}
		prev = ev.t
		p := spans[ev.id].Parent
		parentActive := p >= 0 && active[p]
		if ev.start {
			active[ev.id] = true
			if parentActive {
				if openChildren[p] == 0 {
					remove(p)
				}
				openChildren[p]++
			}
			innermost = append(innermost, ev.id)
			continue
		}
		if !active[ev.id] {
			continue
		}
		active[ev.id] = false
		remove(ev.id)
		if parentActive {
			openChildren[p]--
			if openChildren[p] == 0 {
				innermost = append(innermost, p)
			}
		}
	}
	return self
}
