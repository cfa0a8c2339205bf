package main

import (
	"io"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		want    map[string]Result
		wantErr bool
	}{
		{
			name: "suffix stripped, sub-benchmarks kept",
			in: "goos: linux\n" +
				"BenchmarkGeoLP-2   \t       5\t 569819212 ns/op\t 8330468 B/op\t     581 allocs/op\n" +
				"BenchmarkGeoStep/sites=4-8 20 966030.5 ns/op 156432 B/op 206 allocs/op\n" +
				"PASS\n",
			want: map[string]Result{
				"BenchmarkGeoLP":           {NsPerOp: 569819212, BytesPerOp: 8330468, AllocsPerOp: 581},
				"BenchmarkGeoStep/sites=4": {NsPerOp: 966030.5, BytesPerOp: 156432, AllocsPerOp: 206},
			},
		},
		{
			name: "no GOMAXPROCS suffix",
			in:   "BenchmarkTuneEvaluate 20 100 ns/op 8 B/op 1 allocs/op\n",
			want: map[string]Result{"BenchmarkTuneEvaluate": {NsPerOp: 100, BytesPerOp: 8, AllocsPerOp: 1}},
		},
		{
			name:    "lines without -benchmem are not results",
			in:      "BenchmarkGeoLP-2 5 569819212 ns/op\nok pkg 3.1s\n",
			wantErr: true,
		},
		{name: "empty input", in: "", wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var echo strings.Builder
			got, err := parse(strings.NewReader(c.in), &echo)
			if echo.String() != c.in {
				t.Errorf("echo = %q, want the input passed through", echo.String())
			}
			if (err != nil) != c.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, c.wantErr)
			}
			if len(got) != len(c.want) {
				t.Fatalf("got %d results %v, want %d", len(got), got, len(c.want))
			}
			for name, w := range c.want {
				if got[name] != w {
					t.Errorf("%s = %+v, want %+v", name, got[name], w)
				}
			}
		})
	}
}

// allocResults returns a run with every alloc-gated benchmark at n
// allocs/op.
func allocResults(n int64) map[string]Result {
	out := make(map[string]Result, len(gated))
	for name := range gated {
		out[name] = Result{NsPerOp: 1, AllocsPerOp: n}
	}
	return out
}

func TestGateAllocs(t *testing.T) {
	committed := &File{Current: &Block{Benchmarks: allocResults(100)}}
	cases := []struct {
		name    string
		fresh   map[string]Result
		file    *File
		wantErr string
	}{
		{name: "at the committed count", fresh: allocResults(100), file: committed},
		{name: "within the headroom", fresh: allocResults(112), file: committed},
		{name: "regressed", fresh: allocResults(113), file: committed, wantErr: "allocations regressed"},
		{
			name: "gated benchmark missing",
			fresh: func() map[string]Result {
				r := allocResults(100)
				delete(r, "BenchmarkGeoLP")
				return r
			}(),
			file:    committed,
			wantErr: "BenchmarkGeoLP missing",
		},
		{
			// A gate without its committed reference fails rather
			// than passing unchecked.
			name:  "untracked in the committed file",
			fresh: allocResults(100),
			file: &File{Current: &Block{Benchmarks: func() map[string]Result {
				r := allocResults(100)
				delete(r, "BenchmarkSessionSnapshot")
				return r
			}()}},
			wantErr: "BenchmarkSessionSnapshot missing from the committed file",
		},
		{
			name:    "empty committed file",
			fresh:   allocResults(100),
			file:    &File{Current: &Block{Benchmarks: map[string]Result{}}},
			wantErr: "missing from the committed file",
		},
		{name: "no current block", fresh: allocResults(100), file: &File{}, wantErr: "no current block"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkErr(t, gate(c.fresh, c.file, io.Discard), c.wantErr)
		})
	}
}

func TestGateWall(t *testing.T) {
	const annual = "BenchmarkAblationOfflineAnnualLP"
	cases := []struct {
		name    string
		fresh   map[string]Result
		wantErr string
	}{
		{name: "within budget", fresh: map[string]Result{annual: {NsPerOp: 10e9}}},
		{name: "over budget", fresh: map[string]Result{annual: {NsPerOp: 21e9}}, wantErr: "exceeds"},
		{name: "missing", fresh: map[string]Result{"BenchmarkGeoLP": {NsPerOp: 1}}, wantErr: "missing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkErr(t, gateWall(c.fresh, io.Discard), c.wantErr)
		})
	}
}

func checkErr(t *testing.T, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Fatalf("unexpected error: %v", err)
	case want != "" && err == nil:
		t.Fatalf("passed, want an error containing %q", want)
	case want != "" && !strings.Contains(err.Error(), want):
		t.Fatalf("error %q, want it to contain %q", err, want)
	}
}
