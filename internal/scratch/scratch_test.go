package scratch

import "testing"

func TestForReusesCapacity(t *testing.T) {
	buf := make([]float64, 8)
	buf[3] = 7
	got := For(buf, 4)
	if len(got) != 4 || cap(got) != 8 {
		t.Fatalf("len=%d cap=%d, want 4/8", len(got), cap(got))
	}
	if got[3] != 7 {
		t.Fatal("For must not clear contents")
	}
	grown := For(buf, 16)
	if len(grown) != 16 {
		t.Fatalf("len=%d, want 16", len(grown))
	}
}

func TestZeroedClears(t *testing.T) {
	buf := []int{1, 2, 3, 4}
	got := Zeroed(buf, 3)
	for i, v := range got {
		if v != 0 {
			t.Fatalf("got[%d] = %d, want 0", i, v)
		}
	}
	if len(Zeroed[bool](nil, 5)) != 5 {
		t.Fatal("Zeroed(nil, 5) must allocate")
	}
}

func TestGrowKeepsContents(t *testing.T) {
	buf := make([]int, 3, 4)
	copy(buf, []int{1, 2, 3})
	same := Grow(buf, 1)
	if &same[0] != &buf[0] || len(same) != 3 {
		t.Fatal("Grow reallocated a buffer with room to spare")
	}
	grown := Grow(buf, 5)
	if len(grown) != 3 || cap(grown) < 8 {
		t.Fatalf("len=%d cap=%d, want 3 and room for 5 more", len(grown), cap(grown))
	}
	for i, v := range []int{1, 2, 3} {
		if grown[i] != v {
			t.Fatalf("grown[%d] = %d, want %d", i, grown[i], v)
		}
	}
	if got := Grow[int](nil, 0); got != nil {
		t.Fatalf("Grow(nil, 0) = %v, want nil", got)
	}
}

// TestGrowIsGeometric pins the reason Grow exists: n single-element
// appends behind it reallocate O(log n) times, where an exact-length
// regrowth would reallocate on every call.
func TestGrowIsGeometric(t *testing.T) {
	const n = 1 << 16
	var buf []int32
	reallocs := 0
	for i := 0; i < n; i++ {
		before := cap(buf)
		buf = Grow(buf, 1)
		if cap(buf) != before {
			reallocs++
			if before > 0 && cap(buf) < 2*before {
				t.Fatalf("grew cap %d to %d, want at least double", before, cap(buf))
			}
		}
		buf = append(buf, int32(i))
	}
	for i, v := range buf {
		if v != int32(i) {
			t.Fatalf("buf[%d] = %d after %d grows", i, v, n)
		}
	}
	if reallocs > 17 { // log2(n) + the first allocation
		t.Fatalf("%d reallocations over %d grows, want at most 17", reallocs, n)
	}
}
