// Package scratch holds the slice-reuse idioms every hot-path package
// shares: grow a caller-owned buffer to the requested length,
// reallocating only when the capacity no longer fits. Centralizing them
// keeps the zeroing contract explicit — For hands back unspecified
// contents for buffers the caller overwrites entirely, Zeroed clears
// every element for buffers that accumulate — so call sites cannot
// silently inherit stale data by picking a divergent local helper. Grow
// serves the third shape, buffers filled by append: it reserves room
// before an append loop and at least doubles the capacity when it has
// to reallocate, so a buffer that creeps up across calls reallocates a
// logarithmic number of times rather than once per small increase.
//
// The package owns nothing but the three generic helpers; it imports
// nothing. Its consumers are the allocation-free hot paths: internal/lp
// (tableau arena, standard-form scratch), internal/core (slot scratch)
// and internal/baseline (LP model build buffers).
package scratch

// For returns buf resized to n, reallocating only on growth. Contents
// are unspecified: callers must overwrite every element they read.
func For[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Zeroed returns buf resized to n with every element set to the zero
// value.
func Zeroed[T any](buf []T, n int) []T {
	buf = For(buf, n)
	var zero T
	for i := range buf {
		buf[i] = zero
	}
	return buf
}

// Grow returns buf with room for at least extra more elements, keeping
// its length and contents. It reallocates only when the capacity no
// longer fits, and then to at least twice the old capacity, so n
// single-element grows reallocate O(log n) times.
func Grow[T any](buf []T, extra int) []T {
	need := len(buf) + extra
	if need <= cap(buf) {
		return buf
	}
	grown := make([]T, len(buf), max(need, 2*cap(buf)))
	copy(grown, buf)
	return grown
}
