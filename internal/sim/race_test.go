//go:build race

package sim_test

// raceEnabled reports a -race build. The race runtime drops a quarter of
// sync.Pool puts on purpose, so encoding/json's pooled encode state — and
// with it any allocation count through the encoder — is not
// deterministic there.
const raceEnabled = true
