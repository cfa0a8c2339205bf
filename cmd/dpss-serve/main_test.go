package main

import (
	"strings"
	"testing"
)

func TestRunRejectsUnknownPolicy(t *testing.T) {
	err := run([]string{"-oneshot", "-days", "1", "-policy", "nonsense"})
	if err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("run accepted an unknown policy: %v", err)
	}
}

func TestRunOneshotLyapunov(t *testing.T) {
	if err := run([]string{"-oneshot", "-days", "2", "-policy", "lyapunov"}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}
