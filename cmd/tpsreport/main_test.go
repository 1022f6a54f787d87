package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	defer func() { os.Stdout = orig }()
	fn()
	w.Close()
	return string(<-done)
}

// TestTimelineLegacyTrace feeds the timeline a trace written by an older
// worker, which parented spans of a since-retired kind under its
// attempts. Strict parsing must accept the file, the unknown kind must be
// ignored, and the critical path must end at the attempt.
func TestTimelineLegacyTrace(t *testing.T) {
	spans, code := loadSpans("testdata/legacy_trace.jsonl", true)
	if code != 0 {
		t.Fatalf("loadSpans exit code %d", code)
	}
	if len(spans) != 9 {
		t.Fatalf("parsed %d spans, want 9", len(spans))
	}
	out := captureStdout(t, func() { renderTimeline(spans) })

	_, after, ok := strings.Cut(out, "Critical path:\n")
	if !ok {
		t.Fatalf("no critical path section:\n%s", out)
	}
	section, _, _ := strings.Cut(after, "\n\n")
	want := strings.Join([]string{
		"  run      figures -schemes                   12s",
		"  cell     mcf/tps                            10s  +1s completed",
		"  attempt  on w2                               8s  +2s gen 1",
	}, "\n")
	if section != want {
		t.Errorf("critical path:\n%s\nwant:\n%s", section, want)
	}
	if !strings.Contains(out, "Straggler attribution:") {
		t.Errorf("no straggler section:\n%s", out)
	}
}
