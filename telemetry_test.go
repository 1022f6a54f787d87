package tps

// Integration tests for the telemetry layer against a real figure run:
// the metrics endpoint must stay consistent while hammered concurrently
// with a sweep (this file runs under -race in CI), the event stream must
// account for every cell exactly once, and — the core contract — rendered
// figure output must be byte-identical with telemetry on, off, or
// attached to an events sink.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"sync"
	"testing"

	"tps/internal/telemetry"
)

// TestFig10GoldenWithTelemetry: rendering must not depend on whether the
// run is observed. Same figure, telemetry enabled with an events sink,
// compared against the same golden file as the unobserved run.
func TestFig10GoldenWithTelemetry(t *testing.T) {
	rec := telemetry.New()
	var buf bytes.Buffer
	rec.LogTo(telemetry.NewEventLog(&syncWriter{w: &buf}))
	r := NewRunner(FigureConfig{Refs: 20000, Seed: 42, Suite: goldenSuite(t), Parallelism: 2, Telemetry: rec})
	tbl, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/fig10_refs20000_seed42.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Render(); got != string(want) {
		t.Errorf("telemetry-on output diverged from golden\ngot:\n%s\nwant:\n%s", got, want)
	}

	// Every cell accounts exactly once: queued == finished, and every
	// finished event carries a counter snapshot with the run's ref count.
	evs, err := telemetry.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	perCell := map[string][]string{}
	for _, ev := range evs {
		perCell[ev.Cell] = append(perCell[ev.Cell], ev.Event)
	}
	if len(perCell) == 0 {
		t.Fatal("no cells in event stream")
	}
	for cell, stream := range perCell {
		if stream[0] != telemetry.EventQueued {
			t.Errorf("cell %.12s stream starts with %q, want queued", cell, stream[0])
		}
		// Later callers may dedup-join a flight even after it settled, so
		// the invariant is exactly one finished per cell — not last place.
		finished := 0
		for _, e := range stream {
			if e == telemetry.EventFinished {
				finished++
			}
		}
		if finished != 1 {
			t.Errorf("cell %.12s finished %d times (stream %v)", cell, finished, stream)
		}
	}
	for _, ev := range evs {
		if ev.Event == telemetry.EventFinished {
			if ev.Counters == nil || ev.Counters.Refs == 0 {
				t.Errorf("finished event for %.12s missing counters: %+v", ev.Cell, ev)
			}
		}
	}

	s := rec.Snapshot()
	if s.CellsDone != uint64(len(perCell)) || s.CellsFailed != 0 {
		t.Errorf("snapshot done=%d failed=%d, want done=%d failed=0", s.CellsDone, s.CellsFailed, len(perCell))
	}
	if s.RefsTotal == 0 {
		t.Error("per-worker refs counters never advanced")
	}
}

// syncWriter makes bytes.Buffer safe for the EventLog's concurrent Emits.
type syncWriter struct {
	mu sync.Mutex
	w  *bytes.Buffer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestMetricsEndpointUnderLoad hammers the live metrics handler with
// concurrent readers while a figure computes, asserting every response is
// a valid, internally consistent snapshot. Run under -race this is the
// torn-read detector for the whole recorder.
func TestMetricsEndpointUnderLoad(t *testing.T) {
	rec := telemetry.New()
	srv := httptest.NewServer(telemetry.Handler(rec))
	defer srv.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				resp, err := srv.Client().Get(srv.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				var s telemetry.Snapshot
				err = json.NewDecoder(resp.Body).Decode(&s)
				resp.Body.Close()
				if err != nil {
					t.Errorf("bad snapshot JSON: %v", err)
					return
				}
				if s.CellsDone+s.CellsFailed > s.CellsQueued {
					t.Errorf("settled %d exceeds queued %d", s.CellsDone+s.CellsFailed, s.CellsQueued)
					return
				}
				for _, w := range s.Workers {
					if w.ElapsedS < 0 {
						t.Errorf("worker %d negative elapsed %v", w.ID, w.ElapsedS)
						return
					}
				}
			}
		}()
	}

	r := NewRunner(FigureConfig{Refs: 20000, Seed: 42, Suite: goldenSuite(t), Parallelism: 2, Telemetry: rec})
	if _, err := r.Fig10(); err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()

	s := rec.Snapshot()
	if s.CellsDone == 0 {
		t.Error("run finished with zero done cells in snapshot")
	}
}
