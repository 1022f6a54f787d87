package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"tps"
	"tps/internal/fabric"
	"tps/internal/telemetry"
)

// lockedBuffer is an io.Writer safe for the recorder's concurrent emits.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// TestRunLeaseEventsCarrySchemeLabel: a worker's lifecycle events label
// the cell exactly as figures -events does — the registry label in the
// setup field, the registry name in the scheme field — so tpsreport never
// lists one cell under two spellings when it merges local and worker logs.
func TestRunLeaseEventsCarrySchemeLabel(t *testing.T) {
	spec := fabric.CellSpec{Workload: "gcc", Scheme: "tps", Refs: 1000, Seed: 1}
	key, err := tps.SpecKey(spec)
	if err != nil {
		t.Fatal(err)
	}
	coord := fabric.New(fabric.Config{})
	coord.Add(key, spec)
	srv := httptest.NewServer(coord.Handler())
	defer srv.Close()

	var log lockedBuffer
	rec := telemetry.New()
	rec.ConfigureWorkers(1)
	rec.LogTo(telemetry.NewEventLog(&log))
	w := &worker{client: &fabric.Client{Base: srv.URL, Worker: "test"}, rec: rec}

	ctx := context.Background()
	lease, _, _, err := w.client.Lease(ctx)
	if err != nil || lease == nil {
		t.Fatalf("no lease granted: %v", err)
	}
	w.runLease(ctx, 0, lease)
	if !coord.Done() {
		t.Fatal("cell did not complete")
	}

	log.mu.Lock()
	evs, err := telemetry.ReadEvents(bytes.NewReader(log.buf.Bytes()))
	log.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("worker emitted no events")
	}
	for _, ev := range evs {
		if ev.Setup != "TPS" || ev.Scheme != "tps" {
			t.Errorf("%s event labels the cell setup=%q scheme=%q, want TPS/tps", ev.Event, ev.Setup, ev.Scheme)
		}
	}
}
